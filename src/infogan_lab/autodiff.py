"""Tape-based reverse-mode automatic differentiation over dense float64 arrays.

The operation catalogue is fixed and small: 12 ops, each run by training or
evaluation. A dense layer is one ``linear`` op (``x @ w + b``), and
loss terms are fused into single ops (``softplus``, ``clip``, ``scale`` with
its constant as an attribute, ``gaussian_log_q``, ``categorical_log_q`` with
its category indices as an attribute) rather than assembled from elementwise
pieces. Each op is one ``_OPS`` entry pairing a forward rule with a
closure-free backward rule, so every rule can be audited and
gradient-checked on its own, and adding or removing an op is a single edit.
A backward rule is ``backward(g, node, need)``: ``need`` holds one bool per
input, true where a ``wrt`` tensor of the sweep feeds that input, and the
rule computes only those input gradients (``None`` for the rest).

Usage:

    with Tape() as tape:
        y = reduce_mean(scale(w, 2.0))
        (g,) = tape.backward(y, [w])   # dy/dw as an ndarray
        h = linear(x, w, b)
        (gw,) = tape.backward(h, [w], v)   # vector-Jacobian product v^T dh/dw
    # the tape is closed here: its nodes are freed and backward raises

A root that is not scalar needs a cotangent ``v`` of its shape: the sweep
then returns the gradient of ``sum(v * root)``, one reverse pass for one
weighting of the output. ``grad_check`` uses this to check an op's rule
against finite differences of that weighted sum, read outside the tape.

Outside a ``Tape`` context the same functions run as plain numpy and record
nothing, which is the fast path used for evaluation and finite differences:
an op call there costs its numpy work plus one rule lookup. Every forward
rule returns a fresh C-contiguous float64 array, so ``forward_op`` wraps it
as returned instead of re-validating it, and shape-check messages are only
formatted when a check fails.
"""

from __future__ import annotations

import math
from types import MappingProxyType

import numpy as np
from scipy.special import expit

__all__ = [
    "Tensor",
    "Tape",
    "BatchNormState",
    "ShapeError",
    "DomainError",
    "UsageError",
    "forward_op",
    "grad_check",
    "OP_CATALOGUE",
    "const",
    "linear",
    "add",
    "scale",
    "relu",
    "lrelu",
    "clip",
    "sigmoid",
    "softplus",
    "categorical_log_q",
    "gaussian_log_q",
    "reduce_mean",
    "batchnorm",
]


class ShapeError(ValueError):
    """Input shapes do not conform to an op's shape rule."""


class DomainError(ValueError):
    """An op was evaluated outside its numeric domain.

    gaussian_log_q's exp(-2*log_sigma) overflows, an lrelu rate lies outside
    (0, 1), or a categorical_log_q index lies outside [0, K).
    """


class UsageError(RuntimeError):
    """The engine was driven incorrectly (bad root, unknown op, ...)."""


def _as_array(values) -> np.ndarray:
    # note: not ascontiguousarray, which would promote 0-d scalars to 1-d
    arr = np.asarray(values, dtype=np.float64, order="C")
    return arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)


class Tensor:
    """Dense float64 array plus the id of its node on the recording tape.

    ``node`` is None unless the tensor has been touched by an op while a
    tape was active.
    """

    __slots__ = ("data", "node", "_tape")

    def __init__(self, values):
        self.data = _as_array(values)
        self.node: int | None = None
        self._tape = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __float__(self) -> float:
        if self.data.size != 1:
            raise TypeError(f"only size-1 tensors convert to float, got shape {self.shape}")
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, node={self.node})"


def const(values) -> Tensor:
    """Tensor from array-like; alias documenting 'this carries no gradient of interest'."""
    return Tensor(values)


class BatchNormState:
    """Running moments for one batchnorm layer (eval mode reads these).

    Train mode normalizes with batch statistics and folds them into the
    running averages with the given momentum: r <- m*r + (1-m)*batch.
    """

    def __init__(self, num_features: int, momentum: float = 0.9, eps: float = 1e-5):
        self.num_features = int(num_features)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.running_mean = np.zeros(self.num_features)
        self.running_var = np.ones(self.num_features)

    def update(self, batch_mean: np.ndarray, batch_var: np.ndarray) -> None:
        m = self.momentum
        self.running_mean = m * self.running_mean + (1.0 - m) * batch_mean
        self.running_var = m * self.running_var + (1.0 - m) * batch_var


class TapeNode:
    __slots__ = ("op", "input_ids", "input_values", "value", "attrs")

    def __init__(self, op, input_ids, input_values, value, attrs):
        self.op = op
        self.input_ids = input_ids
        self.input_values = input_values
        self.value = value
        self.attrs = attrs


_ACTIVE_TAPE: "Tape | None" = None


class Tape:
    """Ordered record of executed ops; supports repeated backward passes.

    Nodes are stored in execution order, so every node's inputs precede it
    and a single reverse sweep implements the chain rule. ``backward`` may
    be called several times with different roots, cotangents and ``wrt`` lists
    on the same tape; each call returns fresh gradients and stores nothing.

    A tape records once: leaving its ``with`` block closes it and drops its
    nodes, so tensors that still point at it (the model's parameters) do not
    keep the step's activations alive. ``nodes`` is None once closed.
    """

    def __init__(self):
        self.nodes: list[TapeNode] | None = []
        self._prev = None

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if self.nodes is None:
            raise UsageError("Tape: this tape is closed; record on a new Tape")
        self._prev = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._prev
        self._prev = None
        self.nodes = None
        return False

    def _register(self, tensor: Tensor) -> int:
        if tensor._tape is self and tensor.node is not None:
            return tensor.node
        nid = len(self.nodes)
        self.nodes.append(TapeNode("leaf", (), (), tensor.data, None))
        tensor.node = nid
        tensor._tape = self
        return nid

    def record(self, op: str, inputs: list[Tensor], arrs: list[np.ndarray], attrs, out: Tensor) -> None:
        input_ids = tuple(self._register(t) for t in inputs)
        nid = len(self.nodes)
        self.nodes.append(TapeNode(op, input_ids, arrs, out.data, attrs))
        out.node = nid
        out._tape = self

    def backward(self, root: Tensor, wrt: list[Tensor], cotangent=None) -> list[np.ndarray]:
        """Gradients of ``root`` with respect to each tensor of ``wrt``, in order.

        Without a ``cotangent`` the root must be scalar and the result is its
        gradient. With one, the cotangent must have the root's shape, and the
        result is the vector-Jacobian product: the gradient of
        ``sum(cotangent * root)``. The sweep starts from a float64 copy of
        it, so the caller's array is never aliased by a returned gradient.

        Only nodes that depend on a ``wrt`` tensor are differentiated, and
        each rule is told which of its inputs do (``need``), so it computes
        only those input gradients. A ``wrt`` tensor not recorded on this
        tape, or on no path to the root, gets zeros of its shape. Gradients
        accumulate over fan-out.
        """
        if self.nodes is None:
            raise UsageError("backward: the tape is closed (its with block has exited)")
        if root._tape is not self or root.node is None:
            raise UsageError("backward: root tensor was not recorded on this tape")
        if cotangent is None:
            if root.data.size != 1:
                raise UsageError(f"backward: root must be scalar, got shape {root.shape}")
            seed = np.ones_like(root.data)
        else:
            seed = np.array(cotangent, dtype=np.float64)
            if seed.shape != root.shape:
                raise UsageError(f"backward: cotangent shape {seed.shape} does not match root shape {root.shape}")
        # forward pass: mark every node that a wrt tensor feeds
        live = {t.node for t in wrt if t._tape is self}
        for nid in range(root.node + 1):
            if not live.isdisjoint(self.nodes[nid].input_ids):
                live.add(nid)
        grads: dict[int, np.ndarray] = {}
        if root.node in live:
            grads[root.node] = seed
        for nid in range(root.node, -1, -1):
            g = grads.get(nid)
            if g is None:
                continue
            node = self.nodes[nid]
            if node.op == "leaf":
                continue
            need = tuple(iid in live for iid in node.input_ids)
            input_grads = _OPS[node.op][1](g, node, need)
            for iid, needed, gi in zip(node.input_ids, need, input_grads):
                if not needed:
                    continue
                acc = grads.get(iid)
                grads[iid] = gi if acc is None else acc + gi
        return [
            grads[t.node] if t._tape is self and t.node in grads else np.zeros_like(t.data)
            for t in wrt
        ]


# ---------------------------------------------------------------------------
# op rules: forward(arrays, attrs) -> a fresh C-contiguous float64 array
# (forward_op wraps it as returned); backward(g, node, need) -> input
# grads, where need holds one bool per input (is that input live in the sweep)
# and a multi-input rule returns None for every input it is not asked for.
# add returns g itself for both inputs and ignores need; a single-input
# rule only runs when its input is live.
# ---------------------------------------------------------------------------

_LN_2PI = float(np.log(2.0 * np.pi))
_min_reduce, _max_reduce = np.minimum.reduce, np.maximum.reduce  # skip ndarray.min/max's Python wrappers


def _f_linear(arrs, attrs):
    x, w, b = arrs
    if not (x.ndim == 2 and w.ndim == 2 and x.shape[1] == w.shape[0] and b.shape == (w.shape[1],)):
        raise ShapeError(f"linear: needs (B,I) @ (I,O) + (O,), got {x.shape} @ {w.shape} + {b.shape}")
    return x @ w + b


def _b_linear(g, node, need):
    x, w, _ = node.input_values
    return [
        g @ w.T if need[0] else None,
        x.T @ g if need[1] else None,
        g.sum(axis=0) if need[2] else None,
    ]


def _f_add(arrs, attrs):
    a, b = arrs
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes must match, got {a.shape} + {b.shape}")
    return a + b


def _b_add(g, node, need):
    return [g, g]


def _f_scale(arrs, attrs):
    return arrs[0] * attrs["c"]


def _b_scale(g, node, need):
    return [g * node.attrs["c"]]


def _f_relu(arrs, attrs):
    return np.maximum(arrs[0], 0.0)


def _b_relu(g, node, need):
    return [g * (node.input_values[0] > 0.0)]


# For 0 < rate < 1 both lrelu rules are bitwise-equal to the np.where forms
# (x if x > 0 else rate*x, and 1 or rate), also at +-0, +-inf and NaN; at
# rate 0, max(inf, 0*inf) would be NaN, hence the guard.
def _f_lrelu(arrs, attrs):
    x = arrs[0]
    rate = attrs["rate"]
    if not 0.0 < rate < 1.0:
        raise DomainError(f"lrelu: rate must lie in (0, 1), got {rate!r}")
    return np.maximum(x, rate * x)


def _b_lrelu(g, node, need):
    return [g * np.maximum(node.input_values[0] > 0.0, node.attrs["rate"])]


def _f_clip(arrs, attrs):
    return np.clip(arrs[0], attrs["lo"], attrs["hi"])


def _b_clip(g, node, need):
    x = node.input_values[0]
    return [g * ((x > node.attrs["lo"]) & (x < node.attrs["hi"]))]


def _f_sigmoid(arrs, attrs):
    return expit(arrs[0])


def _b_sigmoid(g, node, need):
    y = node.value
    return [g * y * (1.0 - y)]


def _f_softplus(arrs, attrs):
    # log(1 + exp(x)) without overflow: finite for logits of either sign
    return np.logaddexp(0.0, arrs[0])


def _b_softplus(g, node, need):
    return [g * expit(node.input_values[0])]


def _shifted_logsumexp(x):
    # max-shifted rows and their log-sum-exp: never -inf for sane logits
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted, np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _f_categorical_log_q(arrs, attrs):
    # log-softmax of each row of logits at that row's index, shape (B,1)
    logits = arrs[0]
    index = attrs["index"]
    if not (logits.ndim == 2 and index.shape == (logits.shape[0],) and index.dtype.kind in "iu"):
        raise ShapeError(
            f"categorical_log_q: needs (B,K) logits and B integer indices, got {logits.shape} and {index.dtype} {index.shape}"
        )
    # a negative index wraps to a huge unsigned value, so one max checks both ends
    if index.size and _max_reduce(index.astype(np.uint64, copy=False)) >= logits.shape[1]:
        raise DomainError(f"categorical_log_q: index outside [0, {logits.shape[1]}) (min {index.min()}, max {index.max()})")
    shifted, lse = _shifted_logsumexp(logits)
    return shifted[np.arange(len(index)), index][:, None] - lse


def _b_categorical_log_q(g, node, need):
    logits = node.input_values[0]
    index = node.attrs["index"]
    shifted, lse = _shifted_logsumexp(logits)
    # d log p[index] / d logits = onehot(index) - softmax(logits), per row
    picked = np.zeros_like(logits)
    picked[np.arange(len(index)), index] = g[:, 0]
    return [picked - np.exp(shifted - lse) * g]


def _gaussian_inv_var(log_sigma):
    # exp(-2*x) is finite for every x >= -354 (708 < log of the largest double),
    # so only a smaller minimum, or a NaN (which fails the comparison), can fail
    if not _min_reduce(log_sigma, axis=None, initial=np.inf) >= -354.0:
        with np.errstate(over="ignore"):
            inv_var = np.exp(-2.0 * log_sigma)
        if not np.all(np.isfinite(inv_var)):
            raise DomainError(f"gaussian_log_q: exp(-2*log_sigma) overflow (min log_sigma {log_sigma.min():g})")
        return inv_var
    return np.exp(-2.0 * log_sigma)


def _f_gaussian_log_q(arrs, attrs):
    # per-row sum over dims of log N(c; mu, exp(log_sigma)^2), shape (B,1)
    c, mu, log_sigma = arrs
    if not (c.ndim == 2 and c.shape == mu.shape == log_sigma.shape):
        raise ShapeError(
            f"gaussian_log_q: c, mu and log_sigma must share one (B,D) shape, got {c.shape}, {mu.shape} and {log_sigma.shape}"
        )
    diff = c - mu
    elem = -0.5 * _LN_2PI - log_sigma - 0.5 * (diff * diff) * _gaussian_inv_var(log_sigma)
    return elem.sum(axis=1, keepdims=True)


def _b_gaussian_log_q(g, node, need):
    c, mu, log_sigma = node.input_values
    diff = c - mu
    scaled = diff * _gaussian_inv_var(log_sigma)
    return [
        -g * scaled if need[0] else None,
        g * scaled if need[1] else None,
        g * (diff * scaled - 1.0) if need[2] else None,
    ]


# np.add.reduce is what ndarray.sum and ndarray.mean run for float64, so
# these are bitwise-equal to them without the methods' Python wrappers.
def _f_reduce_mean(arrs, attrs):
    x = arrs[0]
    return np.asarray(np.add.reduce(x, axis=None) / x.size)


def _b_reduce_mean(g, node, need):
    x = node.input_values[0]
    return [np.full(x.shape, float(g) / x.size)]


def _batch_moments(x, eps):
    mean = x.mean(axis=0)
    var = x.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + eps)
    return mean, var, inv_std


def _f_batchnorm(arrs, attrs):
    x, gamma, beta = arrs
    state: BatchNormState = attrs["state"]
    training: bool = attrs["training"]
    if x.ndim != 2:
        raise ShapeError(f"batchnorm: needs (B,F) input, got {x.shape}")
    if not (gamma.shape == (x.shape[1],) and beta.shape == (x.shape[1],)):
        raise ShapeError(f"batchnorm: scale/shift must be ({x.shape[1]},), got {gamma.shape} and {beta.shape}")
    if training:
        mean, var, inv_std = _batch_moments(x, state.eps)
        state.update(mean, var)
    else:
        mean = state.running_mean
        inv_std = 1.0 / np.sqrt(state.running_var + state.eps)
    return gamma * ((x - mean) * inv_std) + beta


def _b_batchnorm(g, node, need):
    x, gamma, _ = node.input_values
    state: BatchNormState = node.attrs["state"]
    training: bool = node.attrs["training"]
    if training:
        mean, _, inv_std = _batch_moments(x, state.eps)
    else:
        mean = state.running_mean
        inv_std = 1.0 / np.sqrt(state.running_var + state.eps)
    centered = x - mean
    dx = None
    if need[0] and training:
        n = x.shape[0]
        dxhat = g * gamma
        dvar = (dxhat * centered).sum(axis=0) * (-0.5) * inv_std**3
        dmean = -(dxhat.sum(axis=0)) * inv_std + dvar * (-2.0) * centered.sum(axis=0) / n
        dx = dxhat * inv_std + dvar * 2.0 * centered / n + dmean / n
    elif need[0]:
        dx = g * gamma * inv_std
    return [
        dx,
        (g * (centered * inv_std)).sum(axis=0) if need[1] else None,
        g.sum(axis=0) if need[2] else None,
    ]


_OPS = {
    "linear": (_f_linear, _b_linear),
    "add": (_f_add, _b_add),
    "scale": (_f_scale, _b_scale),
    "relu": (_f_relu, _b_relu),
    "lrelu": (_f_lrelu, _b_lrelu),
    "clip": (_f_clip, _b_clip),
    "sigmoid": (_f_sigmoid, _b_sigmoid),
    "softplus": (_f_softplus, _b_softplus),
    "categorical_log_q": (_f_categorical_log_q, _b_categorical_log_q),
    "gaussian_log_q": (_f_gaussian_log_q, _b_gaussian_log_q),
    "reduce_mean": (_f_reduce_mean, _b_reduce_mean),
    "batchnorm": (_f_batchnorm, _b_batchnorm),
}

OP_CATALOGUE = tuple(sorted(_OPS))


_NO_ATTRS = MappingProxyType({})  # read-only, so every op called without attributes can share it
_new_tensor = object.__new__


def forward_op(name: str, inputs: list[Tensor], attrs: dict | None = None) -> Tensor:
    """Run one catalogue op; records a tape node when a tape is active."""
    rules = _OPS.get(name)
    if rules is None:
        raise UsageError(f"unknown op '{name}' (catalogue: {', '.join(OP_CATALOGUE)})")
    if attrs is None:
        attrs = _NO_ATTRS
    arrs = [t.data for t in inputs]
    # the rule's output is already a fresh C-contiguous float64 array: wrap it unchecked
    out = _new_tensor(Tensor)
    out.data = rules[0](arrs, attrs)
    out.node = None
    out._tape = None
    if _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE.record(name, inputs, arrs, attrs, out)
    return out


# thin call-site sugar over forward_op

def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a (B,I) batch, (I,O) weights and an (O,) bias: one tape node per layer."""
    return forward_op("linear", [x, w, b])


def add(a: Tensor, b: Tensor) -> Tensor:
    return forward_op("add", [a, b])


def scale(x: Tensor, c: float) -> Tensor:
    """x * c for a constant c held as an attribute (no constant tensor on the tape)."""
    return forward_op("scale", [x], {"c": float(c)})


def relu(x: Tensor) -> Tensor:
    return forward_op("relu", [x])


def lrelu(x: Tensor, rate: float = 0.1) -> Tensor:
    """max(x, rate*x) for a rate in (0, 1)."""
    return forward_op("lrelu", [x], {"rate": float(rate)})


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """min(max(x, lo), hi); the gradient is zero where a bound is active."""
    return forward_op("clip", [x], {"lo": float(lo), "hi": float(hi)})


def sigmoid(x: Tensor) -> Tensor:
    return forward_op("sigmoid", [x])


def softplus(x: Tensor) -> Tensor:
    return forward_op("softplus", [x])


def categorical_log_q(logits: Tensor, index) -> Tensor:
    """(B,1) log-softmax of each row of logits at that row's category index (an attribute)."""
    return forward_op("categorical_log_q", [logits], {"index": np.asarray(index)})


def gaussian_log_q(c: Tensor, mu: Tensor, log_sigma: Tensor) -> Tensor:
    """(B,1) diagonal-Gaussian log-density of each row of c under N(mu, exp(log_sigma)^2)."""
    return forward_op("gaussian_log_q", [c, mu, log_sigma])


def reduce_mean(x: Tensor) -> Tensor:
    return forward_op("reduce_mean", [x])


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState, training: bool) -> Tensor:
    return forward_op("batchnorm", [x, gamma, beta], {"state": state, "training": training})


def grad_check(loss_builder, params: list[Tensor], step: float = 1e-6, readout=None) -> float:
    """Max relative error between analytic gradients and central differences.

    ``loss_builder(params) -> Tensor`` must be deterministic (freeze any
    random draws before calling); this is probed with two forward passes.
    Without a ``readout`` its output must be scalar and is the checked
    value. With a readout ``w`` of the output's shape, the checked value is
    ``vdot(w, output)``, read outside the tape on every probe, and the
    analytic side is one vector-Jacobian product with cotangent ``w``; a
    random ``w`` checks every output entry's gradient at once. The error
    metric per coordinate is ``|analytic - numeric| / max(1, |analytic|,
    |numeric|)``; a non-finite analytic or numeric value makes it inf. Every
    probed coordinate is restored, also when ``loss_builder`` raises.
    """
    if not (0.0 < step <= 1e-3):
        raise UsageError(f"grad_check: step must be in (0, 1e-3], got {step}")
    if readout is None:
        def value() -> float:
            return float(loss_builder(params))
    else:
        readout = np.asarray(readout, dtype=np.float64)

        def value() -> float:
            return float(np.vdot(readout, loss_builder(params).data))
    # the taped pass first: backward rejects a readout not of the output's shape by name
    with Tape() as tape:
        analytic = tape.backward(loss_builder(params), params, readout)
    if value() != value():
        raise UsageError("grad_check: loss_builder is not deterministic across forward passes")

    max_err = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.ravel()
        ga_flat = ga.ravel().tolist()  # Python floats: inf - inf is NaN without a numpy warning
        for i in range(flat.size):
            orig = flat[i]
            try:
                flat[i] = orig + step
                f_plus = value()
                flat[i] = orig - step
                f_minus = value()
            finally:
                flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = ga_flat[i]
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            # NaN or inf in a or numeric leaves err NaN or inf; NaN fails every
            # comparison, so it would be dropped below
            if not math.isfinite(err):
                err = math.inf
            if err > max_err:
                max_err = err
    return max_err
