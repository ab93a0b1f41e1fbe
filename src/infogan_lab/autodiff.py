"""Tape-based reverse-mode automatic differentiation over dense float64 arrays.

The operation catalogue is fixed and small: 11 ops, each run by training or
evaluation. A dense layer is one ``linear`` op (``x @ w + b``), and
loss terms are fused into single ops (``sigmoid_cross_entropy`` and
``weighted_sum`` with their label and weights as attributes, ``clip``,
``gaussian_log_q``, ``categorical_log_q`` with its category indices as an
attribute) rather than assembled from elementwise pieces. Each op is one
``_OPS`` entry pairing a forward rule with a closure-free backward rule, so
every rule can be audited and gradient-checked on its own, and adding or
removing an op is a single edit.
A forward rule returns ``(out, saved)``, and the tape keeps ``saved``, the
residuals its backward rule reads, in place of the op's inputs. A backward
rule is ``backward(g, node, need)`` and reads only ``node.saved`` and
``node.attrs``; ``need`` holds one bool per input, true where a ``wrt``
tensor of the sweep feeds that input, and the rule computes only those
input gradients (``None`` for the rest).

Usage:

    with Tape() as tape:
        y = weighted_sum([reduce_mean(w)], (2.0,))
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
rule's output is a fresh C-contiguous float64 array, so ``forward_op`` wraps
it as returned instead of re-validating it, and shape-check messages are
only formatted when a check fails.

Every forward rule also takes one optional leading probe axis, which
``grad_check`` uses to run all probes of a parameter as one pass: K probes
of a scalar come as (K,), of a (B,F) batch as (K,B,F), and of a 1-D
parameter as (K,1,F). Rules broadcast over that axis and reductions keep
it, so slice k of a stacked output is the unstacked output at probe k, bit
for bit; stacked and unstacked inputs mix where they differ only by the
axis. A rank-3 input is a probe stack. Stacked calls are never taped, and
every rule tests the unstacked shapes first, so a training step pays
nothing for the axis.
"""

from __future__ import annotations

import math
from types import MappingProxyType

import numpy as np

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
    "weighted_sum",
    "relu",
    "lrelu",
    "clip",
    "sigmoid",
    "sigmoid_cross_entropy",
    "categorical_log_q",
    "gaussian_log_q",
    "reduce_mean",
    "batchnorm",
    "platform_key",
]


class ShapeError(ValueError):
    """Input shapes do not conform to an op's shape rule."""


class DomainError(ValueError):
    """An op was evaluated outside its numeric domain.

    gaussian_log_q's exp(-2*log_sigma) overflows, an lrelu rate lies outside
    (0, 1), a sigmoid_cross_entropy label is not 0 or 1, or a
    categorical_log_q index lies outside [0, K).
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


BN_MOMENTUM = 0.9  # running-average momentum of every batchnorm layer
BN_EPS = 1e-5  # added to every batchnorm variance before the square root


class BatchNormState:
    """Running moments for one batchnorm layer (eval mode reads these).

    Train mode normalizes with batch statistics and folds them into the
    running averages: r <- m*r + (1-m)*batch, with m = ``BN_MOMENTUM``.
    """

    def __init__(self, num_features: int):
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def update(self, batch_mean: np.ndarray, batch_var: np.ndarray) -> None:
        # in place, so an array taken from this state (a checkpoint entry) stays live
        m = BN_MOMENTUM
        self.running_mean *= m
        self.running_mean += (1.0 - m) * batch_mean
        self.running_var *= m
        self.running_var += (1.0 - m) * batch_var


class TapeNode:
    """One recorded op: its input node ids, the residuals its forward saved, and its attributes."""

    __slots__ = ("op", "input_ids", "saved", "attrs")

    def __init__(self, op, input_ids, saved, attrs):
        self.op = op
        self.input_ids = input_ids
        self.saved = saved
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
        self.nodes.append(TapeNode("leaf", (), None, None))
        tensor.node = nid
        tensor._tape = self
        return nid

    def record(self, op: str, inputs: list[Tensor], saved, attrs, out: Tensor) -> None:
        input_ids = tuple(self._register(t) for t in inputs)
        nid = len(self.nodes)
        self.nodes.append(TapeNode(op, input_ids, saved, attrs))
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
# op rules: forward(arrays, attrs) -> (out, saved), where out is a fresh
# C-contiguous float64 array (forward_op wraps it as returned) and saved
# holds the residuals the backward rule reads; backward(g, node, need) ->
# input grads from node.saved and node.attrs alone, where need holds one
# bool per input (is that input live in the sweep) and a multi-input rule
# returns None for every input it is not asked for.
# A single-input rule only runs when its input is live.
# A forward rule also takes the probe axis of the module docstring; a
# backward rule only ever sees unstacked arrays.
# ---------------------------------------------------------------------------

_LN_2PI = float(np.log(2.0 * np.pi))
_min_reduce, _max_reduce = np.minimum.reduce, np.maximum.reduce  # skip ndarray.min/max's Python wrappers


def _stacked_shape(shape: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The shape of ``k`` probes of a ``shape`` array on a leading probe axis; a 1-D array stacks as (k, 1, F)."""
    return (k, 1, *shape) if len(shape) == 1 else (k, *shape)


def _probe_cores(arrs, ranks) -> list[tuple[int, ...]] | None:
    """Each input's shape with its probe axis taken off, or None if the inputs form no probe stack.

    An input of core rank r comes as is, or stacked as ``_stacked_shape``
    gives; every stacked input must carry the same probe count.
    """
    cores, counts = [], set()
    for a, r in zip(arrs, ranks):
        core = a.shape[a.ndim - r:]
        if a.ndim > r and a.shape == _stacked_shape(core, a.shape[0]):
            counts.add(a.shape[0])
        elif a.ndim != r:
            return None
        cores.append(core)
    return cores if len(counts) <= 1 else None


def _is_probe_pair(shapes: set) -> bool:
    """Whether ``shapes`` holds exactly one shape and its probe stack."""
    if len(shapes) != 2:
        return False
    core, stacked = sorted(shapes, key=len)
    return stacked == _stacked_shape(core, stacked[0])


def _mean(x):
    # np.add.reduce is what ndarray.mean runs for float64, without its Python wrapper; a rank-3
    # input is a probe stack, and each probe's entries are reduced as one contiguous row
    if x.ndim != 3:
        return np.asarray(np.add.reduce(x, axis=None) / x.size)
    rows = x.reshape(x.shape[0], -1)
    return np.add.reduce(rows, axis=1) / rows.shape[1]


def _f_linear(arrs, attrs):
    x, w, b = arrs
    if not (x.ndim == 2 and w.ndim == 2 and x.shape[1] == w.shape[0] and b.shape == (w.shape[1],)):
        cores = _probe_cores(arrs, (2, 2, 1))
        if cores is None or not (cores[0][1] == cores[1][0] and cores[2] == (cores[1][1],)):
            raise ShapeError(f"linear: needs (B,I) @ (I,O) + (O,), got {x.shape} @ {w.shape} + {b.shape}")
    return x @ w + b, (x, w)


def _b_linear(g, node, need):
    x, w = node.saved
    return [
        g @ w.T if need[0] else None,
        x.T @ g if need[1] else None,
        g.sum(axis=0) if need[2] else None,
    ]


def _f_weighted_sum(arrs, attrs):
    weights = attrs["weights"]
    shapes = {x.shape for x in arrs}
    if len(weights) != len(arrs) or len(shapes) != 1 and not _is_probe_pair(shapes):
        shapes = ", ".join(str(x.shape) for x in arrs)
        raise ShapeError(f"weighted_sum: needs one weight per input and equal shapes, got {len(weights)} weights for shapes {shapes}")
    # scalar loss terms fold as Python floats: the same IEEE products and sums, without
    # numpy's per-call cost; the fold runs left to right, the order the fingerprints pin
    xs = [x.item() for x in arrs] if len(shapes) == 1 and arrs[0].ndim == 0 else arrs
    out = xs[0] * weights[0]
    for i in range(1, len(xs)):
        out = out + xs[i] * weights[i]
    return np.asarray(out), None


def _b_weighted_sum(g, node, need):
    return [g * w if needed else None for w, needed in zip(node.attrs["weights"], need)]


def _f_relu(arrs, attrs):
    return np.maximum(arrs[0], 0.0), arrs[0]


def _b_relu(g, node, need):
    return [g * (node.saved > 0.0)]


# For 0 < rate < 1 both lrelu rules are bitwise-equal to the np.where forms
# (x if x > 0 else rate*x, and 1 or rate), also at +-0, +-inf and NaN; at
# rate 0, max(inf, 0*inf) would be NaN, hence the guard.
def _f_lrelu(arrs, attrs):
    x = arrs[0]
    rate = attrs["rate"]
    if not 0.0 < rate < 1.0:
        raise DomainError(f"lrelu: rate must lie in (0, 1), got {rate!r}")
    return np.maximum(x, rate * x), x


def _b_lrelu(g, node, need):
    return [g * np.maximum(node.saved > 0.0, node.attrs["rate"])]


def _f_clip(arrs, attrs):
    return np.clip(arrs[0], attrs["lo"], attrs["hi"]), arrs[0]


def _b_clip(g, node, need):
    x = node.saved
    return [g * ((x > node.attrs["lo"]) & (x < node.attrs["hi"]))]


def _sigmoid(x):
    # the logistic function in one pinned form, shared by sigmoid and sigmoid_cross_entropy's backward:
    # exactly 0 for x <= -710 (exp overflows to inf, silently) and exactly 1 for large x
    with np.errstate(over="ignore", under="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _f_sigmoid(arrs, attrs):
    y = _sigmoid(arrs[0])
    return y, y


def _b_sigmoid(g, node, need):
    y = node.saved
    return [g * y * (1.0 - y)]


# -log sigmoid(x) = softplus(-x) (label 1), -log(1 - sigmoid(x)) = softplus(x) (label 0), with softplus
# as logaddexp(0, .), finite for logits of either sign; the mean is reduce_mean's, bit for bit.
def _f_sigmoid_cross_entropy(arrs, attrs):
    label = attrs["label"]
    if label not in (0, 1):
        raise DomainError(f"sigmoid_cross_entropy: label must be 0 or 1, got {label!r}")
    sx = arrs[0] * -1.0 if label == 1 else arrs[0]
    return _mean(np.logaddexp(0.0, sx)), sx


def _b_sigmoid_cross_entropy(g, node, need):
    sx = node.saved
    dx = np.full(sx.shape, float(g) / sx.size) * _sigmoid(sx)
    return [dx * -1.0 if node.attrs["label"] == 1 else dx]


def _f_categorical_log_q(arrs, attrs):
    # log-softmax of each row of logits at that row's index, shape (B,1)
    logits = arrs[0]
    index = attrs["index"]
    if not (logits.ndim in (2, 3) and index.shape == logits.shape[-2:-1] and index.dtype.kind in "iu"):
        raise ShapeError(
            f"categorical_log_q: needs (B,K) logits and B integer indices, got {logits.shape} and {index.dtype} {index.shape}"
        )
    # a negative index wraps to a huge unsigned value, so one max checks both ends
    if index.size and _max_reduce(index.astype(np.uint64, copy=False)) >= logits.shape[-1]:
        raise DomainError(f"categorical_log_q: index outside [0, {logits.shape[-1]}) (min {index.min()}, max {index.max()})")
    # max-shifted rows and their log-sum-exp: never -inf for sane logits
    shifted = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted[..., np.arange(len(index)), index][..., None] - lse, (shifted, lse)


def _b_categorical_log_q(g, node, need):
    shifted, lse = node.saved
    index = node.attrs["index"]
    # d log p[index] / d logits = onehot(index) - softmax(logits), per row
    picked = np.zeros_like(shifted)
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
        cores = _probe_cores(arrs, (2, 2, 2))
        if cores is None or not cores[0] == cores[1] == cores[2]:
            raise ShapeError(
                f"gaussian_log_q: c, mu and log_sigma must share one (B,D) shape, got {c.shape}, {mu.shape} and {log_sigma.shape}"
            )
    diff = c - mu
    inv_var = _gaussian_inv_var(log_sigma)
    elem = -0.5 * _LN_2PI - log_sigma - 0.5 * (diff * diff) * inv_var
    return elem.sum(axis=-1, keepdims=True), (diff, inv_var)


def _b_gaussian_log_q(g, node, need):
    diff, inv_var = node.saved
    scaled = diff * inv_var
    return [
        -g * scaled if need[0] else None,
        g * scaled if need[1] else None,
        g * (diff * scaled - 1.0) if need[2] else None,
    ]


def _f_reduce_mean(arrs, attrs):
    return _mean(arrs[0]), arrs[0].shape


def _b_reduce_mean(g, node, need):
    return [np.full(node.saved, float(g) / math.prod(node.saved))]


def _batch_moments(x):
    # x.mean(axis=0) and x.var(axis=0) in numpy's own order, without its Python wrappers;
    # the centered batch is returned too, so train mode subtracts the mean once. A (K,B,F)
    # probe stack gets (K,1,F) moments, each probe's from its own batch.
    n = x.shape[-2]
    mean = np.add.reduce(x, axis=-2, keepdims=x.ndim == 3) / n
    centered = x - mean
    var = np.add.reduce(np.square(centered), axis=-2, keepdims=x.ndim == 3) / n
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    return mean, var, inv_std, centered


def _f_batchnorm(arrs, attrs):
    x, gamma, beta = arrs
    state: BatchNormState = attrs["state"]
    unstacked = x.ndim == 2 and gamma.shape == (x.shape[1],) and beta.shape == (x.shape[1],)
    if not unstacked:
        if x.ndim not in (2, 3):
            raise ShapeError(f"batchnorm: needs (B,F) input, got {x.shape}")
        cores = _probe_cores(arrs, (2, 1, 1))
        if cores is None or not cores[1] == cores[2] == (x.shape[-1],):
            raise ShapeError(f"batchnorm: scale/shift must be ({x.shape[-1]},), got {gamma.shape} and {beta.shape}")
    if attrs["training"]:
        mean, var, inv_std, centered = _batch_moments(x)
        if unstacked:  # a probe stack folds nothing into the running moments
            state.update(mean, var)
    else:
        inv_std = 1.0 / np.sqrt(state.running_var + BN_EPS)
        centered = x - state.running_mean
    return gamma * (centered * inv_std) + beta, (centered, inv_std, gamma)


def _b_batchnorm(g, node, need):
    centered, inv_std, gamma = node.saved
    dx = None
    if need[0] and node.attrs["training"]:
        n = centered.shape[0]
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
    "weighted_sum": (_f_weighted_sum, _b_weighted_sum),
    "relu": (_f_relu, _b_relu),
    "lrelu": (_f_lrelu, _b_lrelu),
    "clip": (_f_clip, _b_clip),
    "sigmoid": (_f_sigmoid, _b_sigmoid),
    "sigmoid_cross_entropy": (_f_sigmoid_cross_entropy, _b_sigmoid_cross_entropy),
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
    # the rule's output is already a fresh C-contiguous float64 array: wrap it unchecked
    out = _new_tensor(Tensor)
    out.data, saved = rules[0]([t.data for t in inputs], attrs)
    out.node = None
    out._tape = None
    if _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE.record(name, inputs, saved, attrs, out)
    return out


# thin call-site sugar over forward_op

def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a (B,I) batch, (I,O) weights and an (O,) bias: one tape node per layer."""
    return forward_op("linear", [x, w, b])


def weighted_sum(xs: list[Tensor], weights) -> Tensor:
    """sum of w_i * x_i over equal-shaped inputs, the constant weights held as an attribute."""
    return forward_op("weighted_sum", xs, {"weights": tuple(map(float, weights))})


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


def sigmoid_cross_entropy(logits: Tensor, label: int) -> Tensor:
    """Mean over all entries of -log sigmoid(logits) for label 1, or -log(1 - sigmoid(logits)) for label 0."""
    return forward_op("sigmoid_cross_entropy", [logits], {"label": label})


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
    |numeric|)``; a non-finite analytic or numeric value makes it inf.

    The builder runs once taped, twice for the determinism probe, and then
    once per parameter tensor: all 2n probes of an n-entry tensor (each
    coordinate at ``orig + step`` and at ``orig - step``) run as one pass,
    stacked on a leading probe axis that every forward rule carries (see
    ``_stacked_shape``). So the builder must read each parameter through
    its ``Tensor``, and its output must be of the unstacked output's shape
    (it does not depend on that parameter) or that shape's probe stack;
    anything else is a ``UsageError``. Each probe's value is read from its
    slice as an unstacked pass would read it, so every error is the one
    that 2n separate passes give, bit for bit. A stacked pass is not taped,
    and a train-mode batchnorm in it folds nothing into its running
    moments. Every parameter is restored, also when ``loss_builder`` raises.
    """
    if not (0.0 < step <= 1e-3):
        raise UsageError(f"grad_check: step must be in (0, 1e-3], got {step}")
    if readout is not None:
        readout = np.asarray(readout, dtype=np.float64)

    def value(out: np.ndarray) -> float:
        return out.item() if readout is None else float(np.vdot(readout, out))

    # the taped pass first: backward rejects a readout not of the output's shape by name
    with Tape() as tape:
        analytic = tape.backward(loss_builder(params), params, readout)
    out = loss_builder(params).data
    first, second = value(out), value(loss_builder(params).data)
    # written so that NaN equals NaN: a builder that is NaN every time is deterministic (its error is inf)
    if first != second and not (math.isnan(first) and math.isnan(second)):
        raise UsageError("grad_check: loss_builder is not deterministic across forward passes")

    max_err = 0.0
    for j, (p, ga) in enumerate(zip(params, analytic)):
        orig, n = p.data, p.data.size
        # row i is coordinate i at orig + step and row n + i at orig - step; every other entry is orig
        probes = np.tile(orig.ravel(), (2 * n, 1))
        diag = np.arange(n)
        probes[diag, diag] += step
        probes[diag + n, diag] -= step
        p.data = probes.reshape(_stacked_shape(orig.shape, 2 * n))
        try:
            stacked = loss_builder(params).data
        finally:
            p.data = orig
        if stacked.shape == _stacked_shape(out.shape, 2 * n):
            f = [value(row) for row in stacked]
        elif stacked.shape == out.shape:
            f = [value(stacked)] * (2 * n)
        else:
            raise UsageError(
                f"grad_check: the stacked pass of parameter {j} gave shape {stacked.shape}, neither the output "
                f"shape {out.shape} nor its stack of {2 * n} probes {_stacked_shape(out.shape, 2 * n)}"
            )
        ga_flat = ga.ravel().tolist()  # Python floats: inf - inf is NaN without a numpy warning
        for i in range(n):
            numeric = (f[i] - f[n + i]) / (2.0 * step)
            a = ga_flat[i]
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            # NaN or inf in a or numeric leaves err NaN or inf; NaN fails every
            # comparison, so it would be dropped below
            if not math.isfinite(err):
                err = math.inf
            if err > max_err:
                max_err = err
    return max_err


def platform_key() -> str:
    """The arithmetic a bit-level pin holds on, e.g. ``numpy 2.4.6 / X86_V4 / SkylakeX``.

    It names numpy's version, the highest ``X86_V*`` level its loops
    dispatch to, and the OpenBLAS core its matmuls run. numpy's
    transcendental loops and BLAS kernels round differently across these,
    so a fingerprint taken under one key need not hold under another. A
    part that cannot be read is ``unknown``.
    """
    import ctypes

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    built = {*getattr(umath, "__cpu_baseline__", ()), *getattr(umath, "__cpu_dispatch__", ())}
    features = getattr(umath, "__cpu_features__", {})
    levels = [v for v in ("X86_V2", "X86_V3", "X86_V4") if v in built and features.get(v)]
    try:
        corename = ctypes.CDLL(umath.__file__).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    except (OSError, AttributeError, UnicodeDecodeError):
        core = "unknown"
    return f"numpy {np.__version__} / {levels[-1] if levels else 'unknown'} / {core}"
