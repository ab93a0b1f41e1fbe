"""Tape-based reverse-mode automatic differentiation over dense float arrays.

The operation catalogue is fixed and small: 6 ops, each run by training or
evaluation. A dense layer is one ``linear`` op (``act(x @ w + b)``), or a
``linear`` and a ``batchnorm`` op, with its activation folded into the last
as an epilogue, the ``act`` attribute (None, ``relu``, ``lrelu`` with the
leak ``LRELU_RATE``, or ``sigmoid``): the backward rule multiplies the
incoming gradient by the activation's derivative, read from the residual
the epilogue saved (the activation's output), before the op's own rule. The bias add and the
epilogue are written into the op's own pre-activation array, so a layer
allocates its output once. A ``batchnorm`` node keeps the normalized input
x̂, and its train-mode backward is the compact
``(gamma * inv_std / n) * (n*g - sum(g) - x̂ * sum(g * x̂))``: with the two
parameter sums, eight (B,F) passes besides the epilogue's, where the chain
through the batch mean and variance took fourteen.
Loss terms are fused into single ops (``sigmoid_cross_entropy`` and
``weighted_sum`` with their label and weights as attributes; the log-Q ops
read their code block's columns ``cols`` of Q's one output, with the sampled
code as an attribute, and ``gaussian_log_q`` its log sigma clamped to
+-``LOG_SIGMA_BOUND``) rather than assembled from elementwise pieces.
``weighted_sum`` is the one op that reduces a loss: a scalar input is its
own term and a (B,F) batch's term is its mean, so an expectation such as
E[log Q(c|x)] enters a sum as its batch without a node of its own. Each
op is one ``_OPS`` entry pairing a forward rule with a closure-free backward rule, so
every rule can be audited and gradient-checked on its own, and adding or
removing an op is a single edit.
A forward rule returns ``(out, saved)``, and the tape keeps ``saved``, the
residuals its backward rule reads, in place of the op's input arrays; only
ops are nodes, and a node names each input by the node that produced it, or
a leaf (a parameter, batch or constant) by the tensor itself. A backward
rule is ``backward(g, node, need, out)`` and reads only ``node.saved`` and
``node.attrs``; ``need`` holds one bool per input, true where a ``wrt``
tensor of the sweep feeds that input, and the rule computes only those
input gradients (``None`` for the rest). ``out`` holds one destination per
input, an array the sweep owns or None: a rule may write that input's
gradient into it and return it (``linear`` writes its weight and bias
gradients, ``batchnorm`` its scale and shift gradients), or return a fresh
array, which the sweep copies in. The sweep alone places and checks these
gradients: one of another dtype than its destination is refused
(``UsageError``, naming the op), never cast. A sweep given destinations for its
``wrt`` tensors (``Tape.backward``'s ``out``: in training, the views of a
block's gradient buffer) fills them without a concatenation or a per-step
allocation.

Usage:

    with Tape() as tape:
        y = weighted_sum([w], (2.0,))   # twice the mean of a (B,F) batch w
        (g,) = tape.backward(y, [w])   # dy/dw as an ndarray
        h = linear(x, w, b, "lrelu")
        (gw,) = tape.backward(h, [w], v)   # vector-Jacobian product v^T dh/dw
    # the tape is closed here: its nodes are freed and backward raises

A root that is not scalar needs a cotangent ``v`` of its shape: the sweep
then returns the gradient of ``sum(v * root)``, one reverse pass for one
weighting of the output. ``grad_check`` uses this to check an op's rule
against finite differences of that weighted sum, read outside the tape.

Outside a ``Tape`` context the same functions run as plain numpy and record
nothing, which is the fast path used for evaluation and finite differences:
an op call there costs its numpy work plus one rule lookup. Every forward
rule's output is a fresh C-contiguous array, so ``forward_op`` wraps it as
returned instead of re-validating it, and shape-check messages are only
formatted when a check fails.

Every rule is dtype-generic: float32 inputs give float32 outputs and
gradients, float64 inputs float64 ones. A ``Tensor`` keeps a float32 array
as float32 and makes anything else float64. Training runs in
``TRAIN_DTYPE`` (float32, as the paper's reference code did); the gradient
checks of ``gradsuite`` and ``grad_check``'s central differences run in
float64. A sum that ``weighted_sum`` folds is a float64 0-d array in
either case, since its terms are summed in Python floats.

Every forward rule also takes one optional leading probe axis, which
``grad_check`` uses to run all probes of every parameter as one pass: K probes
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
    "linear",
    "weighted_sum",
    "sigmoid_cross_entropy",
    "categorical_log_q",
    "gaussian_log_q",
    "batchnorm",
    "platform_key",
    "TRAIN_DTYPE",
]

# the dtype every training array is held in (parameters, running moments, Adam state, batches);
# float64 stays the dtype of the gradient checks and of every exact oracle
TRAIN_DTYPE = np.dtype(np.float32)


class ShapeError(ValueError):
    """Input shapes do not conform to an op's shape rule."""


class DomainError(ValueError):
    """An op was evaluated outside its numeric domain.

    gaussian_log_q's log_sigma holds a NaN, a sigmoid_cross_entropy label is
    not 0 or 1, or a categorical_log_q index lies outside [0, K).
    """


class UsageError(RuntimeError):
    """The engine was driven incorrectly (bad root, unknown op, ...)."""


def _as_array(values) -> np.ndarray:
    # float32 stays float32 (the training dtype); anything else becomes float64.
    # note: not ascontiguousarray, which would promote 0-d scalars to 1-d
    dtype = np.float32 if getattr(values, "dtype", None) == np.float32 else np.float64
    arr = np.asarray(values, dtype=dtype, order="C")
    return arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)


class Tensor:
    """Dense float32 or float64 array plus the id of the tape node that produced it.

    ``node`` and ``_tape`` are set only on an op's output recorded on a tape;
    a parameter, data batch or constant is a leaf and never points at a tape.
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


BN_MOMENTUM = 0.9  # running-average momentum of every batchnorm layer
BN_EPS = 1e-5  # added to every batchnorm variance before the square root
LOG_SIGMA_BOUND = 7.0  # gaussian_log_q reads |log sigma| clamped to this, before any exponentiation
LRELU_RATE = 0.1  # the leak of every lrelu epilogue (the trunk's and the Q head's); it must lie in (0, 1), see _ACTS


class BatchNormState:
    """Running moments for one batchnorm layer (eval mode reads these).

    Train mode normalizes with batch statistics and folds them into the
    running averages: r <- m*r + (1-m)*batch, with m = ``BN_MOMENTUM``. The
    moments are held in ``dtype``, the dtype of the layer they belong to.
    """

    def __init__(self, num_features: int, dtype=np.float64):
        self.running_mean = np.zeros(num_features, dtype=dtype)
        self.running_var = np.ones(num_features, dtype=dtype)

    def update(self, batch_mean: np.ndarray, batch_var: np.ndarray) -> None:
        # in place, so an array taken from this state (a checkpoint entry) stays live
        m = BN_MOMENTUM
        self.running_mean *= m
        self.running_mean += (1.0 - m) * batch_mean
        self.running_var *= m
        self.running_var += (1.0 - m) * batch_var


class TapeNode:
    """One recorded op: the names of its inputs, the residuals its forward saved, and its attributes."""

    __slots__ = ("op", "inputs", "saved", "attrs")

    def __init__(self, op, inputs, saved, attrs):
        self.op = op
        self.inputs = inputs
        self.saved = saved
        self.attrs = attrs


_ACTIVE_TAPE: "Tape | None" = None


class Tape:
    """Ordered record of executed ops; supports repeated backward passes.

    Nodes are stored in execution order, so every node's inputs precede it
    and a single reverse sweep implements the chain rule. ``backward`` may
    be called several times with different roots, cotangents and ``wrt`` lists
    on the same tape. A call stores nothing on the tape: it returns fresh
    gradients, or writes them into the destinations its ``out`` names.

    A tape records once: leaving its ``with`` block closes it and drops its
    nodes, so tensors that still point at it (the step's loss tensors) do not
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

    def _name(self, t: Tensor) -> int | Tensor:
        # a tensor's name on this tape: the id of the node that produced it here, or a leaf itself;
        # Tensor must keep identity hashing (no __eq__/__hash__), so a leaf equals no other name
        return t.node if t._tape is self else t

    def record(self, op: str, inputs: list[Tensor], saved, attrs, out: Tensor) -> None:
        out.node = len(self.nodes)
        self.nodes.append(TapeNode(op, tuple(map(self._name, inputs)), saved, attrs))
        out._tape = self

    def backward(self, root: Tensor, wrt: list[Tensor], cotangent=None, out=None) -> list[np.ndarray]:
        """Gradients of ``root`` with respect to each tensor of ``wrt``, in order.

        Without a ``cotangent`` the root must be scalar and the result is its
        gradient. With one, the cotangent must have the root's shape, and the
        result is the vector-Jacobian product: the gradient of
        ``sum(cotangent * root)``. The sweep starts from a copy of it in the
        root's dtype, so the caller's array is never aliased by a returned
        gradient.

        Only nodes that depend on a ``wrt`` tensor are differentiated, and
        each rule is told which of its inputs do (``need``), so it computes
        only those input gradients. The root must be an op output on this
        tape; a ``wrt`` tensor that no op here read, or on no path to the
        root, gets zeros of its shape. Gradients accumulate over fan-out.

        ``out``, if given, holds one destination per ``wrt`` tensor: None, or
        an array of the tensor's shape and dtype, which then receives its
        gradient and is returned in its place. The first rule to reach the
        tensor writes into it (or its result is copied in), a later one on
        fan-out is added into it in place, and a tensor no rule reached has
        zeros written into it. The bits are those of a sweep without ``out``.
        A rule whose gradient is not of its destination's dtype raises
        ``UsageError``, naming the op, before that destination is written, so
        a rule's dtype leak is never cast away; so does a tensor listed twice
        with two different destinations.
        """
        if self.nodes is None:
            raise UsageError("backward: the tape is closed (its with block has exited)")
        if root._tape is not self:
            raise UsageError("backward: root tensor was not recorded on this tape")
        if cotangent is None:
            if root.data.size != 1:
                raise UsageError(f"backward: root must be scalar, got shape {root.shape}")
            seed = np.ones_like(root.data)
        else:
            seed = np.array(cotangent, dtype=root.data.dtype)
            if seed.shape != root.shape:
                raise UsageError(f"backward: cotangent shape {seed.shape} does not match root shape {root.shape}")
        # forward pass: mark every node that a wrt tensor feeds; live and grads are keyed by name
        wrt_names = [self._name(t) for t in wrt]
        dests = {}  # name -> the destination its gradient is written into
        if out is not None:
            if len(out) != len(wrt):
                raise UsageError(f"backward: {len(out)} destinations for {len(wrt)} wrt tensors")
            for i, (name, t, d) in enumerate(zip(wrt_names, wrt, out)):
                if d is not None:
                    if (d.shape, d.dtype) != (t.shape, t.data.dtype):
                        raise UsageError(
                            f"backward: a destination of shape {d.shape} and dtype {d.dtype} for a wrt tensor "
                            f"of shape {t.shape} and dtype {t.data.dtype}"
                        )
                    if dests.setdefault(name, d) is not d:
                        raise UsageError(f"backward: wrt tensor {i} repeats an earlier one with another destination")
        if (d := dests.get(root.node)) is not None:  # the root is a wrt tensor: its gradient is the seed
            np.copyto(d, seed)
            seed = d
        live = set(wrt_names)
        for nid in range(root.node + 1):
            if not live.isdisjoint(self.nodes[nid].inputs):
                live.add(nid)
        grads = {root.node: seed} if root.node in live else {}
        for nid in range(root.node, -1, -1):
            if (g := grads.get(nid)) is None:
                continue
            node = self.nodes[nid]
            need = tuple(name in live for name in node.inputs)
            outs = _destinations(node.inputs, dests, grads) if dests else (None,) * len(node.inputs)
            for name, needed, gi in zip(node.inputs, need, _OPS[node.op][1](g, node, need, outs)):
                if not needed:
                    continue
                acc, d = grads.get(name), dests.get(name)
                if d is not None and gi.dtype != d.dtype:
                    raise UsageError(f"backward: the {node.op} rule gave a {gi.dtype} gradient for a {d.dtype} destination")
                if acc is None:
                    if d is not None and gi is not d:  # a fresh result: the destination takes its bits
                        np.copyto(d, gi)
                        gi = d
                    grads[name] = gi
                elif acc is d:  # fan-out into a destination, in place: the bits of acc + gi
                    acc += gi
                else:
                    grads[name] = acc + gi
        for name, d in dests.items():
            if name not in grads:  # no rule reached it
                d.fill(0.0)
                grads[name] = d
        return [grads[name] if name in grads else np.zeros_like(t.data) for name, t in zip(wrt_names, wrt)]


def _destinations(inputs, dests, grads) -> tuple:
    """Each input's destination for this rule: its wrt buffer while nothing has been written there yet, else None.

    An input named twice gets its buffer at its first place only, so no rule writes one buffer twice.
    """
    outs, seen = [], set()
    for name in inputs:
        outs.append(dests.get(name) if name not in grads and name not in seen else None)
        seen.add(name)
    return tuple(outs)


# ---------------------------------------------------------------------------
# op rules: forward(arrays, attrs) -> (out, saved), where out is a fresh
# C-contiguous array of the inputs' dtype (forward_op wraps it as returned) and saved
# holds the residuals the backward rule reads; backward(g, node, need, out)
# -> input grads from node.saved and node.attrs alone, where need holds one
# bool per input (is that input live in the sweep) and a multi-input rule
# returns None for every input it is not asked for; out holds one
# destination or None per input (see the module docstring), which a rule
# writes only with a result of the destination's dtype (``_dest``).
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


def _dest(d, *arrs):
    """The destination ``d`` for a result computed from ``arrs``, or None where their dtypes differ from its:
    a ufunc would cast into it silently, and a rule's dtype leak must stay visible."""
    return d if d is not None and all(a.dtype == d.dtype for a in arrs) else None


def _inplace(op, h, b):
    """op(h, b) written into ``h``, which the calling rule owns, where ``b`` broadcasts into it in its dtype;
    a fresh op(h, b) where it does not (a probe-stacked ``b`` widens an unstacked ``h``)."""
    return op(h, b, out=h) if b.ndim <= h.ndim and b.dtype == h.dtype else op(h, b)


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
    h = _inplace(np.add, x @ w, b)
    out, act_saved = _epilogue(h, attrs, out=h)
    return out, (x, w, act_saved)


def _b_linear(g, node, need, out):
    x, w, act_saved = node.saved
    if act_saved is not None:  # the epilogue's derivative first
        g = _ACTS[node.attrs["act"]][1](g, act_saved)
    # one output column (the D head, a 1-D Gaussian head): the K=1 product is its broadcast, bit for bit
    return [
        (g * w.T if w.shape[1] == 1 else g @ w.T) if need[0] else None,
        np.matmul(x.T, g, out=_dest(out[1], x, g)) if need[1] else None,
        np.add.reduce(g, axis=0, out=_dest(out[2], g)) if need[2] else None,
    ]


def _term(x):
    """A ``weighted_sum`` input's term: a scalar is itself and a (B,F) batch is its mean, as a Python float;
    a (K,) or (K,B,F) probe stack gives its K terms as a float64 (K,) array, the same bits per probe."""
    if x.ndim % 2:
        return (x if x.ndim == 1 else _mean(x)).astype(np.float64, copy=False)
    return (x if x.ndim == 0 else _mean(x)).item()


def _f_weighted_sum(arrs, attrs):
    weights = attrs["weights"]
    # unstacked inputs first; stacked ones, scalar probes (K,) or batch probes (K,B,F), must share one K
    unstacked = 0 < len(arrs) == len(weights) and all(x.ndim in (0, 2) for x in arrs)
    if not unstacked and not (len(arrs) == len(weights) and all(x.ndim <= 3 for x in arrs)
                              and len({x.shape[0] for x in arrs if x.ndim % 2}) == 1):
        shapes = ", ".join(str(x.shape) for x in arrs)
        raise ShapeError(f"weighted_sum: needs one weight per scalar or (B,F) input, or their probe stacks of one K, "
                         f"got {len(weights)} weights for shapes {shapes}")
    # the terms fold as Python floats (float64 arrays for a probe stack): the same IEEE products and
    # sums, without numpy's per-call cost; the fold runs left to right, the order the fingerprints pin
    out = _term(arrs[0]) * weights[0]
    for x, w in zip(arrs[1:], weights[1:]):
        out = out + _term(x) * w
    return np.asarray(out), tuple((x.shape, x.dtype) for x in arrs)


def _b_weighted_sum(g, node, need, out):
    # a scalar's gradient is g * w; a batch's is g * w spread evenly over its entries, the mean's rule
    return [
        None if not needed else np.full(shape, float(g) * w / math.prod(shape), dtype) if shape else g * w
        for (shape, dtype), w, needed in zip(node.saved, node.attrs["weights"], need)
    ]


def _sigmoid(x, out=None):
    # the logistic function in one pinned form, 1.0 / (1.0 + exp(-x)), shared by the sigmoid epilogue
    # (written into out=x) and sigmoid_cross_entropy's backward: exactly 0 where exp(-x) overflows to inf,
    # silently (x <= -710 in float64, x <= -89 in float32), and exactly 1 for large x
    with np.errstate(over="ignore", under="ignore"):
        e = np.negative(x, out=out)
        np.exp(e, out=e)
        e += 1.0
        return np.divide(1.0, e, out=e)


def _lrelu_grad(g, y):
    mask = (y > 0.0).astype(y.dtype)  # in y's dtype: a bool mask against a Python float would be float64
    return g * np.maximum(mask, LRELU_RATE, out=mask)  # np.maximum(y > 0.0, LRELU_RATE, dtype=y.dtype)'s bits, in place


# The activation epilogue of linear and batchnorm, by the op's ``act`` attribute: forward(h, out)
# -> (y, residual), y written into out (None: a fresh array), and backward(g, residual) -> the
# gradient at h. Every residual is the output y: for relu, and for lrelu, y > 0 exactly where h > 0,
# also at +-0, +-inf and NaN, so the masks are those of h. That holds for lrelu because its leak
# LRELU_RATE lies in (0, 1): at a leak of 0, max(inf, 0*inf) would be NaN. Both lrelu rules are
# bitwise-equal to the np.where forms (h if h > 0 else LRELU_RATE*h, and 1 or LRELU_RATE).
_ACTS = {
    "relu": (lambda h, out: (y := np.maximum(h, 0.0, out=out), y), lambda g, y: g * (y > 0.0)),
    "lrelu": (lambda h, out: (y := np.maximum(h, h * LRELU_RATE, out=out), y), _lrelu_grad),
    "sigmoid": (lambda h, out: (y := _sigmoid(h, out), y), lambda g, y: g * y * (1.0 - y)),
}


def _epilogue(h, attrs, out=None):
    """act(h) for the op's ``act`` and the residual its backward reads; h and None without one.

    act(h) is written into ``out``: the op passes its own ``h``, so no array
    is allocated, and without one it is a fresh array, so a caller's ``h`` is
    never written.
    """
    act = attrs.get("act")
    if act is None:
        return h, None
    if not isinstance(act, str) or act not in _ACTS:
        raise UsageError(f"unknown activation {act!r} (one of {', '.join(_ACTS)}, or None)")
    return _ACTS[act][0](h, out)


# -log sigmoid(x) = softplus(-x) (label 1), -log(1 - sigmoid(x)) = softplus(x) (label 0), with softplus
# as logaddexp(0, .), finite for logits of either sign; the mean is a weighted_sum batch term's, bit for bit.
def _f_sigmoid_cross_entropy(arrs, attrs):
    label = attrs["label"]
    if label not in (0, 1):
        raise DomainError(f"sigmoid_cross_entropy: label must be 0 or 1, got {label!r}")
    sx = arrs[0] * -1.0 if label == 1 else arrs[0]
    return _mean(np.logaddexp(0.0, sx)), sx


def _b_sigmoid_cross_entropy(g, node, need, out):
    sx = node.saved
    dx = np.full(sx.shape, float(g) / sx.size, dtype=sx.dtype) * _sigmoid(sx)
    return [dx * -1.0 if node.attrs["label"] == 1 else dx]


def _q_columns(op, q, cols) -> np.ndarray:
    """Columns ``cols`` of a (B,F) Q output or its probe stack, a view; ``cols`` must be a step-1 slice inside F."""
    if not (q.ndim in (2, 3) and isinstance(cols, slice) and cols.indices(q.shape[-1]) == (cols.start, cols.stop, 1)
            and cols.start < cols.stop):
        raise ShapeError(f"{op}: needs a (B,F) q and a column range inside F, got {q.shape} and {cols}")
    return q[..., cols]


def _widen(grad, cols, width) -> np.ndarray:
    """A (B, width) gradient, of grad's dtype, holding ``grad`` in the columns ``cols`` and zeros elsewhere."""
    out = np.zeros((grad.shape[0], width), grad.dtype)
    out[:, cols] = grad
    return out


def _f_categorical_log_q(arrs, attrs):
    # log-softmax of each row of the block's logits at that row's index, shape (B,1)
    q, index = arrs[0], attrs["index"]
    logits = _q_columns("categorical_log_q", q, attrs["cols"])
    if not (index.shape == q.shape[-2:-1] and index.dtype.kind in "iu"):
        raise ShapeError(f"categorical_log_q: needs B integer indices for a (B,F) q, got {index.dtype} {index.shape} for {q.shape}")
    # a negative index wraps to a huge unsigned value, so one max checks both ends
    if index.size and _max_reduce(index.astype(np.uint64, copy=False)) >= logits.shape[-1]:
        raise DomainError(f"categorical_log_q: index outside [0, {logits.shape[-1]}) (min {index.min()}, max {index.max()})")
    # max-shifted rows and their log-sum-exp: never -inf for sane logits
    shifted = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted[..., np.arange(len(index)), index][..., None] - lse, (shifted, lse, q.shape[-1])


def _b_categorical_log_q(g, node, need, out):
    shifted, lse, width = node.saved
    index = node.attrs["index"]
    # d log p[index] / d logits = onehot(index) - softmax(logits), per row; zero outside the block's columns
    picked = np.zeros_like(shifted)
    picked[np.arange(len(index)), index] = g[:, 0]
    return [_widen(picked - np.exp(shifted - lse) * g, node.attrs["cols"], width)]


def _f_gaussian_log_q(arrs, attrs):
    # per-row sum over dims of log N(c; mu, exp(s)^2), with mu and s = log_sigma clamped to +-LOG_SIGMA_BOUND
    # the block's two halves of columns, shape (B,1); the raw log_sigma is saved for the backward's mask
    q, c, cols = arrs[0], attrs["c"], attrs["cols"]
    block = _q_columns("gaussian_log_q", q, cols)
    if not (c.ndim == 2 and c.shape[0] == q.shape[-2] and 2 * c.shape[1] == block.shape[-1]):
        raise ShapeError(f"gaussian_log_q: needs a (B,D) code c and 2D columns of q, got {c.shape}, {q.shape} and {cols}")
    mu, log_sigma = block[..., : c.shape[1]], block[..., c.shape[1] :]
    s = np.clip(log_sigma, -LOG_SIGMA_BOUND, LOG_SIGMA_BOUND)
    # clamped, exp(-2*s) <= e**14 in either dtype: only a NaN, which fails the comparison, is out of domain
    if not _min_reduce(s, axis=None, initial=np.inf) >= -LOG_SIGMA_BOUND:
        raise DomainError("gaussian_log_q: log_sigma is NaN")
    diff = c - mu
    inv_var = np.exp(-2.0 * s)
    elem = -0.5 * _LN_2PI - s - 0.5 * (diff * diff) * inv_var
    return elem.sum(axis=-1, keepdims=True), (diff, inv_var, log_sigma, q.shape[-1])


def _b_gaussian_log_q(g, node, need, out):
    diff, inv_var, log_sigma, width = node.saved
    scaled = diff * inv_var
    # mu's columns, then log_sigma's, whose gradient is zero where the clamp is active: the strict mask is the last factor
    mask = (log_sigma > -LOG_SIGMA_BOUND) & (log_sigma < LOG_SIGMA_BOUND)
    return [_widen(np.concatenate([g * scaled, g * (diff * scaled - 1.0) * mask], axis=1), node.attrs["cols"], width)]


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
    else:
        inv_std = 1.0 / np.sqrt(state.running_var + BN_EPS)
        centered = x - state.running_mean
    # xhat = centered * inv_std, then gamma * xhat + beta: each written into an array the op owns
    xhat = _inplace(np.multiply, centered, inv_std)
    h = _inplace(np.add, np.multiply(xhat, gamma), beta)
    out, act_saved = _epilogue(h, attrs, out=h)
    if attrs["training"] and unstacked:  # past the epilogue: a refused act, like a probe stack, folds nothing
        state.update(mean, var)
    return out, (xhat, inv_std, gamma, act_saved)


def _b_batchnorm(g, node, need, out):
    # with dbeta = sum(g) and dgamma = sum(g * xhat) over the batch, train mode's input gradient is
    # (gamma * inv_std / n) * (n * g - dbeta - xhat * dgamma): the long form's chain through the batch
    # mean and variance, whose sum(centered) term is exactly 0 and is dropped
    xhat, inv_std, gamma, act_saved = node.saved
    if act_saved is not None:  # the epilogue's derivative first
        g = _ACTS[node.attrs["act"]][1](g, act_saved)
    training = node.attrs["training"]
    dgamma = dbeta = dx = None
    if need[1] or (need[0] and training):
        dgamma = np.add.reduce(g * xhat, axis=0, out=_dest(out[1], g, xhat) if need[1] else None)
    if need[2] or (need[0] and training):
        dbeta = np.add.reduce(g, axis=0, out=_dest(out[2], g) if need[2] else None)
    if need[0] and training:
        n = xhat.shape[0]
        dx = g * n
        dx -= dbeta
        dx -= xhat * dgamma
        dx *= gamma * inv_std / n
    elif need[0]:
        dx = g * gamma * inv_std
    return [dx, dgamma if need[1] else None, dbeta if need[2] else None]


_OPS = {
    "linear": (_f_linear, _b_linear),
    "weighted_sum": (_f_weighted_sum, _b_weighted_sum),
    "sigmoid_cross_entropy": (_f_sigmoid_cross_entropy, _b_sigmoid_cross_entropy),
    "categorical_log_q": (_f_categorical_log_q, _b_categorical_log_q),
    "gaussian_log_q": (_f_gaussian_log_q, _b_gaussian_log_q),
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
    # the rule's output is already a fresh C-contiguous array: wrap it unchecked
    out = _new_tensor(Tensor)
    out.data, saved = rules[0]([t.data for t in inputs], attrs)
    out.node = out._tape = None
    if _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE.record(name, inputs, saved, attrs, out)
    return out


# thin call-site sugar over forward_op

def linear(x: Tensor, w: Tensor, b: Tensor, act: str | None = None) -> Tensor:
    """act(x @ w + b) for a (B,I) batch, (I,O) weights and an (O,) bias: one tape node per layer.

    ``act`` is None, ``"relu"``, ``"sigmoid"`` or ``"lrelu"``, max(h, LRELU_RATE*h).
    """
    return forward_op("linear", [x, w, b], None if act is None else {"act": act})


def weighted_sum(xs: list[Tensor], weights) -> Tensor:
    """sum of w_i * t_i, the constant weights held as an attribute: a scalar input is its own term t_i and a
    (B,F) batch's term is its mean. A batch's gradient is g * w_i / (B*F) in each entry."""
    return forward_op("weighted_sum", xs, {"weights": tuple(map(float, weights))})


def sigmoid_cross_entropy(logits: Tensor, label: int) -> Tensor:
    """Mean over all entries of -log sigmoid(logits) for label 1, or -log(1 - sigmoid(logits)) for label 0."""
    return forward_op("sigmoid_cross_entropy", [logits], {"label": label})


def categorical_log_q(q: Tensor, index, cols: slice) -> Tensor:
    """(B,1) log-softmax of each row of a block's logits, the columns ``cols`` of Q's (B,F) output ``q``, at
    that row's category index (an attribute). Its gradient is (B,F), zero outside ``cols``."""
    return forward_op("categorical_log_q", [q], {"index": np.asarray(index), "cols": cols})


def gaussian_log_q(q: Tensor, c, cols: slice) -> Tensor:
    """(B,1) diagonal-Gaussian log-density of each row of the (B,D) code ``c`` (an attribute, held in q's
    dtype) under N(mu, exp(s)^2), where the columns ``cols`` of Q's (B,F) output ``q`` hold D means and then
    D log sigmas, s = log_sigma clamped to +-``LOG_SIGMA_BOUND`` (no gradient where the clamp is active).
    Its gradient is (B,F), zero outside ``cols``; a NaN log_sigma is a ``DomainError``."""
    return forward_op("gaussian_log_q", [q], {"c": np.asarray(c, dtype=q.data.dtype), "cols": cols})


def batchnorm(
    x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState, training: bool, act: str | None = None
) -> Tensor:
    """act(gamma * xhat + beta), xhat normalized by the batch's moments (training) or the running ones;
    ``act`` as for ``linear``."""
    return forward_op("batchnorm", [x, gamma, beta], {"state": state, "training": training, "act": act})


def grad_check(loss_builder, params: list[Tensor], step: float = 1e-6, readout=None) -> float:
    """Max relative error between analytic gradients and central differences.

    ``loss_builder(params) -> Tensor`` must be deterministic (freeze any
    random draws before calling). Without a ``readout`` its output must be
    scalar and is the checked value. With a readout ``w`` of the output's
    shape, the checked value is ``vdot(w, output)``, read outside the tape
    on every probe, and the analytic side is one vector-Jacobian product
    with cotangent ``w``; a random ``w`` checks every output entry's
    gradient at once. The error metric per coordinate is ``|analytic -
    numeric| / max(1, |analytic|, |numeric|)``; a non-finite analytic or
    numeric value makes it inf.

    The builder runs twice: once taped, and once with 2n + 1 probes of the n
    parameter coordinates on the module docstring's probe axis, so it must
    read each parameter through its ``Tensor``. Probe i holds coordinate i
    at ``orig + step``, probe n + i at ``orig - step``, and the last moves
    nothing; it must read the taped value bit for bit, or the builder is not
    deterministic or a stacked rule is not its unstacked one. The output
    must have the taped shape (no parameter reaches it) or its probe stack,
    no tensor may be listed twice and the parameters must hold at least one
    entry; anything else is a ``UsageError``. Each probe reads as its own
    pass would, bit for bit. Every parameter gets its own array back, also
    if the builder raises.

    A parameter's probes are built in place: its (2n + 1, size) rows are
    filled with ``orig``, then ``+step`` and ``-step`` are added along the
    two diagonals that its coordinates occupy, each through one strided
    flat index. All probes are read in one call: a scalar output's stack is
    reshaped to a vector, and with a readout each (1, F) probe row is
    multiplied by the (F, 1) readout column in a batched matmul, which runs
    numpy's dot kernel, the one ``np.vdot`` runs, so every value has the bits
    of ``vdot(w, probe)``. The errors are scored as float64 arrays.
    """
    if not (0.0 < step <= 1e-3):
        raise UsageError(f"grad_check: step must be in (0, 1e-3], got {step}")
    if len({id(p) for p in params}) != len(params):
        raise UsageError("grad_check: a parameter tensor is listed twice")
    n = sum(p.data.size for p in params)
    if n == 0:
        raise UsageError("grad_check: the parameters hold no entries, so there is nothing to check")
    if readout is not None:
        readout = np.asarray(readout, dtype=np.float64)
        column = readout.reshape(-1, 1)

    def values(stack: np.ndarray, m: int) -> np.ndarray:
        """The checked values, in float64, of ``m`` outputs stacked on a leading axis."""
        if readout is None:
            return stack.reshape(m).astype(np.float64, copy=False)
        # a (1, F) row times an (F, 1) column runs numpy's dot kernel, the one np.vdot runs: vdot's bits, in one call
        return (stack.reshape(m, 1, -1) @ column).reshape(m)

    # the taped pass first: backward rejects a readout not of the output's shape by name
    with Tape() as tape:
        root = loss_builder(params)
        analytic = tape.backward(root, params, readout)
    out, origs = root.data, [p.data for p in params]
    k, offset = 2 * n + 1, 0
    try:
        for p, orig in zip(params, origs):
            # every entry at orig but coordinate i's own: orig + step in row offset + i, orig - step in
            # row n + offset + i; entry (offset + i, i) of the (k, size) rows is flat entry offset*size + i*(size + 1)
            size = orig.size
            rows = np.empty((k, size), orig.dtype)
            rows[...] = orig.reshape(1, size)
            flat, diag = rows.reshape(-1), np.arange(offset * size, (offset + size) * size, size + 1)
            flat[diag] += step
            flat[diag + n * size] -= step
            p.data, offset = rows.reshape(_stacked_shape(orig.shape, k)), offset + size
        stacked = loss_builder(params).data
    finally:
        for p, orig in zip(params, origs):
            p.data = orig
    if stacked.shape == _stacked_shape(out.shape, k):
        f = values(stacked, k)
    elif stacked.shape == out.shape:
        f = np.repeat(values(stacked, 1), k)
    else:
        raise UsageError(
            f"grad_check: the stacked pass gave shape {stacked.shape}, neither the output "
            f"shape {out.shape} nor its stack of {k} probes {_stacked_shape(out.shape, k)}"
        )
    first, last = float(values(out, 1)[0]), float(f[-1])
    # written so that NaN equals NaN: a builder that is NaN every time is deterministic (its error is inf)
    if first != last and not (math.isnan(first) and math.isnan(last)):
        raise UsageError(
            f"grad_check: the unmoved probe read {last!r} where the taped pass read {first!r}: loss_builder "
            "is not deterministic, or a stacked forward is not its unstacked forward bit for bit"
        )

    a = np.concatenate([ga.ravel() for ga in analytic], dtype=np.float64)
    with np.errstate(all="ignore"):  # inf - inf is NaN, and an inf or NaN error counts as inf below
        numeric = (f[:n] - f[n:-1]) / (2.0 * step)
        err = np.abs(a - numeric) / np.maximum(np.maximum(np.abs(a), 1.0), np.abs(numeric))
    worst = float(np.maximum.reduce(err))  # a NaN error propagates through the reduction
    return worst if math.isfinite(worst) else math.inf


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
