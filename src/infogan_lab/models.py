"""Generator and shared discriminator/recognition networks.

Everything is a fully connected stack at desk scale. ``_dense`` builds
every layer: one ``linear`` op, or a ``linear`` and a ``batchnorm`` op,
with the layer's activation (relu in G, sigmoid on G's pixels, lrelu in the
trunk and the Q head's hidden layer, none on the output heads) folded into
its last op, so a layer is one tape node, two with batchnorm. The
discriminator head and the recognition head share one trunk.
``disc_q_forward`` runs the trunk once and feeds both heads, so the
recognition model adds only its own head's cost; ``disc_forward`` and
``q_forward`` run the trunk and one head, for callers that read only the D
logit (the discriminator step) or only Q (evaluation). As in the paper, Q
ends in one output layer, ``q_head.out``, whose (B, F) output holds each
code block's parameters in the block's columns of ``spec.q_slices()``.
Log sigma is Q's raw output:
``gaussian_log_q`` reads it clamped to +-``autodiff.LOG_SIGMA_BOUND``.

Parameters live in four clock blocks (``gen``, ``trunk``, ``d_head``,
``q_head``), the units Adam steps. Each block is one flat vector, laid out
before any weight is drawn, and each parameter ``Tensor`` wraps a
C-contiguous reshaped view of it. ``ModelPair.params`` lists every view by
name, read-only, so updating a block's vector updates what the forward
pass reads, and loading copies into the views rather than rebinding them.

A model holds every block and batchnorm running moment in one dtype,
``ModelPair.dtype``: ``init_models`` defaults to float32
(``autodiff.TRAIN_DTYPE``), which training and a loaded checkpoint use; the
gradient suite builds its models in float64.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import TRAIN_DTYPE, BatchNormState, ShapeError, Tensor
from .latent import LatentSpec

# Gaussian init with variance 0.02. At these fully connected widths this
# keeps layer gains near one; a 0.02 *standard deviation* shrinks
# activations so hard (without batchnorm) that the categorical code race
# never leaves its symmetric saddle.
WEIGHT_STD = 0.1414213562373095


@dataclass(frozen=True)
class NetConfig:
    """Fully connected stack description.

    ``widths`` is the full chain including the input dimension (and, for
    the generator, the output/image dimension). ``q_hidden`` only matters
    for the shared D/Q net: it is the recognition head's hidden width.
    """

    widths: tuple[int, ...]
    batchnorm: bool = False
    q_hidden: int = 64

    def __post_init__(self):
        if any(w < 1 for w in self.widths):
            raise ShapeError(f"net widths must be >= 1, got {self.widths}")
        if self.q_hidden < 1:
            raise ShapeError(f"q_hidden must be >= 1, got {self.q_hidden}")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))


@dataclass(frozen=True)
class ParamBlock:
    """One Adam clock block: a flat float vector and its parameters, each a view into it.

    ``grad`` is the block's gradient buffer, a flat vector of the same layout,
    and ``grad_views`` holds one view of it per parameter, by name: a training
    sweep writes each parameter's gradient into its view, so a block's
    gradient needs no concatenation, and the next sweep overwrites it. It is
    left uninitialised until a sweep writes it (every entry, zeros where no
    rule reached), so a model that never trains keeps no pages of it.
    """

    name: str
    flat: np.ndarray
    params: Mapping[str, Tensor]
    grad: np.ndarray
    grad_views: Mapping[str, np.ndarray]

    @staticmethod
    def allocate(name: str, shapes: dict[str, tuple[int, ...]], dtype=TRAIN_DTYPE) -> "ParamBlock":
        """A zero block of ``dtype`` laid out in ``shapes`` order, one C-contiguous reshaped view per parameter,
        and its gradient buffer, viewed the same way."""
        size = sum(math.prod(shape) for shape in shapes.values())
        flat, grad = np.zeros(size, dtype=dtype), np.empty(size, dtype=dtype)
        params, grad_views, start = {}, {}, 0
        for pname, shape in shapes.items():
            stop = start + math.prod(shape)
            params[pname] = Tensor(flat[start:stop].reshape(shape))
            grad_views[pname] = grad[start:stop].reshape(shape)
            start = stop
        return ParamBlock(name, flat, MappingProxyType(params), grad, MappingProxyType(grad_views))


class Dense(NamedTuple):
    """One dense layer's tensors: weight, bias and, if it normalizes, its ``(gamma, beta, state)``."""

    w: Tensor
    b: Tensor
    bn: tuple[Tensor, Tensor, BatchNormState] | None


@dataclass
class ModelPair:
    """G plus the shared trunk and its two heads, held as four parameter blocks.

    ``params`` is a read-only view of every block's parameters in block
    order, so no tensor can be rebound away from the vector Adam updates.
    The forward passes read each layer's tensors from its ``Dense`` record,
    which ``_layout_models`` builds once from its block's views.
    """

    spec: LatentSpec
    gen_cfg: NetConfig
    dq_cfg: NetConfig
    blocks: Mapping[str, ParamBlock]
    bn_states: dict[str, BatchNormState]
    gen_layers: tuple[Dense, ...]
    trunk_layers: tuple[Dense, ...]
    d_out: Dense
    q_l0: Dense
    q_out: Dense
    params: Mapping[str, Tensor] = field(init=False)

    def __post_init__(self):
        self.blocks = MappingProxyType(dict(self.blocks))
        self.params = MappingProxyType({n: t for b in self.blocks.values() for n, t in b.params.items()})

    @property
    def dtype(self) -> np.dtype:
        """The dtype of every block and running moment, which the model's inputs are drawn or cast in."""
        return self.blocks["gen"].flat.dtype


def _layout_models(gen_cfg: NetConfig, dq_cfg: NetConfig, spec: LatentSpec, dtype) -> ModelPair:
    """Check the configs and lay out a ModelPair: every block zero, fresh batchnorm states, nothing drawn.

    Each dense layer is declared once, by name, with its batchnorm if it has
    one, in the list of its block (``gen``, ``trunk``, ``d_head``, ``q_head``);
    list order is parameter order: ``{name}.w``, ``{name}.b``, then
    ``{bn}.gamma`` and ``{bn}.beta``. The Q head is its hidden layer
    ``q_head.l0`` and its output layer ``q_head.out``, ``spec.q_dim`` wide.
    Each block is allocated from its list in one pass, which builds its
    ``Dense`` records from the new views. Blocks and running moments are
    held in ``dtype``.
    """
    if gen_cfg.widths[0] != spec.gen_input_dim:
        raise ShapeError(
            f"generator input width {gen_cfg.widths[0]} != noise+code dim {spec.gen_input_dim}"
        )
    if len(gen_cfg.widths) < 3:
        raise ShapeError("generator needs at least one hidden layer")
    if len(dq_cfg.widths) < 2:
        raise ShapeError("discriminator trunk needs at least one layer")
    if dq_cfg.widths[0] != gen_cfg.widths[-1]:
        raise ShapeError(
            f"trunk input width {dq_cfg.widths[0]} != image dim {gen_cfg.widths[-1]}"
        )

    blocks: dict[str, ParamBlock] = {}
    bn_states: dict[str, BatchNormState] = {}

    def layout(block: str, layers: list[tuple[str, int, int, str | None]]) -> list[Dense]:
        """Allocate ``block`` from its ``(layer, fan_in, fan_out, bn name or None)`` tuples; their Dense records."""
        shapes = {}
        for name, fan_in, fan_out, bn_name in layers:
            shapes[f"{name}.w"], shapes[f"{name}.b"] = (fan_in, fan_out), (fan_out,)
            if bn_name is not None:
                shapes[f"{bn_name}.gamma"], shapes[f"{bn_name}.beta"] = (fan_out,), (fan_out,)
                bn_states[bn_name] = BatchNormState(fan_out, dtype)
        blocks[block] = ParamBlock.allocate(block, shapes, dtype)
        p = blocks[block].params
        return [Dense(p[f"{name}.w"], p[f"{name}.b"],
                      None if bn_name is None else (p[f"{bn_name}.gamma"], p[f"{bn_name}.beta"], bn_states[bn_name]))
                for name, _, _, bn_name in layers]

    gw, tw, hq = gen_cfg.widths, dq_cfg.widths, dq_cfg.q_hidden
    # batchnorm on every hidden generator layer, none on the image layer
    gen = layout("gen", [(f"gen.l{i}", gw[i], gw[i + 1], f"gen.bn{i}" if gen_cfg.batchnorm and i < len(gw) - 2 else None)
                         for i in range(len(gw) - 1)])
    # mirror the usual stack: no normalization right after the input layer
    trunk = layout("trunk", [(f"trunk.l{i}", tw[i], tw[i + 1], f"trunk.bn{i}" if dq_cfg.batchnorm and i > 0 else None)
                             for i in range(len(tw) - 1)])
    (d_out,) = layout("d_head", [("d_head.out", tw[-1], 1, None)])
    q_l0, q_out = layout("q_head", [("q_head.l0", tw[-1], hq, "q_head.bn0" if dq_cfg.batchnorm else None),
                                    ("q_head.out", hq, spec.q_dim, None)])
    return ModelPair(spec, gen_cfg, dq_cfg, blocks, bn_states, gen_layers=tuple(gen), trunk_layers=tuple(trunk),
                     d_out=d_out, q_l0=q_l0, q_out=q_out)


def init_models(
    gen_cfg: NetConfig, dq_cfg: NetConfig, spec: LatentSpec, rng: np.random.Generator, dtype=TRAIN_DTYPE
) -> ModelPair:
    """Build a ``dtype`` ModelPair with weights ~ N(0, 0.02), zero biases and unit batchnorm scales.

    Parameter creation order is fixed, so a fixed seed reproduces every
    tensor bitwise.
    """
    model = _layout_models(gen_cfg, dq_cfg, spec, dtype)
    # Every block is laid out before the first draw, and each weight is drawn in creation order
    # straight into its view: standard normals of the model's dtype, scaled by WEIGHT_STD in place,
    # without the per-layer temporary that measurably raised the MNIST-shaped run's peak RSS.
    for name, t in model.params.items():
        if name.endswith(".w"):
            rng.standard_normal(out=t.data, dtype=t.data.dtype)
            t.data *= WEIGHT_STD
        elif name.endswith(".gamma"):
            t.data[...] = 1.0
    return model


def _dense(layer: Dense, x: Tensor, training: bool, act: str | None = None) -> Tensor:
    """act(layer(x)), the activation folded into the layer's last op: one tape node, two with batchnorm."""
    if layer.bn is None:
        return ad.linear(x, layer.w, layer.b, act)
    return ad.batchnorm(ad.linear(x, layer.w, layer.b), *layer.bn, training, act)


def gen_forward(model: ModelPair, g_input: Tensor, training: bool = True) -> Tensor:
    """G(z, c): the (B, noise_dim + encoded_dim) input matrix through the stack, sigmoid pixels in (0,1)."""
    if g_input.shape[-1] != model.gen_cfg.widths[0]:
        raise ShapeError(f"latent input width {g_input.shape[-1]} != generator input {model.gen_cfg.widths[0]}")
    h = g_input
    *hidden, out = model.gen_layers
    for layer in hidden:
        h = _dense(layer, h, training, "relu")
    return _dense(out, h, training, "sigmoid")


def _trunk(model: ModelPair, x: Tensor, training: bool) -> Tensor:
    if x.shape[-1] != model.dq_cfg.widths[0]:
        raise ShapeError(f"input dim {x.shape[-1]} != trunk input {model.dq_cfg.widths[0]}")
    h = x
    for layer in model.trunk_layers:
        h = _dense(layer, h, training, "lrelu")
    return h


def _q_head(model: ModelPair, h: Tensor, training: bool) -> Tensor:
    return _dense(model.q_out, _dense(model.q_l0, h, training, "lrelu"), training)


def disc_forward(model: ModelPair, x: Tensor, training: bool = True) -> Tensor:
    """The (B,1) discriminator logit alone: the trunk and the D head, no Q head."""
    return _dense(model.d_out, _trunk(model, x, training), training)


def q_forward(model: ModelPair, x: Tensor, training: bool = True) -> Tensor:
    """Q's (B, F) output alone: the trunk and the Q head, no D head."""
    return _q_head(model, _trunk(model, x, training), training)


def disc_q_forward(model: ModelPair, x: Tensor, training: bool = True) -> tuple[Tensor, Tensor]:
    """One shared trunk pass, then the D head (one logit) and the Q head.

    Returns the (B,1) discriminator logit and Q's (B, F) output. Log sigma
    is returned raw; ``gaussian_log_q`` clamps it to +/-7 before any
    exponentiation.
    """
    h = _trunk(model, x, training)
    return _dense(model.d_out, h, training), _q_head(model, h, training)
