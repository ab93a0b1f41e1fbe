"""Generator and shared discriminator/recognition networks.

Everything is a fully connected stack at desk scale; each layer is one
``linear`` op. The discriminator head and the recognition head share one
trunk. ``disc_q_forward`` runs the trunk once and feeds both heads, so the
recognition model adds only its own head's cost; ``disc_forward`` and
``q_forward`` run the trunk and one head, for callers that read only the D
logit (the discriminator step) or only Q (evaluation).

Parameters live in four clock blocks (``gen``, ``trunk``, ``d_head``,
``q_head``), the units Adam steps. Each block is one flat float64 vector,
laid out before any weight is drawn, and each parameter ``Tensor`` wraps a
C-contiguous reshaped view of it. ``ModelPair.params`` lists every view by
name, read-only, so updating a block's vector updates what the forward
pass reads, and loading copies into the views rather than rebinding them.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, ShapeError, Tensor
from .latent import LatentBatch, LatentSpec, QPosteriorParams

LOG_SIGMA_BOUND = 7.0  # |log sigma| cap before exponentiation
LRELU_RATE = 0.1  # leak of the trunk's and the Q head's lrelu; the generator uses relu

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
    """One Adam clock block: a flat float64 vector and its parameters, each a view into it."""

    name: str
    flat: np.ndarray
    params: Mapping[str, Tensor]

    @staticmethod
    def allocate(name: str, shapes: dict[str, tuple[int, ...]]) -> "ParamBlock":
        """A zero block laid out in ``shapes`` order, one C-contiguous reshaped view per parameter."""
        flat = np.zeros(sum(math.prod(shape) for shape in shapes.values()))
        params, start = {}, 0
        for pname, shape in shapes.items():
            stop = start + math.prod(shape)
            params[pname] = Tensor(flat[start:stop].reshape(shape))
            start = stop
        return ParamBlock(name, flat, MappingProxyType(params))


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
    The forward passes read each layer's tensors from the ``Dense`` records
    resolved once here, not by name.
    """

    spec: LatentSpec
    gen_cfg: NetConfig
    dq_cfg: NetConfig
    blocks: Mapping[str, ParamBlock]
    bn_states: dict[str, BatchNormState]
    params: Mapping[str, Tensor] = field(init=False)
    q_block_names: list[str] = field(init=False)  # checkpoint names of the Q head's per-code layers
    gen_layers: tuple[Dense, ...] = field(init=False)
    trunk_layers: tuple[Dense, ...] = field(init=False)
    d_out: Dense = field(init=False)
    q_l0: Dense = field(init=False)
    q_outs: tuple[Dense | tuple[Dense, Dense], ...] = field(init=False)  # per code block: logits, or (mu, log sigma)

    def __post_init__(self):
        self.blocks = MappingProxyType(dict(self.blocks))
        self.params = MappingProxyType({n: t for b in self.blocks.values() for n, t in b.params.items()})
        self.q_block_names = _q_block_names(self.spec)

        def dense(name: str, bn_name: str = "") -> Dense:
            state = self.bn_states.get(bn_name)
            bn = None if state is None else (self.params[f"{bn_name}.gamma"], self.params[f"{bn_name}.beta"], state)
            return Dense(self.params[f"{name}.w"], self.params[f"{name}.b"], bn)

        self.gen_layers = tuple(dense(f"gen.l{i}", f"gen.bn{i}") for i in range(len(self.gen_cfg.widths) - 1))
        self.trunk_layers = tuple(dense(f"trunk.l{i}", f"trunk.bn{i}") for i in range(len(self.dq_cfg.widths) - 1))
        self.d_out = dense("d_head.out")
        self.q_l0 = dense("q_head.l0", "q_head.bn0")
        self.q_outs = tuple(
            dense(name) if block.is_discrete else (dense(f"{name}.mu"), dense(f"{name}.s"))
            for block, name in zip(self.spec.blocks, self.q_block_names)
        )

    @property
    def image_dim(self) -> int:
        return self.gen_cfg.widths[-1]


def _q_block_names(spec: LatentSpec) -> list[str]:
    """Q-head layer name per code block: ``q_head.cat{i}`` / ``q_head.cont{i}``, counted per family."""
    families = ["cat" if b.is_discrete else "cont" for b in spec.blocks]
    return [f"q_head.{f}{families[:i].count(f)}" for i, f in enumerate(families)]


def _layout_models(gen_cfg: NetConfig, dq_cfg: NetConfig, spec: LatentSpec) -> ModelPair:
    """Check the configs and lay out a ModelPair: every block zero, fresh batchnorm states, nothing drawn."""
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

    shapes: dict[str, dict[str, tuple[int, ...]]] = {}  # block -> parameter -> shape, in creation order
    bn_states: dict[str, BatchNormState] = {}

    def linear(name: str, fan_in: int, fan_out: int) -> None:
        block = shapes.setdefault(name.partition(".")[0], {})
        block[f"{name}.w"], block[f"{name}.b"] = (fan_in, fan_out), (fan_out,)

    def batchnorm(name: str, width: int) -> None:
        block = shapes.setdefault(name.partition(".")[0], {})
        block[f"{name}.gamma"], block[f"{name}.beta"] = (width,), (width,)
        bn_states[name] = BatchNormState(width)

    for i in range(len(gen_cfg.widths) - 1):
        linear(f"gen.l{i}", gen_cfg.widths[i], gen_cfg.widths[i + 1])
        is_hidden = i < len(gen_cfg.widths) - 2
        if gen_cfg.batchnorm and is_hidden:
            batchnorm(f"gen.bn{i}", gen_cfg.widths[i + 1])

    for i in range(len(dq_cfg.widths) - 1):
        linear(f"trunk.l{i}", dq_cfg.widths[i], dq_cfg.widths[i + 1])
        # mirror the usual stack: no normalization right after the input layer
        if dq_cfg.batchnorm and i > 0:
            batchnorm(f"trunk.bn{i}", dq_cfg.widths[i + 1])

    feat = dq_cfg.widths[-1]
    linear("d_head.out", feat, 1)

    linear("q_head.l0", feat, dq_cfg.q_hidden)
    if dq_cfg.batchnorm:
        batchnorm("q_head.bn0", dq_cfg.q_hidden)
    for block, name in zip(spec.blocks, _q_block_names(spec)):
        if block.is_discrete:
            linear(name, dq_cfg.q_hidden, block.k)
        else:
            linear(f"{name}.mu", dq_cfg.q_hidden, block.dim)
            linear(f"{name}.s", dq_cfg.q_hidden, block.dim)

    blocks = {b: ParamBlock.allocate(b, block_shapes) for b, block_shapes in shapes.items()}
    return ModelPair(spec, gen_cfg, dq_cfg, blocks, bn_states)


def init_models(gen_cfg: NetConfig, dq_cfg: NetConfig, spec: LatentSpec, rng: np.random.Generator) -> ModelPair:
    """Build a ModelPair with weights ~ N(0, 0.02), zero biases and unit batchnorm scales.

    Parameter creation order is fixed, so a fixed seed reproduces every
    tensor bitwise.
    """
    model = _layout_models(gen_cfg, dq_cfg, spec)
    # Every block is laid out before the first draw, and each weight is drawn in creation order
    # straight into its view: the draws and products of rng.normal(0, WEIGHT_STD), without the
    # per-layer temporary that measurably raised the MNIST-shaped run's peak RSS.
    for name, t in model.params.items():
        if name.endswith(".w"):
            rng.standard_normal(out=t.data)
            t.data *= WEIGHT_STD
        elif name.endswith(".gamma"):
            t.data[...] = 1.0
    return model


def _dense(layer: Dense, x: Tensor, training: bool) -> Tensor:
    h = ad.linear(x, layer.w, layer.b)
    return h if layer.bn is None else ad.batchnorm(h, *layer.bn, training)


def gen_forward(model: ModelPair, batch: LatentBatch, training: bool = True) -> Tensor:
    """G(z, c): the batch's ``g_input`` matrix through the stack, sigmoid pixels in (0,1)."""
    if batch.spec.gen_input_dim != model.gen_cfg.widths[0]:
        raise ShapeError(
            f"latent batch input dim {batch.spec.gen_input_dim} != generator input {model.gen_cfg.widths[0]}"
        )
    h = batch.g_input
    *hidden, out = model.gen_layers
    for layer in hidden:
        h = ad.relu(_dense(layer, h, training))
    return ad.sigmoid(_dense(out, h, training))


def _trunk(model: ModelPair, x: Tensor, training: bool) -> Tensor:
    if x.shape[1] != model.dq_cfg.widths[0]:
        raise ShapeError(f"input dim {x.shape[1]} != trunk input {model.dq_cfg.widths[0]}")
    h = x
    for layer in model.trunk_layers:
        h = ad.lrelu(_dense(layer, h, training), LRELU_RATE)
    return h


def _q_head(model: ModelPair, h: Tensor, training: bool) -> QPosteriorParams:
    hq = ad.lrelu(_dense(model.q_l0, h, training), LRELU_RATE)
    q = QPosteriorParams(spec=model.spec)
    for block, out in zip(model.spec.blocks, model.q_outs):
        if block.is_discrete:
            q.blocks.append(_dense(out, hq, training))
        else:
            mu_layer, s_layer = out
            mu = _dense(mu_layer, hq, training)
            s_raw = _dense(s_layer, hq, training)
            q.blocks.append((mu, ad.clip(s_raw, -LOG_SIGMA_BOUND, LOG_SIGMA_BOUND)))
    return q


def disc_forward(model: ModelPair, x: Tensor, training: bool = True) -> Tensor:
    """The (B,1) discriminator logit alone: the trunk and the D head, no Q head."""
    return _dense(model.d_out, _trunk(model, x, training), training)


def q_forward(model: ModelPair, x: Tensor, training: bool = True) -> QPosteriorParams:
    """The recognition posterior parameters alone: the trunk and the Q head, no D head."""
    return _q_head(model, _trunk(model, x, training), training)


def disc_q_forward(model: ModelPair, x: Tensor, training: bool = True) -> tuple[Tensor, QPosteriorParams]:
    """One shared trunk pass, then the D head (one logit) and the Q head.

    Returns the (B,1) discriminator logit and the recognition posterior
    parameters; log sigma is clamped to +/-7 before any exponentiation.
    """
    h = _trunk(model, x, training)
    return _dense(model.d_out, h, training), _q_head(model, h, training)
