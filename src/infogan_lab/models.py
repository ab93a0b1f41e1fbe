"""Generator and shared discriminator/recognition networks.

Everything is a fully connected stack at desk scale; each layer is one
``linear`` op. The discriminator head and the recognition head share one
trunk. ``disc_q_forward`` runs the trunk once and feeds both heads, so the
recognition model adds only its own head's cost; ``disc_forward`` and
``q_forward`` run the trunk and one head, for callers that read only the D
logit (the discriminator step) or only Q (evaluation). Q's outputs are a
tuple in spec order: (B,K) logits per categorical code, a (mu, log sigma)
pair of (B,dim) tensors per continuous one.

Parameters live in four clock blocks (``gen``, ``trunk``, ``d_head``,
``q_head``), the units Adam steps. Each block is one flat float64 vector,
laid out before any weight is drawn, and each parameter ``Tensor`` wraps a
C-contiguous reshaped view of it. ``ModelPair.params`` lists every view by
name, read-only, so updating a block's vector updates what the forward
pass reads, and loading copies into the views rather than rebinding them.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, ShapeError, Tensor
from .latent import LatentSpec

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
    The forward passes read each layer's tensors from its ``Dense`` record,
    which ``_layout_models`` resolves once from the layer's declared names;
    ``q_outs`` holds one entry per code block, the logits layer of a
    categorical code or the ``(mu, log sigma)`` pair of a continuous one.
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
    q_outs: tuple[Dense | tuple[Dense, Dense], ...]
    params: Mapping[str, Tensor] = field(init=False)

    def __post_init__(self):
        self.blocks = MappingProxyType(dict(self.blocks))
        self.params = MappingProxyType({n: t for b in self.blocks.values() for n, t in b.params.items()})


def _layout_models(gen_cfg: NetConfig, dq_cfg: NetConfig, spec: LatentSpec) -> ModelPair:
    """Check the configs and lay out a ModelPair: every block zero, fresh batchnorm states, nothing drawn.

    Each dense layer is declared once, by name, with its batchnorm if it has
    one. The name's prefix (``gen``, ``trunk``, ``d_head``, ``q_head``) picks
    the block, and declaration order is parameter order: ``{name}.w``,
    ``{name}.b``, then ``{bn}.gamma`` and ``{bn}.beta``. The Q head's per-code
    layers are ``q_head.cat{i}`` / ``q_head.cont{i}``, counted per family in
    spec order, a continuous one split into ``.mu`` and ``.s``. Once every
    block is allocated, each declared name resolves to its ``Dense`` record.
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

    shapes: dict[str, dict[str, tuple[int, ...]]] = {}  # block -> parameter -> shape, in creation order
    bn_states: dict[str, BatchNormState] = {}
    bn_of: dict[str, str] = {}  # layer name -> the name of its batchnorm

    def dense(name: str, fan_in: int, fan_out: int, bn_name: str | None = None) -> str:
        block = shapes.setdefault(name.partition(".")[0], {})
        block[f"{name}.w"], block[f"{name}.b"] = (fan_in, fan_out), (fan_out,)
        if bn_name is not None:
            block[f"{bn_name}.gamma"], block[f"{bn_name}.beta"] = (fan_out,), (fan_out,)
            bn_states[bn_name] = BatchNormState(fan_out)
            bn_of[name] = bn_name
        return name

    gw, tw = gen_cfg.widths, dq_cfg.widths
    # batchnorm on every hidden generator layer, none on the image layer
    gen = [dense(f"gen.l{i}", gw[i], gw[i + 1], f"gen.bn{i}" if gen_cfg.batchnorm and i < len(gw) - 2 else None)
           for i in range(len(gw) - 1)]
    # mirror the usual stack: no normalization right after the input layer
    trunk = [dense(f"trunk.l{i}", tw[i], tw[i + 1], f"trunk.bn{i}" if dq_cfg.batchnorm and i > 0 else None)
             for i in range(len(tw) - 1)]
    d_out = dense("d_head.out", tw[-1], 1)
    hq = dq_cfg.q_hidden
    q_l0 = dense("q_head.l0", tw[-1], hq, "q_head.bn0" if dq_cfg.batchnorm else None)
    counters = {"cat": itertools.count(), "cont": itertools.count()}
    q_outs = []
    for block in spec.blocks:
        if block.is_discrete:
            q_outs.append(dense(f"q_head.cat{next(counters['cat'])}", hq, block.k))
        else:
            name = f"q_head.cont{next(counters['cont'])}"
            q_outs.append((dense(f"{name}.mu", hq, block.dim), dense(f"{name}.s", hq, block.dim)))

    blocks = {b: ParamBlock.allocate(b, block_shapes) for b, block_shapes in shapes.items()}

    def param(name: str) -> Tensor:
        return blocks[name.partition(".")[0]].params[name]

    def resolve(decl):
        """The ``Dense`` record of a declared layer name, or a tuple of them for a tuple of names."""
        if not isinstance(decl, str):
            return tuple(map(resolve, decl))
        bn_name = bn_of.get(decl)
        bn = None if bn_name is None else (param(f"{bn_name}.gamma"), param(f"{bn_name}.beta"), bn_states[bn_name])
        return Dense(param(f"{decl}.w"), param(f"{decl}.b"), bn)

    return ModelPair(spec, gen_cfg, dq_cfg, blocks, bn_states, gen_layers=resolve(gen), trunk_layers=resolve(trunk),
                     d_out=resolve(d_out), q_l0=resolve(q_l0), q_outs=resolve(q_outs))


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


def gen_forward(model: ModelPair, g_input: Tensor, training: bool = True) -> Tensor:
    """G(z, c): the (B, noise_dim + encoded_dim) input matrix through the stack, sigmoid pixels in (0,1)."""
    if g_input.shape[-1] != model.gen_cfg.widths[0]:
        raise ShapeError(f"latent input width {g_input.shape[-1]} != generator input {model.gen_cfg.widths[0]}")
    h = g_input
    *hidden, out = model.gen_layers
    for layer in hidden:
        h = ad.relu(_dense(layer, h, training))
    return ad.sigmoid(_dense(out, h, training))


def _trunk(model: ModelPair, x: Tensor, training: bool) -> Tensor:
    if x.shape[-1] != model.dq_cfg.widths[0]:
        raise ShapeError(f"input dim {x.shape[-1]} != trunk input {model.dq_cfg.widths[0]}")
    h = x
    for layer in model.trunk_layers:
        h = ad.lrelu(_dense(layer, h, training), LRELU_RATE)
    return h


def _q_head(model: ModelPair, h: Tensor, training: bool) -> tuple:
    hq = ad.lrelu(_dense(model.q_l0, h, training), LRELU_RATE)
    q = []
    for block, out in zip(model.spec.blocks, model.q_outs):
        if block.is_discrete:
            q.append(_dense(out, hq, training))
        else:
            mu, s_raw = (_dense(layer, hq, training) for layer in out)
            q.append((mu, ad.clip(s_raw, -LOG_SIGMA_BOUND, LOG_SIGMA_BOUND)))
    return tuple(q)


def disc_forward(model: ModelPair, x: Tensor, training: bool = True) -> Tensor:
    """The (B,1) discriminator logit alone: the trunk and the D head, no Q head."""
    return _dense(model.d_out, _trunk(model, x, training), training)


def q_forward(model: ModelPair, x: Tensor, training: bool = True) -> tuple:
    """Q's outputs alone, one entry per code block: the trunk and the Q head, no D head."""
    return _q_head(model, _trunk(model, x, training), training)


def disc_q_forward(model: ModelPair, x: Tensor, training: bool = True) -> tuple[Tensor, tuple]:
    """One shared trunk pass, then the D head (one logit) and the Q head.

    Returns the (B,1) discriminator logit and Q's outputs, one entry per
    code block; log sigma is clamped to +/-7 before any exponentiation.
    """
    h = _trunk(model, x, training)
    return _dense(model.d_out, h, training), _q_head(model, h, training)
