"""Latent specification: structured codes c plus incompressible noise z.

A spec is an ordered list of code blocks (categorical / uniform / gaussian)
with a factored prior, so each code family's entropy is a sum of per-block
closed forms. Sampling, one-hot encoding, analytic entropies and log Q(c|x)
live here; ``log_q`` takes Q's output as one (B, F) tensor, each block's
parameters in its own columns (``LatentSpec.q_slices``), and checks its width.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import TRAIN_DTYPE, Tensor, UsageError

class SpecError(ValueError):
    """Invalid latent specification."""


@dataclass(frozen=True)
class CodeBlock:
    """One independent factor of the latent code.

    kind 'categorical': ``probs`` has K entries (one-hot encoded, width K).
    kind 'uniform'/'gaussian': ``dim`` real dimensions, encoded as-is.
    """

    kind: str
    dim: int = 1
    probs: tuple[float, ...] | None = None
    lo: float = -1.0
    hi: float = 1.0
    mean: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind == "categorical":
            if self.probs is None or len(self.probs) < 2:
                raise SpecError("categorical block needs >= 2 probabilities")
            p = np.asarray(self.probs, dtype=np.float64)
            # written as "not (valid)" so that a NaN, which fails every comparison, is caught
            if not (np.all(p >= 0.0) and abs(p.sum() - 1.0) <= 1e-12):
                raise SpecError(f"categorical probs must be >= 0 and sum to 1, got {self.probs}")
            if self.dim != 1:
                raise SpecError("categorical blocks carry one value (dim must be 1)")
        elif self.kind == "uniform":
            if not self.lo < self.hi:
                raise SpecError(f"uniform block needs lo < hi, got [{self.lo}, {self.hi}]")
        elif self.kind == "gaussian":
            if not self.sigma > 0.0:
                raise SpecError(f"gaussian block needs sigma > 0, got {self.sigma}")
            if not np.isfinite(self.mean):
                raise SpecError(f"gaussian block needs a finite mean, got {self.mean}")
        else:
            raise SpecError(f"unknown block kind '{self.kind}'")
        if self.dim < 1:
            raise SpecError(f"block dim must be positive, got {self.dim}")
        # a sigma whose square under- or overflows, or a range wider than a float, gives no finite H(c)
        h = self.entropy()
        if not np.isfinite(h):
            raise SpecError(f"{self.kind} block entropy must be finite, got {h} nats")

    @staticmethod
    def categorical(k: int, probs=None) -> "CodeBlock":
        if k < 2:
            raise SpecError(f"categorical block needs >= 2 categories, got {k}")
        probs = (1.0 / k,) * k if probs is None else tuple(float(p) for p in probs)
        if len(probs) != k:
            raise SpecError(f"categorical block of {k} categories lists {len(probs)} probabilities")
        return CodeBlock(kind="categorical", probs=probs)

    @staticmethod
    def uniform(lo: float, hi: float, dim: int = 1) -> "CodeBlock":
        return CodeBlock(kind="uniform", lo=float(lo), hi=float(hi), dim=dim)

    @staticmethod
    def gaussian(mean: float, sigma: float, dim: int = 1) -> "CodeBlock":
        return CodeBlock(kind="gaussian", mean=float(mean), sigma=float(sigma), dim=dim)

    @property
    def k(self) -> int:
        """Category count (categorical blocks only)."""
        return len(self.probs)

    @property
    def encoded_dim(self) -> int:
        return self.k if self.kind == "categorical" else self.dim

    @property
    def is_discrete(self) -> bool:
        return self.kind == "categorical"

    @property
    def q_dim(self) -> int:
        """Columns of Q's output this block's parameters take: K logits, or dim means and dim log sigmas."""
        return self.k if self.kind == "categorical" else 2 * self.dim

    def entropy(self) -> float:
        """Analytic entropy in nats (differential for continuous kinds)."""
        if self.kind == "categorical":
            p = np.asarray(self.probs)
            nz = p[p > 0.0]
            return float(-(nz * np.log(nz)).sum())
        if self.kind == "uniform":
            return self.dim * float(np.log(self.hi - self.lo))
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            return self.dim * 0.5 * float(np.log(2.0 * np.pi * np.e * np.float64(self.sigma) ** 2))

    def to_token(self) -> str:
        """Config-file token; inverse of :func:`parse_block_token`."""
        if self.kind == "categorical":
            k = self.k
            if all(p == self.probs[0] for p in self.probs) and abs(self.probs[0] - 1.0 / k) < 1e-15:
                return f"cat:{k}"
            return f"cat:{k}:" + ",".join(repr(p) for p in self.probs)
        if self.kind == "uniform":
            base = f"unif:{self.lo!r}:{self.hi!r}"
        else:
            base = f"gauss:{self.mean!r}:{self.sigma!r}"
        return base if self.dim == 1 else f"{base}:{self.dim}"


def parse_block_token(token: str) -> CodeBlock:
    """Parse ``cat:10``, ``cat:3:0.5,0.25,0.25``, ``unif:-1:1[:dim]``, ``gauss:0:1[:dim]``."""
    parts = token.strip().split(":")
    kind = parts[0]
    try:
        if kind == "cat":
            k = int(parts[1])
            if len(parts) == 2:
                return CodeBlock.categorical(k)
            if len(parts) == 3:
                return CodeBlock.categorical(k, [float(p) for p in parts[2].split(",")])
        elif kind == "unif" and len(parts) in (3, 4):
            dim = int(parts[3]) if len(parts) == 4 else 1
            return CodeBlock.uniform(float(parts[1]), float(parts[2]), dim)
        elif kind == "gauss" and len(parts) in (3, 4):
            dim = int(parts[3]) if len(parts) == 4 else 1
            return CodeBlock.gaussian(float(parts[1]), float(parts[2]), dim)
    except SpecError as err:
        raise SpecError(f"'{token}': {err}") from None
    except (ValueError, IndexError) as err:
        raise SpecError(f"malformed code token '{token}'") from err
    raise SpecError(f"malformed code token '{token}'")


@dataclass(frozen=True)
class LatentSpec:
    """Ordered code blocks plus the unstructured noise dimension.

    The constants every forward pass reads are computed once, when the spec
    is built: ``gen_input_dim``, ``q_dim`` (Q's output width), and ``h_disc``
    and ``h_cont``, the closed-form H(c) of each family's blocks (nats).
    """

    blocks: tuple[CodeBlock, ...]
    noise_dim: int
    noise_kind: str = "normal"  # or "uniform" on [-1, 1]

    def __post_init__(self):
        if self.noise_dim < 0:
            raise SpecError(f"noise_dim must be >= 0, got {self.noise_dim}")
        if self.noise_kind not in ("normal", "uniform"):
            raise SpecError(f"noise_kind must be 'normal' or 'uniform', got '{self.noise_kind}'")
        blocks = tuple(self.blocks)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "encoded_dim", sum(b.encoded_dim for b in blocks))
        object.__setattr__(self, "gen_input_dim", self.noise_dim + self.encoded_dim)
        object.__setattr__(self, "q_dim", sum(b.q_dim for b in blocks))
        object.__setattr__(self, "h_disc", sum(b.entropy() for b in blocks if b.is_discrete))
        object.__setattr__(self, "h_cont", sum(b.entropy() for b in blocks if not b.is_discrete))

    def encoded_slices(self) -> list[slice]:
        """Column ranges of each block inside the encoded code matrix."""
        return _column_ranges(b.encoded_dim for b in self.blocks)

    def q_slices(self) -> list[slice]:
        """Column ranges of each block inside Q's output: K logits, or dim means then dim log sigmas."""
        return _column_ranges(b.q_dim for b in self.blocks)


def _column_ranges(widths) -> list[slice]:
    return [slice(start, stop) for start, stop in itertools.pairwise(itertools.accumulate(widths, initial=0))]


def one_hot(indices: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((len(indices), k))
    out[np.arange(len(indices)), indices] = 1.0
    return out


@dataclass
class LatentBatch:
    """One sampled batch: raw block values, and the matrix fed to G.

    ``g_input`` holds the noise z in its first ``noise_dim`` columns and the
    encoded codes c after them, in block order (``encoded_slices``), in the
    dtype the batch was drawn for; ``c_raw`` keeps the float64 draws.
    """

    spec: LatentSpec
    c_raw: list[np.ndarray]   # per block: (B,) int indices or (B, dim) floats
    g_input: Tensor           # (B, noise_dim + encoded_dim)


def draw_categories(probs, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` category indices drawn from ``probs``: ``rng.choice(len(probs), n, p=probs)``'s own draw, bit for
    bit and from the same stream, without its argument checks."""
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(n), side="right")


def sample_latent(spec: LatentSpec, batch: int, rng: np.random.Generator, dtype=TRAIN_DTYPE) -> LatentBatch:
    """Draw z and every code block i.i.d. from its prior (deterministic given rng state).

    The draws are float64 whatever ``dtype``, so the stream is consumed the
    same way; ``g_input`` holds them rounded to ``dtype``, the model's. A
    continuous draw that ``dtype`` cannot hold (``unif:-1e300:1e300`` in
    float32) raises ``SpecError`` naming its block.
    """
    if batch < 1:
        raise SpecError(f"batch must be >= 1, got {batch}")
    big = float(np.finfo(dtype).max)
    g_input = np.zeros((batch, spec.gen_input_dim), dtype=dtype)
    if spec.noise_kind == "normal":
        g_input[:, : spec.noise_dim] = rng.standard_normal((batch, spec.noise_dim))
    else:
        g_input[:, : spec.noise_dim] = rng.uniform(-1.0, 1.0, (batch, spec.noise_dim))
    raw: list[np.ndarray] = []
    start = spec.noise_dim
    for block in spec.blocks:
        if block.kind == "categorical":
            v = draw_categories(block.probs, batch, rng)
            g_input[np.arange(batch), start + v] = 1.0
        else:
            if block.kind == "uniform":
                v = rng.uniform(block.lo, block.hi, (batch, block.dim))
            else:
                v = block.mean + block.sigma * rng.standard_normal((batch, block.dim))
            if not (widest := np.abs(v).max()) <= big:
                raise SpecError(f"code block '{block.to_token()}' drew {widest:g}, which {np.dtype(dtype)} cannot hold")
            g_input[:, start : start + block.dim] = v
        raw.append(v)
        start += block.encoded_dim
    return LatentBatch(spec=spec, c_raw=raw, g_input=Tensor(g_input))


def log_q(q: Tensor, batch: LatentBatch) -> tuple[list[Tensor], list[Tensor]]:
    """Per-sample log Q(c|x) of each block, split into (discrete, continuous) lists of (B,1) terms.

    ``q`` is Q's (B, F) output, F = ``spec.q_dim``; another shape raises
    ``UsageError``. Each block's op reads the block's columns of ``q``
    (``spec.q_slices()``), with the sampled code as an attribute.

    Discrete part: the fused ``categorical_log_q`` op, the log-softmax of
    the block's logits at the sampled category; continuous part: the fused
    ``gaussian_log_q`` op, the diagonal Gaussian log-density
    sum(-0.5*ln(2pi) - s - (c-mu)^2 / (2*exp(2s))) over dims, with s the
    log_sigma read clamped to +-``autodiff.LOG_SIGMA_BOUND`` (no gradient
    where the clamp is active) and the code values c held in q's dtype. Each
    list holds its family's blocks in spec order, and is empty for a family
    with none; ``weighted_sum`` takes each term as its batch mean.
    Differentiable w.r.t. q (and through it x).
    """
    spec = batch.spec
    want = (batch.g_input.shape[0], spec.q_dim)
    # only the trailing two axes count, so a probe stack (K, B, F) checks as one output
    got = q.shape[-2:] if isinstance(q, Tensor) else type(q).__name__
    if got != want:
        codes = " ".join(b.to_token() for b in spec.blocks)
        raise UsageError(f"Q's output for codes '{codes}' must be of shape {want}, got {got}")
    disc, cont = [], []
    for block, raw, cols in zip(spec.blocks, batch.c_raw, spec.q_slices(), strict=True):
        if block.is_discrete:
            disc.append(ad.categorical_log_q(q, raw, cols))
        else:
            cont.append(ad.gaussian_log_q(q, raw, cols))
    return disc, cont
