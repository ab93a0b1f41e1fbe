"""Latent specification: structured codes c plus incompressible noise z.

A spec is an ordered list of code blocks (categorical / uniform / gaussian)
with a factored prior, so the total code entropy is the sum of per-block
closed forms. Sampling, one-hot encoding, analytic entropies and the
recognition-model log-likelihood log Q(c|x) all live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, UsageError

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
            if np.any(p < 0.0) or abs(p.sum() - 1.0) > 1e-12:
                raise SpecError(f"categorical probs must be >= 0 and sum to 1, got {self.probs}")
            if self.dim != 1:
                raise SpecError("categorical blocks carry one value (dim must be 1)")
        elif self.kind == "uniform":
            if not self.lo < self.hi:
                raise SpecError(f"uniform block needs lo < hi, got [{self.lo}, {self.hi}]")
        elif self.kind == "gaussian":
            if not self.sigma > 0.0:
                raise SpecError(f"gaussian block needs sigma > 0, got {self.sigma}")
        else:
            raise SpecError(f"unknown block kind '{self.kind}'")
        if self.dim < 1:
            raise SpecError(f"block dim must be positive, got {self.dim}")

    @staticmethod
    def categorical(k: int, probs=None) -> "CodeBlock":
        if probs is None:
            probs = [1.0 / k] * k
        return CodeBlock(kind="categorical", probs=tuple(float(p) for p in probs))

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

    def entropy(self) -> float:
        """Analytic entropy in nats (differential for continuous kinds)."""
        if self.kind == "categorical":
            p = np.asarray(self.probs)
            nz = p[p > 0.0]
            return float(-(nz * np.log(nz)).sum())
        if self.kind == "uniform":
            return self.dim * float(np.log(self.hi - self.lo))
        return self.dim * 0.5 * float(np.log(2.0 * np.pi * np.e * self.sigma**2))

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
                probs = [float(p) for p in parts[2].split(",")]
                if len(probs) != k:
                    raise SpecError(f"cat:{k} token lists {len(probs)} probabilities")
                return CodeBlock.categorical(k, probs)
        elif kind == "unif" and len(parts) in (3, 4):
            dim = int(parts[3]) if len(parts) == 4 else 1
            return CodeBlock.uniform(float(parts[1]), float(parts[2]), dim)
        elif kind == "gauss" and len(parts) in (3, 4):
            dim = int(parts[3]) if len(parts) == 4 else 1
            return CodeBlock.gaussian(float(parts[1]), float(parts[2]), dim)
    except (ValueError, IndexError) as err:
        if isinstance(err, SpecError):
            raise
        raise SpecError(f"malformed code token '{token}'") from err
    raise SpecError(f"malformed code token '{token}'")


@dataclass(frozen=True)
class EntropyBreakdown:
    per_block: tuple[float, ...]
    discrete: float
    continuous: float
    total: float


@dataclass(frozen=True)
class LatentSpec:
    """Ordered code blocks plus the unstructured noise dimension.

    The constants every forward pass reads (``gen_input_dim``,
    ``signature()`` and the :func:`entropy` breakdown) are computed once,
    when the spec is built.
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
        per_block = tuple(b.entropy() for b in blocks)
        disc = sum(h for b, h in zip(blocks, per_block) if b.is_discrete)
        cont = sum(h for b, h in zip(blocks, per_block) if not b.is_discrete)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "encoded_dim", sum(b.encoded_dim for b in blocks))
        object.__setattr__(self, "gen_input_dim", self.noise_dim + self.encoded_dim)
        object.__setattr__(self, "_signature", tuple((b.kind, b.encoded_dim) for b in blocks))
        object.__setattr__(
            self, "_entropy", EntropyBreakdown(per_block=per_block, discrete=disc, continuous=cont, total=disc + cont)
        )

    def encoded_slices(self) -> list[slice]:
        """Column ranges of each block inside the encoded code matrix."""
        out, start = [], 0
        for b in self.blocks:
            out.append(slice(start, start + b.encoded_dim))
            start += b.encoded_dim
        return out

    def signature(self) -> tuple:
        """(kind, encoded width) per block: the structure Q's outputs must match."""
        return self._signature


def entropy(spec: LatentSpec) -> EntropyBreakdown:
    """Closed-form H(c) per block plus family and grand totals (nats), as computed when ``spec`` was built."""
    return spec._entropy


def one_hot(indices: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((len(indices), k))
    out[np.arange(len(indices)), indices] = 1.0
    return out


@dataclass
class LatentBatch:
    """One sampled batch: raw block values, and the matrix fed to G.

    ``g_input`` holds the noise z in its first ``noise_dim`` columns and the
    encoded codes c after them, in block order (``encoded_slices``).
    """

    spec: LatentSpec
    c_raw: list[np.ndarray]   # per block: (B,) int indices or (B, dim) floats
    g_input: Tensor           # (B, noise_dim + encoded_dim)

    @property
    def batch_size(self) -> int:
        return self.g_input.shape[0]


def sample_latent(spec: LatentSpec, batch: int, rng: np.random.Generator) -> LatentBatch:
    """Draw z and every code block i.i.d. from its prior (deterministic given rng state)."""
    if batch < 1:
        raise SpecError(f"batch must be >= 1, got {batch}")
    if spec.noise_kind == "normal":
        z = rng.standard_normal((batch, spec.noise_dim))
    else:
        z = rng.uniform(-1.0, 1.0, (batch, spec.noise_dim))
    raw: list[np.ndarray] = []
    encoded: list[np.ndarray] = []
    for block in spec.blocks:
        if block.kind == "categorical":
            idx = rng.choice(block.k, size=batch, p=np.asarray(block.probs))
            raw.append(idx)
            encoded.append(one_hot(idx, block.k))
        elif block.kind == "uniform":
            v = rng.uniform(block.lo, block.hi, (batch, block.dim))
            raw.append(v)
            encoded.append(v)
        else:
            v = block.mean + block.sigma * rng.standard_normal((batch, block.dim))
            raw.append(v)
            encoded.append(v)
    return LatentBatch(spec=spec, c_raw=raw, g_input=Tensor(np.concatenate([z, *encoded], axis=1)))


@dataclass
class QPosteriorParams:
    """Recognition-head outputs, one entry of ``blocks`` per code block in spec order.

    A categorical block's entry is its (B,K) logits; a continuous block's
    entry is a diagonal Gaussian's (mu, log_sigma), each (B,dim). Sigma is
    always exp(log_sigma), hence strictly positive.
    """

    spec: LatentSpec
    blocks: list[Tensor | tuple[Tensor, Tensor]] = field(default_factory=list)

    def check_against(self, spec: LatentSpec) -> None:
        if self.spec.signature() != spec.signature() or len(self.blocks) != len(spec.blocks):
            raise UsageError("QPosteriorParams does not match the latent spec structure")


def log_q(params: QPosteriorParams, batch: LatentBatch) -> tuple[Tensor | None, Tensor | None]:
    """Per-sample log Q(c|x), split into (discrete, continuous) columns of shape (B,1).

    Discrete part: the fused ``categorical_log_q`` op, the log-softmax of
    the block logits at the sampled category, summed over categorical
    blocks. Continuous part: the fused
    ``gaussian_log_q`` op, the diagonal Gaussian log-density
    sum(-0.5*ln(2pi) - s - (c-mu)^2 / (2*exp(2s))) over dims.
    Differentiable w.r.t. logits, mu and log_sigma (and through them x).
    """
    params.check_against(batch.spec)
    b = batch.batch_size
    disc: Tensor | None = None
    cont: Tensor | None = None
    for block, out, raw in zip(batch.spec.blocks, params.blocks, batch.c_raw, strict=True):
        if block.is_discrete:
            per_sample = ad.categorical_log_q(out, raw)
            disc = per_sample if disc is None else ad.add(disc, per_sample)
        else:
            c = ad.const(np.asarray(raw, dtype=np.float64).reshape(b, block.dim))
            per_sample = ad.gaussian_log_q(c, *out)
            cont = per_sample if cont is None else ad.add(cont, per_sample)
    return disc, cont
