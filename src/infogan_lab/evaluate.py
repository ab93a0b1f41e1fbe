"""Evaluation suite: bound estimation, exact oracles, traversals, classifier scoring.

The finite-channel and finite-joint oracles materialize every distribution
by enumeration, so the information quantities here are exact up to float
rounding; they are the reference the learned estimates are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .autodiff import Tensor, UsageError
from .data_io import Dataset, write_image_grid
from .latent import LatentBatch, LatentSpec, entropy, log_q, one_hot, sample_latent
from .models import ModelPair, gen_forward, q_forward


# ---------------------------------------------------------------------------
# Monte-Carlo bound estimation on a trained model
# ---------------------------------------------------------------------------

@dataclass
class MiEstimate:
    """Per-family bound estimate: mean log Q + H, with the Monte-Carlo SE."""

    li_disc: float | None
    se_disc: float | None
    li_cont: float | None
    se_cont: float | None
    h_disc: float
    h_cont: float
    n_samples: int


def estimate_mi_bound(
    model: ModelPair,
    spec: LatentSpec,
    n_samples: int,
    rng: np.random.Generator,
    chunk: int = 512,
) -> MiEstimate:
    if n_samples < 100:
        raise UsageError(f"need at least 100 samples for a stable SE, got {n_samples}")
    ent = entropy(spec)
    disc_samples: list[np.ndarray] = []
    cont_samples: list[np.ndarray] = []
    remaining = n_samples
    while remaining > 0:
        b = min(chunk, remaining)
        lat = sample_latent(spec, b, rng)
        x = gen_forward(model, lat, training=False)
        q_post = q_forward(model, x, training=False)
        lq_disc, lq_cont = log_q(q_post, lat)
        if lq_disc is not None:
            disc_samples.append(lq_disc.data.ravel())
        if lq_cont is not None:
            cont_samples.append(lq_cont.data.ravel())
        remaining -= b

    def _summary(parts: list[np.ndarray], h: float):
        if not parts:
            return None, None
        v = np.concatenate(parts)
        return float(v.mean() + h), float(v.std(ddof=1) / np.sqrt(len(v)))

    li_disc, se_disc = _summary(disc_samples, ent.discrete)
    li_cont, se_cont = _summary(cont_samples, ent.continuous)
    return MiEstimate(
        li_disc=li_disc,
        se_disc=se_disc,
        li_cont=li_cont,
        se_cont=se_cont,
        h_disc=ent.discrete,
        h_cont=ent.continuous,
        n_samples=n_samples,
    )


# ---------------------------------------------------------------------------
# two-sided sampling identity on a finite joint
# ---------------------------------------------------------------------------

@dataclass
class LemmaJointSpec:
    """Finite joint P(x,y) with a payoff table f(x,y)."""

    joint: np.ndarray   # (|X|, |Y|), sums to 1
    payoff: np.ndarray  # (|X|, |Y|)

    def __post_init__(self):
        self.joint = np.asarray(self.joint, dtype=np.float64)
        self.payoff = np.asarray(self.payoff, dtype=np.float64)
        if self.joint.shape != self.payoff.shape or self.joint.ndim != 2:
            raise UsageError(f"joint {self.joint.shape} and payoff {self.payoff.shape} must be equal 2-D shapes")
        if np.any(self.joint < 0.0) or abs(self.joint.sum() - 1.0) > 1e-12:
            raise UsageError("joint must be nonnegative and sum to 1 within 1e-12")


@dataclass
class LemmaResult:
    lhs_exact: float
    rhs_exact: float
    lhs_mc: float
    rhs_mc: float
    lhs_se: float
    rhs_se: float


def verify_lemma(joint_spec: LemmaJointSpec, n_mc: int, rng: np.random.Generator) -> LemmaResult:
    """Both sides of E[f(x,y)] = E[f(x',y)] with x' resampled from X|y.

    Exact sides by full enumeration (the right side routes through the
    Bayes conditional P(x'|y)); Monte-Carlo sides by ancestral sampling.
    Zero-probability y values are skipped in the enumeration.
    """
    p = joint_spec.joint
    f = joint_spec.payoff
    nx, ny = p.shape

    lhs_exact = float((p * f).sum())

    py = p.sum(axis=0)
    inner = np.zeros(ny)
    for y in range(ny):
        if py[y] > 0.0:
            inner[y] = float((p[:, y] / py[y]) @ f[:, y])
    rhs_exact = float((p.sum(axis=0) * inner).sum())

    flat = p.ravel()
    draws = rng.choice(nx * ny, size=n_mc, p=flat)
    xi, yi = np.unravel_index(draws, p.shape)
    lhs_samples = f[xi, yi]

    cond = np.zeros((ny, nx))
    pos = py > 0.0
    cond[pos] = (p.T[pos]) / py[pos, None]
    cdf = np.cumsum(cond, axis=1)
    u = rng.random(n_mc)
    xprime = np.minimum((u[:, None] > cdf[yi]).sum(axis=1), nx - 1)
    rhs_samples = f[xprime, yi]

    return LemmaResult(
        lhs_exact=lhs_exact,
        rhs_exact=rhs_exact,
        lhs_mc=float(lhs_samples.mean()),
        rhs_mc=float(rhs_samples.mean()),
        lhs_se=float(lhs_samples.std(ddof=1) / np.sqrt(n_mc)),
        rhs_se=float(rhs_samples.std(ddof=1) / np.sqrt(n_mc)),
    )


def random_joint(rng: np.random.Generator, max_size: int = 6) -> LemmaJointSpec:
    """Random finite joint (sizes 2..max_size), sometimes with zero entries."""
    nx = int(rng.integers(2, max_size + 1))
    ny = int(rng.integers(2, max_size + 1))
    w = rng.random((nx, ny))
    if rng.random() < 0.3:
        w[rng.random((nx, ny)) < 0.3] = 0.0
        if w.sum() == 0.0:
            w[0, 0] = 1.0
    joint = w / w.sum()
    payoff = rng.normal(0.0, 2.0, (nx, ny))
    return LemmaJointSpec(joint=joint, payoff=payoff)


# ---------------------------------------------------------------------------
# enumerable-channel bound oracle
# ---------------------------------------------------------------------------

def _check_rows(name: str, table: np.ndarray) -> None:
    if np.any(table < 0.0):
        raise UsageError(f"{name}: entries must be >= 0")
    if np.any(np.abs(table.sum(axis=-1) - 1.0) > 1e-12):
        raise UsageError(f"{name}: rows must sum to 1 within 1e-12")


@dataclass
class ChannelSpec:
    """Finite code channel: prior over c, P(x|c) rows, and a Q(c|x) table."""

    prior: np.ndarray        # (K,)
    conditional: np.ndarray  # (K, M) row-stochastic
    q_table: np.ndarray      # (M, K) row-stochastic

    def __post_init__(self):
        self.prior = np.asarray(self.prior, dtype=np.float64)
        self.conditional = np.asarray(self.conditional, dtype=np.float64)
        self.q_table = np.asarray(self.q_table, dtype=np.float64)
        k, m = self.conditional.shape
        if self.prior.shape != (k,) or self.q_table.shape != (m, k):
            raise UsageError(
                f"inconsistent channel shapes: prior {self.prior.shape}, "
                f"conditional {self.conditional.shape}, q {self.q_table.shape}"
            )
        _check_rows("prior", self.prior)
        _check_rows("conditional", self.conditional)
        _check_rows("q_table", self.q_table)


@dataclass
class ChannelCheck:
    i_exact: float
    l_i: float
    gap: float
    expected_kl: float
    h_prior: float
    li_finite: bool


def bayes_posterior_q(prior: np.ndarray, conditional: np.ndarray) -> np.ndarray:
    """Exact posterior P(c|x) as an (M,K) Q table; uniform on unreachable x."""
    prior = np.asarray(prior, dtype=np.float64)
    conditional = np.asarray(conditional, dtype=np.float64)
    joint = prior[:, None] * conditional
    px = joint.sum(axis=0)
    k = len(prior)
    post = np.full((conditional.shape[1], k), 1.0 / k)
    pos = px > 0.0
    post[pos] = (joint[:, pos] / px[pos]).T
    return post


def channel_bound_check(chan: ChannelSpec) -> ChannelCheck:
    """Exact I(c;x), the variational bound for the given Q, and their gap.

    A Q that assigns zero where the posterior has mass drives the bound to
    -inf; that case is reported (li_finite=False), never raised.
    """
    joint = chan.prior[:, None] * chan.conditional  # (K, M)
    px = joint.sum(axis=0)
    mask = joint > 0.0

    prior_nz = chan.prior[chan.prior > 0.0]
    h_prior = float(-(prior_nz * np.log(prior_nz)).sum())

    outer = chan.prior[:, None] * px[None, :]
    i_exact = float((joint[mask] * (np.log(joint[mask]) - np.log(outer[mask]))).sum())

    q_at = chan.q_table.T  # (K, M): Q(c|x) aligned with joint
    if np.any(q_at[mask] == 0.0):
        l_i = float("-inf")
        li_finite = False
    else:
        l_i = float((joint[mask] * np.log(q_at[mask])).sum() + h_prior)
        li_finite = True

    expected_kl = 0.0
    for x in range(joint.shape[1]):
        if px[x] <= 0.0:
            continue
        post = joint[:, x] / px[x]
        nz = post > 0.0
        if np.any(chan.q_table[x, nz] == 0.0):
            expected_kl = float("inf")
            break
        expected_kl += px[x] * float((post[nz] * (np.log(post[nz]) - np.log(chan.q_table[x, nz]))).sum())

    return ChannelCheck(
        i_exact=i_exact,
        l_i=l_i,
        gap=i_exact - l_i,
        expected_kl=expected_kl,
        h_prior=h_prior,
        li_finite=li_finite,
    )


def random_channel(rng: np.random.Generator, q_mode: str = "random") -> ChannelSpec:
    """Random small channel; q_mode 'posterior' installs the Bayes-optimal Q."""
    k = int(rng.integers(2, 7))
    m = int(rng.integers(2, 7))
    prior = rng.random(k) + 0.05
    prior /= prior.sum()
    cond = rng.random((k, m)) + 0.02
    cond /= cond.sum(axis=1, keepdims=True)
    if q_mode == "posterior":
        q = bayes_posterior_q(prior, cond)
    elif q_mode == "prior":
        q = np.tile(prior, (m, 1))
    else:
        q = rng.random((m, k)) + 0.02
        q /= q.sum(axis=1, keepdims=True)
    return ChannelSpec(prior=prior, conditional=cond, q_table=q)


# ---------------------------------------------------------------------------
# latent traversals
# ---------------------------------------------------------------------------

def traversal_grid(
    model: ModelPair,
    block: int,
    values,
    rows: int,
    rng: np.random.Generator,
    dims: tuple[int, int],
    path: str,
) -> None:
    """One grid row per random (z, other codes) draw; the chosen block sweeps
    ``values`` left to right. Out-of-prior continuous values are allowed."""
    spec = model.spec
    if not 0 <= block < len(spec.blocks):
        raise UsageError(f"block index {block} out of range (spec has {len(spec.blocks)} blocks)")
    if rows < 1 or len(values) < 1:
        raise UsageError("need at least one row and one sweep value")
    blk = spec.blocks[block]
    sl = spec.encoded_slices()[block]
    if blk.is_discrete:
        ids = [int(v) for v in values]
        if any(not 0 <= i < blk.k for i in ids):
            raise UsageError(f"category ids must lie in [0, {blk.k}), got {values}")
        sweep = one_hot(np.asarray(ids), blk.k)          # (S, K)
    else:
        sweep = np.repeat(np.asarray(values, dtype=np.float64)[:, None], blk.dim, axis=1)

    base = sample_latent(spec, rows, rng)
    s = len(values)
    g_input = np.repeat(base.g_input.data, s, axis=0)
    g_input[:, spec.noise_dim :][:, sl] = np.tile(sweep, (rows, 1))  # codes follow the noise columns
    batch = LatentBatch(spec=spec, c_raw=[], g_input=Tensor(g_input))
    images = gen_forward(model, batch, training=False).data
    write_image_grid(images, rows, s, dims, path)


# ---------------------------------------------------------------------------
# unsupervised categorical classifier scoring
# ---------------------------------------------------------------------------

def max_matching_assignment(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Exact max-weight category-to-class assignment on a count matrix."""
    rows, cols = linear_sum_assignment(counts, maximize=True)
    return rows, cols, float(counts[rows, cols].sum())


def categorical_classifier_eval(
    model: ModelPair,
    dataset: Dataset,
    block: int,
    chunk: int = 1024,
) -> tuple[float, dict[int, int]]:
    """Error rate of argmax-Q predictions under the best category-to-class map.

    Ties in the argmax break toward the lowest category index.
    """
    if dataset.labels is None:
        raise UsageError("classifier evaluation needs a labeled dataset")
    if len(dataset) == 0:
        raise UsageError("classifier evaluation needs a non-empty dataset")
    spec = model.spec
    if not 0 <= block < len(spec.blocks) or not spec.blocks[block].is_discrete:
        raise UsageError(f"block {block} is not a categorical block")
    k = spec.blocks[block].k
    n_classes = int(dataset.labels.max()) + 1
    if k < n_classes:
        raise UsageError(f"block has {k} categories but dataset has {n_classes} classes")

    preds = np.empty(len(dataset), dtype=np.int64)
    for start in range(0, len(dataset), chunk):
        stop = min(start + chunk, len(dataset))
        q_post = q_forward(model, Tensor(dataset.images[start:stop]), training=False)
        preds[start:stop] = np.argmax(q_post.blocks[block].data, axis=1)

    counts = np.zeros((k, n_classes))
    np.add.at(counts, (preds, dataset.labels), 1.0)
    rows, cols, matched = max_matching_assignment(counts)
    error_rate = 1.0 - matched / len(dataset)
    assignment = {int(r): int(c) for r, c in zip(rows, cols)}
    return error_rate, assignment
