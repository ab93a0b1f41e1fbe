"""Evaluation suite: bound estimation, exact oracles, traversals, classifier scoring.

The finite-channel and finite-joint oracles materialize every distribution
by enumeration, so the information quantities here are exact up to float
rounding; they are the reference the learned estimates are checked against,
and they run in float64. A trained model runs in its own dtype (float32),
fed latent draws and pixels cast to it; the bound estimate's mean and
standard error are summed in float64.
The classifier score maps categories to classes by an exact Hungarian
assignment written in numpy (``max_matching_assignment``); among tied
optimal maps it returns one, the same one on every call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, UsageError
from .data_io import Dataset, float_pixels, write_image_grid
from .latent import LatentSpec, draw_categories, log_q, one_hot, sample_latent
from .models import ModelPair, gen_forward, q_forward

MI_CHUNK = 512  # latent draws per generator and Q pass in estimate_mi_bound
CLASSIFIER_CHUNK = 1024  # images per Q pass in categorical_classifier_eval
JOINT_MAX_SIZE = 6  # largest |X| and |Y| random_joint draws


def _check_rows(name: str, table: np.ndarray) -> None:
    # written as "not (valid)" so that a NaN, which both reductions propagate and which fails every
    # comparison, is caught; the initial values keep an empty table's reductions defined, and its rows sum to 0
    if not (np.minimum.reduce(table, axis=None, initial=0.0) >= 0.0
            and np.maximum.reduce(np.abs(table.sum(axis=-1) - 1.0), axis=None, initial=0.0) <= 1e-12):
        raise UsageError(f"{name}: entries must be >= 0 and each row must sum to 1 within 1e-12")


def _conditional_rows(joint: np.ndarray) -> np.ndarray:
    """Row b of the result is P(a|b) for an (A, B) joint P(a, b); uniform where P(b) = 0."""
    marginal = joint.sum(axis=0)
    rows = np.full(joint.shape[::-1], 1.0 / joint.shape[0])
    seen = marginal > 0.0
    rows[seen] = (joint[:, seen] / marginal[seen]).T
    return rows


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
) -> MiEstimate:
    """Monte-Carlo L_I of each code family for ``model``; ``spec`` must be ``model.spec``."""
    if spec != model.spec:
        given, own = (" ".join(b.to_token() for b in sp.blocks) + f" + {sp.noise_kind} noise {sp.noise_dim}" for sp in (spec, model.spec))
        raise UsageError(f"spec ({given}) is not the model's spec ({own}); nothing drawn")
    if n_samples < 100:
        raise UsageError(f"need at least 100 samples for a stable SE, got {n_samples}")
    rows: tuple[list[np.ndarray], list[np.ndarray]] = ([], [])  # each family's per-sample log Q, chunk by chunk
    for start in range(0, n_samples, MI_CHUNK):
        lat = sample_latent(spec, min(MI_CHUNK, n_samples - start), rng, model.dtype)
        x = gen_forward(model, lat.g_input, training=False)
        for family, terms in zip(rows, log_q(q_forward(model, x, training=False), lat)):
            if terms:
                family.append(_family_row(terms))

    def _summary(parts: list[np.ndarray], h: float):
        if not parts:
            return None, None
        v = np.concatenate(parts, dtype=np.float64)
        return float(v.mean() + h), float(v.std(ddof=1) / np.sqrt(len(v)))

    # li_disc, se_disc, li_cont, se_cont
    return MiEstimate(*_summary(rows[0], spec.h_disc), *_summary(rows[1], spec.h_cont),
                      h_disc=spec.h_disc, h_cont=spec.h_cont, n_samples=n_samples)


def _family_row(terms) -> np.ndarray:
    """A code family's per-sample log Q: its blocks' (B, 1) terms added in block order, in their dtype."""
    return functools.reduce(np.add, [t.data for t in terms]).ravel()


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
        _check_rows("joint", self.joint.ravel())
        if not (finite := np.isfinite(self.payoff)).all():
            at = tuple(int(i) for i in np.argwhere(~finite)[0])
            raise UsageError(f"payoff{list(at)} is {self.payoff[at]}; payoff entries must be finite")


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
    A zero-probability y enters the enumeration with weight P(y) = 0 (its
    conditional row is uniform) and is never drawn.
    """
    if n_mc < 2:
        raise UsageError(f"n_mc must be >= 2 for a Monte-Carlo standard error, got {n_mc}")
    p = joint_spec.joint
    f = joint_spec.payoff
    nx = p.shape[0]

    lhs_exact = float((p * f).sum())

    py = p.sum(axis=0)
    cond = _conditional_rows(p)  # row y is P(x|y)
    rhs_exact = float((py * (cond * f.T).sum(axis=1)).sum())

    xi, yi = np.unravel_index(draw_categories(p.ravel(), n_mc, rng), p.shape)
    lhs_samples = f[xi, yi]

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


def random_joint(rng: np.random.Generator) -> LemmaJointSpec:
    """Random finite joint (sizes 2..JOINT_MAX_SIZE), sometimes with zero entries."""
    nx = int(rng.integers(2, JOINT_MAX_SIZE + 1))
    ny = int(rng.integers(2, JOINT_MAX_SIZE + 1))
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


def bayes_posterior_q(prior: np.ndarray, conditional: np.ndarray) -> np.ndarray:
    """Exact posterior P(c|x) as an (M,K) Q table; uniform on unreachable x."""
    return _conditional_rows(np.asarray(prior, dtype=np.float64)[:, None] * np.asarray(conditional, dtype=np.float64))


def channel_bound_check(chan: ChannelSpec) -> ChannelCheck:
    """Exact I(c;x), the variational bound L_I for the given Q, their gap and E_x[KL(P(c|x) || Q(c|x))].

    Each is one sum over the support of P(c, x), so an unreachable x enters
    with weight P(x) = 0. A Q that assigns zero where the posterior has mass
    gives L_I = -inf and gap = E[KL] = inf; that case is reported, never raised.
    """
    joint = chan.prior[:, None] * chan.conditional  # (K, M)
    on = joint > 0.0
    p, q = joint[on], chan.q_table.T[on]  # q: Q(c|x) aligned with joint
    i_exact = float((p * (np.log(p) - np.log((chan.prior[:, None] * joint.sum(axis=0))[on]))).sum())
    if np.minimum.reduce(q, initial=np.inf) == 0.0:  # q >= 0, checked by ChannelSpec
        return ChannelCheck(i_exact=i_exact, l_i=-np.inf, gap=np.inf, expected_kl=np.inf)
    prior_nz = chan.prior[chan.prior > 0.0]
    l_i = float((p * np.log(q)).sum() - (prior_nz * np.log(prior_nz)).sum())
    expected_kl = float((p * (np.log(_conditional_rows(joint).T[on]) - np.log(q))).sum())
    return ChannelCheck(i_exact=i_exact, l_i=l_i, gap=i_exact - l_i, expected_kl=expected_kl)


def random_channel(rng: np.random.Generator, q_mode: str = "random") -> ChannelSpec:
    """Random small channel; q_mode 'posterior' installs the Bayes-optimal Q."""
    if q_mode not in ("random", "prior", "posterior"):
        raise UsageError(f"q_mode must be 'random', 'prior' or 'posterior', got {q_mode!r}")
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

    base = sample_latent(spec, rows, rng, model.dtype)
    s = len(values)
    g_input = np.repeat(base.g_input.data, s, axis=0)
    g_input[:, spec.noise_dim :][:, sl] = np.tile(sweep, (rows, 1))  # codes follow the noise columns
    images = gen_forward(model, Tensor(g_input), training=False).data
    write_image_grid(images, rows, s, dims, path)


# ---------------------------------------------------------------------------
# unsupervised categorical classifier scoring
# ---------------------------------------------------------------------------

def max_matching_assignment(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Exact max-weight category-to-class assignment on a count matrix.

    The Hungarian method with row and column potentials (Kuhn 1955): the
    rows of the smaller side are added one at a time, each by a shortest
    augmenting path whose steps are vectorized over the columns. Returns
    ``(rows, cols, matched)``: ``min(k, n)`` pairs with rows ascending, each
    row and each column used at most once, and the matched total. Integer
    counts keep the potentials on integers, so the total is exact.

    Where several assignments reach the optimum, one of them is returned,
    always the same one for the same input (each step takes the
    lowest-index column among tied ones); it need not be the one another
    solver picks. ``counts`` must be 2-D and finite (``ValueError``
    otherwise); a side of length 0 gives two empty index arrays and 0.0.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2:
        raise ValueError(f"counts must be a 2-D matrix, got shape {counts.shape}")
    bad = ~np.isfinite(counts)
    if bad.any():
        at = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"counts{list(at)} is {counts[at]}; entries must be finite")
    transposed = counts.shape[0] > counts.shape[1]
    wide = counts.T if transposed else counts
    n, m = wide.shape
    # 1-based as in the textbook form: column 0 is a virtual start, p[j] is
    # the row (1..n) on column j and 0 a free column; costs are -counts.
    cost = np.zeros((n + 1, m + 1))
    cost[1:, 1:] -= wide
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    p = np.zeros(m + 1, dtype=np.intp)
    way = np.zeros(m + 1, dtype=np.intp)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while p[j0] != 0:
            used[j0] = True
            i0 = p[j0]
            reduced = cost[i0] - u[i0] - v
            closer = ~used & (reduced < minv)
            minv[closer] = reduced[closer]
            way[closer] = j0
            j0 = int(np.argmin(np.where(used, np.inf, minv)))
            delta = minv[j0]
            u[p[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
        while j0:
            p[j0] = p[way[j0]]
            j0 = way[j0]
    on = np.flatnonzero(p[1:])
    by = p[1:][on] - 1
    rows, cols = (on, by) if transposed else (by, on)
    order = np.argsort(rows)
    rows, cols = rows[order], cols[order]
    return rows, cols, float(counts[rows, cols].sum())


def categorical_classifier_eval(
    model: ModelPair,
    dataset: Dataset,
    block: int,
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
    k, cols = spec.blocks[block].k, spec.q_slices()[block]
    n_classes = int(dataset.labels.max()) + 1
    if k < n_classes:
        raise UsageError(f"block has {k} categories but dataset has {n_classes} classes")

    preds = np.empty(len(dataset), dtype=np.int64)
    for start in range(0, len(dataset), CLASSIFIER_CHUNK):
        stop = min(start + CLASSIFIER_CHUNK, len(dataset))
        pixels = float_pixels(dataset.images[start:stop], model.dtype)
        logits = q_forward(model, Tensor(pixels), training=False).data[:, cols]
        preds[start:stop] = np.argmax(logits, axis=1)

    counts = np.zeros((k, n_classes))
    np.add.at(counts, (preds, dataset.labels), 1.0)
    rows, cols, matched = max_matching_assignment(counts)
    error_rate = 1.0 - matched / len(dataset)
    assignment = {int(r): int(c) for r, c in zip(rows, cols)}
    return error_rate, assignment
