"""Adam optimization and the alternating minimax training loop.

Gradient routing per iteration:

  1. D step    : loss_D updates the trunk and the D head (rate lr_d).
  2. G/Q step  : on a fresh latent batch, the generator is updated on
                 loss_G - lambda_disc*L_I_disc - lambda_cont*L_I_cont
                 (rate lr_g); the trunk and Q head are updated to maximize
                 L_I itself (rate lr_d), independent of lambda, so the
                 recognition model keeps fitting the codes even in the
                 lambda=0 baseline where the generator gets no code
                 incentive.

Each clock block (``gen``, ``trunk``, ``d_head``, ``q_head``) is one flat
vector whose parameters are views into it (``models.ParamBlock``), and it
owns a gradient buffer of the same layout. One reverse sweep per loss
writes each block's gradient into its buffer, and Adam reads each block's
buffer itself. The sweep refuses a gradient that a rule gave in another
dtype than its buffer's (``autodiff.UsageError``, naming the rule) before
it writes it, so no block steps on a cast gradient. Adam keeps one state
per block under the block's name, stored on the block's first step: flat
scaled moments ``m`` and ``v`` (m/(1-beta1) and v/(1-beta2)) and a single
step count ``t``. The update is Kingma and Ba's folded step (arXiv
1412.6980, Sec. 2) on those moments:
ten elementwise numpy calls with one divide before one scale, ending in
one ``flat -= step``, run over slices of at most ``ADAM_SLICE`` elements and
bitwise-equal to the per-parameter formula; before it, one read-only dot
product g . g per block checks the gradient is finite. The trunk's block is stepped by
both the D and the Q update, so its t advances twice per iteration, while
the generator, D head and Q head advance once.

Training arithmetic is float32 (``autodiff.TRAIN_DTYPE``): the blocks, the
running moments, the Adam state, the latent batch and the real batch. The
toy set is held in that dtype, so a toy batch is used as it is; ``d_step``
is the one place a real batch is converted (``data_io.float_pixels``, which
divides IDX bytes by 255 in the model's dtype). The losses a step reports
and the metrics CSV are Python floats.

A ``Run`` holds one run's state: its config, four named PCG64 streams split
from one seed (model init, dataset synthesis, minibatch indices, latent
draws), the dataset, the model, the Adam states, the metrics trace and the
iteration; so a run is bitwise reproducible. ``train_run`` is the loop
over ``Run.step``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import TRAIN_DTYPE, Tape, Tensor
from .config import TrainingConfig
from .data_io import Dataset, atomic_open, float_pixels, load_mnist_idx, save_checkpoint, synth_templates
from .latent import sample_latent
from .models import ModelPair, ParamBlock, disc_forward, disc_q_forward, gen_forward, init_models
from .objectives import LossBundle, discriminator_loss, generator_loss, infogan_losses, mi_lower_bound

STREAM_NAMES = ("init", "dataset", "batches", "latent")

# Adam sweeps each flat block in slices of at most this many elements
# (256 KiB per float32 array), so the update's operands stay in cache on
# wide models; every element sees the same operations, so no bit moves.
ADAM_SLICE = 65536


class TrainingError(RuntimeError):
    """Training aborted (non-finite loss or gradient, missing data, ...)."""


def rng_streams(seed: int) -> dict[str, np.random.Generator]:
    """Independent PCG64 streams derived from one seed, one per purpose."""
    children = np.random.SeedSequence(seed).spawn(len(STREAM_NAMES))
    return {name: np.random.Generator(np.random.PCG64(child)) for name, child in zip(STREAM_NAMES, children)}


class AdamState:
    """Adam's scaled moments and step count for one clock block: ``m`` and ``v`` span its flat vector, in its dtype.

    ``m`` holds m / (1 - beta1) and ``v`` holds v / (1 - beta2), Kingma and
    Ba's moment estimates scaled so that each step adds the gradient and its
    square unweighted (see ``adam_step``).
    """

    __slots__ = ("m", "v", "t")

    def __init__(self, shape, dtype=TRAIN_DTYPE):
        self.m = np.zeros(shape, dtype=dtype)
        self.v = np.zeros(shape, dtype=dtype)
        self.t = 0


def _step_bound(alpha_p: float, eps_p: float, beta1: float, beta2: float, t: int, dtype) -> float:
    """A bound on every entry of step t's update alpha' * m~ / (sqrt(v~) + eps') in ``dtype``, or inf.

    With m~ = sum_j beta1^j g_(t-j) and v~ = sum_j beta2^j g_(t-j)^2 over
    j < t, Cauchy-Schwarz gives |m~| <= sqrt(S_t * v~), S_t = sum_(j<t) r^j,
    r = beta1^2 / beta2, so the ratio is at most sqrt(S_t) for any gradients
    (beta2 > 0). Rounding margins: r is inflated by (1 + 8u) for the
    recurrences' relative rounding (u the dtype's unit roundoff); their
    absolute, subnormal rounding can add at most 3*t*s to v~ (s the smallest
    subnormal), read against eps'; and a factor of 2 covers the closing
    sqrt, add, divide and scale and the closed form for S_t.
    """
    finfo = np.finfo(dtype)
    r = beta1 * beta1 / beta2 * (1.0 + 4.0 * float(finfo.eps))  # 8u, with u = eps / 2
    try:
        s_t = t if r == 1.0 else (1.0 - r**t) / (1.0 - r)
    except OverflowError:  # r > 1 and r**t beyond a Python float
        return math.inf
    flush = 2.0 * math.sqrt(3.0 * t * float(finfo.smallest_subnormal)) / eps_p
    return 2.0 * alpha_p * math.sqrt(s_t) * (1.0 + flush)


def adam_step(
    blocks: list[ParamBlock],
    states: dict[str, AdamState],
    lr: float,
    beta1: float,
    beta2: float,
    epsilon: float,
) -> None:
    """In-place Adam update on scaled moments: theta <- theta - alpha' * (m~ / (sqrt(v~) + eps')).

    The state holds m~ = m / (1 - beta1) and v~ = v / (1 - beta2), updated as
    m~ <- beta1 * m~ + g and v~ <- beta2 * v~ + g * g. With alpha_t = lr *
    sqrt(1 - beta2^t) / (1 - beta1^t) and eps_hat = eps * sqrt(1 - beta2^t),
    alpha' = alpha_t * (1 - beta1) / sqrt(1 - beta2) and eps' = eps_hat /
    sqrt(1 - beta2), this equals Kingma and Ba's folded step alpha_t * m /
    (sqrt(v) + eps_hat), and so lr * m_hat / (sqrt(v_hat) + eps), in exact
    arithmetic; alpha' and eps' are Python floats, worked out once per block
    step. A slice takes ten elementwise passes, the divide before the scale.
    Each block's gradient is its own buffer ``block.grad`` (which
    ``_block_grads`` writes), of the block's size and dtype; it is only read.
    Works one block at a time, in slices of at most ``ADAM_SLICE`` elements,
    in the block's dtype.
    ``states[block.name]`` is the block's state, stored on its first step
    once every block has passed its checks; other entries are never read.

    Every block is checked before any is updated, so a non-finite gradient
    entry (named by the parameter whose view holds the first), a block state
    of the wrong shape or dtype, or an eps' or a step bound
    (``_step_bound``: no entry of the update can exceed it, for any
    gradients) that the block's dtype cannot hold raises
    ``TrainingError`` before any parameter or clock moves. The bound is
    checked where beta1^2 < beta2, so that S_t converges (to at most
    1 / (1 - r)); at beta2 = 0, or wherever beta1^2 >= beta2, S_t has no such
    limit and would refuse any long run, so only alpha_t is checked, as it
    was before the moments were scaled, and a step can still overflow. The
    bound is on one step: a parameter can still leave the dtype's range
    over many.
    """
    folded = []  # each block's state and its (alpha', eps') at the state's next step
    for block in blocks:
        st = states[block.name] if block.name in states else AdamState(block.flat.shape, block.flat.dtype)
        t = st.t + 1
        root, scale = math.sqrt(1.0 - beta2**t), math.sqrt(1.0 - beta2)
        alpha_t, eps_hat = lr * root / (1.0 - beta1**t), epsilon * root
        alpha_p, eps_p = alpha_t * (1.0 - beta1) / scale, eps_hat / scale
        big = float(np.finfo(block.flat.dtype).max)
        if beta1 * beta1 < beta2:  # S_t converges
            step = ("step bound", _step_bound(alpha_p, eps_p, beta1, beta2, t, block.flat.dtype))
        else:
            step = ("alpha_t", alpha_t)
        for what, value in (("eps'", eps_p), step):
            if not value <= big:  # an inf, which a Python float product may give, fails too
                of = f" (epsilon {epsilon!r})" if what == "eps'" else ""
                raise TrainingError(
                    f"Adam step for block '{block.name}' at rate {lr!r}: {what} = {value:g}{of} "
                    f"does not fit {block.flat.dtype} (largest {big:g})"
                )
        folded.append((st, alpha_p, eps_p))
        if (st.m.shape, st.m.dtype) != (block.flat.shape, block.flat.dtype):
            raise TrainingError(
                f"Adam state for block '{block.name}' has shape {st.m.shape} and dtype {st.m.dtype}, "
                f"block has {block.flat.shape} and {block.flat.dtype}"
            )
        g = block.grad
        # one read-only pass, g . g (a BLAS dot, which reads float32 faster than np.add.reduce): a
        # non-finite entry makes it non-finite, and only then (or where finite entries overflow it)
        # is the block scanned entry by entry
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.dot(g, g)
        if not math.isfinite(total) and not np.isfinite(g).all():
            # the parameter whose view holds the first bad entry
            ends = np.cumsum([p.data.size for p in block.params.values()])
            bad = list(block.params)[np.searchsorted(ends, np.flatnonzero(~np.isfinite(g))[0], side="right")]
            raise TrainingError(f"non-finite gradient for parameter '{bad}'")
    for block, (st, alpha_p, eps_p) in zip(blocks, folded):
        g, states[block.name] = block.grad, st
        st.t += 1
        # one scratch row, so the block's gradient is left as it was
        scratch = np.empty(min(g.size, ADAM_SLICE), dtype=block.flat.dtype)
        for lo in range(0, g.size, ADAM_SLICE):
            part = slice(lo, lo + ADAM_SLICE)
            m, v, flat, gs = st.m[part], st.v[part], block.flat[part], g[part]
            tmp = scratch[: gs.size]
            # m~ = beta1 * m~ + g
            m *= beta1
            m += gs
            # v~ = beta2 * v~ + g * g
            np.multiply(gs, gs, out=tmp)
            v *= beta2
            v += tmp
            # step = alpha' * (m~ / (sqrt(v~) + eps'))
            np.sqrt(v, out=tmp)
            tmp += eps_p
            np.divide(m, tmp, out=tmp)
            tmp *= alpha_p
            flat -= tmp


@dataclass
class MetricsTrace:
    """Per-logged-iteration loss record; the bound-over-iterations artifact."""

    rows: list[tuple[int, float, float, float, float]] = field(default_factory=list)

    CSV_HEADER = "iter,loss_d,loss_g,li_disc,li_cont"

    def append(self, iteration: int, loss_d: float, loss_g: float, li_disc: float, li_cont: float) -> None:
        if self.rows and iteration <= self.rows[-1][0]:
            raise TrainingError(f"iterations must be strictly increasing (got {iteration})")
        values = (loss_d, loss_g, li_disc, li_cont)
        if not all(np.isfinite(v) for v in values):
            raise TrainingError(f"non-finite metric at iteration {iteration}: {values}")
        self.rows.append((iteration, *values))

    def column(self, name: str) -> np.ndarray:
        i = self.CSV_HEADER.split(",").index(name)
        return np.array([row[i] for row in self.rows])

    def to_csv(self, path: str) -> None:
        with atomic_open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(self.CSV_HEADER + "\n")
            for it, *vals in self.rows:
                f.write(str(it) + "," + ",".join(format(v, ".17g") for v in vals) + "\n")


def _block_grads(tape: Tape, root: Tensor, blocks: list[ParamBlock]) -> None:
    """One sweep over every block's parameters, written into each block's gradient buffer ``grad``.

    A buffer holds its gradient until the block's next sweep. The sweep
    checks every gradient it writes (``Tape.backward``'s ``out``).
    """
    params = [t for block in blocks for t in block.params.values()]
    tape.backward(root, params, out=[v for block in blocks for v in block.grad_views.values()])


def d_step(model: ModelPair, real_images: np.ndarray, cfg: TrainingConfig, latent_rng, adam_states) -> Tensor:
    """Discriminator update: loss_D moves the trunk and D head only.

    Both trunk passes run the D head alone; the Q head is not evaluated.
    ``real_images`` (``uint8`` bytes or float pixels in [0, 1]) is converted
    to the model's dtype here, and only here (``data_io.float_pixels``).
    """
    d_side = [model.blocks["trunk"], model.blocks["d_head"]]
    # fakes for the D step need no generator gradient: keep them off the tape
    lat = sample_latent(model.spec, real_images.shape[0], latent_rng, model.dtype)
    fake = gen_forward(model, lat.g_input, training=True)
    with Tape() as tape:
        d_real = disc_forward(model, Tensor(float_pixels(real_images, model.dtype)), training=True)
        d_fake = disc_forward(model, fake, training=True)
        loss_d = discriminator_loss(d_real, d_fake)
        _block_grads(tape, loss_d, d_side)
    adam_step(d_side, adam_states, cfg.lr_d, cfg.beta1, cfg.beta2, cfg.adam_epsilon)
    return loss_d


def gq_step(model: ModelPair, cfg: TrainingConfig, batch: int, latent_rng, adam_states) -> tuple[Tensor, Tensor, Tensor]:
    """Generator/recognition update on a fresh latent sample; returns ``(loss_g, li_disc, li_cont)``.

    The generator descends loss_G - lambda*L_I (rate lr_g); the trunk and Q
    head ascend L_I itself (rate lr_d). The D head is untouched.
    """
    gen, q_side = [model.blocks["gen"]], [model.blocks["trunk"], model.blocks["q_head"]]
    with Tape() as tape:
        lat = sample_latent(model.spec, batch, latent_rng, model.dtype)
        fake = gen_forward(model, lat.g_input, training=True)
        d_fake, q = disc_q_forward(model, fake, training=True)
        loss_g = generator_loss(d_fake, cfg.gan_mode)
        li_disc, li_cont = mi_lower_bound(q, lat)
        _block_grads(tape, infogan_losses(loss_g, li_disc, li_cont, cfg.lambda_disc, cfg.lambda_cont), gen)
        # the Q side ascends L_I: descend -(L_I_disc + L_I_cont)
        _block_grads(tape, ad.weighted_sum([li_disc, li_cont], (-1.0, -1.0)), q_side)
    adam_step(gen, adam_states, cfg.lr_g, cfg.beta1, cfg.beta2, cfg.adam_epsilon)
    adam_step(q_side, adam_states, cfg.lr_d, cfg.beta1, cfg.beta2, cfg.adam_epsilon)
    return loss_g, li_disc, li_cont


def train_step(
    model: ModelPair,
    real_images: np.ndarray,
    cfg: TrainingConfig,
    latent_rng: np.random.Generator,
    adam_states: dict[str, AdamState],
    iteration: int | None = None,
) -> LossBundle:
    """One D update then one G/Q update; returns the losses measured at step time.

    ``real_images`` is a batch of float pixels in [0, 1] or of ``uint8``
    bytes, which ``d_step`` converts to the model's dtype
    (``data_io.float_pixels``: bytes are scaled by 1/255 in that dtype).
    Any other integer or bool dtype raises ``TrainingError``. So does a loss
    that is not finite, and an op evaluated outside its domain. A rule that
    gives a gradient of another dtype than its block's raises
    ``autodiff.UsageError``, naming the rule, before that block steps. Both
    messages end in " at iteration N" when ``iteration`` is given.
    """
    if real_images.dtype.kind in "biu" and real_images.dtype != np.uint8:
        raise TrainingError(f"real images must be uint8 or floats in [0, 1], got dtype {real_images.dtype}")
    where = f" at iteration {iteration}" if iteration is not None else ""
    try:
        loss_d = d_step(model, real_images, cfg, latent_rng, adam_states)
        bundle = LossBundle(loss_d, *gq_step(model, cfg, real_images.shape[0], latent_rng, adam_states))
    except ad.DomainError as err:  # a value outside an op's domain, such as a NaN log sigma from diverged weights
        raise TrainingError(f"{err}{where}") from err
    except ad.UsageError as err:  # such as a rule's gradient in another dtype than its block's
        raise ad.UsageError(f"{err}{where}") from err
    values = bundle.as_floats()
    if not all(np.isfinite(v) for v in values.values()):
        raise TrainingError(f"non-finite loss{where}: {values}")
    return bundle


def build_dataset(cfg: TrainingConfig, rng: np.random.Generator) -> Dataset:
    if cfg.dataset == "toy":
        return synth_templates(cfg.toy_templates, cfg.toy_samples, cfg.toy_noise_sigma, rng)
    try:
        ds = load_mnist_idx(cfg.mnist_images, cfg.mnist_labels)
    except FileNotFoundError as err:
        raise TrainingError(
            f"MNIST files not found ({err}); download the IDX files and point "
            "mnist_images / mnist_labels at them"
        ) from err
    if len(ds) < cfg.mnist_subset:
        raise TrainingError(f"mnist_subset = {cfg.mnist_subset} but {cfg.mnist_images} holds only {len(ds)} images")
    # a copy of the kept rows, so the whole file's buffer is freed
    return Dataset(
        images=ds.images[: cfg.mnist_subset].copy(),
        labels=ds.labels[: cfg.mnist_subset] if ds.labels is not None else None,
        dims=ds.dims,
        provenance=ds.provenance + f"[:{cfg.mnist_subset}]",
    )


class Run:
    """One training run's state, from its config: ``step`` takes the next iteration, ``finish`` writes the outputs.

    Before any stream is drawn it refuses an output path in a missing folder or naming a folder, and one file
    named by both; then a dataset of other dims than the config's. ``iteration`` counts the steps taken.
    """

    def __init__(self, cfg: TrainingConfig):
        for key in ("metrics_out", "checkpoint_out"):
            path, folder = getattr(cfg, key), os.path.dirname(getattr(cfg, key))
            if folder and not os.path.isdir(folder):
                raise TrainingError(f"{key} = {path!r}: directory {folder!r} does not exist")
            if os.path.isdir(path):
                raise TrainingError(f"{key} = {path!r} is a directory, not a file")
        if os.path.abspath(cfg.metrics_out) == os.path.abspath(cfg.checkpoint_out):
            raise TrainingError(f"metrics_out and checkpoint_out both name {cfg.metrics_out!r}")
        self.cfg = cfg
        self.rngs = rng_streams(cfg.seed)
        self.dataset = build_dataset(cfg, self.rngs["dataset"])
        if self.dataset.dims != cfg.image_dims:
            raise TrainingError(f"dataset dims {self.dataset.dims} do not match config dims {cfg.image_dims}")
        self.model = init_models(*cfg.net_configs(), cfg.latent_spec(), self.rngs["init"])
        self.adam_states: dict[str, AdamState] = {}
        self.trace = MetricsTrace()
        self.iteration = 0

    def step(self) -> LossBundle:
        """The next iteration: one ``train_step`` on the stored rows the ``batches`` stream draws, a trace row if it logs."""
        cfg, i = self.cfg, self.iteration + 1
        idx = self.rngs["batches"].integers(0, len(self.dataset), size=cfg.batch_size)
        bundle = train_step(self.model, self.dataset.images[idx], cfg, self.rngs["latent"], self.adam_states, iteration=i)
        self.iteration = i
        if i % cfg.log_every == 0 or i == cfg.iterations:
            self.trace.append(i, *bundle.as_floats().values())  # in the trace's column order
        return bundle

    def finish(self) -> None:
        """Write the metrics CSV and the checkpoint."""
        self.trace.to_csv(self.cfg.metrics_out)
        save_checkpoint(self.model, self.cfg, self.cfg.checkpoint_out)


def train_run(cfg: TrainingConfig) -> tuple[ModelPair, MetricsTrace]:
    """Full training per config: ``cfg.iterations`` steps of a ``Run``, then its metrics CSV and final checkpoint."""
    run = Run(cfg)
    for _ in range(cfg.iterations):
        run.step()
    run.finish()
    return run.model, run.trace
