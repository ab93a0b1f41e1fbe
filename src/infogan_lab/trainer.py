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
float64 vector whose parameters are views into it (``models.ParamBlock``).
Adam keeps one state per block under the block's name, created on the
block's first step: flat ``m`` and ``v`` vectors and a single step count
``t``. The update is a dozen whole-vector numpy calls ending in one
``flat -= step``, bitwise-equal to the per-parameter formula. The trunk's
block is stepped by both the D and the Q update, so its t advances twice per
iteration, while the generator, D head and Q head advance once.

All randomness comes from one seed, split into four named PCG64 streams
(model init, dataset synthesis, minibatch indices, latent draws), so a run
is bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .config import TrainingConfig
from .data_io import Dataset, atomic_open, load_mnist_idx, save_checkpoint, synth_templates
from .latent import sample_latent
from .models import ModelPair, ParamBlock, disc_forward, disc_q_forward, gen_forward, init_models
from .objectives import LossBundle, discriminator_loss, generator_loss, infogan_losses, mi_lower_bound

STREAM_NAMES = ("init", "dataset", "batches", "latent")


class TrainingError(RuntimeError):
    """Training aborted (non-finite loss or gradient, missing data, ...)."""


def rng_streams(seed: int) -> dict[str, np.random.Generator]:
    """Independent PCG64 streams derived from one seed, one per purpose."""
    children = np.random.SeedSequence(seed).spawn(len(STREAM_NAMES))
    return {name: np.random.Generator(np.random.PCG64(child)) for name, child in zip(STREAM_NAMES, children)}


class AdamState:
    """Adam moments and step count for one clock block: ``m`` and ``v`` span its flat vector."""

    __slots__ = ("m", "v", "t")

    def __init__(self, shape):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0


def _block_gradient(block: ParamBlock, grads: dict[str, np.ndarray]) -> np.ndarray:
    """The block's gradients as one flat vector, checked for shape and finiteness."""
    parts = []
    for name, p in block.params.items():
        g = grads.get(name)
        if g is None:
            raise TrainingError(f"no gradient for parameter '{name}'")
        if g.shape != p.shape:
            raise TrainingError(f"gradient for '{name}' has shape {g.shape}, parameter has {p.shape}")
        parts.append(g)
    flat = np.concatenate(parts, axis=None)
    if not np.isfinite(flat).all():
        bad = next(name for name, g in zip(block.params, parts) if not np.isfinite(g).all())
        raise TrainingError(f"non-finite gradient for parameter '{bad}'")
    return flat


def adam_step(
    blocks: list[ParamBlock],
    grads: dict[str, np.ndarray],
    states: dict[str, AdamState],
    lr: float,
    beta1: float,
    beta2: float,
    epsilon: float,
) -> None:
    """In-place Adam update: theta <- theta - lr * m_hat / (sqrt(v_hat) + eps).

    Works one block at a time over its flat vector, with the operations of
    the per-parameter formula in the same order, so every result is
    bitwise-equal to it. ``states[block.name]`` is the block's state,
    created on its first step; other entries are never read. Every block is
    checked before any is updated, so a missing, misshapen or non-finite
    gradient, or a block state of the wrong shape, raises ``TrainingError``
    before any parameter or clock moves.
    """
    work = []
    for block in blocks:
        st = states.get(block.name)
        if st is not None and st.m.shape != block.flat.shape:
            raise TrainingError(f"Adam state for block '{block.name}' has shape {st.m.shape}, block has {block.flat.shape}")
        work.append((block, _block_gradient(block, grads)))
    for block, g in work:
        st = states.get(block.name)
        if st is None:
            st = states[block.name] = AdamState(g.shape)
        st.t += 1
        m, v, flat, tmp = st.m, st.v, block.flat, np.empty_like(g)
        # m = beta1 * m + (1 - beta1) * g
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=tmp)
        m += tmp
        # v = beta2 * v + (1 - beta2) * g * g; g is dead afterwards and holds v_hat below
        v *= beta2
        np.multiply(g, 1.0 - beta2, out=tmp)
        np.multiply(tmp, g, out=g)
        v += g
        # step = lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(m, 1.0 - beta1**st.t, out=tmp)
        tmp *= lr
        np.divide(v, 1.0 - beta2**st.t, out=g)
        np.sqrt(g, out=g)
        g += epsilon
        tmp /= g
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
        i = ("iter", "loss_d", "loss_g", "li_disc", "li_cont").index(name)
        return np.array([row[i] for row in self.rows])

    def to_csv(self, path: str) -> None:
        with atomic_open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(self.CSV_HEADER + "\n")
            for it, *vals in self.rows:
                f.write(str(it) + "," + ",".join(format(v, ".17g") for v in vals) + "\n")

    @staticmethod
    def from_csv(path: str) -> "MetricsTrace":
        trace = MetricsTrace()
        with open(path, "r", encoding="utf-8") as f:
            header = f.readline().strip()
            if header != MetricsTrace.CSV_HEADER:
                raise TrainingError(f"{path}: unexpected metrics header '{header}'")
            for lineno, line in enumerate(f, start=2):
                fields = line.strip().split(",")
                try:
                    if len(fields) != 5:
                        raise ValueError(f"{len(fields)} fields, expected 5")
                    row = (int(fields[0]), *(float(v) for v in fields[1:]))
                except ValueError as err:
                    raise TrainingError(f"{path} line {lineno}: bad metrics row {line.strip()!r} ({err})") from None
                trace.append(*row)
        return trace


def _block_grads(tape: Tape, root: Tensor, blocks: list[ParamBlock]) -> dict[str, np.ndarray]:
    params = {name: t for block in blocks for name, t in block.params.items()}
    return dict(zip(params, tape.backward(root, list(params.values()))))


def d_step(model: ModelPair, real_images: np.ndarray, cfg: TrainingConfig, latent_rng, adam_states) -> Tensor:
    """Discriminator update: loss_D moves the trunk and D head only.

    Both trunk passes run the D head alone; the Q head is not evaluated.
    """
    d_side = [model.blocks["trunk"], model.blocks["d_head"]]
    # fakes for the D step need no generator gradient: keep them off the tape
    lat = sample_latent(model.spec, real_images.shape[0], latent_rng)
    fake = gen_forward(model, lat, training=True)
    with Tape() as tape:
        d_real = disc_forward(model, Tensor(real_images), training=True)
        d_fake = disc_forward(model, fake, training=True)
        loss_d = discriminator_loss(d_real, d_fake)
        d_grads = _block_grads(tape, loss_d, d_side)
    adam_step(d_side, d_grads, adam_states, cfg.lr_d, cfg.beta1, cfg.beta2, cfg.adam_epsilon)
    return loss_d


def gq_step(model: ModelPair, loss_d: Tensor, cfg: TrainingConfig, batch: int, latent_rng, adam_states) -> LossBundle:
    """Generator/recognition update on a fresh latent sample.

    The generator descends loss_G - lambda*L_I (rate lr_g); the trunk and Q
    head ascend L_I itself (rate lr_d). The D head is untouched.
    """
    gen, q_side = [model.blocks["gen"]], [model.blocks["trunk"], model.blocks["q_head"]]
    with Tape() as tape:
        lat = sample_latent(model.spec, batch, latent_rng)
        fake = gen_forward(model, lat, training=True)
        d_fake, q_post = disc_q_forward(model, fake, training=True)
        loss_g = generator_loss(d_fake, cfg.gan_mode)
        li_disc, li_cont = mi_lower_bound(q_post, lat, model.spec)
        bundle = infogan_losses(loss_d, loss_g, li_disc, li_cont, cfg.lambda_disc, cfg.lambda_cont)
        gen_grads = _block_grads(tape, bundle.gq_objective, gen)
        li_total = ad.add(li_disc, li_cont)
        q_grads = {name: -g for name, g in _block_grads(tape, li_total, q_side).items()}
    adam_step(gen, gen_grads, adam_states, cfg.lr_g, cfg.beta1, cfg.beta2, cfg.adam_epsilon)
    adam_step(q_side, q_grads, adam_states, cfg.lr_d, cfg.beta1, cfg.beta2, cfg.adam_epsilon)
    return bundle


def train_step(
    model: ModelPair,
    real_images: np.ndarray,
    cfg: TrainingConfig,
    latent_rng: np.random.Generator,
    adam_states: dict[str, AdamState],
    iteration: int | None = None,
) -> LossBundle:
    """One D update then one G/Q update; returns the losses measured at step time."""
    loss_d = d_step(model, real_images, cfg, latent_rng, adam_states)
    bundle = gq_step(model, loss_d, cfg, real_images.shape[0], latent_rng, adam_states)
    values = bundle.as_floats()
    if not all(np.isfinite(v) for v in values.values()):
        where = f" at iteration {iteration}" if iteration is not None else ""
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
    return Dataset(
        images=ds.images[: cfg.mnist_subset],
        labels=ds.labels[: cfg.mnist_subset] if ds.labels is not None else None,
        dims=ds.dims,
        provenance=ds.provenance + f"[:{cfg.mnist_subset}]",
    )


def train_run(cfg: TrainingConfig) -> tuple[ModelPair, MetricsTrace]:
    """Full training per config; writes the metrics CSV and final checkpoint."""
    rngs = rng_streams(cfg.seed)
    ds = build_dataset(cfg, rngs["dataset"])
    if ds.dims != cfg.image_dims:
        raise TrainingError(f"dataset dims {ds.dims} do not match config dims {cfg.image_dims}")
    gen_cfg, dq_cfg = cfg.net_configs()
    model = init_models(gen_cfg, dq_cfg, cfg.latent_spec(), rngs["init"])
    adam_states: dict[str, AdamState] = {}

    trace = MetricsTrace()
    for i in range(1, cfg.iterations + 1):
        idx = rngs["batches"].integers(0, len(ds), size=cfg.batch_size)
        bundle = train_step(model, ds.images[idx], cfg, rngs["latent"], adam_states, iteration=i)
        if i % cfg.log_every == 0 or i == cfg.iterations:
            v = bundle.as_floats()
            trace.append(i, v["loss_d"], v["loss_g"], v["li_disc"], v["li_cont"])

    trace.to_csv(cfg.metrics_out)
    save_checkpoint(model, cfg, cfg.checkpoint_out)
    return model, trace
