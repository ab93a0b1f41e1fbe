"""Gradient verification harness: every catalogue op, plus the full loss graph.

Each op case builds a small random problem and returns ``(params, builder,
w)``: the builder runs the op alone, and ``w`` is a fixed random readout of
the op's output (None for a scalar output).
:func:`infogan_lab.autodiff.grad_check` compares the vector-Jacobian product
with cotangent ``w`` against central finite differences of ``vdot(w, out)``,
read outside the tape, so no readout op runs per probe.

Each check runs its builder once taped, twice for the determinism probe,
and once per parameter tensor, with all 2n probes of that tensor stacked on
a leading probe axis (see :mod:`infogan_lab.autodiff`). So one seed of
``op_grad_checks`` costs 61 ``forward_op`` calls, and one seed of
``full_loss_graph_check`` costs (3 + 16) passes of its 28-op objective.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Tensor, UsageError, grad_check
from .latent import CodeBlock, LatentSpec, sample_latent
from .models import ModelPair, NetConfig, disc_forward, disc_q_forward, gen_forward, init_models
from .objectives import discriminator_loss, generator_loss, infogan_losses, mi_lower_bound

GRAD_STEP = 1e-6  # central finite-difference step of every check here


def _case_linear(rng):
    """Gradient with respect to the input batch as well as the weights and the bias."""
    x = Tensor(rng.normal(0, 1, (3, 4)))
    w = Tensor(rng.normal(0, 1, (4, 2)))
    b = Tensor(rng.normal(0, 1, (2,)))
    weights = rng.normal(0, 1, (3, 2))
    return [x, w, b], lambda p: ad.linear(p[0], p[1], p[2]), weights


def _case_weighted_sum(rng):
    """Each input's gradient carries its own weight, of either sign."""
    a = Tensor(rng.normal(0, 1, (3, 4)))
    b = Tensor(rng.normal(0, 1, (3, 4)))
    w = rng.normal(0, 1, (3, 4))
    return [a, b], lambda p: ad.weighted_sum([p[0], p[1]], (-2.5, 0.75)), w


def _weighted_case(fn, x: np.ndarray, rng):
    """Inputs ``x`` through ``fn``, read out by a fixed random weighting."""
    w = rng.normal(0, 1, x.shape)
    return [Tensor(x)], lambda p: fn(p[0]), w


def _elementwise_case(fn, rng):
    return _weighted_case(fn, rng.normal(0, 1, (3, 4)), rng)


def _case_sigmoid_cross_entropy(rng, label):
    # logits of both signs in every draw, large enough to reach both tails; the output is a scalar
    x = Tensor(np.array([1.0, -1.0, 1.0, -1.0]) * np.abs(rng.normal(0, 5, (3, 4))))
    return [x], lambda p: ad.sigmoid_cross_entropy(p[0], label), None


def _case_clip(rng):
    # columns inside (-1, 2), below -1 and above 2, each clear of the bounds
    x = np.concatenate(
        [rng.uniform(-0.9, 1.9, (3, 2)), rng.uniform(-3.0, -1.1, (3, 1)), rng.uniform(2.1, 4.0, (3, 1))],
        axis=1,
    )
    return _weighted_case(lambda t: ad.clip(t, -1.0, 2.0), x, rng)


def _case_categorical_log_q(rng):
    """Every logit of a row moves the picked log-probability through the normalizer."""
    logits = Tensor(2.0 * rng.normal(0, 1, (3, 5)))
    index = rng.integers(0, 5, 3)
    w = rng.normal(0, 1, (3, 1))
    return [logits], lambda p: ad.categorical_log_q(p[0], index), w


def _case_gaussian_log_q(rng):
    """Gradient with respect to the code sample c as well as mu and log_sigma."""
    c = Tensor(rng.normal(0, 1, (3, 2)))
    mu = Tensor(rng.normal(0, 1, (3, 2)))
    log_sigma = Tensor(0.3 * rng.normal(0, 1, (3, 2)))
    w = rng.normal(0, 1, (3, 1))
    return [c, mu, log_sigma], lambda p: ad.gaussian_log_q(p[0], p[1], p[2]), w


def _case_reduce_mean(rng):
    x = Tensor(rng.normal(0, 1, (3, 4)))
    return [x], lambda p: ad.reduce_mean(p[0]), None


def _case_batchnorm(rng, training):
    x = Tensor(rng.normal(0, 1, (6, 4)))
    gamma = Tensor(rng.uniform(0.5, 1.5, (4,)))
    beta = Tensor(rng.normal(0, 0.3, (4,)))
    state = BatchNormState(4)
    state.running_mean = rng.normal(0, 0.5, 4)
    state.running_var = rng.uniform(0.5, 1.5, 4)
    w = rng.normal(0, 1, (6, 4))
    return [x, gamma, beta], lambda p: ad.batchnorm(p[0], p[1], p[2], state, training), w


# keyed by catalogue op; an op with modes gets one case per mode, suffixed
# _train / _eval (batchnorm) or _label0 / _label1 (sigmoid_cross_entropy)
_OP_CASES = {
    "linear": _case_linear,
    "weighted_sum": _case_weighted_sum,
    "relu": lambda rng: _elementwise_case(ad.relu, rng),
    "lrelu": lambda rng: _elementwise_case(lambda x: ad.lrelu(x, 0.1), rng),
    "clip": _case_clip,
    "sigmoid": lambda rng: _elementwise_case(ad.sigmoid, rng),
    "sigmoid_cross_entropy_label0": lambda rng: _case_sigmoid_cross_entropy(rng, 0),
    "sigmoid_cross_entropy_label1": lambda rng: _case_sigmoid_cross_entropy(rng, 1),
    "categorical_log_q": _case_categorical_log_q,
    "gaussian_log_q": _case_gaussian_log_q,
    "reduce_mean": _case_reduce_mean,
    "batchnorm_train": lambda rng: _case_batchnorm(rng, True),
    "batchnorm_eval": lambda rng: _case_batchnorm(rng, False),
}


def op_grad_checks(n_seeds: int = 100, base_seed: int = 1234) -> dict[str, float]:
    """Worst relative gradient error per op case over ``n_seeds`` random draws."""
    if n_seeds < 1:
        raise UsageError(f"n_seeds must be >= 1, got {n_seeds}")
    worst: dict[str, float] = {}
    for name, case in _OP_CASES.items():
        errs = []
        for s in range(n_seeds):
            rng = np.random.default_rng(base_seed + s)
            params, builder, w = case(rng)
            errs.append(grad_check(builder, params, GRAD_STEP, w))
        worst[name] = max(errs)
    return worst


def redraw_biases(model: ModelPair, rng: np.random.Generator) -> None:
    """Draw every bias and batchnorm beta from N(0, 0.5), in parameter order.

    A fresh model's zero biases leave relu and lrelu inputs within a probe
    step of their kink, where a central difference is no derivative; shifts
    of order one move them clear.
    """
    for name, t in model.params.items():
        if name.endswith((".b", ".beta")):
            t.data[...] = rng.normal(0.0, 0.5, t.shape)


def full_loss_graph_check(n_seeds: int = 100, base_seed: int = 99) -> float:
    """grad_check over every parameter of a 2-unit model through the whole
    objective (D loss plus generator objective with both information terms)."""
    if n_seeds < 1:  # no draw would pass as error 0.0
        raise UsageError(f"n_seeds must be >= 1, got {n_seeds}")
    worst = 0.0
    for s in range(n_seeds):
        rng = np.random.default_rng(base_seed + s)
        spec = LatentSpec(
            blocks=(CodeBlock.categorical(2), CodeBlock.uniform(-1.0, 1.0)),
            noise_dim=2,
        )
        image_dim = 4
        gen_cfg = NetConfig(widths=(spec.gen_input_dim, 2, image_dim))
        dq_cfg = NetConfig(widths=(image_dim, 2), q_hidden=2)
        model = init_models(gen_cfg, dq_cfg, spec, rng)
        redraw_biases(model, rng)
        lat = sample_latent(spec, 3, rng)
        real = rng.uniform(0.0, 1.0, (3, image_dim))

        def loss(_params):
            fake = gen_forward(model, lat.g_input, training=True)
            d_fake, q = disc_q_forward(model, fake, training=True)
            d_real = disc_forward(model, Tensor(real), training=True)
            loss_d = discriminator_loss(d_real, d_fake)
            loss_g = generator_loss(d_fake, "nonsaturating")
            li_disc, li_cont = mi_lower_bound(q, lat)
            bundle = infogan_losses(loss_d, loss_g, li_disc, li_cont, 1.0, 0.1)
            return ad.weighted_sum([bundle.loss_d, bundle.gq_objective], (1.0, 1.0))

        params = list(model.params.values())
        worst = max(worst, grad_check(loss, params, GRAD_STEP))
    return worst
