"""Gradient verification harness: every catalogue op, plus the full loss graph.

Each op case builds a small random problem and returns ``(params, builder,
w)``: the builder runs the op alone, and ``w`` is a fixed random readout of
the op's output (None for a scalar output).
:func:`infogan_lab.autodiff.grad_check` compares the vector-Jacobian product
with cotangent ``w`` against central finite differences of ``vdot(w, out)``,
read outside the tape, so no readout op runs per probe.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Tensor, grad_check
from .latent import CodeBlock, LatentSpec, sample_latent
from .models import NetConfig, disc_forward, disc_q_forward, gen_forward, init_models
from .objectives import discriminator_loss, generator_loss, infogan_losses, mi_lower_bound

DEFAULT_STEP = 1e-6


def _case_linear(rng):
    """Gradient with respect to the input batch as well as the weights and the bias."""
    x = Tensor(rng.normal(0, 1, (3, 4)))
    w = Tensor(rng.normal(0, 1, (4, 2)))
    b = Tensor(rng.normal(0, 1, (2,)))
    weights = rng.normal(0, 1, (3, 2))
    return [x, w, b], lambda p: ad.linear(p[0], p[1], p[2]), weights


def _case_add(rng):
    a = Tensor(rng.normal(0, 1, (3, 4)))
    b = Tensor(rng.normal(0, 1, (3, 4)))
    w = rng.normal(0, 1, (3, 4))
    return [a, b], lambda p: ad.add(p[0], p[1]), w


def _weighted_case(fn, x: np.ndarray, rng):
    """Inputs ``x`` through ``fn``, read out by a fixed random weighting."""
    w = rng.normal(0, 1, x.shape)
    return [Tensor(x)], lambda p: fn(p[0]), w


def _elementwise_case(fn, rng):
    return _weighted_case(fn, rng.normal(0, 1, (3, 4)), rng)


def _case_softplus(rng):
    # logits of both signs in every draw, large enough to reach both tails
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    return _weighted_case(ad.softplus, signs * np.abs(rng.normal(0, 5, (3, 4))), rng)


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


# keyed by catalogue op; an op whose modes have separate rules gets one
# case per mode, suffixed _train / _eval
_OP_CASES = {
    "linear": _case_linear,
    "add": _case_add,
    "scale": lambda rng: _elementwise_case(lambda x: ad.scale(x, -2.5), rng),
    "relu": lambda rng: _elementwise_case(ad.relu, rng),
    "lrelu": lambda rng: _elementwise_case(lambda x: ad.lrelu(x, 0.1), rng),
    "clip": _case_clip,
    "sigmoid": lambda rng: _elementwise_case(ad.sigmoid, rng),
    "softplus": _case_softplus,
    "categorical_log_q": _case_categorical_log_q,
    "gaussian_log_q": _case_gaussian_log_q,
    "reduce_mean": _case_reduce_mean,
    "batchnorm_train": lambda rng: _case_batchnorm(rng, True),
    "batchnorm_eval": lambda rng: _case_batchnorm(rng, False),
}


def op_grad_checks(n_seeds: int = 100, step: float = DEFAULT_STEP, base_seed: int = 1234) -> dict[str, float]:
    """Worst relative gradient error per op case over ``n_seeds`` random draws."""
    worst: dict[str, float] = {}
    for name, case in _OP_CASES.items():
        errs = []
        for s in range(n_seeds):
            rng = np.random.default_rng(base_seed + s)
            params, builder, w = case(rng)
            errs.append(grad_check(builder, params, step, w))
        worst[name] = max(errs)
    return worst


def full_loss_graph_check(n_seeds: int = 100, step: float = DEFAULT_STEP, base_seed: int = 99) -> float:
    """grad_check over every parameter of a 2-unit model through the whole
    objective (D loss plus generator objective with both information terms)."""
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
        lat = sample_latent(spec, 3, rng)
        real = rng.uniform(0.0, 1.0, (3, image_dim))

        def loss(_params):
            fake = gen_forward(model, lat, training=True)
            d_fake, q_post = disc_q_forward(model, fake, training=True)
            d_real = disc_forward(model, Tensor(real), training=True)
            loss_d = discriminator_loss(d_real, d_fake)
            loss_g = generator_loss(d_fake, "nonsaturating")
            li_disc, li_cont = mi_lower_bound(q_post, lat, spec)
            bundle = infogan_losses(loss_d, loss_g, li_disc, li_cont, 1.0, 0.1)
            return ad.add(bundle.loss_d, bundle.gq_objective)

        params = list(model.params.values())
        worst = max(worst, grad_check(loss, params, step))
    return worst
