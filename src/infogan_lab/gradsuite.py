"""Gradient verification harness: every catalogue op, plus the full loss graph.

Each op case builds a small random problem and returns ``(params, builder,
w)``: the builder runs the op alone, and ``w`` is a fixed random readout of
the op's output (None for a scalar output).
:func:`infogan_lab.autodiff.grad_check` compares the vector-Jacobian product
with cotangent ``w`` against central finite differences of ``vdot(w, out)``,
read outside the tape, so no readout op runs per probe.

Each check runs its builder twice: once taped, and once with every probe
stacked on a leading axis (see :func:`infogan_lab.autodiff.grad_check`).

Every check runs in float64, also the full loss graph, whose model and
latent batch are built in float64 rather than the float32 that training
uses: the rules are dtype-generic, so the same rules are checked, at a
precision where a 1e-6 central difference means something.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Tensor, UsageError, grad_check
from .latent import CodeBlock, LatentSpec, sample_latent
from .models import ModelPair, NetConfig, disc_forward, disc_q_forward, gen_forward, init_models
from .objectives import discriminator_loss, generator_loss, infogan_losses, mi_lower_bound

GRAD_STEP = 1e-6  # central finite-difference step of every check here


def _case_linear(rng, act=None):
    """Gradient with respect to the input batch as well as the weights and the bias, through the epilogue
    ``act``; without one, the layer has one output column, as the D head and a 1-D Gaussian head do."""
    fan_in, width = (4, 1) if act is None else (3, 2)
    x = Tensor(rng.normal(0, 1, (3, fan_in)))
    w = Tensor(rng.normal(0, 1, (fan_in, width)))
    b = Tensor(rng.normal(0, 1, (width,)))
    weights = rng.normal(0, 1, (3, width))
    return [x, w, b], lambda p: ad.linear(p[0], p[1], p[2], act), weights


def _case_weighted_sum(rng):
    """Each term's gradient carries its own weight, of either sign: two batches, each spread over its entries
    as its mean's gradient, and a scalar; the output is a scalar."""
    a = Tensor(rng.normal(0, 1, (3, 4)))
    b = Tensor(rng.normal(0, 1, (2, 6)))
    s = Tensor(rng.normal(0, 1))
    return [a, b, s], lambda p: ad.weighted_sum(p, (-2.5, 0.75, 1.5)), None


def _case_sigmoid_cross_entropy(rng, label):
    # logits of both signs in every draw, large enough to reach both tails; the output is a scalar
    x = Tensor(np.array([1.0, -1.0, 1.0, -1.0]) * np.abs(rng.normal(0, 5, (3, 4))))
    return [x], lambda p: ad.sigmoid_cross_entropy(p[0], label), None


# each log-Q case reads one block's columns of a wider q, so a gradient reaching past them fails the check
def _case_categorical_log_q(rng):
    """Every logit of a row moves the picked log-probability through the normalizer."""
    q = Tensor(2.0 * rng.normal(0, 1, (3, 6)))
    index = rng.integers(0, 4, 3)
    w = rng.normal(0, 1, (3, 1))
    return [q], lambda p: ad.categorical_log_q(p[0], index, slice(1, 5)), w


def _case_gaussian_log_q(rng):
    """Gradient with respect to mu and log_sigma, columns 1-2 and 3-4 of q; the code sample c is an attribute."""
    c, mu = rng.normal(0, 1, (2, 3, 2))
    q = Tensor(np.concatenate([rng.normal(0, 1, (3, 1)), mu, 0.3 * rng.normal(0, 1, (3, 2)), rng.normal(0, 1, (3, 1))], axis=1))
    w = rng.normal(0, 1, (3, 1))
    return [q], lambda p: ad.gaussian_log_q(p[0], c, slice(1, 5)), w


def _case_gaussian_log_q_clamped(rng):
    """log_sigma columns inside (-7, 7), below -7 and above 7, each clear of the clamp's bounds; mu and
    c - mu on the clamped sigma's scale, so no difference is lost to rounding next to a sigma of e^-7."""
    log_sigma = np.concatenate(
        [rng.uniform(-6.9, 6.9, (2, 1)), rng.uniform(-9.0, -7.1, (2, 1)), rng.uniform(7.1, 9.0, (2, 1))], axis=1
    )
    sigma = np.exp(np.clip(log_sigma, -7.0, 7.0))
    mu = sigma * rng.normal(0, 1, (2, 3))
    c = mu + sigma * rng.normal(0, 1, (2, 3))
    q = Tensor(np.concatenate([rng.normal(0, 1, (2, 1)), mu, log_sigma], axis=1))
    w = rng.normal(0, 1, (2, 1))
    return [q], lambda p: ad.gaussian_log_q(p[0], c, slice(1, 7)), w


def _case_batchnorm(rng, training, act):
    x = Tensor(rng.normal(0, 1, (5, 3)))
    gamma = Tensor(rng.uniform(0.5, 1.5, (3,)))
    beta = Tensor(rng.normal(0, 0.3, (3,)))
    state = BatchNormState(3)
    state.running_mean = rng.normal(0, 0.5, 3)
    state.running_var = rng.uniform(0.5, 1.5, 3)
    w = rng.normal(0, 1, (5, 3))
    return [x, gamma, beta], lambda p: ad.batchnorm(p[0], p[1], p[2], state, training, act), w


# keyed by catalogue op; an op with modes gets one case per mode, suffixed _train / _eval
# (batchnorm), _label0 / _label1 (sigmoid_cross_entropy), _clamped (gaussian_log_q past its clamp) or
# the activation epilogue it runs (linear); each batchnorm case runs the epilogue its models' layers do
_OP_CASES = {
    "linear": _case_linear,
    "linear_relu": lambda rng: _case_linear(rng, "relu"),
    "linear_lrelu": lambda rng: _case_linear(rng, "lrelu"),
    "linear_sigmoid": lambda rng: _case_linear(rng, "sigmoid"),
    "weighted_sum": _case_weighted_sum,
    "sigmoid_cross_entropy_label0": lambda rng: _case_sigmoid_cross_entropy(rng, 0),
    "sigmoid_cross_entropy_label1": lambda rng: _case_sigmoid_cross_entropy(rng, 1),
    "categorical_log_q": _case_categorical_log_q,
    "gaussian_log_q": _case_gaussian_log_q,
    "gaussian_log_q_clamped": _case_gaussian_log_q_clamped,
    "batchnorm_train": lambda rng: _case_batchnorm(rng, True, "relu"),
    "batchnorm_eval": lambda rng: _case_batchnorm(rng, False, "lrelu"),
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
    spec = LatentSpec(blocks=(CodeBlock.categorical(2), CodeBlock.uniform(-1.0, 1.0)), noise_dim=2)
    image_dim = 4
    gen_cfg = NetConfig(widths=(spec.gen_input_dim, 2, image_dim))
    dq_cfg = NetConfig(widths=(image_dim, 2), q_hidden=2)
    worst = 0.0
    for s in range(n_seeds):
        rng = np.random.default_rng(base_seed + s)
        model = init_models(gen_cfg, dq_cfg, spec, rng, np.float64)
        redraw_biases(model, rng)
        lat = sample_latent(spec, 3, rng, np.float64)
        real = rng.uniform(0.0, 1.0, (3, image_dim))

        def loss(_params):
            fake = gen_forward(model, lat.g_input, training=True)
            d_fake, q = disc_q_forward(model, fake, training=True)
            d_real = disc_forward(model, Tensor(real), training=True)
            loss_d = discriminator_loss(d_real, d_fake)
            loss_g = generator_loss(d_fake, "nonsaturating")
            li_disc, li_cont = mi_lower_bound(q, lat)
            return ad.weighted_sum([loss_d, infogan_losses(loss_g, li_disc, li_cont, 1.0, 0.1)], (1.0, 1.0))

        params = list(model.params.values())
        worst = max(worst, grad_check(loss, params, GRAD_STEP))
    return worst
