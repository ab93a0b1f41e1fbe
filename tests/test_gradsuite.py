"""Spot checks of the gradient harness (the full 100-seed sweep runs in acceptance)."""

import hashlib
import inspect

import numpy as np
import pytest

from infogan_lab import autodiff, gradsuite
from infogan_lab.autodiff import OP_CATALOGUE, Tensor, UsageError, grad_check
from infogan_lab.gradsuite import _OP_CASES, GRAD_STEP, full_loss_graph_check, op_grad_checks, redraw_biases
from infogan_lab.latent import CodeBlock, LatentSpec, sample_latent
from infogan_lab.models import NetConfig, disc_forward, disc_q_forward, gen_forward, init_models
from infogan_lab.objectives import GAN_MODES, discriminator_loss, generator_loss, infogan_losses, mi_lower_bound


def _op_of(case: str) -> str:
    for suffix in ("_train", "_eval", "_label0", "_label1"):
        case = case.removesuffix(suffix)
    return case


def test_every_catalogue_op_has_a_case():
    cases = set(_OP_CASES)
    for op in OP_CATALOGUE:
        assert op in {_op_of(case) for case in cases}, f"no gradient case for '{op}'"
    for case in cases:
        assert _op_of(case) in OP_CATALOGUE, f"gradient case '{case}' names no catalogue op"


def test_op_checks_pass_on_a_few_seeds():
    worst = op_grad_checks(n_seeds=5)
    assert max(worst.values()) <= 1e-5


def test_full_graph_passes_on_a_few_seeds():
    assert full_loss_graph_check(n_seeds=3) <= 1e-5


def test_full_graph_probes_no_zero_parameter(monkeypatch):
    # a zero bias puts relu and lrelu inputs within a probe step of their kink, so every
    # parameter the check probes, biases included, must be drawn away from zero
    probed = []

    def record(loss_builder, params, step):
        probed.extend(p.data.copy() for p in params)
        return 0.0

    monkeypatch.setattr(gradsuite, "grad_check", record)
    full_loss_graph_check(n_seeds=3)
    assert probed and all(np.all(p != 0.0) for p in probed)


@pytest.mark.parametrize("batchnorm", [False, True])
@pytest.mark.parametrize("gan_mode", GAN_MODES)
def test_whole_loss_graph_across_the_config_space(gan_mode, batchnorm):
    # the graphs full_loss_graph_check leaves out (it runs cat:2 + unif, no batchnorm, non-saturating):
    # a Gaussian code of two dims, batchnorm in both nets and each gan mode, built through the trainer's objectives
    spec = LatentSpec(blocks=(CodeBlock.categorical(3), CodeBlock.gaussian(0.0, 1.0, dim=2)), noise_dim=2)
    image_dim = 4
    gen_cfg = NetConfig(widths=(spec.gen_input_dim, 3, image_dim), batchnorm=batchnorm)
    dq_cfg = NetConfig(widths=(image_dim, 3, 3), batchnorm=batchnorm, q_hidden=3)
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(700 + seed)
        model = init_models(gen_cfg, dq_cfg, spec, rng)
        redraw_biases(model, rng)  # at seed 702 without batchnorm, zero biases gave 5.5e-3 on q_head.l0.b
        lat = sample_latent(spec, 3, rng)
        real = Tensor(rng.uniform(0.0, 1.0, (3, image_dim)))

        def loss(_params):
            fake = gen_forward(model, lat.g_input, training=True)
            d_fake, q = disc_q_forward(model, fake, training=True)
            loss_d = discriminator_loss(disc_forward(model, real, training=True), d_fake)
            li_disc, li_cont = mi_lower_bound(q, lat)
            bundle = infogan_losses(loss_d, generator_loss(d_fake, gan_mode), li_disc, li_cont, 1.0, 0.1)
            return autodiff.weighted_sum([bundle.loss_d, bundle.gq_objective], (1.0, 1.0))

        worst = max(worst, grad_check(loss, list(model.params.values()), GRAD_STEP))
    assert worst <= 1e-5


@pytest.mark.parametrize("check", [op_grad_checks, full_loss_graph_check])
@pytest.mark.parametrize("n_seeds", [0, -1])
def test_no_seed_is_rejected_naming_n_seeds(check, n_seeds):
    # no draw checks nothing, so it must fail by name rather than crash or pass as error 0.0
    with pytest.raises(UsageError, match=f"n_seeds must be >= 1, got {n_seeds}"):
        check(n_seeds=n_seeds)


@pytest.mark.parametrize("case", sorted(_OP_CASES))
def test_a_rule_off_by_one_percent_fails_its_case(monkeypatch, case):
    # the readout-free check must still see a wrong backward rule: scale one op's rule by 1.01
    op = _op_of(case)
    forward, backward = autodiff._OPS[op]

    def scaled(g, node, need):
        return [None if gi is None else 1.01 * gi for gi in backward(g, node, need)]

    monkeypatch.setitem(autodiff._OPS, op, (forward, scaled))
    worst = op_grad_checks(n_seeds=1)
    # the cases of one op's modes share its rule, so they fail together
    assert {name for name, err in worst.items() if err > 1e-5} == {name for name in worst if _op_of(name) == op}
    assert worst[case] > 1e-5


def _count_forward_ops(monkeypatch) -> dict:
    calls = {"n": 0}
    forward_op = autodiff.forward_op

    def counting_forward_op(name, inputs, attrs=None):
        calls["n"] += 1
        return forward_op(name, inputs, attrs)

    monkeypatch.setattr(autodiff, "forward_op", counting_forward_op)
    return calls


def test_one_seed_of_op_checks_costs_61_forward_ops(monkeypatch):
    # one taped pass, two determinism passes and one stacked pass per parameter tensor, of the
    # op alone: 13 cases with 22 parameter tensors in all make 3 * 13 + 22 = 61 calls; any
    # readout op run per probe, or an extra pass, fails here
    calls = _count_forward_ops(monkeypatch)
    op_grad_checks(1)
    assert calls["n"] == 61


def test_one_seed_of_the_full_graph_check_costs_532_forward_ops(monkeypatch):
    # a pass of the whole objective is 28 ops, and the 2-unit model has 16 parameter tensors:
    # (3 + 16) * 28 = 532, where one pass per probe made (3 + 2 * 55) * 28 = 3164
    calls = _count_forward_ops(monkeypatch)
    full_loss_graph_check(1)
    assert calls["n"] == 532


def test_batchnorm_train_check_folds_only_its_three_unstacked_passes(monkeypatch):
    # the taped pass and the two determinism passes fold their batch moments into the running
    # ones; a stacked pass of probes folds nothing
    states = []

    class RecordedState(autodiff.BatchNormState):
        def __init__(self, num_features):
            super().__init__(num_features)
            states.append(self)

    monkeypatch.setattr(gradsuite, "BatchNormState", RecordedState)
    params, builder, w = _OP_CASES["batchnorm_train"](np.random.default_rng(5))
    ref_params, ref_builder, _ = _OP_CASES["batchnorm_train"](np.random.default_rng(5))
    checked, reference = states
    before = checked.running_mean.copy()
    assert grad_check(builder, params, GRAD_STEP, w) <= 1e-5
    for _ in range(3):
        ref_builder(ref_params)
    assert not np.array_equal(checked.running_mean, before)
    assert checked.running_mean.tobytes() == reference.running_mean.tobytes()
    assert checked.running_var.tobytes() == reference.running_var.tobytes()


def test_signatures_the_benchmark_calls():
    # perfbench's verify workload calls both checks with n_seeds and base_seed keywords and
    # cycles through the 100 seeds after each default base seed (1234 and 99)
    for fn, base_seed in ((op_grad_checks, 1234), (full_loss_graph_check, 99)):
        params = inspect.signature(fn).parameters
        assert params["n_seeds"].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        assert params["base_seed"].default == base_seed
    worst = op_grad_checks(n_seeds=1, base_seed=1234 + 99)
    assert set(worst) == set(_OP_CASES)
    assert all(type(err) is float for err in worst.values())
    assert type(full_loss_graph_check(n_seeds=1, base_seed=99 + 99)) is float


def test_error_floats_of_twenty_seeds_after_each_default_base_seed(pinned_on):
    # the exact worst errors, by repr, of one-seed checks at the 20 seeds after each default base seed:
    # a change to the engine or to grad_check that claims to keep every bit must leave both digests as they are
    ops = repr([sorted(op_grad_checks(1, 1234 + i).items()) for i in range(20)])
    full = repr([full_loss_graph_check(1, 99 + i) for i in range(20)])
    assert hashlib.sha256(ops.encode()).hexdigest() == (
        "dc49ae85d0fc84cbf66f1fb4fed2fb0ca1639b5f9c326703ce8e1d635cb2c6bb"
    ), pinned_on
    assert hashlib.sha256(full.encode()).hexdigest() == (
        "b6201e8d312e0c0a3e5813283bec356577be1ff2e1fc4ed71cb6921e60312101"
    ), pinned_on
