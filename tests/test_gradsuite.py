"""Spot checks of the gradient harness (the full 100-seed sweep runs in acceptance)."""

import hashlib
import inspect
import pathlib
import re

import numpy as np
import pytest

from infogan_lab import autodiff, gradsuite
from infogan_lab.autodiff import OP_CATALOGUE, Tensor, UsageError, grad_check
from infogan_lab.gradsuite import _OP_CASES, GRAD_STEP, full_loss_graph_check, op_grad_checks, redraw_biases
from infogan_lab.latent import CodeBlock, LatentSpec, sample_latent
from infogan_lab.models import NetConfig, disc_forward, disc_q_forward, gen_forward, init_models
from infogan_lab.objectives import GAN_MODES, discriminator_loss, generator_loss, infogan_losses, mi_lower_bound


def _op_of(case: str) -> str:
    for suffix in ("_train", "_eval", "_label0", "_label1", "_clamped", "_relu", "_lrelu", "_sigmoid"):
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
    # a Gaussian code of two dims, batchnorm in both nets and each gan mode, built through the trainer's
    # objectives; like every gradient check, in float64
    spec = LatentSpec(blocks=(CodeBlock.categorical(3), CodeBlock.gaussian(0.0, 1.0, dim=2)), noise_dim=2)
    image_dim = 4
    gen_cfg = NetConfig(widths=(spec.gen_input_dim, 3, image_dim), batchnorm=batchnorm)
    dq_cfg = NetConfig(widths=(image_dim, 3, 3), batchnorm=batchnorm, q_hidden=3)
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(700 + seed)
        model = init_models(gen_cfg, dq_cfg, spec, rng, np.float64)
        redraw_biases(model, rng)  # at seed 702 without batchnorm, zero biases gave 5.5e-3 on q_head.l0.b
        lat = sample_latent(spec, 3, rng, np.float64)
        real = Tensor(rng.uniform(0.0, 1.0, (3, image_dim)))

        def loss(_params):
            fake = gen_forward(model, lat.g_input, training=True)
            d_fake, q = disc_q_forward(model, fake, training=True)
            loss_d = discriminator_loss(disc_forward(model, real, training=True), d_fake)
            li_disc, li_cont = mi_lower_bound(q, lat)
            gq_objective = infogan_losses(generator_loss(d_fake, gan_mode), li_disc, li_cont, 1.0, 0.1)
            return autodiff.weighted_sum([loss_d, gq_objective], (1.0, 1.0))

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

    def scaled(g, node, need, out):
        return [None if gi is None else 1.01 * gi for gi in backward(g, node, need, out)]

    monkeypatch.setitem(autodiff._OPS, op, (forward, scaled))
    worst = op_grad_checks(n_seeds=1)
    # the cases of one op's modes share its rule, so they fail together
    assert {name for name, err in worst.items() if err > 1e-5} == {name for name in worst if _op_of(name) == op}
    assert worst[case] > 1e-5


@pytest.mark.parametrize("branch", ["batch", "scalar"])
def test_a_weighted_sum_rule_off_in_one_branch_fails_its_case(monkeypatch, branch):
    # the case takes two batches and a scalar, so a rule 1% off in either branch alone, a batch's
    # spread g * w / size or a scalar's g * w, fails it
    forward, backward = autodiff._OPS["weighted_sum"]
    scaled_ndim = 2 if branch == "batch" else 0

    def scaled(g, node, need, out):
        return [None if gi is None else 1.01 * gi if gi.ndim == scaled_ndim else gi for gi in backward(g, node, need, out)]

    monkeypatch.setitem(autodiff._OPS, "weighted_sum", (forward, scaled))
    worst = op_grad_checks(n_seeds=1)
    assert {name for name, err in worst.items() if err > 1e-5} == {"weighted_sum"}


def test_a_gaussian_log_q_rule_without_its_clamp_mask_fails_only_the_clamped_case(monkeypatch):
    # past the clamp the log_sigma gradient must be zero: the rule with its mask dropped
    # still passes the unclamped case, and fails the one that reaches past the bounds
    forward, _ = autodiff._OPS["gaussian_log_q"]

    def unmasked(g, node, need, out):
        diff, inv_var, _, width = node.saved
        scaled = diff * inv_var
        return [autodiff._widen(np.concatenate([g * scaled, g * (diff * scaled - 1.0)], axis=1), node.attrs["cols"], width)]

    monkeypatch.setitem(autodiff._OPS, "gaussian_log_q", (forward, unmasked))
    worst = op_grad_checks(n_seeds=1)
    assert {name for name, err in worst.items() if err > 1e-5} == {"gaussian_log_q_clamped"}


@pytest.mark.parametrize("op", ["categorical_log_q", "gaussian_log_q"])
@pytest.mark.parametrize("leak", ["outside", "shifted"])
def test_a_log_q_rule_that_writes_outside_its_columns_fails_its_cases(monkeypatch, op, leak):
    # each log-Q case reads a q wider than its block, so a gradient that reaches another block's columns,
    # or the block's own gradient written one column off, fails every case of the op and no other
    forward, backward = autodiff._OPS[op]

    def leaky(g, node, need, out):
        (dq,) = backward(g, node, need, out)
        if leak == "shifted":  # every case's block starts at column 1
            return [np.roll(dq, -1, axis=1)]
        outside = np.ones(dq.shape[1], bool)
        outside[node.attrs["cols"]] = False
        dq[:, outside] += g
        return [dq]

    monkeypatch.setitem(autodiff._OPS, op, (forward, leaky))
    worst = op_grad_checks(n_seeds=1)
    assert {name for name, err in worst.items() if err > 1e-5} == {name for name in worst if _op_of(name) == op}


# the cases that run each activation epilogue: its linear case, and the batchnorm case of the models' layers
_EPILOGUE_CASES = {
    "relu": {"linear_relu", "batchnorm_train"},
    "lrelu": {"linear_lrelu", "batchnorm_eval"},
    "sigmoid": {"linear_sigmoid"},
}


def test_every_epilogue_has_its_cases():
    assert set(_EPILOGUE_CASES) == set(autodiff._ACTS)
    assert set().union(*_EPILOGUE_CASES.values()) <= set(_OP_CASES)


@pytest.mark.parametrize("act", sorted(_EPILOGUE_CASES))
def test_an_epilogue_backward_without_its_mask_fails_exactly_its_cases(monkeypatch, act):
    # the derivative factor dropped: the gradient at the pre-activation passes through as g, which is
    # wrong wherever a relu or lrelu input is negative and everywhere for the sigmoid
    forward, _ = autodiff._ACTS[act]
    monkeypatch.setitem(autodiff._ACTS, act, (forward, lambda g, act_saved: g))
    worst = op_grad_checks(n_seeds=1)
    assert {name for name, err in worst.items() if err > 1e-5} == _EPILOGUE_CASES[act]


def test_the_cases_probe_209_coordinates_a_seed():
    # 233 when relu, lrelu and sigmoid were ops with cases of their own, 221 when the log-Q cases took
    # their blocks' parameters as separate tensors, and 220 while reduce_mean was an op with its own case:
    # a change must not make the benchmark's verify round, which probes every one, any longer
    rng = np.random.default_rng(0)
    assert sum(p.data.size for case in _OP_CASES.values() for p in case(rng)[0]) == 209


def _count_forward_ops(monkeypatch) -> dict:
    calls = {"n": 0}
    forward_op = autodiff.forward_op

    def counting_forward_op(name, inputs, attrs=None):
        calls["n"] += 1
        return forward_op(name, inputs, attrs)

    monkeypatch.setattr(autodiff, "forward_op", counting_forward_op)
    return calls


def test_one_seed_of_op_checks_costs_24_forward_ops(monkeypatch):
    # one taped pass and one stacked pass of every probe, of the op alone: 12 cases make
    # 2 * 12 = 24 calls; any readout op run per probe, or an extra pass, fails here
    calls = _count_forward_ops(monkeypatch)
    op_grad_checks(1)
    assert calls["n"] == 24


def test_one_seed_of_the_full_graph_check_costs_36_forward_ops(monkeypatch):
    # a pass of the whole objective is 18 ops (each layer one, its activation folded in, Q's head
    # ends in one output layer, and each family's L_I is one weighted_sum), and the check runs two
    # passes: 2 * 18 = 36
    calls = _count_forward_ops(monkeypatch)
    full_loss_graph_check(1)
    assert calls["n"] == 36


def test_readme_states_the_forward_ops_of_one_seed(monkeypatch):
    # README's "one seed of `op_grad_checks` costs N" and "one seed of `full_loss_graph_check` costs N",
    # read the way test_docs_state_the_catalogue_size reads the op count, against the counted calls
    readme = " ".join((pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    stated = {check: int(n) for check, n in re.findall(r"one seed of `(\w+)` costs (\d+)", readme, re.IGNORECASE)}
    counted = {}
    for check in (op_grad_checks, full_loss_graph_check):
        calls = _count_forward_ops(monkeypatch)
        check(1)
        counted[check.__name__] = calls["n"]
    assert stated == counted == {"op_grad_checks": 24, "full_loss_graph_check": 36}


def test_batchnorm_train_check_folds_only_its_taped_pass(monkeypatch):
    # the taped pass folds its batch moments into the running ones; the stacked pass of
    # probes folds nothing
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
    rows = [sorted(op_grad_checks(1, 1234 + i).items()) for i in range(20)]
    full = repr([full_loss_graph_check(1, 99 + i) for i in range(20)])
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "94aceb3179bbe5719ad1a6523f73cf5da130c296a882269c787067f2321f77f5"
    ), pinned_on
    # the cases of every op but weighted_sum read as they did before its case was rebuilt from two
    # batches and a scalar and reduce_mean's case was deleted with its op (the eleven rows' digest then and now)
    untouched = [[(case, err) for case, err in row if case != "weighted_sum"] for row in rows]
    assert {len(row) for row in untouched} == {11}
    assert hashlib.sha256(repr(untouched).encode()).hexdigest() == (
        "14ec46f067d11c7d9efc5092df138ef4ac5403491320a27bed85a549796ac916"
    ), pinned_on
    assert hashlib.sha256(full.encode()).hexdigest() == (
        "3778ffab4e1ab77fd35eb362cbc4bf43b78f3e39eb96caaa55ba54a0f6207c8e"
    ), pinned_on
