"""Spot checks of the gradient harness (the full 100-seed sweep runs in acceptance)."""

import inspect

import pytest

from infogan_lab import autodiff
from infogan_lab.autodiff import OP_CATALOGUE
from infogan_lab.gradsuite import _OP_CASES, full_loss_graph_check, op_grad_checks


def _op_of(case: str) -> str:
    return case.removesuffix("_train").removesuffix("_eval")


def test_every_catalogue_op_has_a_case():
    cases = set(_OP_CASES)
    for op in OP_CATALOGUE:
        assert op in cases or f"{op}_train" in cases, f"no gradient case for '{op}'"
    for case in cases:
        assert _op_of(case) in OP_CATALOGUE, f"gradient case '{case}' names no catalogue op"


def test_op_checks_pass_on_a_few_seeds():
    worst = op_grad_checks(n_seeds=5)
    assert max(worst.values()) <= 1e-5


def test_full_graph_passes_on_a_few_seeds():
    assert full_loss_graph_check(n_seeds=3) <= 1e-5


@pytest.mark.parametrize("case", sorted(_OP_CASES))
def test_a_rule_off_by_one_percent_fails_its_case(monkeypatch, case):
    # the readout-free check must still see a wrong backward rule: scale one op's rule by 1.01
    op = _op_of(case)
    forward, backward = autodiff._OPS[op]

    def scaled(g, node, need):
        return [None if gi is None else 1.01 * gi for gi in backward(g, node, need)]

    monkeypatch.setitem(autodiff._OPS, op, (forward, scaled))
    worst = op_grad_checks(n_seeds=1)
    # batchnorm_train and batchnorm_eval share one rule, so both fail together
    assert {name for name, err in worst.items() if err > 1e-5} == {name for name in worst if _op_of(name) == op}
    assert worst[case] > 1e-5


def test_one_seed_of_op_checks_costs_493_forward_ops(monkeypatch):
    # two determinism passes, one taped pass and two probes per coordinate, of the op alone:
    # any readout op run per probe, or an extra probe, fails here
    calls = {"n": 0}
    forward_op = autodiff.forward_op

    def counting_forward_op(name, inputs, attrs=None):
        calls["n"] += 1
        return forward_op(name, inputs, attrs)

    monkeypatch.setattr(autodiff, "forward_op", counting_forward_op)
    op_grad_checks(1)
    assert calls["n"] == 493


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
