"""Spot checks of the gradient harness (the full 100-seed sweep runs in acceptance)."""

from infogan_lab.autodiff import OP_CATALOGUE
from infogan_lab.gradsuite import _OP_CASES, full_loss_graph_check, op_grad_checks


def test_every_catalogue_op_has_a_case():
    cases = set(_OP_CASES)
    for op in OP_CATALOGUE:
        assert op in cases or f"{op}_train" in cases, f"no gradient case for '{op}'"
    for case in cases:
        op = case.removesuffix("_train").removesuffix("_eval")
        assert op in OP_CATALOGUE, f"gradient case '{case}' names no catalogue op"


def test_op_checks_pass_on_a_few_seeds():
    worst = op_grad_checks(n_seeds=5)
    assert max(worst.values()) <= 1e-5


def test_full_graph_passes_on_a_few_seeds():
    assert full_loss_graph_check(n_seeds=3) <= 1e-5
