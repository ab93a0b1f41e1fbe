"""Oracles: sampling-identity lemma, channel bound, estimates, classifier, traversals."""

import functools
import hashlib
import itertools
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from infogan_lab import evaluate
from infogan_lab.autodiff import UsageError
from infogan_lab.config import TrainingConfig, parse_block_token
from infogan_lab.data_io import Dataset, FormatError, synth_templates
from infogan_lab.evaluate import (
    ChannelSpec,
    LemmaJointSpec,
    bayes_posterior_q,
    categorical_classifier_eval,
    channel_bound_check,
    estimate_mi_bound,
    max_matching_assignment,
    random_channel,
    random_joint,
    traversal_grid,
    verify_lemma,
)
from infogan_lab.latent import CodeBlock
from infogan_lab.models import init_models
from infogan_lab.trainer import train_step


def toy_model(seed=0, k=4, image_dim=64, cont_blocks=1):
    blocks = [CodeBlock.categorical(k)] + [CodeBlock.uniform(-1, 1) for _ in range(cont_blocks)]
    cfg = TrainingConfig(
        seed=seed,
        codes=tuple(blocks),
        noise_dim=8,
        gen_layers=(16, 24),
        trunk_layers=(24, 16),
        q_hidden=8,
        batchnorm=False,
    )
    gen_cfg, dq_cfg = cfg.net_configs()
    return init_models(gen_cfg, dq_cfg, cfg.latent_spec(), np.random.default_rng(seed)), cfg


class TestVerifyLemma:
    def test_independent_uniform_sum_payoff(self):
        # independent x,y uniform on {0,1}; f(x,y)=x+y makes both sides exactly 1
        joint = LemmaJointSpec(joint=np.full((2, 2), 0.25), payoff=np.array([[0.0, 1.0], [1.0, 2.0]]))
        res = verify_lemma(joint, 1000, np.random.default_rng(0))
        assert res.lhs_exact == 1.0 and res.rhs_exact == 1.0

    def test_correlated_joint_sides_agree(self):
        joint = LemmaJointSpec(
            joint=np.array([[0.4, 0.1], [0.1, 0.4]]),
            payoff=np.array([[2.0, -1.0], [0.5, 3.0]]),
        )
        res = verify_lemma(joint, 1000, np.random.default_rng(1))
        assert abs(res.lhs_exact - res.rhs_exact) <= 1e-12

    def test_exact_equality_over_random_joints(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            res = verify_lemma(random_joint(rng), 100, rng)
            assert abs(res.lhs_exact - res.rhs_exact) <= 1e-12

    def test_mc_within_three_se(self):
        rng = np.random.default_rng(3)
        joint = random_joint(rng)
        res = verify_lemma(joint, 100000, rng)
        assert abs(res.lhs_mc - res.lhs_exact) <= 3 * res.lhs_se
        assert abs(res.rhs_mc - res.rhs_exact) <= 3 * res.rhs_se

    def test_zero_probability_y_skipped(self):
        joint = np.array([[0.5, 0.0], [0.5, 0.0]])
        res = verify_lemma(LemmaJointSpec(joint=joint, payoff=np.ones((2, 2))), 100, np.random.default_rng(4))
        assert res.lhs_exact == res.rhs_exact == 1.0

    def test_invalid_joint_rejected(self):
        with pytest.raises(UsageError):
            LemmaJointSpec(joint=np.array([[0.5, 0.6]]), payoff=np.zeros((1, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_payoff_that_is_not_finite_is_refused_naming_the_entry(self, bad):
        # a non-finite payoff would make every verify_lemma field NaN or inf without naming its cause
        payoff = np.ones((2, 3))
        payoff[1, 2] = bad
        with pytest.raises(UsageError, match=rf"^payoff\[1, 2\] is {bad}; payoff entries must be finite$"):
            LemmaJointSpec(joint=np.full((2, 3), 1.0 / 6.0), payoff=payoff)

    @pytest.mark.parametrize("n_mc", [1, 0, -3])
    def test_fewer_than_two_draws_rejected_naming_n_mc(self, n_mc):
        # one draw has no standard error (NaN) and none has no mean either
        joint = LemmaJointSpec(joint=np.full((2, 2), 0.25), payoff=np.ones((2, 2)))
        with pytest.raises(UsageError, match=f"n_mc must be >= 2 .*, got {n_mc}"):
            verify_lemma(joint, n_mc, np.random.default_rng(0))

    def test_two_draws_give_finite_sides(self):
        joint = LemmaJointSpec(joint=np.array([[0.4, 0.1], [0.1, 0.4]]), payoff=np.array([[2.0, -1.0], [0.5, 3.0]]))
        res = verify_lemma(joint, 2, np.random.default_rng(5))
        assert all(np.isfinite([res.lhs_mc, res.rhs_mc, res.lhs_se, res.rhs_se]))


class TestChannelBound:
    def test_bsc_point_nine_exact(self):
        chan = ChannelSpec(
            prior=np.array([0.5, 0.5]),
            conditional=np.array([[0.9, 0.1], [0.1, 0.9]]),
            q_table=np.array([[0.9, 0.1], [0.1, 0.9]]),  # the Bayes posterior here
        )
        res = channel_bound_check(chan)
        assert abs(res.i_exact - 0.368064) < 1e-6
        assert abs(res.gap) <= 1e-12
        assert abs(res.i_exact - res.l_i) <= 1e-12

    def test_q_equals_prior_gives_zero_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            res = channel_bound_check(random_channel(rng, q_mode="prior"))
            assert abs(res.l_i) <= 1e-12
            assert abs(res.gap - res.i_exact) <= 1e-12

    def test_deterministic_invertible_channel_reaches_entropy(self):
        prior = np.array([0.25, 0.25, 0.5])
        chan = ChannelSpec(prior=prior, conditional=np.eye(3), q_table=bayes_posterior_q(prior, np.eye(3)))
        res = channel_bound_check(chan)
        h = -(prior * np.log(prior)).sum()
        assert abs(res.i_exact - h) <= 1e-12
        assert abs(res.l_i - h) <= 1e-12

    def test_gap_nonnegative_and_matches_kl_over_random_channels(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            res = channel_bound_check(random_channel(rng))
            assert res.gap >= -1e-12
            assert abs(res.gap - res.expected_kl) <= 1e-12

    def test_posterior_q_is_tight(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            res = channel_bound_check(random_channel(rng, q_mode="posterior"))
            assert abs(res.gap) <= 1e-12

    @pytest.mark.parametrize("q_mode", ["posteror", "Posterior", ""])
    def test_unknown_q_mode_is_rejected_naming_the_modes(self, q_mode):
        # a misspelt mode used to fall through to a random Q
        with pytest.raises(UsageError) as err:
            random_channel(np.random.default_rng(0), q_mode=q_mode)
        assert str(err.value) == f"q_mode must be 'random', 'prior' or 'posterior', got {q_mode!r}"

    def test_zero_q_on_support_reported_not_raised(self):
        chan = ChannelSpec(
            prior=np.array([0.5, 0.5]),
            conditional=np.array([[1.0, 0.0], [0.0, 1.0]]),
            q_table=np.array([[0.0, 1.0], [1.0, 0.0]]),
        )
        res = channel_bound_check(chan)
        assert res.l_i == float("-inf")
        assert res.gap == float("inf") and res.expected_kl == float("inf")

    def test_row_validation(self):
        with pytest.raises(UsageError):
            ChannelSpec(
                prior=np.array([0.6, 0.6]),
                conditional=np.eye(2),
                q_table=np.eye(2),
            )

    @pytest.mark.parametrize("q_mode", ["random", "prior", "posterior", "sparse"])
    def test_expected_kl_matches_scipy_entropy(self, q_mode):
        # an independent oracle: sum over reachable x of P(x) * KL(P(.|x) || Q(.|x)), one x at a time
        from scipy.stats import entropy

        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(200):
            if q_mode == "sparse":
                prior, cond, q = _sparse_channel(rng)
                chan = ChannelSpec(prior=prior, conditional=cond, q_table=q)
            else:
                chan = random_channel(rng, q_mode)
            joint = chan.prior[:, None] * chan.conditional
            px = joint.sum(axis=0)
            want = sum(px[x] * entropy(joint[:, x] / px[x], chan.q_table[x]) for x in np.flatnonzero(px))
            res = channel_bound_check(chan)
            if np.isinf(want):
                assert res.expected_kl == want
            else:
                assert abs(res.expected_kl - want) <= 1e-12
                checked += 1
        assert checked >= 100

    def test_zero_q_off_the_support_stays_finite(self):
        # Q(c|x) = 0 only where P(c, x) = 0, and x = 2 is unreachable with a one-hot Q row
        chan = ChannelSpec(
            prior=np.array([0.5, 0.5]),
            conditional=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            q_table=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]),
        )
        res = channel_bound_check(chan)
        assert abs(res.i_exact - np.log(2.0)) <= 1e-15 and abs(res.l_i - np.log(2.0)) <= 1e-15
        assert abs(res.gap) <= 1e-15 and res.expected_kl == 0.0

    def test_result_holds_the_four_quantities(self):
        res = channel_bound_check(random_channel(np.random.default_rng(9)))
        assert list(vars(res)) == ["i_exact", "l_i", "gap", "expected_kl"]


@pytest.mark.parametrize("table", ["prior", "conditional", "q_table", "joint"])
def test_nan_in_a_probability_table_is_refused_naming_it(table):
    # NaN fails both "< 0" and "|sum - 1| > tol", so each table is checked as "not (valid)"
    tables = {"prior": np.array([0.5, 0.5]), "conditional": np.eye(2), "q_table": np.eye(2), "joint": np.full((2, 2), 0.25)}
    tables[table] = tables[table].copy()
    tables[table].flat[0] = np.nan
    with pytest.raises(UsageError, match=f"^{table}: entries must be >= 0"):
        if table == "joint":
            LemmaJointSpec(joint=tables["joint"], payoff=np.ones((2, 2)))
        else:
            ChannelSpec(prior=tables["prior"], conditional=tables["conditional"], q_table=tables["q_table"])


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (2, 0)])
def test_an_empty_table_is_refused_naming_it(shape):
    # an empty table has no entry below 0 but sums to 0, not 1; the checks must not raise on the empty
    # reduction before they can name the table
    with pytest.raises(UsageError, match="^joint: entries must be >= 0"):
        LemmaJointSpec(joint=np.zeros(shape), payoff=np.zeros(shape))
    k, m = shape
    with pytest.raises(UsageError, match="^prior: entries must be >= 0" if k == 0 else "^conditional: entries must"):
        ChannelSpec(prior=np.full(k, 1.0 / max(k, 1)), conditional=np.zeros((k, m)), q_table=np.zeros((m, k)))


class TestEstimateMiBound:
    def test_discrete_ceiling_within_three_se(self):
        model, cfg = toy_model(seed=1)
        est = estimate_mi_bound(model, cfg.latent_spec(), 2000, np.random.default_rng(1))
        assert est.li_disc <= est.h_disc + 3 * est.se_disc

    def test_se_scales_like_inverse_sqrt_n(self):
        model, cfg = toy_model(seed=2)
        spec = cfg.latent_spec()
        se100 = estimate_mi_bound(model, spec, 100, np.random.default_rng(2)).se_disc
        se10k = estimate_mi_bound(model, spec, 10000, np.random.default_rng(3)).se_disc
        assert 0.08 <= se10k / se100 <= 0.125

    def test_minimum_samples_enforced(self):
        model, cfg = toy_model()
        with pytest.raises(UsageError):
            estimate_mi_bound(model, cfg.latent_spec(), 50, np.random.default_rng(0))

    @pytest.mark.parametrize("codes, noise_dim", [
        ((CodeBlock.categorical(4, (0.7, 0.1, 0.1, 0.1)), CodeBlock.uniform(-3, 3)), 8),
        ((CodeBlock.categorical(4), CodeBlock.uniform(-1, 1)), 9),
    ])
    def test_spec_that_is_not_the_models_is_refused_before_any_draw(self, codes, noise_dim):
        # a mismatched spec used to score Q against codes and entropies the model was never given
        from infogan_lab.latent import LatentSpec

        model, _ = toy_model()
        spec = LatentSpec(blocks=codes, noise_dim=noise_dim)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        given = " ".join(b.to_token() for b in codes)
        with pytest.raises(UsageError, match=rf"^spec \({re.escape(given)} \+ normal noise {noise_dim}\) is not the model's spec \(cat:4 unif:-1.0:1.0 \+ normal noise 8\)"):
            estimate_mi_bound(model, spec, 1000, rng)
        assert rng.bit_generator.state == before


class TestClassifierEval:
    def _dataset_from_preds(self, images, labels):
        return Dataset(images=images, labels=np.asarray(labels), dims=(8, 8), provenance="toy")

    def test_predictions_matching_labels_under_permutation_give_zero_error(self):
        ds = synth_templates(4, 512, 0.05, np.random.default_rng(4))
        perm = np.array([2, 3, 1, 0])
        preds = perm[ds.labels]
        counts = np.zeros((4, 4))
        np.add.at(counts, (preds, ds.labels), 1.0)
        rows, cols, matched = max_matching_assignment(counts)
        assert matched == len(ds)
        recovered = {int(r): int(c) for r, c in zip(rows, cols)}
        assert all(recovered[perm[label]] == label for label in range(4))

    def test_chance_level_for_uniform_logits(self):
        model, cfg = toy_model(seed=5, k=10)
        cols = model.spec.q_slices()[0]
        for name in ("q_head.out.w", "q_head.out.b"):
            model.params[name].data[..., cols] = 0.0  # uniform logits, argmax always category 0
        images = np.random.default_rng(6).uniform(0, 1, (10000, 64))
        labels = np.random.default_rng(7).integers(0, 10, 10000)
        err, _ = categorical_classifier_eval(model, self._dataset_from_preds(images, labels), 0)
        assert err >= 0.5

    def test_relabeling_invariance(self):
        model, cfg = toy_model(seed=8)
        ds = synth_templates(4, 1024, 0.05, np.random.default_rng(9))
        err1, _ = categorical_classifier_eval(model, ds, 0)
        perm = np.array([3, 2, 0, 1])
        ds2 = self._dataset_from_preds(ds.images, perm[ds.labels])
        err2, _ = categorical_classifier_eval(model, ds2, 0)
        assert abs(err1 - err2) < 1e-12

    def test_negative_label_is_rejected_before_it_can_count_as_the_last_class(self):
        ds = synth_templates(4, 64, 0.05, np.random.default_rng(11))
        labels = np.where(ds.labels == 2, -1, ds.labels)
        with pytest.raises(FormatError, match="labels must be >= 0, got -1 at index"):
            self._dataset_from_preds(ds.images, labels)

    def test_needs_labels_and_categorical_block(self):
        model, cfg = toy_model(seed=10)
        ds = synth_templates(4, 64, 0.05, np.random.default_rng(11))
        unlabeled = Dataset(images=ds.images, labels=None, dims=ds.dims, provenance="x")
        with pytest.raises(UsageError):
            categorical_classifier_eval(model, unlabeled, 0)
        with pytest.raises(UsageError):
            categorical_classifier_eval(model, ds, 1)  # block 1 is continuous

    def test_empty_dataset_is_named(self):
        model, cfg = toy_model(seed=10)
        empty = Dataset(images=np.zeros((0, 64)), labels=np.zeros(0, dtype=np.int64), dims=(8, 8), provenance="x")
        with pytest.raises(UsageError, match="non-empty dataset"):
            categorical_classifier_eval(model, empty, 0)


class TestAssignment:
    def _brute_force(self, counts):
        k = counts.shape[0]
        best = -1.0
        for perm in itertools.permutations(range(k)):
            best = max(best, sum(counts[i, perm[i]] for i in range(k)))
        return best

    def _greedy(self, counts):
        c = counts.copy().astype(float)
        total = 0.0
        for _ in range(min(c.shape)):
            i, j = np.unravel_index(np.argmax(c), c.shape)
            total += c[i, j]
            c[i, :] = -np.inf
            c[:, j] = -np.inf
        return total

    def _subset_dp(self, counts):
        # best[mask]: the best total of rows 0 .. |mask| - 1 matched one to one onto the columns in mask,
        # so best[full] is the best over every permutation in 2^n * n steps instead of n!
        c, n = counts.tolist(), counts.shape[0]
        best = [0.0] * (1 << n)
        for mask in range(1, 1 << n):
            row = mask.bit_count() - 1
            best[mask] = max(best[mask & ~(1 << j)] + c[row][j] for j in range(n) if mask >> j & 1)
        return best[-1]

    def test_exact_matches_bruteforce_and_beats_greedy(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            counts = rng.integers(0, 50, (7, 7)).astype(float)
            _, _, matched = max_matching_assignment(counts)
            brute = self._brute_force(counts)
            assert matched == brute
            assert matched >= self._greedy(counts)

    def test_subset_dp_matches_bruteforce(self):
        # the same draws as above: the DP that stands in for the 10! enumeration finds every brute-force optimum
        rng = np.random.default_rng(12)
        for _ in range(20):
            counts = rng.integers(0, 50, (7, 7)).astype(float)
            assert self._subset_dp(counts) == self._brute_force(counts)

    def test_exact_beats_greedy_on_10x10(self):
        # the best of all 10! permutations, found exactly by the DP over column subsets (2^10 x 10 steps)
        rng = np.random.default_rng(13)
        counts = rng.integers(0, 100, (10, 10)).astype(float)
        _, _, matched = max_matching_assignment(counts)
        assert matched == self._subset_dp(counts)
        assert matched >= self._greedy(counts)


class TestAssignmentSolver:
    """The numpy Hungarian solver against scipy's, which is a test-only oracle."""

    def _check_pairs(self, counts, rows, cols):
        assert rows.dtype.kind == cols.dtype.kind == "i"
        assert len(rows) == len(cols) == min(counts.shape)
        assert np.all(np.diff(rows) > 0)  # ascending, so each row at most once
        assert len(np.unique(cols)) == len(cols)
        assert np.all((0 <= rows) & (rows < counts.shape[0]))
        assert np.all((0 <= cols) & (cols < counts.shape[1]))

    def test_optimal_total_equals_scipy_on_counts_with_ties(self):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(14)
        for trial in range(2400):
            k, n = (int(d) for d in rng.integers(1, 13, 2))
            counts = rng.integers(0, (2, 5, 50, 1000)[trial % 4], (k, n)).astype(float)
            rows, cols, matched = max_matching_assignment(counts)
            self._check_pairs(counts, rows, cols)
            ref_rows, ref_cols = linear_sum_assignment(counts, maximize=True)
            assert matched == counts[rows, cols].sum() == counts[ref_rows, ref_cols].sum()

    def test_pairs_equal_scipy_on_distinct_entries(self):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(15)
        for _ in range(300):
            k, n = (int(d) for d in rng.integers(1, 13, 2))
            counts = rng.random((k, n)) * 100.0
            rows, cols, _ = max_matching_assignment(counts)
            ref_rows, ref_cols = linear_sum_assignment(counts, maximize=True)
            np.testing.assert_array_equal(rows, ref_rows)
            np.testing.assert_array_equal(cols, ref_cols)

    def test_ties_resolve_the_same_way_every_call(self):
        counts = np.ones((5, 7))
        first = max_matching_assignment(counts)
        again = max_matching_assignment(counts.copy())
        assert first[2] == again[2] == 5.0
        for a, b in zip(first[:2], again[:2]):
            np.testing.assert_array_equal(a, b)

    def test_integer_counts_are_accepted(self):
        rows, cols, matched = max_matching_assignment(np.array([[1, 2], [3, 0]], dtype=np.uint8))
        assert (rows.tolist(), cols.tolist(), matched) == ([0, 1], [1, 0], 5.0)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_side_gives_empty_pairs(self, shape):
        rows, cols, matched = max_matching_assignment(np.zeros(shape))
        assert rows.shape == cols.shape == (0,)
        assert rows.dtype.kind == cols.dtype.kind == "i"
        assert matched == 0.0

    @pytest.mark.parametrize("counts", [np.zeros(4), np.zeros((2, 2, 2)), np.float64(3.0)])
    def test_non_matrix_is_rejected_naming_its_shape(self, counts):
        with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(counts)}")):
            max_matching_assignment(counts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_rejected_naming_the_first(self, bad):
        counts = np.zeros((3, 4))
        counts[1, 2] = bad
        counts[2, 0] = bad
        with pytest.raises(ValueError, match=rf"counts\[1, 2\] is {bad}"):
            max_matching_assignment(counts)


class TestImportFootprint:
    def test_package_imports_no_hashlib_and_a_step_and_eval_load_no_scipy(self):
        # a fresh process: pytest itself (or another test) may have imported scipy or hashlib
        root = Path(__file__).resolve().parent.parent
        code = textwrap.dedent(
            """
            import sys
            import numpy as np
            import infogan_lab, infogan_lab.cli
            # numpy.random imports secrets, and with it _hashlib, once a generator is made; the package does not
            print(" ".join(m for m in ("secrets", "hashlib", "_hashlib") if m in sys.modules))
            from infogan_lab.config import TrainingConfig
            from infogan_lab.data_io import synth_templates
            from infogan_lab.evaluate import categorical_classifier_eval
            from infogan_lab.latent import CodeBlock
            from infogan_lab.models import init_models
            from infogan_lab.trainer import train_step

            cfg = TrainingConfig(codes=(CodeBlock.categorical(4),), noise_dim=4, gen_layers=(8, 8),
                                 trunk_layers=(8, 8), q_hidden=4, batchnorm=False)
            model = init_models(*cfg.net_configs(), cfg.latent_spec(), np.random.default_rng(0))
            data = synth_templates(4, 64, 0.05, np.random.default_rng(1))
            train_step(model, data.images[: cfg.batch_size], cfg, np.random.default_rng(2), {})
            err, _ = categorical_classifier_eval(model, data, 0)
            assert 0.0 <= err <= 1.0, err
            print(" ".join(m for m in ("scipy.optimize", "scipy.sparse", "scipy.linalg") if m in sys.modules))
            print(" ".join(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
            """
        )
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "", f"imported: {out.stdout.strip()}"
        assert out.stdout == "\n\n\n", out.stdout  # all three lines were printed: the step and the eval ran


class TestTraversalGrid:
    def test_categorical_sweep_grid_dims(self, tmp_path):
        model, cfg = toy_model(seed=20)
        path = tmp_path / "cat.pgm"
        traversal_grid(model, 0, list(range(4)), 5, np.random.default_rng(0), (8, 8), str(path))
        assert path.read_bytes().startswith(b"P5\n32 40\n255\n")

    def test_continuous_sweep_out_of_prior_allowed(self, tmp_path):
        model, cfg = toy_model(seed=21)
        path = tmp_path / "cont.pgm"
        values = list(np.linspace(-2, 2, 10))
        traversal_grid(model, 1, values, 5, np.random.default_rng(1), (8, 8), str(path))
        assert path.read_bytes().startswith(b"P5\n80 40\n255\n")

    def test_fixed_seed_identical_bytes(self, tmp_path):
        model, cfg = toy_model(seed=22)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        traversal_grid(model, 0, [0, 1, 2, 3], 3, np.random.default_rng(5), (8, 8), str(p1))
        traversal_grid(model, 0, [0, 1, 2, 3], 3, np.random.default_rng(5), (8, 8), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_rows_vary_but_sweep_holds_others_fixed(self, tmp_path):
        model, cfg = toy_model(seed=23)
        path = tmp_path / "c.pgm"
        traversal_grid(model, 0, [0, 1], 2, np.random.default_rng(3), (8, 8), str(path))
        payload = path.read_bytes().split(b"255\n", 1)[1]
        grid = np.frombuffer(payload, dtype=np.uint8).reshape(16, 16)
        blocks = [grid[r * 8 : r * 8 + 8, c * 8 : c * 8 + 8] for r in range(2) for c in range(2)]
        assert not np.array_equal(blocks[0], blocks[1])  # category changed
        assert not np.array_equal(blocks[0], blocks[2])  # row (z) changed

    def test_invalid_block_and_values(self, tmp_path):
        model, cfg = toy_model(seed=24)
        with pytest.raises(UsageError):
            traversal_grid(model, 9, [0], 1, np.random.default_rng(0), (8, 8), str(tmp_path / "x.pgm"))
        with pytest.raises(UsageError):
            traversal_grid(model, 0, [7], 1, np.random.default_rng(0), (8, 8), str(tmp_path / "y.pgm"))


class TestGoldenEvaluation:
    """Pins what the evaluation suite reads from a fixed-seed toy model after 40 steps.

    The traversal grids, the bound estimate and the classifier's predictions
    run G and Q end to end, so a refactor of the latent/model/objective data
    path that claims to keep every bit must leave these values exactly as
    they are.
    """

    @pytest.fixture(scope="class")
    def trained(self):
        model, cfg = toy_model(seed=30, cont_blocks=2)
        ds = synth_templates(4, 512, 0.05, np.random.default_rng(31))
        rng, adam_states = np.random.default_rng(32), {}
        for _ in range(40):
            train_step(model, ds.images[rng.integers(0, len(ds), 16)], cfg, rng, adam_states)
        return model, ds

    @pytest.mark.parametrize("block, values, digest", [
        (0, [0, 1, 2, 3], "400a78b0a2b12e49d90f71e8950b19542ec7cc786bc8f60dee4aef5a44a2cbd2"),
        (1, [-2.0, -1.0, 0.0, 1.0, 2.0], "e7113a102305b3b35691db9b74e9e9361302e859aa20732e2087b6ec1d6db2a2"),
    ])
    def test_traversal_grid_bytes(self, trained, tmp_path, block, values, digest, pinned_on):
        path = tmp_path / "grid.pgm"
        traversal_grid(trained[0], block, values, 3, np.random.default_rng(33 + block), (8, 8), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, pinned_on

    def test_mi_estimate_floats(self, trained, pinned_on):
        model, _ = trained
        est = estimate_mi_bound(model, model.spec, 1000, np.random.default_rng(35))
        assert vars(est) == {
            "li_disc": -0.0017724283879754221, "se_disc": 0.0016958966561837722,
            "li_cont": -0.6514169309085365, "se_cont": 0.008526765425874272,
            "h_disc": 1.3862943611198906, "h_cont": 1.3862943611198906, "n_samples": 1000,
        }, pinned_on

    def test_classifier_predictions(self, trained, pinned_on):
        model, ds = trained
        # a one-image dataset labeled 0 maps the image's predicted category to class 0
        preds = []
        for i in range(len(ds)):
            one = Dataset(images=ds.images[i : i + 1], labels=np.zeros(1, dtype=np.int64), dims=ds.dims, provenance="x")
            (category,) = categorical_classifier_eval(model, one, 0)[1]
            preds.append(category)
        digest = hashlib.sha256(np.asarray(preds, dtype=np.int64).tobytes()).hexdigest()
        assert digest == "8ae9fd019c98c2e538c3fb77c8193be08e4e06568d0aa4d562aa13ffcb4c0d92", pinned_on
        assert categorical_classifier_eval(model, ds, 0) == (0.4921875, {0: 2, 1: 1, 2: 0, 3: 3}), pinned_on


class TestTwoBlockFamilyEstimate:
    """Pins the bound estimate of a code family with two blocks: the MNIST protocol's codes (cat:10 and two
    unif codes) at toy widths, after 20 steps. ``estimate_mi_bound`` adds up the continuous family's two
    block rows per sample itself, so a change to how it sums them must leave these values as they are.
    """

    @pytest.fixture(scope="class")
    def model(self):
        codes = tuple(map(parse_block_token, ("cat:10", "unif:-1:1", "unif:-1:1")))
        cfg = TrainingConfig(seed=40, codes=codes, noise_dim=8, gen_layers=(16, 24), trunk_layers=(24, 16), q_hidden=8,
                             batchnorm=True)
        gen_cfg, dq_cfg = cfg.net_configs()
        model = init_models(gen_cfg, dq_cfg, cfg.latent_spec(), np.random.default_rng(40))
        ds = synth_templates(4, 512, 0.05, np.random.default_rng(41))
        rng, adam_states = np.random.default_rng(42), {}
        for _ in range(20):
            train_step(model, ds.images[rng.integers(0, len(ds), 16)], cfg, rng, adam_states)
        return model

    def test_mi_estimate_floats(self, model, pinned_on):
        est = estimate_mi_bound(model, model.spec, 1000, np.random.default_rng(43))
        assert (repr(est.li_disc), repr(est.se_disc), repr(est.li_cont), repr(est.se_cont)) == (
            "-0.0002716149365196152", "0.004849259790515648", "-0.744168288463926", "0.007730440798025457",
        ), pinned_on

    def test_a_family_row_is_the_elementwise_sum_of_its_blocks_log_q_rows(self, model, monkeypatch):
        rows, family_row = [], evaluate._family_row

        def recording(terms):
            rows.append(([t.data.copy() for t in terms], family_row(terms)))
            return rows[-1][1]

        monkeypatch.setattr(evaluate, "_family_row", recording)
        est = estimate_mi_bound(model, model.spec, 1000, np.random.default_rng(43))
        # one discrete and one continuous row per chunk of MI_CHUNK samples
        assert [len(blocks) for blocks, _ in rows] == [1, 2] * -(-1000 // evaluate.MI_CHUNK)
        for blocks, row in rows:
            assert row.dtype == np.float32 and row.shape == (blocks[0].shape[0],)
            assert row.tobytes() == functools.reduce(np.add, blocks).ravel().tobytes()
        cont = np.concatenate([row for blocks, row in rows if len(blocks) == 2], dtype=np.float64)
        assert est.li_cont == float(cont.mean() + model.spec.h_cont)


def _sparse_channel(rng):
    """A random channel with zero priors, zero P(x|c) entries, unreachable x and zeros in Q."""
    k, m = (int(v) for v in rng.integers(2, 7, 2))
    prior = rng.random(k) * (rng.random(k) < 0.8)
    prior[0] += 0.1
    cond = rng.random((k, m)) * (rng.random((k, m)) < 0.6)
    cond[np.arange(k), rng.integers(0, m, k)] += 0.1
    q = rng.random((m, k)) * (rng.random((m, k)) < 0.95)
    q[np.arange(m), rng.integers(0, k, m)] += 0.1
    return prior / prior.sum(), cond / cond.sum(axis=1, keepdims=True), q / q.sum(axis=1, keepdims=True)


class TestGoldenOracles:
    """Pins the exact oracles' floats bit for bit over seeded random tables.

    A refactor of how the oracles condition a joint table must leave every
    pinned float as it is: I, L_I and their gap per channel, every
    ``LemmaResult`` field and the bytes of ``bayes_posterior_q``.
    """

    @staticmethod
    def _digest(rows):
        return hashlib.sha256("\n".join(rows).encode()).hexdigest()

    @pytest.mark.parametrize("q_mode, digest", [
        ("random", "d71f4ad4f885904f5931ff0329449b3ee436d02d81712cbe3ea8217797830771"),
        ("prior", "4119817a7f7c3841bae2e83c15aec5245eec40955853a92f26f559bd87e976d8"),
        ("posterior", "1011b94f86bd294febcf61ea296cd00f0a6bb0d05d4ba714ff3623e9b2b291ab"),
    ])
    def test_channel_floats(self, q_mode, digest, pinned_on):
        rng = np.random.default_rng(40)
        rows = []
        for _ in range(200):
            res = channel_bound_check(random_channel(rng, q_mode))
            rows.append(repr((res.i_exact, res.l_i, res.gap)))
        assert self._digest(rows) == digest, pinned_on

    def test_sparse_channel_floats_and_posteriors(self, pinned_on):
        # 39 of these channels have an unreachable x, and 65 read L_I = -inf
        rng = np.random.default_rng(41)
        rows, posteriors = [], []
        for _ in range(200):
            prior, cond, q = _sparse_channel(rng)
            res = channel_bound_check(ChannelSpec(prior=prior, conditional=cond, q_table=q))
            rows.append(repr((res.i_exact, res.l_i, res.gap)))
            posteriors.append(bayes_posterior_q(prior, cond).tobytes().hex())
        assert self._digest(rows) == "5216c16ac5fadd246dc6b362ac249476c7af5dfa777e45ce60b1270a5ae5ae77", pinned_on
        assert self._digest(posteriors) == "46989c9df8fc063cf3259ac7876147d184381b419ab0734cdcca9eaaa71ac2ca", pinned_on

    def test_lemma_fields(self, pinned_on):
        # 6 of these joints have a zero-mass y
        rng = np.random.default_rng(42)
        rows = [repr(tuple(vars(verify_lemma(random_joint(rng), 100, rng)).values())) for _ in range(200)]
        assert self._digest(rows) == "eb0649964807f892e233803e53a5ebae06f3c8414f222405a6f1709224b0ca8f", pinned_on
