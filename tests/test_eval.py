"""Oracles: sampling-identity lemma, channel bound, estimates, classifier, traversals."""

import itertools

import numpy as np
import pytest

from infogan_lab.autodiff import UsageError
from infogan_lab.config import TrainingConfig
from infogan_lab.data_io import Dataset, synth_templates
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

    def test_zero_q_on_support_reported_not_raised(self):
        chan = ChannelSpec(
            prior=np.array([0.5, 0.5]),
            conditional=np.array([[1.0, 0.0], [0.0, 1.0]]),
            q_table=np.array([[0.0, 1.0], [1.0, 0.0]]),
        )
        res = channel_bound_check(chan)
        assert not res.li_finite
        assert res.l_i == float("-inf")
        assert res.gap == float("inf") and res.expected_kl == float("inf")

    def test_row_validation(self):
        with pytest.raises(UsageError):
            ChannelSpec(
                prior=np.array([0.6, 0.6]),
                conditional=np.eye(2),
                q_table=np.eye(2),
            )


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
        for name in ("q_head.cat0.w", "q_head.cat0.b"):
            model.params[name].data[:] = 0.0  # uniform logits, argmax always category 0
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

    def test_exact_matches_bruteforce_and_beats_greedy(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            counts = rng.integers(0, 50, (7, 7)).astype(float)
            _, _, matched = max_matching_assignment(counts)
            brute = self._brute_force(counts)
            assert matched == brute
            assert matched >= self._greedy(counts)

    def test_exact_beats_greedy_on_10x10(self):
        # 10! enumeration in chunks; keeps the oracle honest at full size
        rng = np.random.default_rng(13)
        counts = rng.integers(0, 100, (10, 10)).astype(float)
        _, _, matched = max_matching_assignment(counts)
        best = -1.0
        chunk = []
        for perm in itertools.permutations(range(10)):
            chunk.append(perm)
            if len(chunk) == 200000:
                arr = np.array(chunk, dtype=np.int8)
                vals = counts[np.arange(10)[None, :], arr].sum(axis=1)
                best = max(best, vals.max())
                chunk = []
        if chunk:
            arr = np.array(chunk, dtype=np.int8)
            best = max(best, counts[np.arange(10)[None, :], arr].sum(axis=1).max())
        assert matched == best
        assert matched >= self._greedy(counts)


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
