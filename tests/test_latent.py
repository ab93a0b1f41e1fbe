"""Latent spec: sampling, entropies, one-hot coding, and log Q evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogan_lab import autodiff as ad
from infogan_lab.autodiff import Tensor, UsageError
from infogan_lab.latent import (
    CodeBlock,
    LatentSpec,
    QPosteriorParams,
    SpecError,
    entropy,
    log_q,
    one_hot,
    parse_block_token,
    sample_latent,
)

LN2 = math.log(2.0)


def spec_cat_unif(noise_dim=16):
    return LatentSpec(blocks=(CodeBlock.categorical(4), CodeBlock.uniform(-1, 1)), noise_dim=noise_dim)


class TestCodeBlocks:
    def test_bad_probs_rejected(self):
        with pytest.raises(SpecError):
            CodeBlock.categorical(3, [0.5, 0.4, 0.2])
        with pytest.raises(SpecError):
            CodeBlock.categorical(2, [1.1, -0.1])

    def test_bad_ranges_rejected(self):
        with pytest.raises(SpecError):
            CodeBlock.uniform(1.0, -1.0)
        with pytest.raises(SpecError):
            CodeBlock.gaussian(0.0, 0.0)

    def test_token_round_trip(self):
        blocks = [
            CodeBlock.categorical(10),
            CodeBlock.categorical(3, [0.5, 0.25, 0.25]),
            CodeBlock.uniform(-1.0, 1.0),
            CodeBlock.uniform(-2.5, 0.5, dim=3),
            CodeBlock.gaussian(0.0, 1.0),
        ]
        for b in blocks:
            assert parse_block_token(b.to_token()) == b

    def test_malformed_tokens(self):
        for token in ("cat", "cat:x", "unif:1", "gauss:0", "poisson:3", "cat:3:0.5,0.5"):
            with pytest.raises(SpecError):
                parse_block_token(token)


class TestEntropy:
    def test_cat10_closed_form(self):
        h = CodeBlock.categorical(10).entropy()
        assert abs(h - 2.302585093) < 1e-9

    def test_unif_closed_form(self):
        h = CodeBlock.uniform(-1, 1).entropy()
        assert abs(h - 0.693147181) < 1e-9

    def test_cat4_uniform(self):
        assert abs(CodeBlock.categorical(4).entropy() - math.log(4)) < 1e-12

    def test_gaussian_closed_form(self):
        h = CodeBlock.gaussian(0.0, 2.0).entropy()
        assert abs(h - 0.5 * math.log(2 * math.pi * math.e * 4.0)) < 1e-12

    @given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_cat_matches_bruteforce_table_sum(self, weights):
        p = np.array(weights) / sum(weights)
        block = CodeBlock.categorical(len(p), p)
        brute = -sum(pi * math.log(pi) for pi in p if pi > 0)
        assert abs(block.entropy() - brute) < 1e-12

    def test_totals_split_by_family(self):
        spec = spec_cat_unif()
        ent = entropy(spec)
        assert abs(ent.discrete - math.log(4)) < 1e-12
        assert abs(ent.continuous - LN2) < 1e-12
        assert abs(ent.total - ent.discrete - ent.continuous) < 1e-15

    def test_spec_constants_match_a_fresh_computation(self):
        # gen_input_dim, signature() and the entropy breakdown are computed once per spec
        blocks = (
            CodeBlock.categorical(3, [0.5, 0.25, 0.25]),
            CodeBlock.uniform(-2.0, 1.0, dim=2),
            CodeBlock.gaussian(0.5, 1.5, dim=3),
            CodeBlock.categorical(10),
        )
        spec = LatentSpec(blocks=list(blocks), noise_dim=5)
        per_block = tuple(b.entropy() for b in blocks)
        assert spec.blocks == blocks
        assert spec.encoded_dim == 3 + 2 + 3 + 10
        assert spec.gen_input_dim == 5 + 3 + 2 + 3 + 10
        assert spec.signature() == (("categorical", 3), ("uniform", 2), ("gaussian", 3), ("categorical", 10))
        ent = entropy(spec)
        assert ent.per_block == per_block
        assert ent.discrete == per_block[0] + per_block[3]
        assert ent.continuous == per_block[1] + per_block[2]
        assert ent.total == ent.discrete + ent.continuous
        assert entropy(spec) is ent


class TestSampling:
    def test_categorical_frequencies(self):
        spec = LatentSpec(blocks=(CodeBlock.categorical(10),), noise_dim=0)
        batch = sample_latent(spec, 10000, np.random.default_rng(5))
        freq = np.bincount(batch.c_raw[0], minlength=10) / 10000
        assert np.all(np.abs(freq - 0.1) < 0.015)

    def test_uniform_mean(self):
        spec = LatentSpec(blocks=(CodeBlock.uniform(-1, 1),), noise_dim=0)
        batch = sample_latent(spec, 10000, np.random.default_rng(6))
        assert abs(batch.c_raw[0].mean()) < 0.02

    def test_seed_determinism(self):
        spec = spec_cat_unif()
        a = sample_latent(spec, 32, np.random.default_rng(42))
        b = sample_latent(spec, 32, np.random.default_rng(42))
        np.testing.assert_array_equal(a.g_input.data, b.g_input.data)
        for ra, rb in zip(a.c_raw, b.c_raw):
            np.testing.assert_array_equal(ra, rb)

    def test_onehot_rows_sum_to_one(self):
        spec = LatentSpec(blocks=(CodeBlock.categorical(7),), noise_dim=2)
        batch = sample_latent(spec, 50, np.random.default_rng(0))
        np.testing.assert_array_equal(batch.g_input.data[:, 2:].sum(axis=1), np.ones(50))

    def test_g_input_is_noise_then_encoded_codes(self):
        spec = spec_cat_unif(noise_dim=3)
        batch = sample_latent(spec, 20, np.random.default_rng(4))
        assert batch.g_input.shape == (20, spec.gen_input_dim)
        codes = batch.g_input.data[:, 3:]
        cat, unif = spec.encoded_slices()
        np.testing.assert_array_equal(np.argmax(codes[:, cat], axis=1), batch.c_raw[0])
        np.testing.assert_array_equal(codes[:, unif], batch.c_raw[1])

    def test_uniform_noise_kind(self):
        spec = LatentSpec(blocks=(), noise_dim=8, noise_kind="uniform")
        batch = sample_latent(spec, 1000, np.random.default_rng(1))
        assert batch.g_input.shape == (1000, 8)
        assert batch.g_input.data.min() >= -1.0 and batch.g_input.data.max() <= 1.0


class TestOneHot:
    @given(st.integers(2, 12))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_all_indices(self, k):
        idx = np.arange(k)
        np.testing.assert_array_equal(np.argmax(one_hot(idx, k), axis=1), idx)


def _q_params_for(spec, logits=None, mu=None, s=None, batch=1):
    q = QPosteriorParams(spec=spec)
    for block in spec.blocks:
        if block.is_discrete:
            q.blocks.append(Tensor(logits if logits is not None else np.zeros((batch, block.k))))
        else:
            q.blocks.append((
                Tensor(mu if mu is not None else np.zeros((batch, block.dim))),
                Tensor(s if s is not None else np.zeros((batch, block.dim))),
            ))
    return q


class TestLogQ:
    def test_uniform_logits_give_log_tenth(self):
        spec = LatentSpec(blocks=(CodeBlock.categorical(10),), noise_dim=0)
        batch = sample_latent(spec, 6, np.random.default_rng(0))
        q = _q_params_for(spec, batch=6)
        disc, cont = log_q(q, batch)
        assert cont is None
        np.testing.assert_allclose(disc.data, math.log(0.1), atol=1e-12)

    def test_gaussian_at_mean_sigma_one(self):
        spec = LatentSpec(blocks=(CodeBlock.uniform(-1, 1),), noise_dim=0)
        batch = sample_latent(spec, 4, np.random.default_rng(0))
        q = _q_params_for(spec, mu=np.asarray(batch.c_raw[0]), s=np.zeros((4, 1)), batch=4)
        disc, cont = log_q(q, batch)
        assert disc is None
        np.testing.assert_allclose(cont.data, -0.918939, atol=1e-6)

    def test_gaussian_at_mean_log_sigma_one(self):
        spec = LatentSpec(blocks=(CodeBlock.uniform(-1, 1),), noise_dim=0)
        batch = sample_latent(spec, 4, np.random.default_rng(0))
        q = _q_params_for(spec, mu=np.asarray(batch.c_raw[0]), s=np.ones((4, 1)), batch=4)
        _, cont = log_q(q, batch)
        np.testing.assert_allclose(cont.data, -1.918939, atol=1e-6)

    def test_discrete_log_q_never_positive(self):
        spec = LatentSpec(blocks=(CodeBlock.categorical(5),), noise_dim=0)
        rng = np.random.default_rng(11)
        batch = sample_latent(spec, 64, rng)
        q = _q_params_for(spec, logits=rng.normal(0, 3, (64, 5)), batch=64)
        disc, _ = log_q(q, batch)
        assert np.all(disc.data <= 0.0)

    def test_structure_mismatch_rejected(self):
        spec_a = LatentSpec(blocks=(CodeBlock.categorical(4),), noise_dim=0)
        spec_b = LatentSpec(blocks=(CodeBlock.categorical(5),), noise_dim=0)
        batch = sample_latent(spec_a, 2, np.random.default_rng(0))
        q = _q_params_for(spec_b, batch=2)
        with pytest.raises(UsageError):
            log_q(q, batch)

    def test_missing_block_rejected(self):
        spec = spec_cat_unif(noise_dim=0)
        batch = sample_latent(spec, 2, np.random.default_rng(0))
        q = _q_params_for(spec, batch=2)
        q.blocks.pop()
        with pytest.raises(UsageError):
            log_q(q, batch)

    def test_mc_neg_log_q_at_prior_estimates_entropy(self):
        # with Q equal to the prior, E[-log Q] is exactly H(c)
        k = 6
        spec = LatentSpec(blocks=(CodeBlock.categorical(k),), noise_dim=0)
        n = 100000
        batch = sample_latent(spec, n, np.random.default_rng(21))
        q = _q_params_for(spec, logits=np.zeros((n, k)), batch=n)
        disc, _ = log_q(q, batch)
        samples = -disc.data.ravel()
        se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - math.log(k)) <= 3 * max(se, 1e-12)

    def test_gradient_reaches_all_q_params(self):
        spec = spec_cat_unif(noise_dim=0)
        rng = np.random.default_rng(2)
        batch = sample_latent(spec, 8, rng)
        with ad.Tape() as tape:
            logits = Tensor(rng.normal(0, 1, (8, 4)))
            mu = Tensor(rng.normal(0, 1, (8, 1)))
            log_sigma = Tensor(rng.normal(0, 0.3, (8, 1)))
            q = QPosteriorParams(spec=spec, blocks=[logits, (mu, log_sigma)])
            disc, cont = log_q(q, batch)
            total = ad.add(ad.reduce_mean(disc), ad.reduce_mean(cont))
            grads = tape.backward(total, [logits, mu, log_sigma])
            for g in grads:
                assert np.linalg.norm(g) > 0.0
