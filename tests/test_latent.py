"""Latent spec: sampling, entropies, one-hot coding, and log Q evaluation."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogan_lab import autodiff as ad
from infogan_lab import evaluate
from infogan_lab.autodiff import Tensor, UsageError
from infogan_lab.latent import (
    CodeBlock,
    LatentBatch,
    LatentSpec,
    SpecError,
    draw_categories,
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
        for token in ("cat:2:nan,1.0", "cat:2:0.5,nan"):
            with pytest.raises(SpecError, match=f"'{token}': categorical probs must be >= 0 and sum to 1"):
                parse_block_token(token)

    def test_probability_count_must_be_the_category_count(self):
        # the probability list must not silently override k, through either entry point
        with pytest.raises(SpecError, match=r"^categorical block of 3 categories lists 2 probabilities$"):
            CodeBlock.categorical(3, [0.5, 0.5])
        with pytest.raises(SpecError, match=r"^'cat:3:0.5,0.5': categorical block of 3 categories lists 2 probabilities$"):
            parse_block_token("cat:3:0.5,0.5")
        assert CodeBlock.categorical(2, [0.25, 0.75]).probs == (0.25, 0.75)

    def test_bad_ranges_rejected(self):
        with pytest.raises(SpecError):
            CodeBlock.uniform(1.0, -1.0)
        with pytest.raises(SpecError):
            CodeBlock.gaussian(0.0, 0.0)
        for token in ("gauss:nan:1", "gauss:inf:1"):
            with pytest.raises(SpecError, match=f"'{token}': gaussian block needs a finite mean"):
                parse_block_token(token)

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

    def test_block_without_finite_entropy_rejected_without_warning(self):
        # sigma**2 underflows to 0 (H = -inf) or overflows (H = +inf); a range wider than a float gives H = +inf
        with np.errstate(all="raise"):
            for make in (lambda: CodeBlock.gaussian(0.0, 1e-300), lambda: CodeBlock.gaussian(0.0, 1e200),
                         lambda: CodeBlock.gaussian(0.0, math.inf), lambda: CodeBlock.uniform(-1e308, 1e308)):
                with pytest.raises(SpecError, match="entropy must be finite"):
                    make()
            with pytest.raises(SpecError, match=r"'gauss:0:1e-300': gaussian block entropy must be finite, got -inf"):
                parse_block_token("gauss:0:1e-300")
            # a tiny uniform range still has a finite (very negative) entropy
            assert parse_block_token("unif:0:1e-300").entropy() == pytest.approx(-690.7755278982137)


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
        assert abs(spec.h_disc - math.log(4)) < 1e-12
        assert abs(spec.h_cont - LN2) < 1e-12

    def test_spec_constants_match_a_fresh_computation(self):
        # gen_input_dim and the family entropies are computed once per spec, summed in block order
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
        assert spec.h_disc == per_block[0] + per_block[3]
        assert spec.h_cont == per_block[1] + per_block[2]


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
        # the draws are float64; the generator's input holds them rounded to the training dtype
        assert batch.g_input.data.dtype == np.float32 and batch.c_raw[1].dtype == np.float64
        codes = batch.g_input.data[:, 3:]
        cat, unif = spec.encoded_slices()
        np.testing.assert_array_equal(np.argmax(codes[:, cat], axis=1), batch.c_raw[0])
        np.testing.assert_array_equal(codes[:, unif], batch.c_raw[1].astype(np.float32))

    def test_dtype_rounds_the_same_draws(self):
        spec = spec_cat_unif(noise_dim=3)
        wide = sample_latent(spec, 20, np.random.default_rng(4), np.float64)
        narrow = sample_latent(spec, 20, np.random.default_rng(4))
        assert wide.g_input.data.dtype == np.float64
        assert narrow.g_input.data.tobytes() == wide.g_input.data.astype(np.float32).tobytes()

    def test_draw_the_dtype_cannot_hold_names_block_and_dtype(self):
        # float32 holds no draw of these codes; float64 holds them all, and the stream is consumed the same way
        for token in ("unif:-1e300:1e300", "gauss:1e300:1", "gauss:0:1e150:2"):
            spec = LatentSpec(blocks=(CodeBlock.categorical(3), parse_block_token(token)), noise_dim=2)
            with pytest.raises(SpecError, match=rf"^code block '{re.escape(spec.blocks[1].to_token())}' drew .* which float32 cannot hold$"):
                sample_latent(spec, 8, np.random.default_rng(5))
            wide = sample_latent(spec, 8, np.random.default_rng(5), np.float64)
            assert np.all(np.isfinite(wide.g_input.data))

    @pytest.mark.parametrize("k, probs", [
        (2, None), (4, None), (10, None), (3, (0.7, 0.2, 0.1)), (5, (0.0, 0.5, 0.0, 0.25, 0.25)), (2, (1e-12, 1.0 - 1e-12)),
    ])
    def test_categorical_draws_are_generator_choice(self, k, probs):
        # sample_latent makes Generator.choice's own draw without calling it; a numpy whose choice draws
        # differently fails here: the indices and their dtype, the one-hot columns and the stream state
        block = CodeBlock.categorical(k, probs)
        spec = LatentSpec(blocks=(block, CodeBlock.gaussian(0.0, 1.0, 2)), noise_dim=3)
        ours, ref = np.random.default_rng(k), np.random.default_rng(k)
        for batch in (1, 7, 64):
            lat = sample_latent(spec, batch, ours)
            ref.standard_normal((batch, 3))
            want = ref.choice(k, size=batch, p=np.asarray(block.probs))
            gauss = ref.standard_normal((batch, 2))
            assert lat.c_raw[0].dtype == want.dtype and lat.c_raw[0].tobytes() == want.tobytes()
            assert lat.g_input.data[:, 3:3 + k].tobytes() == one_hot(want, k).astype(np.float32).tobytes()
            assert lat.c_raw[1].tobytes() == gauss.tobytes()
            assert ours.bit_generator.state == ref.bit_generator.state

    def test_one_categorical_draw_serves_the_lemma_joint_as_generator_choice(self):
        # verify_lemma draws its flattened joint through the same helper: zero cells are never drawn
        joint = evaluate.random_joint(np.random.default_rng(3)).joint.ravel()
        joint[[0, 5]] = 0.0
        joint /= joint.sum()
        ours, ref = np.random.default_rng(9), np.random.default_rng(9)
        got, want = draw_categories(joint, 1000, ours), ref.choice(joint.size, size=1000, p=joint)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert ours.bit_generator.state == ref.bit_generator.state
        assert not np.isin(got, [0, 5]).any()

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


def _q_for(spec, logits=None, mu=None, s=None, batch=1):
    """Q's (batch, q_dim) output for ``spec``: every categorical block's columns hold ``logits``, every
    continuous block's its means ``mu`` and then its log sigmas ``s``, each zeros where none is given."""
    q = np.zeros((batch, spec.q_dim))
    for block, cols in zip(spec.blocks, spec.q_slices()):
        if block.is_discrete:
            q[:, cols] = 0.0 if logits is None else logits
        else:
            q[:, cols.start : cols.start + block.dim] = 0.0 if mu is None else mu
            q[:, cols.start + block.dim : cols.stop] = 0.0 if s is None else s
    return Tensor(q)


class TestQSlices:
    def test_each_block_takes_its_parameters_in_spec_order(self):
        # K logits; dim means then dim log sigmas: the columns of Q's one output layer
        spec = LatentSpec(blocks=tuple(map(parse_block_token, ("cat:3", "gauss:0:1:2", "unif:-1:1", "cat:2"))), noise_dim=5)
        assert spec.q_slices() == [slice(0, 3), slice(3, 7), slice(7, 9), slice(9, 11)]
        assert spec.q_dim == 11 and [b.q_dim for b in spec.blocks] == [3, 4, 2, 2]
        assert spec.encoded_slices() == [slice(0, 3), slice(3, 5), slice(5, 6), slice(6, 8)]

    def test_a_spec_without_blocks_has_no_q_columns(self):
        spec = LatentSpec(blocks=(), noise_dim=3)
        assert spec.q_slices() == [] and spec.q_dim == 0


class TestLogQ:
    def test_uniform_logits_give_log_tenth(self):
        spec = LatentSpec(blocks=(CodeBlock.categorical(10),), noise_dim=0)
        batch = sample_latent(spec, 6, np.random.default_rng(0))
        q = _q_for(spec, batch=6)
        (disc,), cont = log_q(q, batch)
        assert cont == []
        np.testing.assert_allclose(disc.data, math.log(0.1), atol=1e-12)

    def test_gaussian_at_mean_sigma_one(self):
        spec = LatentSpec(blocks=(CodeBlock.uniform(-1, 1),), noise_dim=0)
        batch = sample_latent(spec, 4, np.random.default_rng(0))
        q = _q_for(spec, mu=np.asarray(batch.c_raw[0]), s=np.zeros((4, 1)), batch=4)
        disc, (cont,) = log_q(q, batch)
        assert disc == []
        np.testing.assert_allclose(cont.data, -0.918939, atol=1e-6)

    def test_gaussian_at_mean_log_sigma_one(self):
        spec = LatentSpec(blocks=(CodeBlock.uniform(-1, 1),), noise_dim=0)
        batch = sample_latent(spec, 4, np.random.default_rng(0))
        q = _q_for(spec, mu=np.asarray(batch.c_raw[0]), s=np.ones((4, 1)), batch=4)
        _, (cont,) = log_q(q, batch)
        np.testing.assert_allclose(cont.data, -1.918939, atol=1e-6)

    def test_discrete_log_q_never_positive(self):
        spec = LatentSpec(blocks=(CodeBlock.categorical(5),), noise_dim=0)
        rng = np.random.default_rng(11)
        batch = sample_latent(spec, 64, rng)
        q = _q_for(spec, logits=rng.normal(0, 3, (64, 5)), batch=64)
        (disc,), _ = log_q(q, batch)
        assert np.all(disc.data <= 0.0)

    def test_each_block_reads_its_own_columns(self):
        # two blocks of each family, every column distinct: each family lists its blocks' terms in spec
        # order, and each term is the one-block spec's on that block's columns alone
        tokens = ("cat:3", "gauss:0:1:2", "cat:2", "unif:-1:1")
        spec = LatentSpec(blocks=tuple(map(parse_block_token, tokens)), noise_dim=0)
        rng = np.random.default_rng(4)
        batch = sample_latent(spec, 5, rng)
        q = rng.normal(0, 1, (5, spec.q_dim))
        disc, cont = log_q(Tensor(q), batch)
        parts = {True: [], False: []}
        for block, raw, cols in zip(spec.blocks, batch.c_raw, spec.q_slices()):
            alone = LatentSpec(blocks=(block,), noise_dim=0)
            lat = LatentBatch(alone, [raw], Tensor(np.zeros((5, alone.gen_input_dim))))
            ((term,),) = (family for family in log_q(Tensor(q[:, cols]), lat) if family)
            parts[block.is_discrete].append(term.data.tobytes())
        assert [t.data.tobytes() for t in disc] == parts[True] and len(disc) == 2
        assert [t.data.tobytes() for t in cont] == parts[False] and len(cont) == 2

    @pytest.mark.parametrize("tokens, q, message", [
        # (B, 5) logits for cat:4 once scored log(1/5): the width, not a copy of the spec, is checked
        (["cat:4"], Tensor(np.zeros((2, 5))), "Q's output for codes 'cat:4' must be of shape (2, 4), got (2, 5)"),
        (["cat:4"], (Tensor(np.zeros((2, 4))),), "Q's output for codes 'cat:4' must be of shape (2, 4), got tuple"),
        (["cat:3", "unif:-1:1"], Tensor(np.zeros((2, 4))),
         "Q's output for codes 'cat:3 unif:-1.0:1.0' must be of shape (2, 5), got (2, 4)"),
        (["gauss:0:1:2"], Tensor(np.zeros((2, 2))), "Q's output for codes 'gauss:0.0:1.0:2' must be of shape (2, 4), got (2, 2)"),
        (["cat:3"], Tensor(np.zeros((3, 3))), "Q's output for codes 'cat:3' must be of shape (2, 3), got (3, 3)"),
    ])
    def test_output_that_does_not_fit_the_spec_is_named(self, tokens, q, message):
        spec = LatentSpec(blocks=tuple(map(parse_block_token, tokens)), noise_dim=0)
        batch = sample_latent(spec, 2, np.random.default_rng(0))
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            log_q(q, batch)

    def test_mc_neg_log_q_at_prior_estimates_entropy(self):
        # with Q equal to the prior, E[-log Q] is exactly H(c)
        k = 6
        spec = LatentSpec(blocks=(CodeBlock.categorical(k),), noise_dim=0)
        n = 100000
        batch = sample_latent(spec, n, np.random.default_rng(21))
        q = _q_for(spec, logits=np.zeros((n, k)), batch=n)
        (disc,), _ = log_q(q, batch)
        samples = -disc.data.ravel()
        se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - math.log(k)) <= 3 * max(se, 1e-12)

    def test_log_sigma_is_read_clamped_to_the_bound(self):
        # Q's raw log sigma anywhere, infinities included, scores as the log sigma clamped to +-7
        spec = spec_cat_unif(noise_dim=0)
        rng = np.random.default_rng(6)
        batch = sample_latent(spec, 16, rng)
        mu = rng.normal(0, 1, (16, 1))
        raw = np.concatenate([rng.uniform(-50.0, 50.0, 14), [-np.inf, np.inf]]).astype(np.float32)[:, None]
        q, clamped_q = (Tensor(_q_for(spec, mu=mu, s=s, batch=16).data.astype(np.float32)) for s in (raw, np.clip(raw, -7.0, 7.0)))
        _, (cont,) = log_q(q, batch)
        _, (clamped,) = log_q(clamped_q, batch)
        assert np.all(np.isfinite(cont.data)) and cont.data.tobytes() == clamped.data.tobytes()

    def test_log_sigma_clamp_engages(self):
        # a log sigma forced past the cap reads as 7 and gets no gradient
        spec = spec_cat_unif(noise_dim=0)
        rng = np.random.default_rng(7)
        batch = sample_latent(spec, 4, rng)
        mu = rng.normal(0, 1, (4, 1))
        q, at_cap = (Tensor(_q_for(spec, mu=mu, s=s, batch=4).data.astype(np.float32)) for s in (50.0, 7.0))
        with ad.Tape() as tape:
            _, (cont,) = log_q(q, batch)
            (grad,) = tape.backward(cont, [q], np.ones((4, 1)))
        assert cont.data.tobytes() == log_q(at_cap, batch)[1][0].data.tobytes()
        assert not grad[:, 5].any() and grad[:, 4].all()  # cat:4 takes columns 0-3, the mean 4, log sigma 5

    def test_gradient_reaches_all_q_params(self):
        spec = spec_cat_unif(noise_dim=0)
        rng = np.random.default_rng(2)
        batch = sample_latent(spec, 8, rng)
        q = _q_for(spec, logits=rng.normal(0, 1, (8, 4)), mu=rng.normal(0, 1, (8, 1)), s=rng.normal(0, 0.3, (8, 1)), batch=8)
        with ad.Tape() as tape:
            disc, cont = log_q(q, batch)
            total = ad.weighted_sum([*disc, *cont], (1.0, 1.0))
            (grad,) = tape.backward(total, [q])
        assert np.all(np.linalg.norm(grad, axis=0) > 0.0)
