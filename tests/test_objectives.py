"""GAN losses, the information bound, and combined objectives."""

import math

import mpmath
import numpy as np
import pytest

from infogan_lab import autodiff as ad
from infogan_lab.autodiff import Tensor, UsageError, grad_check
from infogan_lab.latent import CodeBlock, LatentSpec, sample_latent
from infogan_lab.objectives import (
    discriminator_loss,
    generator_loss,
    infogan_losses,
    mi_lower_bound,
)

LN2 = math.log(2.0)


def _logits(values):
    return Tensor(np.asarray(values, dtype=np.float64).reshape(-1, 1))


class TestGanLossValues:
    def test_zero_logits_give_two_ln2(self):
        loss_d = discriminator_loss(_logits([0.0, 0.0]), _logits([0.0, 0.0]))
        assert abs(float(loss_d) - 2 * LN2) < 1e-12

    def test_nonsaturating_at_zero_is_ln2(self):
        loss_g = generator_loss(_logits([0.0]), mode="nonsaturating")
        assert abs(float(loss_g) - LN2) < 1e-12

    def test_minimax_at_zero_is_minus_ln2(self):
        loss_g = generator_loss(_logits([0.0]), mode="minimax")
        assert abs(float(loss_g) + LN2) < 1e-12

    def test_unknown_mode_rejected(self):
        with pytest.raises(UsageError):
            generator_loss(_logits([0.0]), mode="wasserstein")

    def test_matches_high_precision_direct_evaluation(self):
        # the fused softplus-form cross-entropy vs literal -log sigma / -log(1-sigma) at 50 digits
        mpmath.mp.dps = 50
        rng = np.random.default_rng(17)
        for _ in range(20):
            real = rng.uniform(-30, 30, 5)
            fake = rng.uniform(-30, 30, 5)
            loss_d = discriminator_loss(_logits(real), _logits(fake))
            loss_g = generator_loss(_logits(fake), mode="minimax")
            sig = lambda v: 1 / (1 + mpmath.e ** (-mpmath.mpf(v)))
            ref_d = -sum(mpmath.log(sig(v)) for v in real) / 5 - sum(
                mpmath.log(1 - sig(v)) for v in fake
            ) / 5
            ref_g = sum(mpmath.log(1 - sig(v)) for v in fake) / 5
            assert abs(float(loss_d) - float(ref_d)) < 1e-12
            assert abs(float(loss_g) - float(ref_g)) < 1e-12

    def test_gradients_both_modes(self):
        rng = np.random.default_rng(23)
        for mode in ("minimax", "nonsaturating"):
            real = Tensor(rng.normal(0, 3, (6, 1)))
            fake = Tensor(rng.normal(0, 3, (6, 1)))

            def loss(p, mode=mode):
                return ad.weighted_sum([discriminator_loss(p[0], p[1]), generator_loss(p[1], mode)], (1.0, 1.0))

            assert grad_check(loss, [real, fake], step=1e-6) <= 1e-6


class TestMiLowerBound:
    def _setup(self, k=10, batch=32, seed=0):
        return sample_latent(LatentSpec(blocks=(CodeBlock.categorical(k),), noise_dim=0), batch, np.random.default_rng(seed))

    def test_uniform_q_gives_zero(self):
        lat = self._setup()
        li_disc, li_cont = mi_lower_bound(Tensor(np.zeros((32, 10))), lat)
        assert abs(float(li_disc)) < 1e-12
        assert float(li_cont) == 0.0

    def test_sharp_correct_q_approaches_log_k(self):
        lat = self._setup()
        onehot = np.zeros((32, 10))
        onehot[np.arange(32), lat.c_raw[0]] = 1.0
        # logits so large the softmax puts ~1-1e-9 on the sampled category
        li_disc, _ = mi_lower_bound(Tensor(onehot * 60.0), lat)
        assert abs(float(li_disc) - math.log(10)) < 1e-9

    def test_discrete_bound_never_exceeds_entropy(self):
        lat = self._setup(k=4, batch=128, seed=5)
        rng = np.random.default_rng(6)
        for _ in range(25):
            li_disc, _ = mi_lower_bound(Tensor(rng.normal(0, 5, (128, 4))), lat)
            assert float(li_disc) <= math.log(4) + 1e-9

    def test_continuous_closed_form_composition(self):
        spec = LatentSpec(blocks=(CodeBlock.uniform(-1, 1),), noise_dim=0)
        lat = sample_latent(spec, 16, np.random.default_rng(2))
        # Q's mean column at the sampled code and its log sigma column at 0
        _, li_cont = mi_lower_bound(Tensor(np.concatenate([lat.c_raw[0], np.zeros((16, 1))], axis=1)), lat)
        assert abs(float(li_cont) - (-0.918939 + LN2)) < 1e-5

    def test_a_family_bound_is_one_node_of_its_block_means_and_entropy(self):
        # two categorical blocks and no continuous one: L_I_disc is one weighted_sum node, each block's
        # term entering as its batch mean, folded with H in Python floats; L_I_cont is a zero leaf
        spec = LatentSpec(blocks=(CodeBlock.categorical(3), CodeBlock.categorical(2)), noise_dim=0)
        lat = sample_latent(spec, 8, np.random.default_rng(9))
        q = Tensor(np.random.default_rng(10).normal(0, 2, (8, 5)).astype(np.float32))
        with ad.Tape() as tape:
            li_disc, li_cont = mi_lower_bound(q, lat)
            ops = [node.op for node in tape.nodes]
        assert ops == ["categorical_log_q", "categorical_log_q", "weighted_sum"]
        assert li_cont.node is None and float(li_cont) == 0.0
        a, b = (ad.categorical_log_q(q, index, cols).data for index, cols in zip(lat.c_raw, spec.q_slices()))
        mean_a, mean_b = ((np.add.reduce(x, axis=None) / x.size).item() for x in (a, b))
        assert li_disc.data.tobytes() == np.float64((mean_a + mean_b) + spec.h_disc).tobytes()


class TestInfoGanLosses:
    def _objective(self, lam_d, lam_c, li_d=0.4, li_c=-0.2):
        return infogan_losses(Tensor(0.7), Tensor(li_d), Tensor(li_c), lam_d, lam_c)

    def test_zero_lambda_reduces_to_plain_gan(self):
        assert float(self._objective(0.0, 0.0)) == 0.7

    def test_discrete_default_lambda_one(self):
        assert abs(float(self._objective(1.0, 0.0)) - (0.7 - 0.4)) < 1e-15

    def test_split_lambdas_accepted(self):
        assert abs(float(self._objective(1.0, 10.0)) - (0.7 - 0.4 + 2.0)) < 1e-14

    def test_linear_in_each_term_with_slope_minus_lambda(self):
        for lam in (0.3, 2.0):
            slope = float(self._objective(lam, 0.0, li_d=2.0)) - float(self._objective(lam, 0.0, li_d=1.0))
            assert abs(slope + lam) < 1e-12

    def test_negative_lambda_rejected(self):
        with pytest.raises(UsageError):
            self._objective(-0.1, 0.0)
