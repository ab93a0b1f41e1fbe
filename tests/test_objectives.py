"""GAN losses, the information bound, and combined objectives."""

import math

import mpmath
import numpy as np
import pytest

from infogan_lab import autodiff as ad
from infogan_lab.autodiff import Tensor, UsageError, grad_check
from infogan_lab.latent import CodeBlock, LatentSpec, QPosteriorParams, sample_latent
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
        # softplus rewrite vs literal -log sigma / -log(1-sigma) at 50 digits
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
                return ad.add(discriminator_loss(p[0], p[1]), generator_loss(p[1], mode))

            assert grad_check(loss, [real, fake], step=1e-6) <= 1e-6


class TestMiLowerBound:
    def _setup(self, k=10, batch=32, seed=0):
        spec = LatentSpec(blocks=(CodeBlock.categorical(k),), noise_dim=0)
        lat = sample_latent(spec, batch, np.random.default_rng(seed))
        return spec, lat

    def test_uniform_q_gives_zero(self):
        spec, lat = self._setup()
        q = QPosteriorParams(spec=spec, blocks=[Tensor(np.zeros((32, 10)))])
        li_disc, li_cont = mi_lower_bound(q, lat, spec)
        assert abs(float(li_disc)) < 1e-12
        assert float(li_cont) == 0.0

    def test_sharp_correct_q_approaches_log_k(self):
        spec, lat = self._setup()
        onehot = np.zeros((32, 10))
        onehot[np.arange(32), lat.c_raw[0]] = 1.0
        # logits so large the softmax puts ~1-1e-9 on the sampled category
        q = QPosteriorParams(spec=spec, blocks=[Tensor(onehot * 60.0)])
        li_disc, _ = mi_lower_bound(q, lat, spec)
        assert abs(float(li_disc) - math.log(10)) < 1e-9

    def test_discrete_bound_never_exceeds_entropy(self):
        spec, lat = self._setup(k=4, batch=128, seed=5)
        rng = np.random.default_rng(6)
        for _ in range(25):
            q = QPosteriorParams(spec=spec, blocks=[Tensor(rng.normal(0, 5, (128, 4)))])
            li_disc, _ = mi_lower_bound(q, lat, spec)
            assert float(li_disc) <= math.log(4) + 1e-9

    def test_continuous_closed_form_composition(self):
        spec = LatentSpec(blocks=(CodeBlock.uniform(-1, 1),), noise_dim=0)
        lat = sample_latent(spec, 16, np.random.default_rng(2))
        q = QPosteriorParams(
            spec=spec,
            blocks=[(Tensor(np.asarray(lat.c_raw[0])), Tensor(np.zeros((16, 1))))],
        )
        _, li_cont = mi_lower_bound(q, lat, spec)
        assert abs(float(li_cont) - (-0.918939 + LN2)) < 1e-5


class TestInfoGanLosses:
    def _bundle(self, lam_d, lam_c, li_d=0.4, li_c=-0.2):
        return infogan_losses(
            ad.const(1.5), ad.const(0.7), ad.const(li_d), ad.const(li_c), lam_d, lam_c
        )

    def test_zero_lambda_reduces_to_plain_gan(self):
        b = self._bundle(0.0, 0.0)
        assert float(b.gq_objective) == float(b.loss_g)

    def test_discrete_default_lambda_one(self):
        b = self._bundle(1.0, 0.0)
        assert abs(float(b.gq_objective) - (0.7 - 0.4)) < 1e-15

    def test_split_lambdas_accepted(self):
        b = self._bundle(1.0, 10.0)
        assert abs(float(b.gq_objective) - (0.7 - 0.4 + 2.0)) < 1e-14

    def test_linear_in_each_term_with_slope_minus_lambda(self):
        for lam in (0.3, 2.0):
            b1 = self._bundle(lam, 0.0, li_d=1.0)
            b2 = self._bundle(lam, 0.0, li_d=2.0)
            slope = float(b2.gq_objective) - float(b1.gq_objective)
            assert abs(slope + lam) < 1e-12

    def test_negative_lambda_rejected(self):
        with pytest.raises(UsageError):
            self._bundle(-0.1, 0.0)
