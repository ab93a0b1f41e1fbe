"""Adversarial losses and the variational mutual-information lower bound.

The sigmoid-cross-entropy terms use the identities -log sigmoid(x) =
softplus(-x) and -log(1 - sigmoid(x)) = softplus(x), with softplus one
fused, overflow-free op, so log(1 - sigmoid(.)) is never evaluated
literally and logits of either sign stay stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import Tensor, UsageError
from .latent import LatentBatch, LatentSpec, QPosteriorParams, entropy, log_q

GAN_MODES = ("minimax", "nonsaturating")


def discriminator_loss(d_real_logits: Tensor, d_fake_logits: Tensor) -> Tensor:
    """loss_D = -mean log sigmoid(real) - mean log(1 - sigmoid(fake))."""
    return ad.add(
        ad.reduce_mean(ad.softplus(ad.scale(d_real_logits, -1.0))),
        ad.reduce_mean(ad.softplus(d_fake_logits)),
    )


def generator_loss(d_fake_logits: Tensor, mode: str = "nonsaturating") -> Tensor:
    """Generator-side loss from fake logits alone.

    'minimax' is mean log(1 - sigmoid(fake)); 'nonsaturating' is
    -mean log sigmoid(fake).
    """
    if mode not in GAN_MODES:
        raise UsageError(f"gan mode must be one of {GAN_MODES}, got '{mode}'")
    if mode == "minimax":
        return ad.scale(ad.reduce_mean(ad.softplus(d_fake_logits)), -1.0)
    return ad.reduce_mean(ad.softplus(ad.scale(d_fake_logits, -1.0)))


def mi_lower_bound(q_params: QPosteriorParams, batch: LatentBatch, spec: LatentSpec) -> tuple[Tensor, Tensor]:
    """Single-sample Monte-Carlo estimate of the bound, split by code family.

    Per family: batch mean of log Q(c|x) plus that family's analytic
    entropy. Families without blocks report exactly zero.
    """
    lq_disc, lq_cont = log_q(q_params, batch)
    ent = entropy(spec)
    li_disc = ad.const(0.0) if lq_disc is None else ad.add(ad.reduce_mean(lq_disc), ad.const(ent.discrete))
    li_cont = ad.const(0.0) if lq_cont is None else ad.add(ad.reduce_mean(lq_cont), ad.const(ent.continuous))
    return li_disc, li_cont


@dataclass
class LossBundle:
    """Scalar loss terms of one step, plus the generator/recognition objective.

    ``loss_d`` is what the discriminator step minimizes;
    ``gq_objective`` is loss_G - lambda_disc*L_I_disc - lambda_cont*L_I_cont.
    """

    loss_d: Tensor
    loss_g: Tensor
    li_disc: Tensor
    li_cont: Tensor
    gq_objective: Tensor

    def as_floats(self) -> dict[str, float]:
        return {
            "loss_d": float(self.loss_d),
            "loss_g": float(self.loss_g),
            "li_disc": float(self.li_disc),
            "li_cont": float(self.li_cont),
        }


def infogan_losses(
    loss_d: Tensor,
    loss_g: Tensor,
    li_disc: Tensor,
    li_cont: Tensor,
    lambda_disc: float,
    lambda_cont: float,
) -> LossBundle:
    """Combine plain GAN losses with the information terms (lambda >= 0)."""
    if lambda_disc < 0.0 or lambda_cont < 0.0:
        raise UsageError(f"lambda must be >= 0, got disc={lambda_disc}, cont={lambda_cont}")
    gq = ad.add(ad.add(loss_g, ad.scale(li_disc, -lambda_disc)), ad.scale(li_cont, -lambda_cont))
    return LossBundle(loss_d=loss_d, loss_g=loss_g, li_disc=li_disc, li_cont=li_cont, gq_objective=gq)

