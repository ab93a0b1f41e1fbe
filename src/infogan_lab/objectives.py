"""Adversarial losses and the variational mutual-information lower bound.

Each term is one op, so the code reads like the paper's objective: each
cross-entropy term of V(D, G) is one overflow-free ``sigmoid_cross_entropy``
(mean -log sigmoid(x) for label 1, mean -log(1 - sigmoid(x)) for label 0),
and each sum of terms, L_I = E[log Q(c|x)] + H(c) and the generator
objective loss_G - lambda*L_I among them, is one ``weighted_sum``, which
takes each expectation as its batch of log Q and H(c) as the spec's
closed-form ``h_disc`` or ``h_cont``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import Tensor, UsageError
from .latent import LatentBatch, log_q

GAN_MODES = ("minimax", "nonsaturating")


def discriminator_loss(d_real_logits: Tensor, d_fake_logits: Tensor) -> Tensor:
    """loss_D = -mean log sigmoid(real) - mean log(1 - sigmoid(fake))."""
    xent = ad.sigmoid_cross_entropy
    return ad.weighted_sum([xent(d_real_logits, 1), xent(d_fake_logits, 0)], (1.0, 1.0))


def generator_loss(d_fake_logits: Tensor, mode: str = "nonsaturating") -> Tensor:
    """Generator-side loss from fake logits alone.

    'minimax' is mean log(1 - sigmoid(fake)); 'nonsaturating' is
    -mean log sigmoid(fake).
    """
    if mode not in GAN_MODES:
        raise UsageError(f"gan mode must be one of {GAN_MODES}, got '{mode}'")
    if mode == "minimax":
        return ad.weighted_sum([ad.sigmoid_cross_entropy(d_fake_logits, 0)], (-1.0,))
    return ad.sigmoid_cross_entropy(d_fake_logits, 1)


def mi_lower_bound(q: Tensor, batch: LatentBatch) -> tuple[Tensor, Tensor]:
    """Single-sample Monte-Carlo estimate of the bound, split by code family.

    Per family, one node: the batch mean of each block's log Q(c|x) (``q`` as
    ``log_q`` takes it) plus that family's entropy. Families without blocks report exactly zero.
    """
    lq_disc, lq_cont = log_q(q, batch)
    return _bound(lq_disc, batch.spec.h_disc), _bound(lq_cont, batch.spec.h_cont)


def _bound(terms: list[Tensor], h: float) -> Tensor:
    return ad.weighted_sum([*terms, Tensor(h)], (1.0,) * (len(terms) + 1)) if terms else Tensor(0.0)


@dataclass
class LossBundle:
    """Scalar loss terms of one step: the D loss, the G loss and the two parts of the bound L_I.

    ``loss_d`` is what the discriminator step minimizes; the generator's
    objective is ``infogan_losses`` of the other three.
    """

    loss_d: Tensor
    loss_g: Tensor
    li_disc: Tensor
    li_cont: Tensor

    def as_floats(self) -> dict[str, float]:
        return {
            "loss_d": float(self.loss_d),
            "loss_g": float(self.loss_g),
            "li_disc": float(self.li_disc),
            "li_cont": float(self.li_cont),
        }


def infogan_losses(loss_g: Tensor, li_disc: Tensor, li_cont: Tensor, lambda_disc: float, lambda_cont: float) -> Tensor:
    """The generator/recognition objective loss_G - lambda_disc*L_I_disc - lambda_cont*L_I_cont (lambda >= 0).

    The paper's min_G,Q V(D, G) - lambda*L_I(G, Q) on the generator's side:
    the D loss plays no part in it.
    """
    if lambda_disc < 0.0 or lambda_cont < 0.0:
        raise UsageError(f"lambda must be >= 0, got disc={lambda_disc}, cont={lambda_cont}")
    return ad.weighted_sum([loss_g, li_disc, li_cont], (1.0, -lambda_disc, -lambda_cont))

