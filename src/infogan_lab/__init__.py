"""Desk-scale InfoGAN laboratory.

A from-scratch tape autodiff engine, an adversarial trainer that maximizes
a variational lower bound on the mutual information between structured
latent codes and generated samples, and an evaluation suite whose
information quantities are verified against exact enumeration oracles.
"""

from .autodiff import (
    BatchNormState,
    DomainError,
    ShapeError,
    Tape,
    Tensor,
    UsageError,
    forward_op,
    grad_check,
)
from .config import ConfigError, TrainingConfig, load_config, parse_config, render_config
from .data_io import (
    Dataset,
    FormatError,
    load_checkpoint,
    load_mnist_idx,
    save_checkpoint,
    synth_templates,
    write_image_grid,
)
from .evaluate import (
    ChannelSpec,
    LemmaJointSpec,
    MiEstimate,
    bayes_posterior_q,
    categorical_classifier_eval,
    channel_bound_check,
    estimate_mi_bound,
    traversal_grid,
    verify_lemma,
)
from .latent import (
    CodeBlock,
    LatentBatch,
    LatentSpec,
    QPosteriorParams,
    SpecError,
    entropy,
    log_q,
    one_hot,
    sample_latent,
)
from .models import ModelPair, NetConfig, ParamBlock, disc_forward, disc_q_forward, gen_forward, init_models, q_forward
from .objectives import (
    LossBundle,
    discriminator_loss,
    generator_loss,
    infogan_losses,
    mi_lower_bound,
)
from .trainer import (
    AdamState,
    MetricsTrace,
    TrainingError,
    adam_step,
    rng_streams,
    train_run,
    train_step,
)

__version__ = "0.1.0"
