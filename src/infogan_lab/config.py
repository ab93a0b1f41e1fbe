"""Run configuration: one ``key = value`` per line, UTF-8, '#' comments.

Unknown keys are errors. Every key has a default, so the empty string is a
valid config. ``render_config`` emits a canonical text whose parse
round-trips exactly (floats via repr); checkpoints embed that text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .autodiff import ShapeError
from .latent import CodeBlock, LatentSpec, SpecError, parse_block_token
from .models import NetConfig

TOY_DIMS = (8, 8)
MNIST_DIMS = (28, 28)


class ConfigError(ValueError):
    """Malformed run configuration."""


def _default_codes() -> tuple[CodeBlock, ...]:
    return (CodeBlock.categorical(4), CodeBlock.uniform(-1.0, 1.0))


@dataclass
class TrainingConfig:
    """All knobs of one training run, with library defaults.

    Learning rates follow the usual split: 2e-4 for the discriminator /
    recognition side, 1e-3 for the generator. Batchnorm defaults off for
    the toy dataset and on for MNIST (pass an explicit value to override).
    """

    seed: int = 42
    iterations: int = 5000
    batch_size: int = 64
    lr_d: float = 2e-4
    lr_g: float = 1e-3
    beta1: float = 0.5
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    lambda_disc: float = 1.0
    lambda_cont: float = 0.1
    gan_mode: str = "nonsaturating"
    dataset: str = "toy"
    noise_dim: int = 16
    noise_kind: str = "normal"
    codes: tuple[CodeBlock, ...] = field(default_factory=_default_codes)
    gen_layers: tuple[int, ...] = (128, 256)
    trunk_layers: tuple[int, ...] = (256, 128)
    q_hidden: int = 64
    batchnorm: bool | None = None
    log_every: int = 50
    toy_templates: int = 4
    toy_samples: int = 8192
    toy_noise_sigma: float = 0.05
    mnist_images: str = "data/mnist/train-images-idx3-ubyte"
    mnist_labels: str = "data/mnist/train-labels-idx1-ubyte"
    mnist_subset: int = 10000
    checkpoint_out: str = "checkpoint.igan"
    metrics_out: str = "metrics.csv"

    def __post_init__(self):
        if self.dataset not in ("toy", "mnist"):
            raise ConfigError(f"dataset must be toy or mnist, got '{self.dataset}'")
        if self.gan_mode not in ("minimax", "nonsaturating"):
            raise ConfigError(f"gan_mode must be minimax or nonsaturating, got '{self.gan_mode}'")
        # written as "not (finite and in range)" so that NaN, which fails every comparison, is caught
        for key in ("lr_d", "lr_g", "adam_epsilon"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{key} must be finite and > 0, got {value!r}")
        for key in ("lambda_disc", "lambda_cont"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"{key} must be finite and >= 0, got {value!r}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("adam betas must lie in [0, 1)")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.iterations < 1 or self.log_every < 1:
            raise ConfigError("iterations and log_every must be >= 1")
        if self.batchnorm is None:
            self.batchnorm = self.dataset == "mnist"
        self.codes = tuple(self.codes)
        self.gen_layers = tuple(int(w) for w in self.gen_layers)
        self.trunk_layers = tuple(int(w) for w in self.trunk_layers)
        for key in ("gen_layers", "trunk_layers"):
            widths = getattr(self, key)
            if not widths or min(widths) < 1:
                raise ConfigError(f"{key} must list at least one width, each >= 1, got {widths}")
        if self.toy_templates not in (2, 3, 4):
            raise ConfigError(f"toy_templates must be 2, 3 or 4, got {self.toy_templates}")
        if self.toy_samples < self.toy_templates:
            raise ConfigError(f"toy_samples must be >= toy_templates ({self.toy_templates}), got {self.toy_samples}")
        if not self.toy_noise_sigma >= 0.0:
            raise ConfigError(f"toy_noise_sigma must be >= 0, got {self.toy_noise_sigma!r}")
        if self.mnist_subset < 1:
            raise ConfigError(f"mnist_subset must be >= 1, got {self.mnist_subset}")
        try:  # noise_dim, noise_kind and q_hidden are checked where they are used; those errors name the key
            self.net_configs()
        except (SpecError, ShapeError) as err:
            raise ConfigError(str(err)) from None

    @property
    def image_dims(self) -> tuple[int, int]:
        return TOY_DIMS if self.dataset == "toy" else MNIST_DIMS

    @property
    def image_dim(self) -> int:
        h, w = self.image_dims
        return h * w

    def latent_spec(self) -> LatentSpec:
        return LatentSpec(blocks=self.codes, noise_dim=self.noise_dim, noise_kind=self.noise_kind)

    def net_configs(self) -> tuple[NetConfig, NetConfig]:
        spec = self.latent_spec()
        gen = NetConfig(widths=(spec.gen_input_dim, *self.gen_layers, self.image_dim), batchnorm=self.batchnorm)
        dq = NetConfig(widths=(self.image_dim, *self.trunk_layers), batchnorm=self.batchnorm, q_hidden=self.q_hidden)
        return gen, dq


def _parse_bool(value: str) -> bool:
    v = value.lower()
    if v in ("on", "true", "1", "yes"):
        return True
    if v in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"expected on/off, got '{value}'")


def _parse_int_list(value: str) -> tuple[int, ...]:
    return tuple(int(p.strip()) for p in value.split(",") if p.strip())


_SCALAR_KEYS = {
    "seed": int,
    "iterations": int,
    "batch_size": int,
    "lr_d": float,
    "lr_g": float,
    "beta1": float,
    "beta2": float,
    "adam_epsilon": float,
    "lambda_disc": float,
    "lambda_cont": float,
    "gan_mode": str,
    "dataset": str,
    "noise_dim": int,
    "noise_kind": str,
    "gen_layers": _parse_int_list,
    "trunk_layers": _parse_int_list,
    "q_hidden": int,
    "batchnorm": _parse_bool,
    "log_every": int,
    "toy_templates": int,
    "toy_samples": int,
    "toy_noise_sigma": float,
    "mnist_images": str,
    "mnist_labels": str,
    "mnist_subset": int,
    "checkpoint_out": str,
    "metrics_out": str,
}


def parse_config(text: str) -> TrainingConfig:
    """Parse config text; raises ConfigError for unknown keys or bad values."""
    kwargs: dict = {}
    codes: list[CodeBlock] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{raw}'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "code":
            try:
                codes.append(parse_block_token(value))
            except SpecError as err:
                raise ConfigError(f"line {lineno}: bad value for code: {err}") from err
        elif key in _SCALAR_KEYS:
            try:
                kwargs[key] = _SCALAR_KEYS[key](value)
            except ConfigError:
                raise
            except ValueError as err:
                raise ConfigError(f"line {lineno}: bad value for {key}: '{value}'") from err
        else:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
    if codes:
        kwargs["codes"] = tuple(codes)
    return TrainingConfig(**kwargs)


def load_config(path: str) -> TrainingConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())


def render_config(cfg: TrainingConfig) -> str:
    """Canonical text form; parse_config(render_config(cfg)) == cfg."""
    lines = [
        f"seed = {cfg.seed}",
        f"iterations = {cfg.iterations}",
        f"batch_size = {cfg.batch_size}",
        f"lr_d = {cfg.lr_d!r}",
        f"lr_g = {cfg.lr_g!r}",
        f"beta1 = {cfg.beta1!r}",
        f"beta2 = {cfg.beta2!r}",
        f"adam_epsilon = {cfg.adam_epsilon!r}",
        f"lambda_disc = {cfg.lambda_disc!r}",
        f"lambda_cont = {cfg.lambda_cont!r}",
        f"gan_mode = {cfg.gan_mode}",
        f"dataset = {cfg.dataset}",
        f"noise_dim = {cfg.noise_dim}",
        f"noise_kind = {cfg.noise_kind}",
    ]
    lines += [f"code = {b.to_token()}" for b in cfg.codes]
    lines += [
        "gen_layers = " + ",".join(str(w) for w in cfg.gen_layers),
        "trunk_layers = " + ",".join(str(w) for w in cfg.trunk_layers),
        f"q_hidden = {cfg.q_hidden}",
        f"batchnorm = {'on' if cfg.batchnorm else 'off'}",
        f"log_every = {cfg.log_every}",
        f"toy_templates = {cfg.toy_templates}",
        f"toy_samples = {cfg.toy_samples}",
        f"toy_noise_sigma = {cfg.toy_noise_sigma!r}",
        f"mnist_images = {cfg.mnist_images}",
        f"mnist_labels = {cfg.mnist_labels}",
        f"mnist_subset = {cfg.mnist_subset}",
        f"checkpoint_out = {cfg.checkpoint_out}",
        f"metrics_out = {cfg.metrics_out}",
    ]
    return "\n".join(lines) + "\n"
