"""Run configuration: one ``key = value`` per line, UTF-8, '#' comments.

A key is one ``TrainingConfig`` field, parsed and rendered by the format of
its annotated type (``_FORMATS``), so adding a field adds its key. The one
exception is ``codes``: each code block is a repeatable ``code = <token>``
line, and ``codes`` itself is not a key. Unknown keys and a key given twice
are errors. Every key has a default, so the empty string is a valid config.
``render_config`` emits every key but the four paths (``_PATH_KEYS``) in
field order; its parse round-trips exactly (floats via repr) with the paths
at their defaults, and checkpoints embed it, so no path reaches their bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .autodiff import ShapeError
from .latent import CodeBlock, LatentSpec, SpecError, parse_block_token
from .models import NetConfig
from .objectives import GAN_MODES

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
        if self.gan_mode not in GAN_MODES:
            raise ConfigError(f"gan_mode must be minimax or nonsaturating, got '{self.gan_mode}'")
        # written as "not (finite and in range)" so that NaN, which fails every comparison, is caught
        for key in ("lr_d", "lr_g", "adam_epsilon"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{key} must be finite and > 0, got {value!r}")
        for key in ("lambda_disc", "lambda_cont", "toy_noise_sigma"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"{key} must be finite and >= 0, got {value!r}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("adam betas must lie in [0, 1)")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.iterations < 1 or self.log_every < 1:
            raise ConfigError("iterations and log_every must be >= 1")
        if self.batchnorm is None:
            self.batchnorm = self.dataset == "mnist"
        self.codes = tuple(self.codes)
        if not self.codes:  # the config text cannot list none; lambda = 0 is the run without an information term
            raise ConfigError("codes must list at least one code block, got none")
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
        if self.mnist_subset < 1:
            raise ConfigError(f"mnist_subset must be >= 1, got {self.mnist_subset}")
        for key in ("checkpoint_out", "metrics_out"):
            if not getattr(self, key):
                raise ConfigError(f"{key} must name a file, got ''")
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
    raise ValueError(f"expected on/off, got '{value}'")


def _parse_int_list(value: str) -> tuple[int, ...]:
    # an empty entry ("128,,256", ",128") fails int(""); an empty value is the empty list, which the field rejects
    return tuple(int(p) for p in value.split(",")) if value else ()


# annotated field type -> (parse the value text, render the field value); a parse raises ValueError
_FORMATS = {
    "int": (int, str),
    "float": (float, repr),
    "str": (str, str),
    "tuple[int, ...]": (_parse_int_list, lambda widths: ",".join(str(w) for w in widths)),
    "bool | None": (_parse_bool, lambda flag: "on" if flag else "off"),
}


# field name -> (parse, render) in field order, built at import so that a field whose type has no
# format fails here with a KeyError; ``codes`` maps to None, since its blocks are "code" lines
_KEYS = {f.name: None if f.name == "codes" else _FORMATS[f.type] for f in fields(TrainingConfig)}
# where a run reads and writes, not what it computes: parsed, never rendered
_PATH_KEYS = ("mnist_images", "mnist_labels", "checkpoint_out", "metrics_out")


def parse_config(text: str) -> TrainingConfig:
    """Parse config text; raises ConfigError for unknown, repeated or bad keys."""
    kwargs: dict = {}
    key_lines: dict[str, int] = {}
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
            continue
        fmt = _KEYS.get(key)
        if fmt is None:  # also "codes", whose blocks are "code" lines
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in key_lines:
            raise ConfigError(f"line {lineno}: key '{key}' repeats line {key_lines[key]}")
        key_lines[key] = lineno
        try:
            kwargs[key] = fmt[0](value)
        except ValueError as err:
            raise ConfigError(f"line {lineno}: bad value for {key}: '{value}'") from err
    if codes:
        kwargs["codes"] = tuple(codes)
    return TrainingConfig(**kwargs)


def load_config(path: str) -> TrainingConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())


def render_config(cfg: TrainingConfig) -> str:
    """Canonical text of every key but the four paths; its parse is cfg with the paths at their defaults."""
    lines = []
    for key, fmt in _KEYS.items():
        if fmt is None:
            lines += [f"code = {b.to_token()}" for b in cfg.codes]
        elif key not in _PATH_KEYS:
            lines.append(f"{key} = {fmt[1](getattr(cfg, key))}")
    return "\n".join(lines) + "\n"
