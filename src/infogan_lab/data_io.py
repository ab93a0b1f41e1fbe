"""Datasets, checkpoint persistence, and image-grid emission.

The checkpoint is a little-endian binary: the 8-byte magic ``IGAN0001``, a
u32 format version, the run-config text, then named float64 entries for
every parameter and batchnorm running statistic. Loading rebuilds the model
from the config and copies each entry into place: a parameter into its view
of the model's flat block vector, a running statistic into its array. Every
tensor is reproduced bitwise. The config text includes the run's output and
MNIST paths (``checkpoint_out``, ``metrics_out``, ``mnist_images``,
``mnist_labels``), so a rerun gives a byte-identical checkpoint only when it
writes to the same paths.
"""

from __future__ import annotations

import contextlib
import math
import os
import secrets
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import UsageError
from .config import ConfigError, TrainingConfig, parse_config, render_config
from .models import ModelPair, init_models

CHECKPOINT_MAGIC = b"IGAN0001"
CHECKPOINT_VERSION = 1
IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049
_INT64_MAX = 2**63 - 1  # numpy's limit on one dimension and on an array's element count


class FormatError(ValueError):
    """A binary file does not match its declared format."""


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "wb", **kwargs):
    """Write ``path`` through a fresh temp file beside it, then ``os.replace`` it into place.

    If the block raises, the temp file is removed and whatever ``path`` held
    before is left untouched, so no reader ever sees a half-written file.
    """
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@dataclass
class Dataset:
    images: np.ndarray            # (N, H*W) floats in [0, 1]
    labels: np.ndarray | None     # (N,) ints, optional
    dims: tuple[int, int]
    provenance: str

    def __post_init__(self):
        h, w = self.dims
        if self.images.ndim != 2 or self.images.shape[1] != h * w:
            raise FormatError(f"images must be (N, {h * w}), got {self.images.shape}")
        if self.images.size and not (self.images.min() >= 0.0 and self.images.max() <= 1.0):
            raise FormatError("pixel values must lie in [0, 1]")
        if self.labels is not None and len(self.labels) != len(self.images):
            raise FormatError(
                f"{len(self.images)} images but {len(self.labels)} labels"
            )

    def __len__(self) -> int:
        return len(self.images)


# ---------------------------------------------------------------------------
# MNIST IDX
# ---------------------------------------------------------------------------

class _Reader:
    """Cursor over bytes; every read is bounds-checked."""

    def __init__(self, data: bytes, what: str):
        self.data = data
        self.pos = 0
        self.what = what

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(f"{self.what}: truncated (wanted {n} bytes at offset {self.pos})")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def text(self, n: int) -> str:
        raw = self.take(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as err:
            raise FormatError(f"{self.what}: text at offset {self.pos - n} is not UTF-8 ({err.reason})") from None

    def u32_be(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u32_le(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64_le(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def expect_eof(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(f"{self.what}: {len(self.data) - self.pos} trailing bytes")


def load_mnist_idx(images_path: str, labels_path: str) -> Dataset:
    """Parse the big-endian IDX pair; pixels scaled to [0,1] by 1/255."""
    with open(images_path, "rb") as f:
        r = _Reader(f.read(), images_path)
    magic = r.u32_be()
    if magic != IDX_IMAGE_MAGIC:
        raise FormatError(f"{images_path}: image magic must be {IDX_IMAGE_MAGIC}, got {magic}")
    n = r.u32_be()
    rows = r.u32_be()
    cols = r.u32_be()
    pixels = np.frombuffer(r.take(n * rows * cols), dtype=np.uint8)
    r.expect_eof()

    with open(labels_path, "rb") as f:
        r = _Reader(f.read(), labels_path)
    magic = r.u32_be()
    if magic != IDX_LABEL_MAGIC:
        raise FormatError(f"{labels_path}: label magic must be {IDX_LABEL_MAGIC}, got {magic}")
    n_labels = r.u32_be()
    labels = np.frombuffer(r.take(n_labels), dtype=np.uint8)
    r.expect_eof()

    if n_labels != n:
        raise FormatError(f"{n} images but {n_labels} labels")
    images = pixels.reshape(n, rows * cols).astype(np.float64) / 255.0
    return Dataset(images=images, labels=labels.astype(np.int64), dims=(rows, cols), provenance="mnist")


def write_idx_pair(images_u8: np.ndarray, labels_u8: np.ndarray, images_path: str, labels_path: str) -> None:
    """Write a (N,H,W) uint8 stack and labels as a standard IDX pair (fixture helper).

    Both files are written atomically, and neither replaces its old version
    unless both writes succeed.
    """
    n, h, w = images_u8.shape
    with atomic_open(images_path) as fi, atomic_open(labels_path) as fl:
        fi.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, h, w))
        fi.write(np.ascontiguousarray(images_u8, dtype=np.uint8).tobytes())
        fl.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
        fl.write(np.ascontiguousarray(labels_u8, dtype=np.uint8).tobytes())


# ---------------------------------------------------------------------------
# synthetic templates
# ---------------------------------------------------------------------------

def _make_templates() -> np.ndarray:
    t = np.zeros((4, 8, 8))
    t[0, 3:5, :] = 1.0                      # horizontal bar
    t[1, :, 3:5] = 1.0                      # vertical bar
    ii, jj = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    t[2][(jj - ii == 0) | (jj - ii == 1)] = 1.0   # main diagonal band
    t[3][(ii + jj == 7) | (ii + jj == 8)] = 1.0   # anti-diagonal band
    return t


def synth_templates(k: int, n: int, noise_sigma: float, rng: np.random.Generator) -> Dataset:
    """8x8 template dataset: k bar/diagonal shapes, cyclic horizontal shift
    dx ~ uniform{-2..2}, gaussian pixel noise, clamped to [0,1]."""
    if k not in (2, 3, 4):
        raise UsageError(f"template count must be 2, 3 or 4, got {k}")
    if n < k:
        raise UsageError(f"need at least {k} samples, got {n}")
    templates = _make_templates()[:k]
    idx = rng.integers(0, k, size=n)
    dx = rng.integers(-2, 3, size=n)
    noise = rng.normal(0.0, noise_sigma, size=(n, 64)) if noise_sigma > 0 else np.zeros((n, 64))

    base = templates[idx]  # (n, 8, 8)
    col = (np.arange(8)[None, :] - dx[:, None]) % 8
    shifted = base[np.arange(n)[:, None, None], np.arange(8)[None, :, None], col[:, None, :]]
    images = np.clip(shifted.reshape(n, 64) + noise, 0.0, 1.0)
    return Dataset(images=images, labels=idx.astype(np.int64), dims=(8, 8), provenance=f"toy(k={k},sigma={noise_sigma})")


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _checkpoint_entries(model: ModelPair) -> list[tuple[str, np.ndarray]]:
    entries: list[tuple[str, np.ndarray]] = [(name, t.data) for name, t in model.params.items()]
    for name, state in model.bn_states.items():
        entries.append((f"{name}.running_mean", state.running_mean))
        entries.append((f"{name}.running_var", state.running_var))
    return entries


def save_checkpoint(model: ModelPair, cfg: TrainingConfig, path: str) -> None:
    config_bytes = render_config(cfg).encode("utf-8")
    entries = _checkpoint_entries(model)
    with atomic_open(path) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<Q", len(config_bytes)))
        f.write(config_bytes)
        f.write(struct.pack("<Q", len(entries)))
        for name, arr in entries:
            name_b = name.encode("utf-8")
            f.write(struct.pack("<I", len(name_b)))
            f.write(name_b)
            f.write(struct.pack("<I", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<Q", d))
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> tuple[ModelPair, TrainingConfig]:
    """Rebuild the model from the embedded config and copy every entry into place, bitwise."""
    with open(path, "rb") as f:
        r = _Reader(f.read(), path)
    magic = r.take(8)
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    version = r.u32_le()
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: format version {version} not supported (expected {CHECKPOINT_VERSION})")
    config_text = r.text(r.u64_le())
    try:
        cfg = parse_config(config_text)
    except ConfigError as err:
        raise ConfigError(f"{path}: embedded config: {err}") from None

    loaded: dict[str, np.ndarray] = {}
    n_entries = r.u64_le()
    for _ in range(n_entries):
        name = r.text(r.u32_le())
        ndim = r.u32_le()
        if ndim > 8:
            raise FormatError(f"{path}: implausible rank {ndim} for entry '{name}'")
        shape = tuple(r.u64_le() for _ in range(ndim))
        count = math.prod(shape)
        if count > _INT64_MAX or max(shape, default=0) > _INT64_MAX:
            raise FormatError(f"{path}: entry '{name}' shape {shape} overflows int64")
        loaded[name] = np.frombuffer(r.take(count * 8), dtype="<f8").reshape(shape)
    r.expect_eof()

    gen_cfg, dq_cfg = cfg.net_configs()
    model = init_models(gen_cfg, dq_cfg, cfg.latent_spec(), np.random.default_rng(0))
    expected = dict(_checkpoint_entries(model))
    if set(expected) != set(loaded):
        missing = sorted(set(expected) - set(loaded))
        extra = sorted(set(loaded) - set(expected))
        raise FormatError(f"{path}: entry names do not match config (missing {missing}, extra {extra})")
    for name, arr in loaded.items():
        if expected[name].shape != arr.shape:
            raise FormatError(f"{path}: entry '{name}' has shape {arr.shape}, expected {expected[name].shape}")
    for name, tensor in model.params.items():
        tensor.data[...] = loaded[name]
    for name, state in model.bn_states.items():
        state.running_mean[...] = loaded[f"{name}.running_mean"]
        state.running_var[...] = loaded[f"{name}.running_var"]
    return model, cfg


# ---------------------------------------------------------------------------
# PGM grids
# ---------------------------------------------------------------------------

def write_image_grid(images: np.ndarray, rows: int, cols: int, dims: tuple[int, int], path: str) -> None:
    """Compose row-major image blocks into one binary PGM (P5, maxval 255)."""
    h, w = dims
    images = np.asarray(images, dtype=np.float64)
    if images.shape != (rows * cols, h * w):
        raise UsageError(f"expected {rows * cols} images of {h * w} pixels, got {images.shape}")
    if images.size and not (images.min() >= 0.0 and images.max() <= 1.0):
        raise UsageError("grid pixel values must lie in [0, 1]")
    grid = images.reshape(rows, cols, h, w).transpose(0, 2, 1, 3).reshape(rows * h, cols * w)
    payload = np.rint(grid * 255.0).astype(np.uint8)
    with atomic_open(path) as f:
        f.write(f"P5\n{cols * w} {rows * h}\n255\n".encode("ascii"))
        f.write(payload.tobytes())
