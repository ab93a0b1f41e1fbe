"""Datasets, checkpoint persistence, and image-grid emission.

A ``Dataset`` holds its pixels either as ``uint8`` bytes (an IDX pair keeps
the file's bytes, one per pixel) or as float values in [0, 1]. The toy set
is held in the training dtype (float32): ``synth_templates`` rounds each
pixel once, from its float64 value, as it builds the set, so a toy batch
needs no conversion. ``float_pixels`` is the one conversion, into the dtype
it is given: ``uint8`` becomes ``pixels / 255.0`` divided in that dtype,
and floats are cast to it (not copied where they hold it already, as a toy
batch in the model's dtype is). IDX bytes are thus the one stored form it
still scales. A batch is a selection of stored rows, which the trainer's
``d_step`` and the classifier convert straight into the model's dtype, so no
float64 copy of a whole IDX dataset is ever made; the division is
elementwise, so a converted batch has the same bits as the same rows of a
converted file.

The checkpoint is a little-endian binary: the 8-byte magic ``IGAN0001``, a
u32 format version, the run-config text, then named float64 (``<f8``)
entries for every parameter and batchnorm running statistic. A float32
model's values widen to float64 exactly. Loading rebuilds the model from
the config in the training dtype (float32) and narrows each entry into
place: a parameter into its view of the model's flat block vector, a
running statistic into its array. An entry that float32 cannot hold
exactly, such as one written by float64 training, is refused, so every
tensor is reproduced bitwise or not at all. The config text holds every key
but the four paths, so a rerun gives a byte-identical checkpoint wherever
it writes.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import TRAIN_DTYPE, UsageError
from .config import ConfigError, TrainingConfig, parse_config, render_config
from .models import ModelPair, _layout_models

CHECKPOINT_MAGIC = b"IGAN0001"
CHECKPOINT_VERSION = 1
IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049
_INT64_MAX = 2**63 - 1  # numpy's limit on one dimension and on an array's element count
# synth_templates builds its images this many rows at a time; beside the images it holds a
# float64 scratch of this many rows (512 KiB) for the gathered rows and a noise draw of at most as many
SYNTH_CHUNK_ROWS = 1024


class FormatError(ValueError):
    """A binary file does not match its declared format."""


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "wb", **kwargs):
    """Write ``path`` through a fresh temp file beside it, then ``os.replace`` it into place.

    If the block raises, the temp file is removed and whatever ``path`` held
    before is left untouched, so no reader ever sees a half-written file.
    """
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def float_pixels(pixels: np.ndarray, dtype=np.float64) -> np.ndarray:
    """``pixels`` in ``dtype``: ``uint8`` divided by 255.0 in ``dtype``, floats through ``astype(dtype, copy=False)``.

    A float array already of ``dtype`` is returned as it is. In float32 the
    quotient is rounded once, with no float64 array between; for every byte
    value it has the bits of ``(pixels / 255.0).astype(np.float32)``.
    """
    return np.divide(pixels, 255.0, dtype=dtype) if pixels.dtype == np.uint8 else pixels.astype(dtype, copy=False)


@dataclass
class Dataset:
    """Images with optional labels.

    ``images`` is (N, H*W), either ``uint8`` bytes (an IDX pair) or floats
    in [0, 1] (the toy set, in the training dtype, each pixel rounded once
    when it was built); any other integer (or bool) dtype is rejected. A
    batch is the stored rows ``images[idx]``. ``labels``, when given, is a
    1-D integer array of class indices, each >= 0.
    """

    images: np.ndarray            # (N, H*W) uint8, or floats in [0, 1]
    labels: np.ndarray | None     # (N,) ints >= 0, optional
    dims: tuple[int, int]
    provenance: str

    def __post_init__(self):
        h, w = self.dims
        if self.images.ndim != 2 or self.images.shape[1] != h * w:
            raise FormatError(f"images must be (N, {h * w}), got {self.images.shape}")
        if self.images.dtype == np.uint8:
            pass  # every byte is a valid pixel
        elif self.images.dtype.kind in "biu":
            raise FormatError(f"images must be uint8 or floats in [0, 1], got dtype {self.images.dtype}")
        elif self.images.size and not (self.images.min() >= 0.0 and self.images.max() <= 1.0):
            raise FormatError("pixel values must lie in [0, 1]")
        labels = self.labels
        if labels is not None:
            if labels.ndim != 1 or labels.dtype.kind not in "iu":
                raise FormatError(f"labels must be a 1-D integer array, got dtype {labels.dtype} with shape {labels.shape}")
            if len(labels) != len(self.images):
                raise FormatError(f"{len(self.images)} images but {len(labels)} labels")
            bad = np.flatnonzero(labels < 0)
            if bad.size:
                raise FormatError(f"labels must be >= 0, got {labels[bad[0]]} at index {bad[0]}")

    def __len__(self) -> int:
        return len(self.images)


# ---------------------------------------------------------------------------
# MNIST IDX
# ---------------------------------------------------------------------------

class _Reader:
    """Cursor over bytes; every read is bounds-checked.

    ``take`` returns a view into ``data``, not a copy, so an array built on
    it with ``np.frombuffer`` shares the buffer that was read.
    """

    def __init__(self, data: bytes, what: str):
        self.data = memoryview(data)
        self.pos = 0
        self.what = what

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise FormatError(f"{self.what}: truncated (wanted {n} bytes at offset {self.pos})")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def text(self, n: int) -> str:
        raw = self.take(n)
        try:
            return str(raw, "utf-8")
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
    """Parse the big-endian IDX pair; the images stay ``uint8``, viewing the bytes read."""
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
    images = pixels.reshape(n, rows * cols)
    return Dataset(images=images, labels=labels.astype(np.int64), dims=(rows, cols), provenance="mnist")


def write_idx_pair(images_u8: np.ndarray, labels_u8: np.ndarray, images_path: str, labels_path: str) -> None:
    """Write a (N,H,W) uint8 stack and labels as a standard IDX pair (fixture helper).

    Both files are written atomically, and neither replaces its old version
    unless both writes succeed. An entry that is not an integer in [0, 255]
    is an ``OverflowError`` naming it, and images that are not (N,H,W) or
    labels that are not N values a ``UsageError``; both are raised before
    either file is touched.
    """
    images, labels = _byte_values("images", images_u8), _byte_values("labels", labels_u8)
    if images.ndim != 3 or labels.ndim != 1 or len(images) != len(labels):
        raise UsageError(f"an IDX pair needs (N,H,W) images and N labels, got images {images.shape} and labels {labels.shape}")
    n, h, w = images.shape
    with atomic_open(images_path) as fi, atomic_open(labels_path) as fl:
        fi.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, h, w))
        fi.write(images.tobytes())
        fl.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
        fl.write(labels.tobytes())


def _byte_values(name: str, values) -> np.ndarray:
    arr = np.asarray(values)
    # a uint8 array is neither scanned nor copied; the rest is tested as "not (valid)" so that a NaN is caught
    if arr.dtype != np.uint8 and not np.all(ok := (arr >= 0) & (arr <= 255) & (arr % 1 == 0)):
        at = tuple(int(i) for i in np.argwhere(~ok)[0])
        raise OverflowError(f"{name}{list(at)} is {arr[at]}; IDX entries must be integers in [0, 255]")
    return np.ascontiguousarray(arr, dtype=np.uint8)


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
    dx ~ uniform{-2..2}, gaussian pixel noise, clamped to [0,1].

    The images are held in the training dtype (``TRAIN_DTYPE``, float32), so
    a toy batch reaches the model as it is, with no conversion. They are
    built in the returned array ``SYNTH_CHUNK_ROWS`` rows at a time: a
    chunk's rows are gathered in float64 from a table of every template
    under every shift, its slice of the noise is drawn and added (one slice
    after another, so the stream is that of one whole (n, 64) draw), and the
    clamp writes the chunk into its float32 rows. Each pixel is rounded once,
    here: it is the float64 value (gather, noise, clamp) cast to float32.
    """
    if k not in (2, 3, 4):
        raise UsageError(f"template count must be 2, 3 or 4, got {k}")
    if n < k:
        raise UsageError(f"need at least {k} samples, got {n}")
    templates = _make_templates()[:k]
    idx = rng.integers(0, k, size=n)
    dx = rng.integers(-2, 3, size=n)

    # table[5 * t + s] is template t shifted s - 2 columns to the right, cyclically
    table = np.stack([np.roll(templates, s, axis=2) for s in range(-2, 3)], axis=1).reshape(k * 5, 64)
    images = np.empty((n, 64), dtype=TRAIN_DTYPE)
    # a whole chunk's rows whatever n is: freeing this 512 KiB block (above glibc's initial 128 KiB
    # mmap threshold) raises glibc's mmap and trim thresholds, so a training step's arrays are
    # then reused from the heap instead of faulted in afresh, at every toy_samples
    scratch = np.empty((SYNTH_CHUNK_ROWS, 64))
    for lo in range(0, n, SYNTH_CHUNK_ROWS):
        t, s = idx[lo : lo + SYNTH_CHUNK_ROWS], dx[lo : lo + SYNTH_CHUNK_ROWS]
        chunk = np.take(table, 5 * t + s + 2, axis=0, out=scratch[: len(t)])
        if noise_sigma > 0:
            chunk += rng.normal(0.0, noise_sigma, size=chunk.shape)
        np.clip(chunk, 0.0, 1.0, out=images[lo : lo + len(t)])
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
    if cfg.latent_spec() != model.spec or cfg.net_configs() != (model.gen_cfg, model.dq_cfg):
        raise UsageError(f"{path}: the config's latent spec or nets do not describe the model; nothing written")
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
            f.write(np.ascontiguousarray(arr, dtype="<f8"))  # the array's own buffer, not a tobytes() copy


def _read_entries(r: _Reader, path: str) -> dict[str, np.ndarray]:
    """The named float64 entries at the reader's cursor, each a read-only view of its buffer."""
    loaded: dict[str, np.ndarray] = {}
    n_entries = r.u64_le()
    for _ in range(n_entries):
        name = r.text(r.u32_le())
        if name in loaded:
            raise FormatError(f"{path}: entry '{name}' appears twice")
        ndim = r.u32_le()
        if ndim > 8:
            raise FormatError(f"{path}: implausible rank {ndim} for entry '{name}'")
        shape = tuple(r.u64_le() for _ in range(ndim))
        count = math.prod(shape)
        if count > _INT64_MAX or max(shape, default=0) > _INT64_MAX:
            raise FormatError(f"{path}: entry '{name}' shape {shape} overflows int64")
        loaded[name] = np.frombuffer(r.take(count * 8), dtype="<f8").reshape(shape)
    return loaded


def load_checkpoint(path: str) -> tuple[ModelPair, TrainingConfig]:
    """Rebuild the float32 model from the embedded config and narrow every entry into place, bitwise.

    An entry that float32 cannot hold exactly is a ``FormatError`` naming it.
    """
    with open(path, "rb") as f:
        r = _Reader(f.read(), path)
    magic = bytes(r.take(8))
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

    loaded = _read_entries(r, path)
    r.expect_eof()

    gen_cfg, dq_cfg = cfg.net_configs()
    model = _layout_models(gen_cfg, dq_cfg, cfg.latent_spec(), TRAIN_DTYPE)
    expected = dict(_checkpoint_entries(model))
    if set(expected) != set(loaded):
        missing = sorted(set(expected) - set(loaded))
        extra = sorted(set(loaded) - set(expected))
        raise FormatError(f"{path}: entry names do not match config (missing {missing}, extra {extra})")
    with np.errstate(over="ignore"):  # a value beyond float32's range narrows to inf and is refused below
        for name, arr in loaded.items():
            if expected[name].shape != arr.shape:
                raise FormatError(f"{path}: entry '{name}' has shape {arr.shape}, expected {expected[name].shape}")
            target = expected[name]  # a parameter's view of its block, or a running statistic's array
            target[...] = arr
            # plain equality first; only a NaN, or a value to refuse, takes the NaN-aware comparison
            if not (target == arr).all() and not np.array_equal(target, arr, equal_nan=True):
                raise FormatError(f"{path}: entry '{name}' holds values that {target.dtype} cannot hold exactly")
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
