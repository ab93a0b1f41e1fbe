"""IDX parsing, synthetic templates, checkpoints, and PGM grids."""

import dataclasses
import hashlib
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from infogan_lab import data_io
from infogan_lab.autodiff import TRAIN_DTYPE, UsageError
from infogan_lab.config import ConfigError, TrainingConfig
from infogan_lab.data_io import (
    FormatError,
    load_checkpoint,
    load_mnist_idx,
    save_checkpoint,
    synth_templates,
    write_idx_pair,
    write_image_grid,
)
from infogan_lab.latent import CodeBlock, sample_latent
from infogan_lab.models import gen_forward, init_models


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, (7, 5, 4)).astype(np.uint8)
    labels = rng.integers(0, 10, 7).astype(np.uint8)
    ip, lp = str(tmp_path / "imgs.idx"), str(tmp_path / "lbls.idx")
    write_idx_pair(images, labels, ip, lp)
    return images, labels, ip, lp


class TestIdxLoader:
    def test_round_trip(self, idx_pair):
        images, labels, ip, lp = idx_pair
        ds = load_mnist_idx(ip, lp)
        assert len(ds) == 7 and ds.dims == (5, 4)
        np.testing.assert_array_equal(data_io.float_pixels(ds.images), images.reshape(7, 20) / 255.0)
        np.testing.assert_array_equal(ds.labels, labels)

    def test_pixels_in_unit_interval(self, idx_pair):
        _, _, ip, lp = idx_pair
        ds = load_mnist_idx(ip, lp)
        pixels = data_io.float_pixels(ds.images)
        assert pixels.min() >= 0.0 and pixels.max() <= 1.0

    def test_images_stay_uint8_until_a_batch_is_drawn(self, idx_pair):
        images, _, ip, lp = idx_pair
        ds = load_mnist_idx(ip, lp)
        assert ds.images.dtype == np.uint8 and ds.images.shape == (7, 20)
        np.testing.assert_array_equal(ds.images, images.reshape(7, 20))
        idx = np.array([3, 0, 3, 6])
        batch = data_io.float_pixels(ds.images[idx])
        assert batch.dtype == np.float64
        assert batch.tobytes() == (images.reshape(7, 20).astype(np.float64) / 255.0)[idx].tobytes()

    def test_float_pixels_scales_bytes_and_passes_floats_through(self):
        floats = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        assert data_io.float_pixels(floats) is floats
        assert data_io.float_pixels(np.array([0, 51, 255], np.uint8)).tolist() == [0.0, 0.2, 1.0]

    def test_float_pixels_are_of_the_dtype_asked_for_so_a_float32_dataset_batches_as_float64(self):
        # float pixels are cast as astype casts them, and not copied where they are in the dtype already
        images = np.random.default_rng(4).random((5, 6), dtype=np.float32)
        ds = data_io.Dataset(images=images, labels=None, dims=(2, 3), provenance="x")
        batch = data_io.float_pixels(ds.images[[4, 0, 4]])
        assert batch.dtype == np.float64
        assert batch.tobytes() == images[[4, 0, 4]].astype(np.float64).tobytes()
        f64 = np.random.default_rng(5).random((3, 4))
        got = data_io.float_pixels(f64, np.float32)
        assert got.dtype == np.float32 and got.tobytes() == f64.astype(np.float32).tobytes()
        assert data_io.float_pixels(f64, np.float64) is f64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["to-float32", "to-float64"])
    @pytest.mark.parametrize("given", [np.float16, np.float32, np.float64], ids=["float16", "float32", "float64"])
    def test_float_pixels_of_any_float_dtype_are_astype_in_the_dtype_asked_for(self, given, dtype):
        # every accepted input comes out in ``dtype``; only an array already in it is returned as it is
        pixels = np.random.default_rng(6).random((4, 5)).astype(given)
        got = data_io.float_pixels(pixels, dtype)
        assert got.dtype == dtype and got.tobytes() == pixels.astype(dtype).tobytes()
        assert (got is pixels) == (given is dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_pixels_in_a_dtype_are_the_float64_quotients_rounded_once(self, dtype):
        # a quotient rounded once to float32 must equal the float64 quotient rounded again, for every byte
        every = np.arange(256, dtype=np.uint8)
        batch = np.random.default_rng(3).integers(0, 256, (64, 784)).astype(np.uint8)
        for pixels in (every, batch):
            got = data_io.float_pixels(pixels, dtype)
            assert got.dtype == dtype and got.shape == pixels.shape
            assert got.tobytes() == (pixels / 255.0).astype(dtype).tobytes()

    @pytest.mark.parametrize("dtype", [np.int64, np.int16, np.uint16, np.bool_])
    def test_dataset_rejects_other_integer_dtypes_naming_them(self, dtype):
        images = np.zeros((3, 4), dtype=dtype)
        with pytest.raises(FormatError, match=f"got dtype {np.dtype(dtype)}"):
            data_io.Dataset(images=images, labels=None, dims=(2, 2), provenance="x")

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1])
    def test_dataset_rejects_pixels_outside_unit_interval(self, bad):
        images = np.full((3, 4), 0.5)
        images[1, 2] = bad
        with pytest.raises(FormatError, match=r"pixel values must lie in \[0, 1\]"):
            data_io.Dataset(images=images, labels=None, dims=(2, 2), provenance="x")

    @pytest.mark.parametrize(
        "labels, message",
        [
            (np.array([0.0, 1.0, 2.0]), r"labels must be a 1-D integer array, got dtype float64 with shape \(3,\)"),
            (np.array([True, False, True]), r"labels must be a 1-D integer array, got dtype bool"),
            (np.zeros((3, 1), dtype=np.int64), r"labels must be a 1-D integer array, got dtype int64 with shape \(3, 1\)"),
            (np.array([0, -1, -2]), r"labels must be >= 0, got -1 at index 1"),
        ],
    )
    def test_dataset_rejects_bad_labels_naming_them(self, labels, message):
        with pytest.raises(FormatError, match=message):
            data_io.Dataset(images=np.zeros((3, 4)), labels=labels, dims=(2, 2), provenance="x")

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64])
    def test_dataset_accepts_non_negative_integer_labels(self, dtype):
        ds = data_io.Dataset(images=np.zeros((3, 4)), labels=np.array([0, 2, 1], dtype=dtype), dims=(2, 2), provenance="x")
        assert ds.labels.tolist() == [0, 2, 1]

    def test_rejects_every_single_byte_magic_flip(self, idx_pair, tmp_path):
        _, _, ip, lp = idx_pair
        original = open(ip, "rb").read()
        for offset in range(4):
            for flip in range(1, 256):
                corrupted = bytearray(original)
                corrupted[offset] = corrupted[offset] ^ flip
                bad = tmp_path / "bad.idx"
                bad.write_bytes(bytes(corrupted))
                with pytest.raises(FormatError, match="magic"):
                    load_mnist_idx(str(bad), lp)

    def test_rejects_label_magic(self, idx_pair, tmp_path):
        _, _, ip, lp = idx_pair
        bad = tmp_path / "bad_labels.idx"
        payload = bytearray(open(lp, "rb").read())
        payload[3] = 77
        bad.write_bytes(bytes(payload))
        with pytest.raises(FormatError, match="magic"):
            load_mnist_idx(ip, str(bad))

    def test_truncation_raises_format_error(self, idx_pair, tmp_path):
        _, _, ip, lp = idx_pair
        original = open(ip, "rb").read()
        bad = tmp_path / "trunc.idx"
        bad.write_bytes(original[:-3])
        with pytest.raises(FormatError, match="truncated"):
            load_mnist_idx(str(bad), lp)

    def test_count_mismatch_rejected(self, idx_pair, tmp_path):
        images, labels, ip, _ = idx_pair
        lp2 = str(tmp_path / "short_labels.idx")
        with open(lp2, "wb") as f:
            f.write(struct.pack(">II", 2049, 3))
            f.write(labels[:3].tobytes())
        with pytest.raises(FormatError, match="labels"):
            load_mnist_idx(ip, lp2)

    def test_failed_write_keeps_both_earlier_files_and_leaves_no_temp(self, idx_pair, tmp_path):
        images, _, ip, lp = idx_pair
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(OverflowError):
            write_idx_pair(images[:2], [3, 300], ip, lp)   # 300 does not fit a uint8 label
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("images, labels, named", [
        (np.full((2, 2, 2), 300), [1, 2], "images[0, 0, 0] is 300;"),
        (np.full((2, 2, 2), -1), [1, 2], "images[0, 0, 0] is -1;"),
        (np.array([[[0, 0.5]], [[1, 2]]]), [1, 2], "images[0, 0, 1] is 0.5;"),
        (np.zeros((2, 2, 2), np.uint8), np.array([3, 260]), "labels[1] is 260;"),
        (np.zeros((2, 2, 2), np.uint8), np.array([np.nan, 3]), "labels[0] is nan;"),
    ], ids=["pixel-300", "pixel-minus-1", "pixel-half", "label-260", "label-nan"])
    def test_entry_that_is_not_a_byte_is_refused_before_any_file_is_touched(self, idx_pair, tmp_path, images, labels, named):
        # these used to be written as 44, 255, 0, 4 and 0 without an error
        _, _, ip, lp = idx_pair
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(OverflowError, match=rf"^{re.escape(named)} IDX entries must be integers in \[0, 255\]$"):
            write_idx_pair(images, labels, ip, lp)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("images, labels", [
        (np.zeros((3, 2, 2), np.uint8), np.zeros(5, np.uint8)),
        (np.zeros((3, 2, 2), np.uint8), np.zeros(2, np.uint8)),
        (np.zeros((3, 4), np.uint8), np.zeros(3, np.uint8)),
        (np.zeros((3, 2, 2), np.uint8), np.zeros((3, 1), np.uint8)),
    ], ids=["more-labels", "fewer-labels", "images-2d", "labels-2d"])
    def test_labels_that_do_not_match_the_images_are_refused_before_any_file_is_touched(self, idx_pair, tmp_path, images, labels):
        # the label file's count is the image count, so a mismatch would write a pair that does not load
        _, _, ip, lp = idx_pair
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        message = rf"^an IDX pair needs \(N,H,W\) images and N labels, got images {re.escape(str(images.shape))} and labels {re.escape(str(labels.shape))}$"
        with pytest.raises(UsageError, match=message):
            write_idx_pair(images, labels, ip, lp)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_integer_entries_in_byte_range_round_trip(self, tmp_path):
        images, labels = np.arange(8.0).reshape(2, 2, 2) * 36, [0, 255]
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        write_idx_pair(images, labels, ip, lp)
        ds = load_mnist_idx(ip, lp)
        assert ds.images.tolist() == images.reshape(2, 4).tolist() and ds.labels.tolist() == labels

    def test_uint8_images_are_written_with_one_copy(self, tmp_path):
        # a uint8 stack skips the byte check: beyond the bytes written out, no scan or copy is held
        images = np.zeros((64, 128, 128), np.uint8)
        tracemalloc.start()
        try:
            write_idx_pair(images, np.zeros(64, np.uint8), str(tmp_path / "i.idx"), str(tmp_path / "l.idx"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * images.nbytes, f"traced peak {peak / images.nbytes:.2f}x the images"


# (k, n, sigma, seed, sha256 of the float64 reference's images and labels, sha256 of synth_templates' float32
# images and labels)
_SYNTH_GOLDENS = [
    (4, 8192, 0.05, 0, "006a4830d2c59f6cfbf7b02869ffe72419f30872c0b1684823e8f11798f2676b",
     "7ed0eb660c5bbb6cbba02e92b9170b792166a2b496b579ee7a09192ba1db1e2e"),
    (3, 500, 0.05, 9, "76ddf6218db7c3b9b60861413af2f64ec8ab5a0fc977cc5151cfa3e7463bf9a3",
     "3c88c6cd2f3975be02dc437e1729872260b6e5c6c460d60c54bf971beb511273"),
    (2, 400, 0.0, 1, "1a56adf9e9c6e771d231bc891db1b54d706efa31f929903519fd1e225f059b01",
     "ea41ab5334ae7757d3117af9783b88d91d056dbe55d6b1ba405233a0ad34f27a"),
]


class TestSynthTemplates:
    def test_noiseless_horizontal_bar_geometry(self):
        # force template 0 with dx irrelevant (bar spans all columns)
        ds = synth_templates(2, 400, 0.0, np.random.default_rng(1))
        bar_rows = ds.images[ds.labels == 0]
        assert len(bar_rows) > 0
        for img in bar_rows[:50]:
            assert (img == 1.0).sum() == 16
            assert set(np.nonzero(img.reshape(8, 8).sum(axis=1))[0]) == {3, 4}

    def test_template_frequencies(self):
        n = 10000
        ds = synth_templates(4, n, 0.05, np.random.default_rng(2))
        freq = np.bincount(ds.labels, minlength=4) / n
        sigma = np.sqrt(0.25 * 0.75 / n)
        assert np.all(np.abs(freq - 0.25) < 3 * sigma + 1e-9)

    def test_bitwise_determinism(self):
        a = synth_templates(3, 500, 0.05, np.random.default_rng(9))
        b = synth_templates(3, 500, 0.05, np.random.default_rng(9))
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_pixel_range_clamped(self):
        ds = synth_templates(4, 2000, 0.5, np.random.default_rng(3))
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_invalid_k(self):
        with pytest.raises(UsageError):
            synth_templates(5, 10, 0.0, np.random.default_rng(0))
        with pytest.raises(UsageError):
            synth_templates(1, 10, 0.0, np.random.default_rng(0))

    def test_shifts_move_vertical_bar(self):
        ds = synth_templates(2, 2000, 0.0, np.random.default_rng(4))
        vbars = ds.images[ds.labels == 1]
        col_signatures = {tuple(np.nonzero(img.reshape(8, 8).sum(axis=0))[0]) for img in vbars}
        assert len(col_signatures) == 5  # dx in {-2..2}

    @pytest.mark.parametrize(
        "k, n, sigma, seed, digest64, digest32",
        _SYNTH_GOLDENS,
        ids=["-".join(map(str, case[:5])) for case in _SYNTH_GOLDENS],  # the ids of the float64 pins
    )
    def test_golden_bytes(self, k, n, sigma, seed, digest64, digest32, pinned_on):
        # the draw order (template, shift, then the noise) and the float64 arithmetic fix every reference byte;
        # the returned float32 rows are those bytes rounded once
        ref, labels = _float64_reference(k, n, sigma, seed)
        assert hashlib.sha256(ref.tobytes() + labels.tobytes()).hexdigest() == digest64, pinned_on
        ds = synth_templates(k, n, sigma, np.random.default_rng(seed))
        assert ds.images.dtype == TRAIN_DTYPE and ds.images.shape == (n, 64) and ds.images.flags.c_contiguous
        assert ds.images.tobytes() == ref.astype(TRAIN_DTYPE).tobytes() and ds.labels.tobytes() == labels.tobytes()
        assert hashlib.sha256(ds.images.tobytes() + ds.labels.tobytes()).hexdigest() == digest32, pinned_on

    @pytest.mark.parametrize("rows", [1, 7, 499, 500, 4096])
    def test_chunk_size_moves_no_bit(self, monkeypatch, rows):
        # chunks follow one another in the noise stream, so where they split the rows moves nothing
        monkeypatch.setattr(data_io, "SYNTH_CHUNK_ROWS", rows)
        ds = synth_templates(3, 500, 0.05, np.random.default_rng(9))
        assert ds.images.tobytes() == _float64_reference(3, 500, 0.05, 9)[0].astype(TRAIN_DTYPE).tobytes()

    def test_a_toy_batch_is_passed_to_the_model_as_it_is(self):
        # the toy set is held in the training dtype, so the one conversion a batch meets returns its input
        ds = synth_templates(4, 1000, 0.05, np.random.default_rng(3))
        batch = ds.images[np.random.default_rng(4).integers(0, len(ds), 64)]
        assert data_io.float_pixels(batch, TRAIN_DTYPE) is batch

    def test_a_step_on_the_float32_rows_matches_a_step_on_the_float64_reference(self):
        # d_step rounds float64 rows once into the model's dtype, which synth_templates has already done
        from infogan_lab.trainer import Run, train_step

        cfg = TrainingConfig()
        ref = _float64_reference(cfg.toy_templates, cfg.toy_samples, cfg.toy_noise_sigma, 0)[0]
        ds = synth_templates(cfg.toy_templates, cfg.toy_samples, cfg.toy_noise_sigma, np.random.default_rng(0))
        idx = np.random.default_rng(5).integers(0, cfg.toy_samples, cfg.batch_size)
        results = []
        for rows in (ds.images[idx], ref[idx]):
            run = Run(cfg)
            losses = train_step(run.model, rows, cfg, run.rngs["latent"], run.adam_states).as_floats()
            results.append((losses, {name: b.flat.tobytes() for name, b in run.model.blocks.items()}))
        assert results[0] == results[1]

    def test_peak_memory_stays_near_the_images(self):
        # the float32 images are built in the returned array: beyond them, one chunk's gathered rows and its
        # noise draw (two float64 arrays of SYNTH_CHUNK_ROWS x 64) are held at once. Measured 1.57x at 8192
        # samples (3.3 MB); the bound is that plus 0.15 (315 kB), so one more chunk-sized array (524 kB) fails it
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            ds = synth_templates(4, 8192, 0.05, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratio = peak / ds.images.nbytes
        assert ratio <= 1.72, f"traced peak {ratio:.2f}x the images"


def _float64_reference(k, n, sigma, seed):
    """The toy images and labels in one float64 array: the gather, one whole noise draw, the clamp."""
    rng = np.random.default_rng(seed)
    templates = data_io._make_templates()[:k]
    idx = rng.integers(0, k, size=n)
    dx = rng.integers(-2, 3, size=n)
    table = np.stack([np.roll(templates, s, axis=2) for s in range(-2, 3)], axis=1).reshape(k, 5, 64)
    images = table[idx, dx + 2]
    if sigma > 0:
        images += rng.normal(0.0, sigma, size=(n, 64))
    np.clip(images, 0.0, 1.0, out=images)
    return images, idx.astype(np.int64)


CHECKPOINT_GOLDEN_SHA256 = "7b408eb69cea85ed69768da6fe1f9c98e366e5432ceb7b1d056cf155f4b0f0af"


def small_model(seed=0, batchnorm=False):
    cfg = TrainingConfig(
        seed=seed,
        batchnorm=batchnorm,
        noise_dim=4,
        gen_layers=(8, 12),
        trunk_layers=(12, 8),
        q_hidden=6,
        codes=(CodeBlock.categorical(3), CodeBlock.uniform(-1, 1)),
    )
    gen_cfg, dq_cfg = cfg.net_configs()
    model = init_models(gen_cfg, dq_cfg, cfg.latent_spec(), np.random.default_rng(seed))
    return model, cfg


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model, cfg = small_model(batchnorm=True)
        model.bn_states["gen.bn0"].running_mean[:] = 0.123
        path = str(tmp_path / "m.igan")
        save_checkpoint(model, cfg, path)
        loaded, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name].data, model.params[name].data)
        for name in model.bn_states:
            np.testing.assert_array_equal(
                loaded.bn_states[name].running_mean, model.bn_states[name].running_mean
            )
            np.testing.assert_array_equal(
                loaded.bn_states[name].running_var, model.bn_states[name].running_var
            )

    def test_save_load_save_byte_identical(self, tmp_path):
        model, cfg = small_model(seed=3)
        p1, p2 = str(tmp_path / "a.igan"), str(tmp_path / "b.igan")
        save_checkpoint(model, cfg, p1)
        loaded, cfg2 = load_checkpoint(p1)
        save_checkpoint(loaded, cfg2, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_paths_leave_the_bytes_alone(self, tmp_path):
        # where a run reads and writes is not part of the experiment: no path is embedded
        model, cfg = small_model(seed=3)
        elsewhere = dataclasses.replace(
            cfg, checkpoint_out="a.igan\nseed = 5", metrics_out=" m.csv", mnist_images="x/i", mnist_labels="x/l"
        )
        p1, p2 = tmp_path / "a.igan", tmp_path / "b.igan"
        save_checkpoint(model, cfg, str(p1))
        save_checkpoint(model, elsewhere, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert load_checkpoint(str(p2))[1] == cfg  # a loaded config carries the default paths

    @pytest.mark.parametrize(
        "change",
        [
            {"codes": (CodeBlock.categorical(3), CodeBlock.gaussian(0.0, 1.0))},
            {"noise_kind": "uniform"},
            {"q_hidden": 7},
            {"batchnorm": True},
        ],
        ids=["codes", "noise_kind", "q_hidden", "batchnorm"],
    )
    def test_config_that_does_not_describe_the_model_is_refused(self, tmp_path, change):
        model, cfg = small_model()
        with pytest.raises(UsageError, match=r"m\.igan: the config's latent spec or nets do not describe the model"):
            save_checkpoint(model, dataclasses.replace(cfg, **change), str(tmp_path / "m.igan"))
        assert list(tmp_path.iterdir()) == []

    def test_forward_preserved_bitwise(self, tmp_path):
        model, cfg = small_model(seed=5)
        path = str(tmp_path / "m.igan")
        save_checkpoint(model, cfg, path)
        loaded, _ = load_checkpoint(path)
        batch = sample_latent(cfg.latent_spec(), 6, np.random.default_rng(8))
        np.testing.assert_array_equal(
            gen_forward(model, batch.g_input, training=False).data,
            gen_forward(loaded, batch.g_input, training=False).data,
        )

    def test_truncation_at_every_offset_is_format_error(self, tmp_path):
        model, cfg = small_model(seed=1)
        path = tmp_path / "m.igan"
        save_checkpoint(model, cfg, str(path))
        blob = path.read_bytes()
        bad = tmp_path / "bad.igan"
        for cut in range(len(blob)):
            bad.write_bytes(blob[:cut])
            with pytest.raises(FormatError):
                load_checkpoint(str(bad))

    def test_bad_magic_and_version(self, tmp_path):
        model, cfg = small_model()
        path = tmp_path / "m.igan"
        save_checkpoint(model, cfg, str(path))
        blob = bytearray(path.read_bytes())
        wrong_magic = tmp_path / "magic.igan"
        tampered = bytearray(blob)
        tampered[0] = ord("X")
        wrong_magic.write_bytes(bytes(tampered))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(str(wrong_magic))
        wrong_version = tmp_path / "ver.igan"
        tampered = bytearray(blob)
        tampered[8] = 99
        wrong_version.write_bytes(bytes(tampered))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(str(wrong_version))

    def test_bad_magic_is_shown_as_bytes(self, tmp_path):
        model, cfg = small_model()
        path = tmp_path / "m.igan"
        save_checkpoint(model, cfg, str(path))
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=r"bad magic b'XGAN0001', expected b'IGAN0001'"):
            load_checkpoint(str(path))

    def test_entries_view_the_read_buffer(self, tmp_path):
        # loading makes no second copy of the file: every entry array is a view of the bytes read
        model, cfg = small_model(batchnorm=True)
        path = str(tmp_path / "m.igan")
        save_checkpoint(model, cfg, path)
        data = open(path, "rb").read()
        r = data_io._Reader(data, path)
        r.take(8 + 4)  # magic and version
        r.text(r.u64_le())  # config text
        entries = data_io._read_entries(r, path)
        r.expect_eof()
        buffer = np.frombuffer(data, dtype=np.uint8)
        assert list(entries) == [name for name, _ in data_io._checkpoint_entries(model)]
        for name, arr in entries.items():
            assert np.shares_memory(arr, buffer), name
            np.testing.assert_array_equal(arr, dict(data_io._checkpoint_entries(model))[name])

    @staticmethod
    def _hand_built(path, cfg, entries):
        """Write a checkpoint of ``cfg`` holding ``entries``, (name, array) pairs in order, as save_checkpoint would."""
        config_bytes = data_io.render_config(cfg).encode()
        blob = [data_io.CHECKPOINT_MAGIC, struct.pack("<IQ", data_io.CHECKPOINT_VERSION, len(config_bytes))]
        blob += [config_bytes, struct.pack("<Q", len(entries))]
        for name, arr in entries:
            blob += [struct.pack("<I", len(name)), name.encode(), struct.pack("<I", arr.ndim)]
            blob += [struct.pack(f"<{arr.ndim}Q", *arr.shape), arr.astype("<f8").tobytes()]
        path.write_bytes(b"".join(blob))

    def test_an_entry_written_twice_is_format_error(self, tmp_path):
        # a hand-built file whose entries are the model's plus a second, different copy of gen.l0.w:
        # neither copy may win silently
        model, cfg = small_model()
        entries = data_io._checkpoint_entries(model)
        entries.append(("gen.l0.w", np.ones_like(model.params["gen.l0.w"].data)))
        self._hand_built(tmp_path / "m.igan", cfg, entries)
        with pytest.raises(FormatError, match=r"m\.igan: entry 'gen\.l0\.w' appears twice"):
            load_checkpoint(str(tmp_path / "m.igan"))

    def test_a_checkpoint_of_per_code_q_layers_is_refused_naming_the_entries(self, tmp_path):
        # the layout before Q's head became one output layer: an output layer per categorical code and a
        # mean and a log sigma layer per continuous one, each block's columns of q_head.out as its own entries
        model, cfg = small_model()
        w, b = (model.params[f"q_head.out.{p}"].data for p in "wb")
        cat, cont = model.spec.q_slices()
        old = [("q_head.cat0.w", w[:, cat]), ("q_head.cat0.b", b[cat]),
               ("q_head.cont0.mu.w", w[:, cont.start : cont.start + 1]), ("q_head.cont0.mu.b", b[cont.start : cont.start + 1]),
               ("q_head.cont0.s.w", w[:, cont.stop - 1 : cont.stop]), ("q_head.cont0.s.b", b[cont.stop - 1 : cont.stop])]
        entries = [(n, a) for n, a in data_io._checkpoint_entries(model) if not n.startswith("q_head.out.")] + old
        self._hand_built(tmp_path / "old.igan", cfg, entries)
        message = ("old.igan: entry names do not match config (missing ['q_head.out.b', 'q_head.out.w'], extra "
                   "['q_head.cat0.b', 'q_head.cat0.w', 'q_head.cont0.mu.b', 'q_head.cont0.mu.w', 'q_head.cont0.s.b', 'q_head.cont0.s.w'])")
        with pytest.raises(FormatError, match=re.escape(message)):
            load_checkpoint(str(tmp_path / "old.igan"))

    def test_load_lays_out_without_drawing(self, tmp_path, monkeypatch):
        # the loaded model is built by the layout step alone: no generator is made to draw weights
        model, cfg = small_model(seed=5, batchnorm=True)
        path = str(tmp_path / "m.igan")
        save_checkpoint(model, cfg, path)

        def no_rng(*args, **kwargs):
            raise AssertionError("load_checkpoint made a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        monkeypatch.setattr(np.random, "Generator", no_rng)
        loaded, _ = load_checkpoint(path)
        for name, block in model.blocks.items():
            assert loaded.blocks[name].flat.tobytes() == block.flat.tobytes()

    @pytest.mark.parametrize("field", ["config text", "entry name"])
    def test_non_utf8_text_is_format_error(self, tmp_path, field):
        model, cfg = small_model()
        path = tmp_path / "m.igan"
        save_checkpoint(model, cfg, str(path))
        blob = bytearray(path.read_bytes())
        config_len = struct.unpack("<Q", blob[12:20])[0]
        # config text starts after magic, version and its u64 length; the first
        # entry name after the config, the u64 entry count and the u32 name length
        offset = 20 if field == "config text" else 20 + config_len + 8 + 4
        blob[offset] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=rf"m\.igan: text at offset {offset} is not UTF-8"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("shape", [(2**62, 4), (2**64 - 1, 0)])
    def test_shape_overflow_is_format_error(self, tmp_path, shape):
        model, cfg = small_model()
        path = tmp_path / "m.igan"
        save_checkpoint(model, cfg, str(path))
        blob = bytearray(path.read_bytes())
        # the first entry: u32 name length, name, u32 rank, then one u64 per dim
        at = 20 + struct.unpack("<Q", blob[12:20])[0] + 8
        name_len = struct.unpack("<I", blob[at : at + 4])[0]
        name = blob[at + 4 : at + 4 + name_len].decode()
        at += 4 + name_len
        assert struct.unpack("<I", blob[at : at + 4])[0] == len(shape)
        blob[at + 4 : at + 4 + 8 * len(shape)] = struct.pack("<2Q", *shape)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=rf"m\.igan: entry '{name}' shape .* overflows int64"):
            load_checkpoint(str(path))

    def test_bad_embedded_config_names_the_checkpoint(self, tmp_path):
        model, cfg = small_model()
        path = tmp_path / "m.igan"
        save_checkpoint(model, cfg, str(path))
        blob = path.read_bytes()
        config_len = struct.unpack("<Q", blob[12:20])[0]
        bad = b"code = cat:x\n"
        path.write_bytes(blob[:12] + struct.pack("<Q", len(bad)) + bad + blob[20 + config_len :])
        with pytest.raises(ConfigError, match=r"m\.igan: embedded config: line 1: bad value for code: .*'cat:x'"):
            load_checkpoint(str(path))

    def test_failed_save_keeps_the_earlier_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        model, cfg = small_model()
        path = tmp_path / "m.igan"
        save_checkpoint(model, cfg, str(path))
        before = path.read_bytes()

        class FailsAfterOneEntry(list):
            def __iter__(self):
                yield self[0]
                raise OSError("disk full")

        entries = data_io._checkpoint_entries
        monkeypatch.setattr(data_io, "_checkpoint_entries", lambda m: FailsAfterOneEntry(entries(m)))
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(model, cfg, str(path))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.igan"]

    def test_save_holds_no_second_copy_of_an_entry(self, tmp_path):
        # each entry is written from its own float64 buffer: a tobytes() copy beside it reads 2.00x here
        cfg = TrainingConfig(
            dataset="mnist", noise_dim=62, codes=(CodeBlock.categorical(10), CodeBlock.uniform(-1, 1), CodeBlock.uniform(-1, 1))
        )
        model = init_models(*cfg.net_configs(), cfg.latent_spec(), np.random.default_rng(0))
        largest = 8 * max(arr.size for _, arr in data_io._checkpoint_entries(model))
        tracemalloc.start()
        try:
            save_checkpoint(model, cfg, str(tmp_path / "wide.igan"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * largest, f"traced peak {peak / largest:.2f}x the largest float64 entry ({largest} B)"

    def test_golden_bytes_survive_load_and_resave(self, tmp_path, pinned_on):
        # every layer kind (batchnorm in G, the trunk past its input layer and the Q head; Q's one output
        # layer for both code families) pins its entry names, order and init draws
        cfg = TrainingConfig(
            seed=5,
            batchnorm=True,
            noise_dim=3,
            gen_layers=(7, 9),
            trunk_layers=(10, 6),
            q_hidden=5,
            codes=(
                CodeBlock.categorical(3),
                CodeBlock.uniform(-1, 1),
                CodeBlock.categorical(2),
                CodeBlock.gaussian(0.0, 1.0, 2),
            ),
        )
        gen_cfg, dq_cfg = cfg.net_configs()
        model = init_models(gen_cfg, dq_cfg, cfg.latent_spec(), np.random.default_rng(cfg.seed))
        for i, state in enumerate(model.bn_states.values()):  # running statistics away from their initial values
            state.running_mean[:] = 0.25 * (i + 1)
            state.running_var[:] = 1.5 + i
        p1, p2 = tmp_path / "a.igan", tmp_path / "b.igan"
        save_checkpoint(model, cfg, str(p1))
        assert hashlib.sha256(p1.read_bytes()).hexdigest() == CHECKPOINT_GOLDEN_SHA256, pinned_on
        loaded, cfg2 = load_checkpoint(str(p1))
        save_checkpoint(loaded, cfg2, str(p2))
        assert p2.read_bytes() == p1.read_bytes()

    def test_entries_are_float64_and_load_into_a_float32_model(self, tmp_path):
        model, cfg = small_model(seed=2, batchnorm=True)
        path = tmp_path / "m.igan"
        save_checkpoint(model, cfg, str(path))
        loaded, _ = load_checkpoint(str(path))
        assert loaded.dtype == model.dtype == np.float32
        assert all(s.running_mean.dtype == s.running_var.dtype == np.float32 for s in loaded.bn_states.values())
        # the first entry's bytes in the file are the float32 values widened to <f8
        first = model.params["gen.l0.w"].data
        assert first.astype("<f8").tobytes() in path.read_bytes()

    @staticmethod
    def _widened(model, cfg):
        """A float64 model holding the float32 model's values."""
        wide = init_models(*cfg.net_configs(), cfg.latent_spec(), np.random.default_rng(0), np.float64)
        for name, t in wide.params.items():
            t.data[...] = model.params[name].data
        for name, state in wide.bn_states.items():
            state.running_mean[...], state.running_var[...] = model.bn_states[name].running_mean, model.bn_states[name].running_var
        return wide

    def test_float64_model_of_float32_values_loads_exactly(self, tmp_path):
        # a float64 model holding values float32 can hold, such as a float32 model widened, narrows exactly
        narrow, cfg = small_model(seed=4, batchnorm=True)
        wide = self._widened(narrow, cfg)
        p1, p2 = tmp_path / "wide.igan", tmp_path / "narrow.igan"
        save_checkpoint(wide, cfg, str(p1))
        save_checkpoint(narrow, cfg, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        loaded, _ = load_checkpoint(str(p1))
        assert all(loaded.params[n].data.tobytes() == t.data.tobytes() for n, t in narrow.params.items())

    @pytest.mark.parametrize("where", ["gen.l1.b", "trunk.bn1.running_var"])
    def test_entry_float32_cannot_hold_is_refused_naming_it(self, tmp_path, where):
        # float64 training would leave such entries: each must be refused, never rounded in silence
        model, cfg = small_model(seed=6, batchnorm=True)
        wide = self._widened(model, cfg)
        if where.endswith("running_var"):
            wide.bn_states[where.rsplit(".", 1)[0]].running_var[1] = 1.0 + 2.0**-30
        else:
            wide.params[where].data[-1] = 0.1
        path = tmp_path / "m.igan"
        save_checkpoint(wide, cfg, str(path))
        with pytest.raises(FormatError, match=rf"m\.igan: entry '{re.escape(where)}' holds values that float32 cannot hold exactly"):
            load_checkpoint(str(path))

    def test_entry_beyond_float32_range_is_refused_without_a_warning(self, tmp_path):
        model, cfg = small_model(seed=7)
        wide = self._widened(model, cfg)
        wide.params["q_head.l0.w"].data[0, 0] = 1e300
        path = tmp_path / "m.igan"
        save_checkpoint(wide, cfg, str(path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="entry 'q_head.l0.w' holds values"):
                load_checkpoint(str(path))

    def test_special_values_load_bit_for_bit(self, tmp_path):
        # NaN equals nothing and -0.0 equals 0.0, so each must load through the NaN-aware comparison as
        # the very bits saved; a float32 subnormal must narrow back exactly, not flush to zero
        model, cfg = small_model(seed=8, batchnorm=True)
        special = np.array([np.nan, np.inf, -np.inf, -0.0, np.float32(1e-40), -np.float32(1e-45)], np.float32)
        model.params["gen.l0.w"].data.flat[: special.size] = special
        model.params["q_head.l0.b"].data[0] = np.nan
        model.bn_states["trunk.bn1"].running_mean[0] = -0.0
        model.bn_states["trunk.bn1"].running_var[0] = np.float32(2.0**-149)
        path = str(tmp_path / "m.igan")
        save_checkpoint(model, cfg, path)
        loaded, _ = load_checkpoint(path)
        assert loaded.params["gen.l0.w"].data.flat[: special.size].tobytes() == special.tobytes()
        for name, t in model.params.items():
            assert loaded.params[name].data.tobytes() == t.data.tobytes(), name
        for name, state in model.bn_states.items():
            got = loaded.bn_states[name]
            assert got.running_mean.tobytes() == state.running_mean.tobytes(), name
            assert got.running_var.tobytes() == state.running_var.tobytes(), name

    def test_random_models_round_trip(self, tmp_path):
        for seed in range(10):
            model, cfg = small_model(seed=seed, batchnorm=seed % 2 == 0)
            path = str(tmp_path / f"m{seed}.igan")
            save_checkpoint(model, cfg, path)
            loaded, _ = load_checkpoint(path)
            for name in model.params:
                np.testing.assert_array_equal(loaded.params[name].data, model.params[name].data)


class TestImageGrid:
    def test_all_black_golden_bytes(self, tmp_path):
        path = tmp_path / "b.pgm"
        write_image_grid(np.zeros((1, 64)), 1, 1, (8, 8), str(path))
        assert path.read_bytes() == b"P5\n8 8\n255\n" + bytes(64)

    def test_rounding_rule(self, tmp_path):
        path = tmp_path / "g.pgm"
        write_image_grid(np.array([[1.0, 0.5, 0.0, 1.0]]), 1, 1, (2, 2), str(path))
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([255, 128, 0, 255])

    def test_grid_layout_dims(self, tmp_path):
        path = tmp_path / "grid.pgm"
        write_image_grid(np.zeros((6, 64)), 2, 3, (8, 8), str(path))
        assert path.read_bytes().startswith(b"P5\n24 16\n255\n")

    def test_block_placement(self, tmp_path):
        # image (r=1, c=2) of a 2x3 grid must land in the lower-right block
        images = np.zeros((6, 4))
        images[5] = 1.0
        path = tmp_path / "p.pgm"
        write_image_grid(images, 2, 3, (2, 2), str(path))
        payload = path.read_bytes().split(b"255\n", 1)[1]
        grid = np.frombuffer(payload, dtype=np.uint8).reshape(4, 6)
        assert grid[2:, 4:].min() == 255 and grid[:2].max() == 0

    def test_out_of_range_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            write_image_grid(np.full((1, 4), 1.5), 1, 1, (2, 2), str(tmp_path / "x.pgm"))

    def test_nan_pixel_rejected_and_nothing_written(self, tmp_path):
        # NaN fails every comparison, so a check phrased as "min < 0 or max > 1" would let it through
        with pytest.raises(UsageError, match=r"grid pixel values must lie in \[0, 1\]"):
            write_image_grid(np.array([[0.5, np.nan, 0.5, 0.5]]), 1, 1, (2, 2), str(tmp_path / "x.pgm"))
        assert list(tmp_path.iterdir()) == []

    def test_identical_bytes_across_runs(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.uniform(0, 1, (4, 16))
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_image_grid(images, 2, 2, (4, 4), str(p1))
        write_image_grid(images.copy(), 2, 2, (4, 4), str(p2))
        assert p1.read_bytes() == p2.read_bytes()
