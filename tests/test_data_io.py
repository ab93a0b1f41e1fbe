"""IDX parsing, synthetic templates, checkpoints, and PGM grids."""

import struct

import numpy as np
import pytest

from infogan_lab import data_io
from infogan_lab.autodiff import UsageError
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
        np.testing.assert_allclose(ds.images, images.reshape(7, 20) / 255.0)
        np.testing.assert_array_equal(ds.labels, labels)

    def test_pixels_in_unit_interval(self, idx_pair):
        _, _, ip, lp = idx_pair
        ds = load_mnist_idx(ip, lp)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1])
    def test_dataset_rejects_pixels_outside_unit_interval(self, bad):
        images = np.full((3, 4), 0.5)
        images[1, 2] = bad
        with pytest.raises(FormatError, match=r"pixel values must lie in \[0, 1\]"):
            data_io.Dataset(images=images, labels=None, dims=(2, 2), provenance="x")

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

    def test_forward_preserved_bitwise(self, tmp_path):
        model, cfg = small_model(seed=5)
        path = str(tmp_path / "m.igan")
        save_checkpoint(model, cfg, path)
        loaded, _ = load_checkpoint(path)
        batch = sample_latent(cfg.latent_spec(), 6, np.random.default_rng(8))
        np.testing.assert_array_equal(
            gen_forward(model, batch, training=False).data,
            gen_forward(loaded, batch, training=False).data,
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
