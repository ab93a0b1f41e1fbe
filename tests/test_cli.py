"""Command-line wiring: outputs, exit codes, file artifacts."""

import dataclasses
import warnings

import numpy as np
import pytest

from infogan_lab import cli
from infogan_lab.cli import main
from infogan_lab.config import TrainingConfig
from infogan_lab.data_io import save_checkpoint
from infogan_lab.latent import CodeBlock
from infogan_lab.models import init_models


def _parse_kv(line):
    return dict(pair.split("=", 1) for pair in line.strip().split(" "))


@pytest.fixture
def toy_checkpoint(tmp_path):
    cfg = TrainingConfig(
        seed=0,
        noise_dim=4,
        gen_layers=(8, 12),
        trunk_layers=(12, 8),
        q_hidden=6,
        codes=(CodeBlock.categorical(4), CodeBlock.uniform(-1, 1)),
    )
    gen_cfg, dq_cfg = cfg.net_configs()
    model = init_models(gen_cfg, dq_cfg, cfg.latent_spec(), np.random.default_rng(0))
    path = str(tmp_path / "toy.igan")
    save_checkpoint(model, cfg, path)
    return path


class TestTrainCommand:
    def test_missing_config_exits_1(self, capsys):
        assert main(["train", "--config", "definitely-missing.cfg"]) == 1
        assert "definitely-missing.cfg" in capsys.readouterr().err

    def test_tiny_training_run(self, tmp_path, capsys):
        cfg_text = "\n".join(
            [
                "seed = 5",
                "iterations = 4",
                "batch_size = 8",
                "log_every = 2",
                "toy_samples = 128",
                "noise_dim = 4",
                "gen_layers = 8,12",
                "trunk_layers = 12,8",
                "q_hidden = 6",
                f"checkpoint_out = {tmp_path / 'c.igan'}",
                f"metrics_out = {tmp_path / 'm.csv'}",
            ]
        )
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(cfg_text)
        assert main(["train", "--config", str(cfg_path)]) == 0
        out = _parse_kv(capsys.readouterr().out)
        assert out["iterations"] == "4"
        assert (tmp_path / "c.igan").exists() and (tmp_path / "m.csv").exists()

    def test_bad_config_key_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("not_a_key = 1\n")
        assert main(["train", "--config", str(cfg_path)]) == 1


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify-lemma", "--seed", "1", "--bogus"])
        assert exc.value.code == 2


class TestEvalCommands:
    def test_verify_lemma_line(self, capsys):
        assert main(["verify-lemma", "--seed", "7", "--n-mc", "2000"]) == 0
        out = _parse_kv(capsys.readouterr().out)
        assert float(out["exact_diff"]) <= 1e-12
        assert out["ok"] == "1"
        assert {"lhs_exact", "rhs_exact", "lhs_mc", "rhs_mc"} <= set(out)

    def test_channel_check_line(self, capsys):
        assert main(["channel-check", "--trials", "50", "--seed", "3"]) == 0
        out = _parse_kv(capsys.readouterr().out)
        assert out["ok"] == "1"
        assert abs(float(out["bsc_i"]) - 0.368064) < 1e-6

    def test_gradcheck_line(self, capsys):
        assert main(["gradcheck", "--seeds", "2"]) == 0
        out = _parse_kv(capsys.readouterr().out)
        assert out["ok"] == "1"
        assert float(out["max_op_err"]) <= 1e-5
        assert float(out["full_graph_err"]) <= 1e-5

    def test_eval_mi_on_checkpoint(self, toy_checkpoint, capsys):
        assert main(["eval-mi", "--checkpoint", toy_checkpoint, "--samples", "200"]) == 0
        out = _parse_kv(capsys.readouterr().out)
        assert float(out["h_disc"]) == pytest.approx(np.log(4), abs=1e-9)
        assert out["samples"] == "200"

    def test_eval_mi_missing_checkpoint_exits_1(self, capsys):
        assert main(["eval-mi", "--checkpoint", "nope.igan", "--samples", "200"]) == 1

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_channel_check_without_a_trial_exits_1(self, capsys, trials):
        # zero trials would check nothing and still print ok=1
        assert main(["channel-check", "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--trials must be >= 1, got {trials}" in captured.err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["gradcheck", "--seeds", "0"], "n_seeds"),
            (["verify-lemma", "--seed", "1", "--n-mc", "1"], "n_mc"),
            (["verify-lemma", "--seed", "1", "--n-mc", "0"], "n_mc"),
        ],
    )
    def test_degenerate_count_exits_1_naming_it(self, capsys, argv, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert name in captured.err


class TestChannelCheckRule:
    """A trial's gap is judged as the benchmark judges it: a finite gap is
    >= -1e-12 and within 1e-12 of E[KL], a non-finite one needs
    gap == E[KL] == inf, and a posterior gap passes only if |gap| <= 1e-12."""

    def _run_with(self, monkeypatch, capsys, call, **fields):
        real = cli.channel_bound_check
        calls = []

        def edited(chan):
            calls.append(chan)
            res = real(chan)
            return dataclasses.replace(res, **fields) if len(calls) == call else res

        monkeypatch.setattr(cli, "channel_bound_check", edited)
        code = main(["channel-check", "--trials", "3", "--seed", "3"])
        return code, _parse_kv(capsys.readouterr().out)

    def test_infinite_gap_with_finite_expected_kl_fails(self, monkeypatch, capsys):
        code, out = self._run_with(monkeypatch, capsys, 1, gap=np.inf, expected_kl=0.25)  # first random-Q trial
        assert code == 1
        assert out["ok"] == "0"
        assert out["max_kl_mismatch"] == "inf"

    def test_nan_gap_fails(self, monkeypatch, capsys):
        code, out = self._run_with(monkeypatch, capsys, 1, gap=np.nan)
        assert code == 1
        assert out["ok"] == "0"

    def test_nan_posterior_gap_fails(self, monkeypatch, capsys):
        code, out = self._run_with(monkeypatch, capsys, 2, gap=np.nan)  # first posterior-Q trial
        assert code == 1
        assert out["ok"] == "0"
        assert out["max_posterior_gap"] == "nan"

    def test_infinite_gap_equal_to_expected_kl_passes(self, monkeypatch, capsys):
        code, out = self._run_with(monkeypatch, capsys, 1, gap=np.inf, expected_kl=np.inf)
        assert code == 0
        assert out["ok"] == "1"


class TestVerifyLemmaRule:
    """The exact sides pass only if |lhs - rhs| <= 1e-12; a NaN fails."""

    def _run_with(self, monkeypatch, capsys, **fields):
        real = cli.verify_lemma
        monkeypatch.setattr(cli, "verify_lemma", lambda *a: dataclasses.replace(real(*a), **fields))
        code = main(["verify-lemma", "--seed", "7", "--n-mc", "100"])
        return code, _parse_kv(capsys.readouterr().out)

    @pytest.mark.parametrize("rhs", [np.nan, 0.5 + 2e-12], ids=["nan", "gap"])
    def test_exact_sides_apart_fail(self, monkeypatch, capsys, rhs):
        code, out = self._run_with(monkeypatch, capsys, lhs_exact=0.5, rhs_exact=rhs)
        assert code == 1
        assert out["ok"] == "0"

    def test_exact_sides_within_tolerance_pass(self, monkeypatch, capsys):
        code, out = self._run_with(monkeypatch, capsys, lhs_exact=0.5, rhs_exact=0.5 + 5e-13)
        assert code == 0
        assert out["ok"] == "1"


class TestTraverseCommand:
    def test_continuous_sweep_header_dims(self, toy_checkpoint, tmp_path, capsys):
        out_pgm = tmp_path / "sweep.pgm"
        rc = main(
            [
                "traverse",
                "--checkpoint", toy_checkpoint,
                "--block", "1",
                "--from", "-2", "--to", "2",
                "--steps", "10", "--rows", "5",
                "--out", str(out_pgm),
            ]
        )
        assert rc == 0
        assert out_pgm.read_bytes().startswith(b"P5\n80 40\n255\n")

    def test_categorical_sweeps_all_categories(self, toy_checkpoint, tmp_path, capsys):
        out_pgm = tmp_path / "cat.pgm"
        rc = main(
            ["traverse", "--checkpoint", toy_checkpoint, "--block", "0", "--rows", "3", "--out", str(out_pgm)]
        )
        assert rc == 0
        out = _parse_kv(capsys.readouterr().out)
        assert out["cols"] == "4"
        assert out_pgm.read_bytes().startswith(b"P5\n32 24\n255\n")

    def test_bad_block_exits_1(self, toy_checkpoint, tmp_path):
        assert main(
            ["traverse", "--checkpoint", toy_checkpoint, "--block", "9", "--out", str(tmp_path / "x.pgm")]
        ) == 1


class TestClassifyCommand:
    def test_classify_idx_files(self, toy_checkpoint, tmp_path, capsys):
        from infogan_lab.data_io import write_idx_pair

        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, (40, 8, 8)).astype(np.uint8)
        labels = rng.integers(0, 4, 40).astype(np.uint8)
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        write_idx_pair(images, labels, ip, lp)
        rc = main(
            [
                "classify",
                "--checkpoint", toy_checkpoint,
                "--mnist-images", ip,
                "--mnist-labels", lp,
                "--block", "0",
            ]
        )
        assert rc == 0
        out = _parse_kv(capsys.readouterr().out)
        assert 0.0 <= float(out["error_rate"]) <= 1.0
        assert out["n"] == "40"
