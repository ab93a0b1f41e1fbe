"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Training-based criteria share module-scoped runs. The MNIST criterion
needs the real IDX files; it skips with instructions when they are absent
(this sandbox cannot download them).
"""

import hashlib
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from infogan_lab import trainer
from infogan_lab.config import TrainingConfig
from infogan_lab.data_io import (
    float_pixels,
    load_checkpoint,
    load_mnist_idx,
    save_checkpoint,
    write_idx_pair,
    write_image_grid,
)
from infogan_lab.evaluate import (
    ChannelSpec,
    categorical_classifier_eval,
    channel_bound_check,
    random_channel,
    random_joint,
    verify_lemma,
)
from infogan_lab.gradsuite import GRAD_STEP, full_loss_graph_check, op_grad_checks
from infogan_lab.latent import CodeBlock, LatentSpec
from infogan_lab.models import init_models
from infogan_lab.trainer import train_run

LN4 = math.log(4.0)

MNIST_DIR = os.environ.get("INFOGAN_MNIST_DIR", os.path.join("data", "mnist"))
MNIST_IMAGES = os.path.join(MNIST_DIR, "train-images-idx3-ubyte")
MNIST_LABELS = os.path.join(MNIST_DIR, "train-labels-idx1-ubyte")


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@dataclass
class Run:
    cfg: TrainingConfig
    model: object
    trace: object
    seconds: float
    checkpoint: str
    metrics: str


def _run(cfg) -> Run:
    start = time.time()
    model, trace = train_run(cfg)
    return Run(
        cfg=cfg,
        model=model,
        trace=trace,
        seconds=time.time() - start,
        checkpoint=cfg.checkpoint_out,
        metrics=cfg.metrics_out,
    )


def _final500_mean(trace) -> float:
    it = trace.column("iter")
    li = trace.column("li_disc")
    return float(li[it > it.max() - 500].mean())


@pytest.fixture(scope="module")
def crit1(tmp_path_factory) -> Run:
    tmp = tmp_path_factory.mktemp("crit1")
    cfg = TrainingConfig(
        log_every=1,
        checkpoint_out=str(tmp / "infogan.igan"),
        metrics_out=str(tmp / "infogan.csv"),
    )
    return _run(cfg)


@pytest.fixture(scope="module")
def crit2(tmp_path_factory) -> Run:
    tmp = tmp_path_factory.mktemp("crit2")
    cfg = TrainingConfig(
        lambda_disc=0.0,
        lambda_cont=0.0,
        log_every=1,
        checkpoint_out=str(tmp / "baseline.igan"),
        metrics_out=str(tmp / "baseline.csv"),
    )
    return _run(cfg)


class TestCriterion1BoundMaximization:
    def test_config_matches_protocol(self, crit1):
        cfg = crit1.cfg
        assert cfg.toy_templates == 4 and cfg.toy_samples == 8192 and cfg.toy_noise_sigma == 0.05
        assert cfg.codes == (CodeBlock.categorical(4), CodeBlock.uniform(-1.0, 1.0))
        assert cfg.noise_dim == 16 and cfg.iterations == 5000 and cfg.batch_size == 64
        assert cfg.lambda_disc == 1.0 and cfg.lambda_cont == 0.1

    def test_final_bound(self, crit1):
        mean = _final500_mean(crit1.trace)
        report("criterion 1 (bound maximization)", mean >= 0.9 * LN4, f"final-500 mean L_I_disc = {mean:.4f}, need >= {0.9 * LN4:.4f}")

    def test_independent_estimator_agrees(self, crit1):
        from infogan_lab.evaluate import estimate_mi_bound

        est = estimate_mi_bound(crit1.model, crit1.cfg.latent_spec(), 10000, np.random.default_rng(0))
        report(
            "criterion 1 (Monte-Carlo estimator)",
            est.li_disc >= 0.9 * LN4,
            f"estimate = {est.li_disc:.4f} +- {est.se_disc:.4f}, H(c) = {est.h_disc:.4f}",
        )

    def test_runtime_budget(self, crit1):
        report("criterion 1 (runtime)", crit1.seconds <= 300.0, f"{crit1.seconds:.0f}s for 5000 iterations, cap 300s")

    def test_headline_hash(self, crit1, pinned_on):
        # the behaviour fingerprint of the headline protocol: a change that leaves the arithmetic alone keeps both
        with open(crit1.metrics, "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest() == (
                "4c294e86ead13f74eba05de1ab62a2f89d6c0b151f3f1ec40681f98650ea231f"
            ), pinned_on
        with open(crit1.checkpoint, "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest() == (
                "14b85fc6d8d5591c82dc6f343a2702d8dd053ff284b018a9257a21b0e55bec66"
            ), pinned_on


class TestCriterion2BaselineSeparation:
    def test_baseline_bound_low(self, crit2):
        mean = _final500_mean(crit2.trace)
        report("criterion 2 (baseline ceiling)", mean <= 0.5 * LN4, f"baseline final-500 mean L_I_disc = {mean:.4f}, cap {0.5 * LN4:.4f}")

    def test_gap(self, crit1, crit2):
        gap = _final500_mean(crit1.trace) - _final500_mean(crit2.trace)
        report("criterion 2 (separation gap)", gap > 0.4 * LN4, f"gap = {gap:.4f}, need > {0.4 * LN4:.4f}")


class TestCriterion3Classification:
    def test_toy_classifier(self, crit1):
        ds = trainer.Run(crit1.cfg).dataset
        err, assignment = categorical_classifier_eval(crit1.model, ds, 0)
        report(
            "criterion 3a (toy classifier)",
            err <= 0.05,
            f"error = {err:.4f}, need <= 0.05, assignment = {assignment}; known negative "
            "result: the bound is maximized by partitions that entangle template with "
            "shift, and fully connected recognition features do not privilege shape "
            "(see README)",
        )

    def test_mnist_classifier(self, tmp_path):
        if not (os.path.exists(MNIST_IMAGES) and os.path.exists(MNIST_LABELS)):
            pytest.skip(
                "MNIST IDX files not found; place train-images-idx3-ubyte and "
                f"train-labels-idx1-ubyte under {MNIST_DIR}/ (or set INFOGAN_MNIST_DIR)"
            )
        cfg = TrainingConfig(
            dataset="mnist",
            iterations=10000,
            noise_dim=62,
            codes=(CodeBlock.categorical(10), CodeBlock.uniform(-1, 1), CodeBlock.uniform(-1, 1)),
            mnist_images=MNIST_IMAGES,
            mnist_labels=MNIST_LABELS,
            checkpoint_out=str(tmp_path / "mnist.igan"),
            metrics_out=str(tmp_path / "mnist.csv"),
        )
        run = _run(cfg)
        ds = load_mnist_idx(MNIST_IMAGES, MNIST_LABELS)
        subset = type(ds)(
            images=ds.images[: cfg.mnist_subset],
            labels=ds.labels[: cfg.mnist_subset],
            dims=ds.dims,
            provenance=ds.provenance,
        )
        err, _ = categorical_classifier_eval(run.model, subset, 0)
        ok = err <= 0.30 and run.seconds <= 1800.0
        report("criterion 3b (MNIST classifier)", ok, f"error = {err:.4f} (cap 0.30), runtime {run.seconds:.0f}s (cap 1800s)")


class TestCriterion4ChannelBound:
    def test_thousand_random_channels(self):
        rng = np.random.default_rng(404)
        worst_neg, worst_mismatch, worst_tight = 0.0, 0.0, 0.0
        # np.maximum keeps a NaN (so the criterion fails), where max() would drop it
        for _ in range(1000):
            res = channel_bound_check(random_channel(rng))
            if math.isfinite(res.gap):
                worst_neg = np.maximum(worst_neg, -min(res.gap, 0.0))
                worst_mismatch = np.maximum(worst_mismatch, abs(res.gap - res.expected_kl))
            else:
                assert res.gap == res.expected_kl == float("inf")
            tight = channel_bound_check(random_channel(rng, q_mode="posterior"))
            worst_tight = np.maximum(worst_tight, abs(tight.gap))
        ok = worst_neg <= 1e-12 and worst_mismatch <= 1e-12 and worst_tight <= 1e-12
        report(
            "criterion 4 (channel bound oracle)",
            ok,
            f"max negative gap {worst_neg:.2e}, max |gap-E[KL]| {worst_mismatch:.2e}, max posterior gap {worst_tight:.2e}",
        )

    def test_bsc_reference_value(self):
        chan = ChannelSpec(
            prior=np.array([0.5, 0.5]),
            conditional=np.array([[0.9, 0.1], [0.1, 0.9]]),
            q_table=np.array([[0.9, 0.1], [0.1, 0.9]]),
        )
        res = channel_bound_check(chan)
        report("criterion 4 (BSC 0.9 value)", abs(res.i_exact - 0.368064) <= 1e-6, f"I = {res.i_exact:.9f}, reference 0.368064")


class TestCriterion5Lemma:
    def test_exact_enumeration_on_thousand_joints(self):
        rng = np.random.default_rng(505)
        worst = 0.0
        for _ in range(1000):
            res = verify_lemma(random_joint(rng), 10, rng)
            worst = np.maximum(worst, abs(res.lhs_exact - res.rhs_exact))  # keeps a NaN, where max() would drop it
        report("criterion 5 (lemma exact)", worst <= 1e-12, f"max |lhs-rhs| = {worst:.2e} over 1000 joints")

    def test_monte_carlo_sides(self):
        rng = np.random.default_rng(506)
        ok = True
        details = []
        for _ in range(5):
            res = verify_lemma(random_joint(rng), 100000, rng)
            ok &= abs(res.lhs_mc - res.lhs_exact) <= 3 * res.lhs_se
            ok &= abs(res.rhs_mc - res.rhs_exact) <= 3 * res.rhs_se
            details.append(f"{abs(res.lhs_mc - res.lhs_exact) / max(res.lhs_se, 1e-300):.2f}se")
        report("criterion 5 (lemma Monte-Carlo)", ok, "lhs deviations: " + ", ".join(details))


class TestCriterion6Gradients:
    def test_catalogue_ops_100_seeds(self):
        assert GRAD_STEP == 1e-6  # the protocol's finite-difference step
        worst = op_grad_checks(n_seeds=100)
        bad = {k: v for k, v in worst.items() if v > 1e-5}
        report(
            "criterion 6 (op gradients)",
            not bad,
            f"worst op {max(worst, key=worst.get)} = {max(worst.values()):.2e} over 100 seeds",
        )

    def test_full_loss_graph_100_seeds(self):
        assert GRAD_STEP == 1e-6  # the protocol's finite-difference step
        worst = full_loss_graph_check(n_seeds=100)
        report("criterion 6 (full loss graph)", worst <= 1e-5, f"max relative error {worst:.2e} over 100 seeds")


class TestCriterion7Entropies:
    def test_closed_forms(self):
        h10 = CodeBlock.categorical(10).entropy()
        hu = CodeBlock.uniform(-1, 1).entropy()
        ok = abs(h10 - 2.302585093) <= 1e-9 and abs(hu - 0.693147181) <= 1e-9
        report("criterion 7 (entropy closed forms)", ok, f"Cat(10) = {h10:.9f}, Unif(-1,1) = {hu:.9f}")


class TestCriterion8Determinism:
    def test_byte_identical_rerun(self, crit1, tmp_path):
        # identical experiment, written to a fresh directory: no path is part of either file's bytes
        rerun = _run(
            replace(crit1.cfg, checkpoint_out=str(tmp_path / "rerun.igan"), metrics_out=str(tmp_path / "rerun.csv"))
        )
        same_ckpt = open(crit1.checkpoint, "rb").read() == open(rerun.checkpoint, "rb").read()
        same_csv = open(crit1.metrics, "rb").read() == open(rerun.metrics, "rb").read()
        report("criterion 8 (determinism)", same_ckpt and same_csv, f"checkpoint identical: {same_ckpt}, metrics identical: {same_csv}")


class TestCriterion9Formats:
    def test_pgm_golden_bytes(self, tmp_path):
        black = tmp_path / "black.pgm"
        write_image_grid(np.zeros((1, 64)), 1, 1, (8, 8), str(black))
        gray = tmp_path / "gray.pgm"
        write_image_grid(np.full((1, 4), 0.5), 1, 1, (2, 2), str(gray))
        ok = black.read_bytes() == b"P5\n8 8\n255\n" + bytes(64)
        ok &= gray.read_bytes() == b"P5\n2 2\n255\n" + bytes([128] * 4)
        report("criterion 9 (PGM golden bytes)", ok, "all-black 8x8 and mid-gray byte 128")

    def test_idx_round_trip_and_magic_rejection(self, tmp_path):
        from infogan_lab.data_io import FormatError

        rng = np.random.default_rng(99)
        images = rng.integers(0, 256, (5, 4, 3)).astype(np.uint8)
        labels = rng.integers(0, 4, 5).astype(np.uint8)
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        write_idx_pair(images, labels, ip, lp)
        ds = load_mnist_idx(ip, lp)
        round_trip = np.array_equal(np.rint(float_pixels(ds.images) * 255).astype(np.uint8), images.reshape(5, 12))
        corrupted = bytearray(open(ip, "rb").read())
        corrupted[2] ^= 0xFF
        bad = tmp_path / "bad.idx"
        bad.write_bytes(bytes(corrupted))
        rejected = False
        try:
            load_mnist_idx(str(bad), lp)
        except FormatError:
            rejected = True
        report("criterion 9 (IDX round trip + magic)", round_trip and rejected, f"round trip: {round_trip}, corrupt magic rejected: {rejected}")

    def test_checkpoint_round_trip_100_models(self, tmp_path):
        ok = True
        for seed in range(100):
            rng = np.random.default_rng(seed)
            spec = LatentSpec(
                blocks=(CodeBlock.categorical(int(rng.integers(2, 5))), CodeBlock.uniform(-1, 1)),
                noise_dim=int(rng.integers(1, 8)),
            )
            cfg = TrainingConfig(
                seed=seed,
                codes=spec.blocks,
                noise_dim=spec.noise_dim,
                gen_layers=(int(rng.integers(4, 12)), int(rng.integers(4, 12))),
                trunk_layers=(int(rng.integers(4, 12)),),
                q_hidden=int(rng.integers(3, 9)),
                batchnorm=bool(seed % 2),
            )
            gen_cfg, dq_cfg = cfg.net_configs()
            model = init_models(gen_cfg, dq_cfg, cfg.latent_spec(), rng)
            path = str(tmp_path / f"m{seed}.igan")
            save_checkpoint(model, cfg, path)
            loaded, _ = load_checkpoint(path)
            for name in model.params:
                ok &= np.array_equal(loaded.params[name].data, model.params[name].data)
            for name in model.bn_states:
                ok &= np.array_equal(loaded.bn_states[name].running_mean, model.bn_states[name].running_mean)
                ok &= np.array_equal(loaded.bn_states[name].running_var, model.bn_states[name].running_var)
        report("criterion 9 (checkpoint bitwise round trip)", ok, "100 random models")


def test_entropy_totals_are_consistent():
    spec = LatentSpec(blocks=(CodeBlock.categorical(10), CodeBlock.uniform(-1, 1)), noise_dim=4)
    assert abs(spec.h_disc + spec.h_cont - (2.302585093 + 0.693147181)) < 1e-8
