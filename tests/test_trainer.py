"""Adam updates, step isolation, determinism, config parsing, metrics CSV."""

import dataclasses
import hashlib
import math
import re
from collections import defaultdict

import numpy as np
import pytest

from infogan_lab import autodiff
from infogan_lab.config import ConfigError, TrainingConfig, parse_config, render_config
from infogan_lab.latent import CodeBlock
from infogan_lab.models import ParamBlock
from infogan_lab.trainer import (
    AdamState,
    MetricsTrace,
    TrainingError,
    adam_step,
    rng_streams,
    train_run,
    train_step,
)


def tiny_cfg(tmp_path, **kw):
    defaults = dict(
        seed=11,
        iterations=8,
        batch_size=8,
        log_every=2,
        toy_samples=256,
        gen_layers=(16, 24),
        trunk_layers=(24, 16),
        q_hidden=8,
        noise_dim=4,
        checkpoint_out=str(tmp_path / "ckpt.igan"),
        metrics_out=str(tmp_path / "metrics.csv"),
    )
    defaults.update(kw)
    return TrainingConfig(**defaults)


def reference_adam(moments):
    """Per-parameter Adam written out: the formula the fused update must reproduce bit for bit.

    ``moments`` holds the reference's own m, v and per-block clocks; the
    returned function has ``adam_step``'s signature and ignores its states.
    """

    def step(blocks, grads, states, lr, beta1, beta2, epsilon):
        for block in blocks:
            moments["t", block.name] += 1
            t = moments["t", block.name]
            for name, p in block.params.items():
                g = grads[name]
                moments["m", name] = beta1 * moments["m", name] + (1.0 - beta1) * g
                moments["v", name] = beta2 * moments["v", name] + (1.0 - beta2) * g * g
                m_hat = moments["m", name] / (1.0 - beta1**t)
                v_hat = moments["v", name] / (1.0 - beta2**t)
                p.data -= lr * m_hat / (np.sqrt(v_hat) + epsilon)

    return step


def make_block(name, values):
    """A ParamBlock named ``name`` holding a copy of each array in ``values``, in order."""
    block = ParamBlock.allocate(name, {n: np.shape(v) for n, v in values.items()})
    for n, v in values.items():
        block.params[n].data[...] = v
    return block


def _default_shaped_params():
    from infogan_lab.models import init_models

    cfg = TrainingConfig()
    gen_cfg, dq_cfg = cfg.net_configs()
    return init_models(gen_cfg, dq_cfg, cfg.latent_spec(), rng_streams(cfg.seed)["init"])


class TestAdam:
    def test_first_step_closed_form(self):
        block = make_block("w", {"w": [0.0]})
        adam_step([block], {"w": np.array([0.5])}, {}, lr=1e-3, beta1=0.5, beta2=0.999, epsilon=1e-8)
        # m_hat = g, sqrt(v_hat) = |g| on the first step
        expected = -1e-3 * 0.5 / (0.5 + 1e-8)
        assert abs(block.params["w"].data[0] - expected) < 1e-18
        assert abs(block.params["w"].data[0] - (-9.99999980e-4)) < 1e-12

    def test_zero_gradient_keeps_params(self):
        block = make_block("w", {"w": [1.0, -2.0]})
        st = {}
        for _ in range(5):
            adam_step([block], {"w": np.zeros(2)}, st, 1e-2, 0.9, 0.999, 1e-8)
        np.testing.assert_array_equal(block.params["w"].data, [1.0, -2.0])

    def test_descends_quadratic(self):
        # independent scalar reference: 100 steps on f(x)=x^2 from 1.0
        block = make_block("w", {"w": [1.0]})
        st = {}
        for _ in range(100):
            g = 2.0 * block.params["w"].data
            adam_step([block], {"w": g}, st, 1e-2, 0.9, 0.999, 1e-8)
        assert abs(block.params["w"].data[0]) < 0.5

    def test_matches_independent_scalar_recurrence(self):
        rng = np.random.default_rng(3)
        theta, m, v = 0.3, 0.0, 0.0
        block = make_block("w", {"w": [theta]})
        st = {}
        lr, b1, b2, eps = 2e-3, 0.5, 0.999, 1e-8
        for t in range(1, 1001):
            g = float(rng.normal(0, 1))
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
            adam_step([block], {"w": np.array([g])}, st, lr, b1, b2, eps)
            assert abs(block.params["w"].data[0] - theta) < 1e-12

    def test_nan_gradient_names_parameter(self):
        block = make_block("gen", {"gen.l0.w": [1.0]})
        with pytest.raises(TrainingError, match="gen.l0.w"):
            adam_step([block], {"gen.l0.w": np.array([np.nan])}, {}, 1e-3, 0.9, 0.999, 1e-8)

    def test_bitwise_equal_to_per_parameter_reference(self):
        # model-shaped blocks; the trunk is stepped twice per iteration, at two learning rates
        fused, ref = _default_shaped_params(), _default_shaped_params()
        states = {}
        step_ref = reference_adam(defaultdict(float))
        groups = [(("trunk", "d_head"), 2e-4), (("gen",), 1e-3), (("trunk", "q_head"), 3e-4)]
        rng = np.random.default_rng(17)
        for it in range(60):
            for block_names, lr in groups:
                names = [n for b in block_names for n in fused.blocks[b].params]
                # gradients spanning several magnitudes, with exact zeros mixed in
                grads = {n: rng.normal(0, 1, fused.params[n].shape) * 10.0 ** rng.integers(-6, 3) for n in names}
                if it % 7 == 0:
                    grads[names[0]][...] = 0.0
                adam_step([fused.blocks[b] for b in block_names], grads, states, lr, 0.5, 0.999, 1e-8)
                step_ref([ref.blocks[b] for b in block_names], grads, None, lr, 0.5, 0.999, 1e-8)
            for n in fused.params:
                assert fused.params[n].data.tobytes() == ref.params[n].data.tobytes(), (it, n)
        assert {b: st.t for b, st in states.items()} == {"trunk": 120, "d_head": 60, "gen": 60, "q_head": 60}

    def test_nan_mid_block_names_that_parameter_and_moves_nothing(self):
        block = make_block("gen", {name: np.ones(3) for name in ("gen.a", "gen.b", "gen.c")})
        st = {}
        adam_step([block], {name: np.ones(3) for name in block.params}, st, 1e-3, 0.9, 0.999, 1e-8)
        before = block.flat.copy()
        grads = {name: np.ones(3) for name in block.params}
        grads["gen.b"][1] = np.inf
        with pytest.raises(TrainingError, match="non-finite gradient for parameter 'gen.b'"):
            adam_step([block], grads, st, 1e-3, 0.9, 0.999, 1e-8)
        np.testing.assert_array_equal(block.flat, before)
        assert st["gen"].t == 1

    def test_gradient_shape_mismatch_names_parameter(self):
        block = make_block("q_head", {"q_head.w": np.zeros((2, 3)), "q_head.b": np.zeros(3)})
        # same size as the parameter, so a flat concatenation alone would not notice
        bad = {"q_head.w": np.ones((3, 2)), "q_head.b": np.ones(3)}
        with pytest.raises(TrainingError, match=r"gradient for 'q_head.w' has shape \(3, 2\), parameter has \(2, 3\)"):
            adam_step([block], bad, {}, 1e-3, 0.9, 0.999, 1e-8)

    def test_missing_gradient_names_parameter(self):
        block = make_block("gen", {"gen.a": [1.0], "gen.b": [2.0]})
        with pytest.raises(TrainingError, match="no gradient for parameter 'gen.b'"):
            adam_step([block], {"gen.a": np.array([0.5])}, {}, 1e-3, 0.9, 0.999, 1e-8)
        np.testing.assert_array_equal(block.params["gen.a"].data, [1.0])

    def test_misshapen_block_state_names_block_and_moves_nothing(self):
        gen, trunk = make_block("gen", {"gen.a": [1.0]}), make_block("trunk", {"trunk.a": [1.0], "trunk.b": [2.0]})
        st = {"trunk": AdamState(3)}
        grads = {"gen.a": np.array([0.5]), "trunk.a": np.array([0.5]), "trunk.b": np.array([0.5])}
        with pytest.raises(TrainingError, match=r"Adam state for block 'trunk' has shape \(3,\), block has \(2,\)"):
            adam_step([gen, trunk], grads, st, 1e-3, 0.9, 0.999, 1e-8)
        assert list(st) == ["trunk"] and gen.params["gen.a"].data[0] == 1.0


def _param_hashes(model, prefix):
    out = {}
    for name, t in model.params.items():
        if name.startswith(prefix):
            out[name] = hashlib.sha256(t.data.tobytes()).hexdigest()
    return out


class TestTrainStep:
    def test_step_isolation_by_hashing(self, tmp_path):
        from infogan_lab.data_io import synth_templates
        from infogan_lab.models import init_models
        from infogan_lab.trainer import d_step, gq_step

        cfg = tiny_cfg(tmp_path)
        rngs = rng_streams(cfg.seed)
        ds = synth_templates(cfg.toy_templates, cfg.toy_samples, cfg.toy_noise_sigma, rngs["dataset"])
        gen_cfg, dq_cfg = cfg.net_configs()
        model = init_models(gen_cfg, dq_cfg, cfg.latent_spec(), rngs["init"])
        states = {}

        gen_before = _param_hashes(model, "gen")
        q_before = _param_hashes(model, "q_head")
        loss_d = d_step(model, ds.images[:8], cfg, rngs["latent"], states)
        # the D step never modifies gen or q_head parameters
        assert _param_hashes(model, "gen") == gen_before
        assert _param_hashes(model, "q_head") == q_before

        d_before = _param_hashes(model, "d_head")
        gq_step(model, loss_d, cfg, 8, rngs["latent"], states)
        # the G/Q step never modifies d_head parameters
        assert _param_hashes(model, "d_head") == d_before
        assert _param_hashes(model, "gen") != gen_before
        assert _param_hashes(model, "q_head") != q_before

    def test_q_head_moves_with_zero_lambda(self, tmp_path):
        from infogan_lab.data_io import synth_templates
        from infogan_lab.models import init_models

        cfg = tiny_cfg(tmp_path, lambda_disc=0.0, lambda_cont=0.0)
        rngs = rng_streams(cfg.seed)
        ds = synth_templates(cfg.toy_templates, cfg.toy_samples, cfg.toy_noise_sigma, rngs["dataset"])
        gen_cfg, dq_cfg = cfg.net_configs()
        model = init_models(gen_cfg, dq_cfg, cfg.latent_spec(), rngs["init"])
        states = {}
        before = _param_hashes(model, "q_head")
        train_step(model, ds.images[:8], cfg, rngs["latent"], states)
        assert _param_hashes(model, "q_head") != before

    def test_gen_gradient_nonzero(self, tmp_path):
        from infogan_lab.data_io import synth_templates
        from infogan_lab.models import init_models

        cfg = tiny_cfg(tmp_path)
        rngs = rng_streams(cfg.seed)
        ds = synth_templates(cfg.toy_templates, cfg.toy_samples, cfg.toy_noise_sigma, rngs["dataset"])
        gen_cfg, dq_cfg = cfg.net_configs()
        model = init_models(gen_cfg, dq_cfg, cfg.latent_spec(), rngs["init"])
        states = {}
        before = {n: t.data.copy() for n, t in model.blocks["gen"].params.items()}
        train_step(model, ds.images[:8], cfg, rngs["latent"], states)
        moved = sum(np.any(model.params[n].data != before[n]) for n in before)
        assert moved == len(before)

    @staticmethod
    def _default_step_inputs():
        from infogan_lab.data_io import synth_templates
        from infogan_lab.models import init_models

        cfg = TrainingConfig(toy_samples=256)
        rngs = rng_streams(cfg.seed)
        ds = synth_templates(cfg.toy_templates, cfg.toy_samples, cfg.toy_noise_sigma, rngs["dataset"])
        gen_cfg, dq_cfg = cfg.net_configs()
        model = init_models(gen_cfg, dq_cfg, cfg.latent_spec(), rngs["init"])
        states = {}
        return model, ds.images[: cfg.batch_size], cfg, rngs["latent"], states

    def test_default_step_graph_size(self, monkeypatch):
        # pins the fused graph, the pruned sweeps and the linear products the masked rules skip:
        # any regrowth of the per-iteration work fails here
        counts = {"ops": 0, "nodes": 0, "rules": 0, "skipped g @ w.T": 0, "skipped x.T @ g": 0}
        forward_op, tape_exit = autodiff.forward_op, autodiff.Tape.__exit__

        def counting_forward_op(name, inputs, attrs=None):
            counts["ops"] += 1
            return forward_op(name, inputs, attrs)

        def counting_exit(tape, *exc):
            counts["nodes"] += len(tape.nodes)
            return tape_exit(tape, *exc)

        def counting_rule(rule):
            def counted(g, node, need):
                counts["rules"] += 1
                if node.op == "linear":
                    counts["skipped g @ w.T"] += not need[0]
                    counts["skipped x.T @ g"] += not need[1]
                return rule(g, node, need)
            return counted

        monkeypatch.setattr(autodiff, "forward_op", counting_forward_op)
        monkeypatch.setattr(autodiff.Tape, "__exit__", counting_exit)
        monkeypatch.setattr(autodiff, "_OPS", {op: (f, counting_rule(b)) for op, (f, b) in autodiff._OPS.items()})
        train_step(*self._default_step_inputs())
        assert counts == {"ops": 53, "nodes": 79, "rules": 63, "skipped g @ w.T": 4, "skipped x.T @ g": 7}

    def test_d_step_records_no_q_head_parameter(self, tmp_path):
        from infogan_lab.data_io import synth_templates
        from infogan_lab.models import init_models
        from infogan_lab.trainer import d_step

        cfg = tiny_cfg(tmp_path, batchnorm=True)
        rngs = rng_streams(cfg.seed)
        ds = synth_templates(cfg.toy_templates, cfg.toy_samples, cfg.toy_noise_sigma, rngs["dataset"])
        gen_cfg, dq_cfg = cfg.net_configs()
        model = init_models(gen_cfg, dq_cfg, cfg.latent_spec(), rngs["init"])
        states = {}
        d_step(model, ds.images[: cfg.batch_size], cfg, rngs["latent"], states)
        # a parameter points at the last tape that recorded it; these were never recorded before
        recorded = {n for n, p in model.params.items() if p._tape is not None}
        assert recorded == set(model.blocks["trunk"].params) | set(model.blocks["d_head"].params)
        q_bn = model.bn_states["q_head.bn0"]
        np.testing.assert_array_equal(q_bn.running_mean, np.zeros(cfg.q_hidden))
        np.testing.assert_array_equal(q_bn.running_var, np.ones(cfg.q_hidden))

    def test_step_leaves_no_tape_alive(self):
        # the parameters keep a link to the last tape they were recorded on; it must hold no nodes
        model, real, cfg, latent_rng, states = self._default_step_inputs()
        train_step(model, real, cfg, latent_rng, states)
        assert any(p._tape is not None for p in model.params.values())
        assert [n for n, p in model.params.items() if p._tape is not None and p._tape.nodes] == []

    def test_batchnorm_gaussian_steps_match_per_parameter_adam(self, tmp_path, monkeypatch):
        from infogan_lab import trainer
        from infogan_lab.data_io import synth_templates
        from infogan_lab.models import init_models

        cfg = tiny_cfg(tmp_path, batchnorm=True, codes=(CodeBlock.categorical(4), CodeBlock.gaussian(0.0, 1.0)))

        def run(step_fn):
            monkeypatch.setattr(trainer, "adam_step", step_fn)
            rngs = rng_streams(cfg.seed)
            ds = synth_templates(cfg.toy_templates, cfg.toy_samples, cfg.toy_noise_sigma, rngs["dataset"])
            gen_cfg, dq_cfg = cfg.net_configs()
            model = init_models(gen_cfg, dq_cfg, cfg.latent_spec(), rngs["init"])
            states = {}
            for i in range(3):
                train_step(model, ds.images[8 * i : 8 * i + 8], cfg, rngs["latent"], states)
            return {n: t.data.tobytes() for n, t in model.params.items()}

        fused = run(adam_step)
        assert any(".bn" in n for n in fused)
        assert fused == run(reference_adam(defaultdict(float)))

    def test_shared_trunk_adam_clock_ticks_twice(self):
        # the D step and the Q update both step the trunk's AdamState
        model, real, cfg, latent_rng, states = self._default_step_inputs()
        train_step(model, real, cfg, latent_rng, states)
        assert {name: st.t for name, st in states.items()} == {"gen": 1, "d_head": 1, "q_head": 1, "trunk": 2}

    def test_per_name_states_are_ignored_beside_the_block_states(self):
        # the benchmark hands train_step one fresh AdamState per parameter name; those entries
        # must neither break nor change the run, and the block states land beside them
        def run(states):
            model, real, cfg, latent_rng, _ = self._default_step_inputs()
            for _ in range(3):
                train_step(model, real, cfg, latent_rng, states)
            return {n: t.data.tobytes() for n, t in model.params.items()}

        model = self._default_step_inputs()[0]
        per_name = {name: AdamState(t.shape) for name, t in model.params.items()}
        assert run(per_name) == run({})
        assert set(per_name) == set(model.params) | set(model.blocks)
        assert all(per_name[name].t == 0 for name in model.params)


class TestTrainRun:
    def test_deterministic_trace_and_files(self, tmp_path):
        cfg_a = tiny_cfg(tmp_path, checkpoint_out=str(tmp_path / "a.igan"), metrics_out=str(tmp_path / "a.csv"))
        _, trace_a = train_run(cfg_a)
        cfg_b = tiny_cfg(tmp_path, checkpoint_out=str(tmp_path / "b.igan"), metrics_out=str(tmp_path / "b.csv"))
        _, trace_b = train_run(cfg_b)
        assert trace_a.rows == trace_b.rows
        a_csv = open(tmp_path / "a.csv", "rb").read()
        b_csv = open(tmp_path / "b.csv", "rb").read()
        assert a_csv == b_csv

    def test_short_run_fingerprint(self, tmp_path):
        # sha256 of the metrics CSV of a 200-iteration default run: pins the exact arithmetic of the hot path
        cfg = TrainingConfig(
            iterations=200,
            log_every=1,
            checkpoint_out=str(tmp_path / "ckpt.igan"),
            metrics_out=str(tmp_path / "metrics.csv"),
        )
        train_run(cfg)
        digest = hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest()
        assert digest == "b846089c566c0d9ecc203fb0e7b1b78cd5ab706db942e5d4d2daecb847aa4ae1"

    def test_short_batchnorm_run_fingerprint(self, tmp_path):
        # the same for a 100-iteration batchnorm run (default categorical and uniform codes), plus
        # the final parameters and running statistics: pins the batchnorm backward rule's arithmetic
        cfg = TrainingConfig(
            iterations=100,
            log_every=1,
            batchnorm=True,
            checkpoint_out=str(tmp_path / "ckpt.igan"),
            metrics_out=str(tmp_path / "metrics.csv"),
        )
        model, _ = train_run(cfg)
        digest = hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest()
        assert digest == "f5065bd8afbc23d99e4395791f410fcce4e58f01f004b966e31e625174e3926e"
        state = hashlib.sha256()
        for name in sorted(model.params):
            state.update(model.params[name].data.tobytes())
        for name in sorted(model.bn_states):
            state.update(model.bn_states[name].running_mean.tobytes())
            state.update(model.bn_states[name].running_var.tobytes())
        assert sorted(model.bn_states) == ["gen.bn0", "gen.bn1", "q_head.bn0", "trunk.bn1"]
        assert state.hexdigest() == "78f9106afbbf62acd478567bdc87213c242ad78a2d228ee18f8c606ebad63e5e"

    def test_logs_at_requested_cadence(self, tmp_path):
        cfg = tiny_cfg(tmp_path, iterations=7, log_every=3)
        _, trace = train_run(cfg)
        assert trace.column("iter").tolist() == [3, 6, 7]

    def test_missing_mnist_gives_io_error_with_hint(self, tmp_path):
        cfg = tiny_cfg(
            tmp_path,
            dataset="mnist",
            batchnorm=False,
            mnist_images=str(tmp_path / "nope-images"),
            mnist_labels=str(tmp_path / "nope-labels"),
        )
        with pytest.raises(TrainingError, match="mnist_images"):
            train_run(cfg)

    @pytest.mark.parametrize("n_images", [20, 0])
    def test_idx_pair_shorter_than_mnist_subset_is_named(self, tmp_path, n_images):
        # a short pair would otherwise train on fewer images than its provenance claims,
        # and an empty one would fail deep inside the minibatch draw
        from infogan_lab.data_io import write_idx_pair
        from infogan_lab.trainer import build_dataset

        ip, lp = str(tmp_path / "imgs.idx"), str(tmp_path / "lbls.idx")
        write_idx_pair(np.zeros((n_images, 8, 8), np.uint8), np.zeros(n_images, np.uint8), ip, lp)
        cfg = tiny_cfg(tmp_path, dataset="mnist", batchnorm=False, mnist_images=ip, mnist_labels=lp)
        with pytest.raises(TrainingError, match=f"mnist_subset = 10000 but {re.escape(ip)} holds only {n_images} images"):
            build_dataset(cfg, np.random.default_rng(0))

    def test_mnist_pipeline_on_synthesized_idx(self, tmp_path):
        # exercises the full 28x28 path (loader, subset, batchnorm nets, classifier)
        from infogan_lab.data_io import load_mnist_idx, write_idx_pair
        from infogan_lab.evaluate import categorical_classifier_eval
        from infogan_lab.latent import CodeBlock

        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (64, 28, 28)).astype(np.uint8)
        labels = rng.integers(0, 10, 64).astype(np.uint8)
        ip, lp = str(tmp_path / "imgs.idx"), str(tmp_path / "lbls.idx")
        write_idx_pair(images, labels, ip, lp)
        cfg = tiny_cfg(
            tmp_path,
            dataset="mnist",
            iterations=3,
            noise_dim=8,
            codes=(CodeBlock.categorical(10), CodeBlock.uniform(-1, 1), CodeBlock.uniform(-1, 1)),
            mnist_images=ip,
            mnist_labels=lp,
            mnist_subset=48,
        )
        assert cfg.batchnorm is True  # the documented MNIST default
        model, trace = train_run(cfg)
        assert len(trace.rows) >= 1
        ds = load_mnist_idx(ip, lp)
        err, assignment = categorical_classifier_eval(model, ds, 0)
        assert 0.0 <= err <= 1.0 and len(assignment) == 10


class TestMetricsTrace:
    def test_csv_round_trip_full_precision(self, tmp_path):
        trace = MetricsTrace()
        trace.append(1, 1 / 3, -2 / 7, 0.1234567890123456789, -1e-17)
        trace.append(50, 2.0, 3.0, 4.0, 5.0)
        path = str(tmp_path / "m.csv")
        trace.to_csv(path)
        back = MetricsTrace.from_csv(path)
        assert back.rows == trace.rows

    def test_header_format(self, tmp_path):
        trace = MetricsTrace()
        trace.append(1, 0.0, 0.0, 0.0, 0.0)
        path = str(tmp_path / "m.csv")
        trace.to_csv(path)
        assert open(path).readline().strip() == "iter,loss_d,loss_g,li_disc,li_cont"

    def test_failed_write_keeps_the_earlier_file_and_leaves_no_temp(self, tmp_path):
        trace = MetricsTrace()
        trace.append(1, 0.5, 0.25, 0.125, 0.0625)
        path = tmp_path / "m.csv"
        trace.to_csv(str(path))
        before = path.read_bytes()
        trace.append(2, 1.0, 1.0, 1.0, 1.0)
        trace.rows.append((3, "not a float", 0.0, 0.0, 0.0))  # formatting fails after two rows are written
        with pytest.raises(ValueError):
            trace.to_csv(str(path))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv"]

    def test_monotone_iterations_enforced(self):
        trace = MetricsTrace()
        trace.append(5, 0, 0, 0, 0)
        with pytest.raises(TrainingError):
            trace.append(5, 0, 0, 0, 0)

    def test_nonfinite_rejected(self):
        trace = MetricsTrace()
        with pytest.raises(TrainingError):
            trace.append(1, float("nan"), 0, 0, 0)

    @pytest.mark.parametrize("row", ["2,0.5", "", "2,0.5,x,0,0", "2,0.5,0,0,0,0"])
    def test_malformed_row_names_path_and_line(self, tmp_path, row):
        path = tmp_path / "m.csv"
        path.write_text(MetricsTrace.CSV_HEADER + "\n1,0,0,0,0\n" + row + "\n")
        with pytest.raises(TrainingError, match=r"m\.csv line 3: bad metrics row"):
            MetricsTrace.from_csv(str(path))


DEFAULT_CONFIG_TEXT = """\
seed = 42
iterations = 5000
batch_size = 64
lr_d = 0.0002
lr_g = 0.001
beta1 = 0.5
beta2 = 0.999
adam_epsilon = 1e-08
lambda_disc = 1.0
lambda_cont = 0.1
gan_mode = nonsaturating
dataset = toy
noise_dim = 16
noise_kind = normal
code = cat:4
code = unif:-1.0:1.0
gen_layers = 128,256
trunk_layers = 256,128
q_hidden = 64
batchnorm = off
log_every = 50
toy_templates = 4
toy_samples = 8192
toy_noise_sigma = 0.05
mnist_images = data/mnist/train-images-idx3-ubyte
mnist_labels = data/mnist/train-labels-idx1-ubyte
mnist_subset = 10000
checkpoint_out = checkpoint.igan
metrics_out = metrics.csv
"""

# every field away from its default (for its dataset); FULL_MNIST_CFG flips dataset and batchnorm
FULL_CFG = TrainingConfig(
    seed=7,
    iterations=123,
    batch_size=16,
    lr_d=3e-4,
    lr_g=5e-4,
    beta1=0.4,
    beta2=0.99,
    adam_epsilon=1e-7,
    lambda_disc=0.5,
    lambda_cont=0.25,
    gan_mode="minimax",
    noise_dim=5,
    noise_kind="uniform",
    codes=(CodeBlock.categorical(3, [0.2, 0.3, 0.5]), CodeBlock.gaussian(0.5, 2.0, 2), CodeBlock.uniform(-2.0, 2.0, 3)),
    gen_layers=(32,),
    trunk_layers=(48, 24, 12),
    q_hidden=8,
    batchnorm=True,
    log_every=10,
    toy_templates=3,
    toy_samples=100,
    toy_noise_sigma=0.1,
    mnist_images="m/images-idx3",
    mnist_labels="m/labels-idx1",
    mnist_subset=500,
    checkpoint_out="out/run.igan",
    metrics_out="out/run.csv",
)
FULL_MNIST_CFG = dataclasses.replace(FULL_CFG, dataset="mnist", batchnorm=False)

FULL_CONFIG_TEXT = """\
seed = 7
iterations = 123
batch_size = 16
lr_d = 0.0003
lr_g = 0.0005
beta1 = 0.4
beta2 = 0.99
adam_epsilon = 1e-07
lambda_disc = 0.5
lambda_cont = 0.25
gan_mode = minimax
dataset = toy
noise_dim = 5
noise_kind = uniform
code = cat:3:0.2,0.3,0.5
code = gauss:0.5:2.0:2
code = unif:-2.0:2.0:3
gen_layers = 32
trunk_layers = 48,24,12
q_hidden = 8
batchnorm = on
log_every = 10
toy_templates = 3
toy_samples = 100
toy_noise_sigma = 0.1
mnist_images = m/images-idx3
mnist_labels = m/labels-idx1
mnist_subset = 500
checkpoint_out = out/run.igan
metrics_out = out/run.csv
"""


class TestConfig:
    def test_render_text_is_pinned(self):
        # checkpoints embed this text, so any change to it changes every checkpoint's bytes
        assert render_config(TrainingConfig()) == DEFAULT_CONFIG_TEXT
        assert render_config(FULL_CFG) == FULL_CONFIG_TEXT
        mnist_text = FULL_CONFIG_TEXT.replace("dataset = toy", "dataset = mnist").replace("batchnorm = on", "batchnorm = off")
        assert render_config(FULL_MNIST_CFG) == mnist_text

    @pytest.mark.parametrize("cfg", [FULL_CFG, FULL_MNIST_CFG], ids=["toy", "mnist"])
    def test_every_field_round_trips(self, cfg):
        # batchnorm's default depends on dataset, so compare with the defaults for the same dataset
        defaults = TrainingConfig(dataset=cfg.dataset)
        unchanged = [f.name for f in dataclasses.fields(cfg) if getattr(cfg, f.name) == getattr(defaults, f.name)]
        assert unchanged == ["dataset"]
        assert parse_config(render_config(cfg)) == cfg

    def test_defaults_match_documented_values(self):
        cfg = TrainingConfig()
        assert cfg.lr_d == 2e-4 and cfg.lr_g == 1e-3
        assert cfg.beta1 == 0.5 and cfg.beta2 == 0.999
        assert cfg.lambda_disc == 1.0 and cfg.lambda_cont == 0.1
        assert cfg.gan_mode == "nonsaturating"

    def test_batchnorm_default_depends_on_dataset(self):
        assert TrainingConfig(dataset="mnist").batchnorm is True

    def test_parse_render_round_trip(self):
        cfg = TrainingConfig(
            seed=7,
            codes=(CodeBlock.categorical(10), CodeBlock.uniform(-1, 1), CodeBlock.uniform(-1, 1)),
            noise_dim=62,
            dataset="toy",
            lambda_cont=0.05,
        )
        assert parse_config(render_config(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("momentum = 0.9\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nseed = 3\n")
        assert cfg.seed == 3

    def test_code_lines_accumulate_in_order(self):
        cfg = parse_config("code = cat:10\ncode = unif:-1:1\ncode = unif:-1:1\n")
        kinds = [b.kind for b in cfg.codes]
        assert kinds == ["categorical", "uniform", "uniform"]

    def test_invalid_values_rejected(self):
        for text in ("batch_size = 1\n", "lr_d = 0\n", "beta1 = 1.0\n", "gan_mode = foo\n", "lambda_disc = -1\n"):
            with pytest.raises(ConfigError):
                parse_config(text)

    @pytest.mark.parametrize("token", ["cat:x", "cat:1", "unif:1:-1", "beta:2"])
    def test_bad_code_token_names_its_line(self, token):
        with pytest.raises(ConfigError, match=r"line 3: bad value for code: "):
            parse_config(f"seed = 3\n# codes\ncode = {token}\n")

    @pytest.mark.parametrize("line", [
        "q_hidden = 0",
        "toy_noise_sigma = -1",
        "mnist_subset = -5",
        "noise_dim = -1",
        "noise_kind = laplace",
        "gen_layers =",
        "trunk_layers = 0",
        "toy_templates = 7",
        "toy_samples = 0",
        # NaN fails every comparison, so a "<= 0" check alone would let it through
        "lr_d = nan",
        "lr_d = 0",
        "lr_g = inf",
        "lr_g = -1e-3",
        "adam_epsilon = -1",
        "adam_epsilon = 0",
        "adam_epsilon = nan",
        "lambda_disc = inf",
        "lambda_disc = -1",
        "lambda_cont = nan",
        "lambda_cont = -inf",
        "seed = -1",
        "toy_noise_sigma = inf",
    ])
    def test_bad_value_fails_at_parse_naming_its_key(self, line):
        key = line.partition("=")[0].strip()
        with pytest.raises(ConfigError, match=rf"^{key} must "):
            parse_config(f"iterations = 3\n{line}\n")

    @pytest.mark.parametrize("line", ["batchnorm = maybe", "seed = 1.5", "gen_layers = 8,x"])
    def test_unparsable_value_names_its_line_and_key(self, line):
        key, _, value = (part.strip() for part in line.partition("="))
        with pytest.raises(ConfigError, match=rf"^line 2: bad value for {key}: '{re.escape(value)}'$"):
            parse_config(f"iterations = 3\n{line}\n")

    def test_key_given_twice_names_both_lines(self):
        with pytest.raises(ConfigError, match=r"^line 4: key 'seed' repeats line 1$"):
            parse_config("seed = 1\ncode = cat:4\ncode = cat:2\nseed = 2\n")

    def test_codes_is_not_a_key(self):
        with pytest.raises(ConfigError, match=r"^line 1: unknown key 'codes'$"):
            parse_config("codes = cat:4\n")

    @pytest.mark.parametrize("key", ["checkpoint_out", "metrics_out", "mnist_images", "mnist_labels"])
    @pytest.mark.parametrize("path", [" m.csv", "m.csv ", "\tm.csv", "a.igan\nseed = 5", "a\rb", "a\u2028b", "a\x85"])
    def test_path_that_cannot_round_trip_is_rejected(self, key, path):
        # the checkpoint embeds render_config's text, which parse_config strips and splits into lines
        with pytest.raises(ConfigError, match=rf"^{key} must have no surrounding whitespace or line break, got "):
            TrainingConfig(**{key: path})

    @pytest.mark.parametrize("key", ["checkpoint_out", "metrics_out", "mnist_images", "mnist_labels"])
    def test_path_with_inner_spaces_round_trips(self, key):
        cfg = TrainingConfig(**{key: "run 1/out # x = 2.bin"})
        assert parse_config(render_config(cfg)) == cfg

    def test_empty_config_is_valid(self):
        assert parse_config("") == TrainingConfig()


def test_rng_streams_are_independent_and_stable():
    a = rng_streams(123)
    b = rng_streams(123)
    for name in ("init", "dataset", "batches", "latent"):
        np.testing.assert_array_equal(a[name].random(5), b[name].random(5))
    c = rng_streams(124)
    assert not np.allclose(rng_streams(123)["init"].random(5), c["init"].random(5))
