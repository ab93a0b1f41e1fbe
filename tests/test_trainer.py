"""Adam updates, step isolation, determinism, config parsing, metrics CSV."""

import dataclasses
import hashlib
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import textwrap
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogan_lab import autodiff, config, trainer
from infogan_lab.config import ConfigError, TrainingConfig, parse_config, render_config
from infogan_lab.latent import CodeBlock, SpecError, parse_block_token
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
        for block, flat_g in zip(blocks, grads):
            moments["t", block.name] += 1
            t = moments["t", block.name]
            start = 0
            for name, p in block.params.items():
                g = flat_g[start : start + p.data.size].reshape(p.shape)
                start += p.data.size
                moments["m", name] = beta1 * moments["m", name] + (1.0 - beta1) * g
                moments["v", name] = beta2 * moments["v", name] + (1.0 - beta2) * g * g
                m_hat = moments["m", name] / (1.0 - beta1**t)
                v_hat = moments["v", name] / (1.0 - beta2**t)
                p.data -= lr * m_hat / (np.sqrt(v_hat) + epsilon)

    return step


def flat_grads(blocks, grads):
    """Per-name gradients gathered into one flat vector per block, in each block's layout."""
    return [np.concatenate([grads[n] for n in block.params], axis=None) for block in blocks]


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
        adam_step([block], [np.array([0.5])], {}, lr=1e-3, beta1=0.5, beta2=0.999, epsilon=1e-8)
        # m_hat = g, sqrt(v_hat) = |g| on the first step
        expected = -1e-3 * 0.5 / (0.5 + 1e-8)
        assert abs(block.params["w"].data[0] - expected) < 1e-18
        assert abs(block.params["w"].data[0] - (-9.99999980e-4)) < 1e-12

    def test_zero_gradient_keeps_params(self):
        block = make_block("w", {"w": [1.0, -2.0]})
        st = {}
        for _ in range(5):
            adam_step([block], [np.zeros(2)], st, 1e-2, 0.9, 0.999, 1e-8)
        np.testing.assert_array_equal(block.params["w"].data, [1.0, -2.0])

    def test_descends_quadratic(self):
        # independent scalar reference: 100 steps on f(x)=x^2 from 1.0
        block = make_block("w", {"w": [1.0]})
        st = {}
        for _ in range(100):
            g = 2.0 * block.params["w"].data
            adam_step([block], [g], st, 1e-2, 0.9, 0.999, 1e-8)
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
            adam_step([block], [np.array([g])], st, lr, b1, b2, eps)
            assert abs(block.params["w"].data[0] - theta) < 1e-12

    def test_gradients_are_left_as_they_were(self):
        block = make_block("gen", {"gen.a": [1.0, 2.0], "gen.b": [3.0]})
        g = np.array([0.5, -0.25, 2.0])
        adam_step([block], [g], {}, 1e-3, 0.9, 0.999, 1e-8)
        np.testing.assert_array_equal(g, [0.5, -0.25, 2.0])

    def test_nan_gradient_names_parameter(self):
        block = make_block("gen", {"gen.l0.w": [1.0]})
        with pytest.raises(TrainingError, match="gen.l0.w"):
            adam_step([block], [np.array([np.nan])], {}, 1e-3, 0.9, 0.999, 1e-8)

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
                flat = flat_grads([fused.blocks[b] for b in block_names], grads)
                adam_step([fused.blocks[b] for b in block_names], flat, states, lr, 0.5, 0.999, 1e-8)
                step_ref([ref.blocks[b] for b in block_names], flat, None, lr, 0.5, 0.999, 1e-8)
            for n in fused.params:
                assert fused.params[n].data.tobytes() == ref.params[n].data.tobytes(), (it, n)
        assert {b: st.t for b, st in states.items()} == {"trunk": 120, "d_head": 60, "gen": 60, "q_head": 60}

    @pytest.mark.parametrize("slice_len, size", [(trainer.ADAM_SLICE, 2 * trainer.ADAM_SLICE + 1237), (1000, 3000), (1, 40)])
    def test_sliced_sweep_is_bitwise_equal_to_reference(self, monkeypatch, slice_len, size):
        # a block spanning several slices, the last one ragged, at the real slice length and two shorter ones
        monkeypatch.setattr(trainer, "ADAM_SLICE", slice_len)
        rng = np.random.default_rng(18)
        values = {"gen.w": rng.normal(0, 1, size), "gen.b": rng.normal(0, 1, 3)}
        fused, ref = make_block("gen", values), make_block("gen", values)
        states = {}
        step_ref = reference_adam(defaultdict(float))
        for _ in range(4):
            grads = {n: rng.normal(0, 1, v.shape) * 10.0 ** rng.integers(-6, 3) for n, v in values.items()}
            adam_step([fused], flat_grads([fused], grads), states, 1e-3, 0.5, 0.999, 1e-8)
            step_ref([ref], flat_grads([ref], grads), None, 1e-3, 0.5, 0.999, 1e-8)
        assert fused.flat.tobytes() == ref.flat.tobytes()
        assert states["gen"].t == 4

    def test_nan_mid_block_names_that_parameter_and_moves_nothing(self):
        block = make_block("gen", {name: np.ones(3) for name in ("gen.a", "gen.b", "gen.c")})
        st = {}
        adam_step([block], [np.ones(9)], st, 1e-3, 0.9, 0.999, 1e-8)
        before = block.flat.copy()
        grads = flat_grads([block], {name: np.ones(3) for name in block.params})
        grads[0][4] = np.inf
        with pytest.raises(TrainingError, match="non-finite gradient for parameter 'gen.b'"):
            adam_step([block], grads, st, 1e-3, 0.9, 0.999, 1e-8)
        np.testing.assert_array_equal(block.flat, before)
        assert st["gen"].t == 1

    @pytest.mark.parametrize("bad_at, name", [(0, "gen.a"), (2, "gen.a"), (3, "gen.b"), (5, "gen.b"), (6, "gen.c"), (8, "gen.c")])
    def test_non_finite_entry_names_the_parameter_whose_view_holds_it(self, bad_at, name):
        # the first bad entry decides, also at each view's first and last element
        block = make_block("gen", {n: np.ones(3) for n in ("gen.a", "gen.b", "gen.c")})
        g = np.ones(9)
        g[bad_at] = np.nan
        g[8] = np.inf
        with pytest.raises(TrainingError, match=f"non-finite gradient for parameter '{name}'"):
            adam_step([block], [g], {}, 1e-3, 0.9, 0.999, 1e-8)
        np.testing.assert_array_equal(block.flat, np.ones(9))

    @pytest.mark.parametrize("shape", [(8,), (10,), (3, 3), (9, 1)])
    def test_gradient_not_of_block_shape_names_block_and_moves_nothing(self, shape):
        # (3, 3) and (9, 1) have the block's size, so a ravel alone would not notice
        gen = make_block("gen", {"gen.a": [1.0]})
        block = make_block("q_head", {"q_head.w": np.zeros((2, 3)), "q_head.b": np.zeros(3)})
        st = {}
        with pytest.raises(TrainingError, match=rf"gradient for block 'q_head' has shape \({shape[0]},"):
            adam_step([gen, block], [np.array([0.5]), np.ones(shape)], st, 1e-3, 0.9, 0.999, 1e-8)
        assert st == {} and gen.params["gen.a"].data[0] == 1.0

    @pytest.mark.parametrize("n_grads", [0, 1, 3])
    def test_gradient_count_must_match_block_count(self, n_grads):
        gen, trunk = make_block("gen", {"gen.a": [1.0]}), make_block("trunk", {"trunk.a": [1.0]})
        st = {}
        with pytest.raises(TrainingError, match=f"adam_step: {n_grads} gradients for 2 blocks"):
            adam_step([gen, trunk], [np.array([0.5])] * n_grads, st, 1e-3, 0.9, 0.999, 1e-8)
        assert st == {} and gen.flat[0] == 1.0 and trunk.flat[0] == 1.0

    def test_misshapen_block_state_names_block_and_moves_nothing(self):
        gen, trunk = make_block("gen", {"gen.a": [1.0]}), make_block("trunk", {"trunk.a": [1.0], "trunk.b": [2.0]})
        st = {"trunk": AdamState(3)}
        grads = [np.array([0.5]), np.array([0.5, 0.5])]
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

    def test_op_outside_its_domain_is_a_training_error_naming_the_iteration(self, tmp_path):
        from infogan_lab.data_io import synth_templates
        from infogan_lab.models import init_models

        cfg = tiny_cfg(tmp_path)
        rngs = rng_streams(cfg.seed)
        ds = synth_templates(cfg.toy_templates, cfg.toy_samples, cfg.toy_noise_sigma, rngs["dataset"])
        model = init_models(*cfg.net_configs(), cfg.latent_spec(), rngs["init"])
        model.params["q_head.cont0.s.b"].data[:] = np.nan  # as weights that diverged would leave it
        message = r"^gaussian_log_q: exp\(-2\*log_sigma\) overflow \(min log_sigma nan\) at iteration 7$"
        with pytest.raises(TrainingError, match=message):
            train_step(model, ds.images[:8], cfg, rngs["latent"], {}, iteration=7)

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
        assert counts == {"ops": 45, "nodes": 71, "rules": 55, "skipped g @ w.T": 4, "skipped x.T @ g": 7}

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

    def test_batchnorm_gaussian_step_works_out_moments_and_inv_var_once(self, tmp_path, monkeypatch):
        # the tape keeps each forward's residuals: one batchnorm forward works out its batch moments
        # once and one gaussian_log_q its inverse variance once, and no backward rule calls either
        # helper again (8 batchnorm forwards and 1 gaussian_log_q forward per step)
        from infogan_lab.data_io import synth_templates
        from infogan_lab.models import init_models

        calls, in_backward = [], [False]

        def counted(name):
            helper = getattr(autodiff, name)

            def run(*args):
                calls.append((name, in_backward[0]))
                return helper(*args)
            return run

        def flagged(rule):
            def run(g, node, need):
                in_backward[0] = True
                try:
                    return rule(g, node, need)
                finally:
                    in_backward[0] = False
            return run

        for name in ("_batch_moments", "_gaussian_inv_var"):
            monkeypatch.setattr(autodiff, name, counted(name))
        monkeypatch.setattr(autodiff, "_OPS", {op: (f, flagged(b)) for op, (f, b) in autodiff._OPS.items()})
        cfg = tiny_cfg(tmp_path, batchnorm=True, codes=(CodeBlock.categorical(4), CodeBlock.gaussian(0.0, 1.0)))
        rngs = rng_streams(cfg.seed)
        ds = synth_templates(cfg.toy_templates, cfg.toy_samples, cfg.toy_noise_sigma, rngs["dataset"])
        gen_cfg, dq_cfg = cfg.net_configs()
        model = init_models(gen_cfg, dq_cfg, cfg.latent_spec(), rngs["init"])
        train_step(model, ds.images[: cfg.batch_size], cfg, rngs["latent"], {})
        assert Counter(name for name, _ in calls) == {"_batch_moments": 8, "_gaussian_inv_var": 1}
        assert [call for call in calls if call[1]] == []

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

    def test_short_run_fingerprint(self, tmp_path, pinned_on):
        # sha256 of the metrics CSV of a 200-iteration default run: pins the exact arithmetic of the hot path
        cfg = TrainingConfig(
            iterations=200,
            log_every=1,
            checkpoint_out=str(tmp_path / "ckpt.igan"),
            metrics_out=str(tmp_path / "metrics.csv"),
        )
        train_run(cfg)
        digest = hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest()
        assert digest == "88249bbb68b1b8172228b3e4a10ba0e789bc5794da70e3e726a4c9179684d664", pinned_on

    def test_short_batchnorm_run_fingerprint(self, tmp_path, pinned_on):
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
        assert digest == "df6300850241f17958a9b27eef0a1688a5fa96326e8124d36401918c303a2c97", pinned_on
        state = hashlib.sha256()
        for name in sorted(model.params):
            state.update(model.params[name].data.tobytes())
        for name in sorted(model.bn_states):
            state.update(model.bn_states[name].running_mean.tobytes())
            state.update(model.bn_states[name].running_var.tobytes())
        assert sorted(model.bn_states) == ["gen.bn0", "gen.bn1", "q_head.bn0", "trunk.bn1"]
        assert state.hexdigest() == "ce719cc0d3e356ef2fe5bcafa18eb5a18bffff85024b77b677079cc15f0e73d0", pinned_on

    def test_short_minimax_multi_block_run_fingerprint(self, tmp_path, pinned_on):
        # the paths the default pins miss: the minimax generator loss, a sum over two categorical
        # blocks in log Q, and the Gaussian log Q of a two-dimensional gauss code
        cfg = TrainingConfig(
            iterations=100,
            log_every=1,
            gan_mode="minimax",
            codes=tuple(parse_block_token(t) for t in ("cat:3", "cat:2", "gauss:0:1:2", "unif:-1:1")),
            noise_dim=8,
            gen_layers=(32, 48),
            trunk_layers=(48, 32),
            q_hidden=16,
            toy_samples=512,
            checkpoint_out=str(tmp_path / "ckpt.igan"),
            metrics_out=str(tmp_path / "metrics.csv"),
        )
        model, _ = train_run(cfg)
        digest = hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest()
        state = hashlib.sha256()
        for name in sorted(model.params):
            state.update(model.params[name].data.tobytes())
        assert digest == "5159467863817515dc61691b158992b0035e9f20f1cdcc743ffb60c5e85d676e", pinned_on
        assert state.hexdigest() == "b618662b12caf48b425b688c660c2c3d1c8202be2859599469e3eb6aadd67b83", pinned_on

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


def _idx_cfg(tmp_path, n_images, **kw):
    """A tiny MNIST-protocol config on an IDX pair of ``n_images`` random 28x28 bytes written under ``tmp_path``."""
    from infogan_lab.data_io import write_idx_pair

    rng = np.random.default_rng(n_images)
    ip, lp = str(tmp_path / "imgs.idx"), str(tmp_path / "lbls.idx")
    write_idx_pair(rng.integers(0, 256, (n_images, 28, 28), dtype=np.uint8),
                   rng.integers(0, 10, n_images).astype(np.uint8), ip, lp)
    return tiny_cfg(
        tmp_path, dataset="mnist", noise_dim=8, mnist_images=ip, mnist_labels=lp, mnist_subset=n_images,
        codes=(CodeBlock.categorical(10), CodeBlock.uniform(-1, 1), CodeBlock.uniform(-1, 1)), **kw,
    )


def _model_bytes(model):
    parts = [b.flat.tobytes() for b in model.blocks.values()]
    parts += [s.running_mean.tobytes() + s.running_var.tobytes() for s in model.bn_states.values()]
    return b"".join(parts)


class TestPixelBatches:
    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16, np.bool_])
    def test_raw_integer_batch_is_rejected_naming_its_dtype(self, tmp_path, dtype):
        from infogan_lab.models import init_models

        cfg = tiny_cfg(tmp_path)
        gen_cfg, dq_cfg = cfg.net_configs()
        model = init_models(gen_cfg, dq_cfg, cfg.latent_spec(), np.random.default_rng(0))
        before = _model_bytes(model)
        batch = np.full((8, 64), 200).astype(dtype)
        with pytest.raises(TrainingError, match=f"got dtype {np.dtype(dtype)}"):
            train_step(model, batch, cfg, np.random.default_rng(1), {})
        assert _model_bytes(model) == before

    def test_uint8_batches_train_like_their_float_batches(self, tmp_path):
        # the benchmark feeds train_step ds.images[idx] itself: bytes must be scaled exactly as ds.batch scales them
        from infogan_lab.models import init_models
        from infogan_lab.trainer import build_dataset

        cfg = _idx_cfg(tmp_path, 96)
        ds = build_dataset(cfg, np.random.default_rng(0))
        assert ds.images.dtype == np.uint8
        runs = []
        for draw in (lambda idx: ds.images[idx], ds.batch):
            rngs = rng_streams(cfg.seed)
            gen_cfg, dq_cfg = cfg.net_configs()
            model = init_models(gen_cfg, dq_cfg, cfg.latent_spec(), rngs["init"])
            states = {}
            for i in range(3):
                idx = rngs["batches"].integers(0, len(ds), size=cfg.batch_size)
                train_step(model, draw(idx), cfg, rngs["latent"], states, iteration=i + 1)
            runs.append(_model_bytes(model))
        assert runs[0] == runs[1]

    def test_no_float64_copy_of_the_whole_dataset(self, tmp_path):
        import tracemalloc

        from infogan_lab.evaluate import categorical_classifier_eval
        from infogan_lab.models import init_models
        from infogan_lab.trainer import build_dataset

        n = 10000
        cfg = _idx_cfg(tmp_path, n)
        gen_cfg, dq_cfg = cfg.net_configs()
        model = init_models(gen_cfg, dq_cfg, cfg.latent_spec(), np.random.default_rng(0))
        tracemalloc.start()
        try:
            ds = build_dataset(cfg, np.random.default_rng(0))
            categorical_classifier_eval(model, ds, 0)
            idx = np.random.default_rng(1).integers(0, n, size=cfg.batch_size)
            train_step(model, ds.images[idx], cfg, np.random.default_rng(2), {})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * 28 * 28 * 8, f"traced peak {peak} B reaches one float64 copy of the dataset"


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

    @pytest.mark.parametrize(
        "token", ["cat:x", "cat:1", "unif:1:-1", "beta:2", "cat:2:nan,1.0", "cat:2:0.5,nan", "gauss:nan:1", "gauss:inf:1"]
    )
    def test_bad_code_token_names_its_line(self, token):
        with pytest.raises(ConfigError, match=r"line 3: bad value for code: "):
            parse_config(f"seed = 3\n# codes\ncode = {token}\n")

    def test_code_without_finite_entropy_names_its_line_and_token(self, recwarn):
        with pytest.raises(ConfigError, match=r"line 3: bad value for code: 'gauss:0:1e-300': .*entropy must be finite"):
            parse_config("seed = 3\n# codes\ncode = gauss:0:1e-300\n")
        cfg = parse_config("seed = 3\n# codes\ncode = unif:0:1e-300\n")
        assert math.isfinite(cfg.latent_spec().blocks[0].entropy())
        assert not recwarn.list, [str(w.message) for w in recwarn.list]

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

    @pytest.mark.parametrize("widths", ["128,,256", "128,", ",128"])
    @pytest.mark.parametrize("key", ["gen_layers", "trunk_layers"])
    def test_empty_width_entry_names_its_line_and_key(self, key, widths):
        with pytest.raises(ConfigError, match=rf"^line 2: bad value for {key}: '{widths}'$"):
            parse_config(f"iterations = 3\n{key} = {widths}\n")

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


# Values drawn per config format (``config._FORMATS``), kept small enough for a 3-step run:
# widths <= 32, batch_size <= 16 and toy_samples <= 256. Floats run from the ordinary to the extreme.
_FLOATS = st.one_of(st.floats(1e-8, 0.999), st.sampled_from([0.0, -1.0, 1e3, 1e300, 1e-300, math.inf, math.nan]))
_VALUES = {
    "int": st.integers(-1, 16),
    "float": _FLOATS,
    "tuple[int, ...]": st.lists(st.integers(0, 32), max_size=3).map(tuple),
    "bool | None": st.booleans(),
}
# keys whose values need a range of their own
_PER_KEY = {
    "toy_samples": st.integers(-1, 256),
    "q_hidden": st.integers(0, 32),
    # each str key's words, and one that none of them takes
    "dataset": st.sampled_from(["toy", "mnist", "other"]),
    "gan_mode": st.sampled_from(["minimax", "nonsaturating", "other"]),
    "noise_kind": st.sampled_from(["normal", "uniform", "other"]),
}
# the run length and every path are fixed by the test: 3 steps, and no MNIST file to find
_FIXED = ("iterations", "checkpoint_out", "metrics_out", "mnist_images", "mnist_labels")
_KEY_LINES = {
    f.name: (_PER_KEY[f.name] if f.name in _PER_KEY else _VALUES[f.type]).map(
        lambda v, f=f: f"{f.name} = {config._FORMATS[f.type][1](v)}")
    for f in dataclasses.fields(TrainingConfig) if f.name != "codes" and f.name not in _FIXED
}
# a few keys per config, so that about a third of the configs parse and train
_CONFIG_LINES = st.lists(st.sampled_from(sorted(_KEY_LINES)), max_size=6, unique=True).flatmap(
    lambda keys: st.tuples(*(_KEY_LINES[key] for key in keys)))
# code tokens: cat:K[:p,...], unif:lo:hi[:dim], gauss:mean:sigma[:dim]
_DIM = st.sampled_from(["", ":0", ":1", ":2", ":3"])
_PROBS = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4).filter(lambda w: sum(w) > 0).map(
    lambda w: [x / sum(w) for x in w])
_CODE_TOKENS = st.one_of(
    st.integers(0, 5).map(lambda k: f"cat:{k}"),
    _PROBS.map(lambda p: f"cat:{len(p)}:" + ",".join(map(repr, p))),
    st.tuples(_FLOATS, _FLOATS, _DIM).map(lambda t: f"unif:{min(t[:2])!r}:{max(t[:2])!r}{t[2]}"),
    st.tuples(_FLOATS, _FLOATS, _DIM).map(lambda t: f"gauss:{t[0]!r}:{t[1]!r}{t[2]}"),
)


@settings(max_examples=30, deadline=None)
@given(lines=_CONFIG_LINES, codes=st.lists(_CODE_TOKENS, max_size=3))
def test_every_config_that_parses_trains_three_steps_or_names_its_fault(lines, codes):
    with tempfile.TemporaryDirectory() as tmp:
        fixed = ["iterations = 3", *(f"{key} = {os.path.join(tmp, key)}" for key in _FIXED[1:])]
        text = "\n".join([*lines, *(f"code = {token}" for token in codes), *fixed]) + "\n"
        try:
            cfg = parse_config(text)
            _, trace = train_run(cfg)
        except (ConfigError, SpecError, TrainingError):
            return
    assert trace.rows and np.all(np.isfinite([row[1:] for row in trace.rows])), text


def test_rng_streams_are_independent_and_stable():
    a = rng_streams(123)
    b = rng_streams(123)
    for name in ("init", "dataset", "batches", "latent"):
        np.testing.assert_array_equal(a[name].random(5), b[name].random(5))
    c = rng_streams(124)
    assert not np.allclose(rng_streams(123)["init"].random(5), c["init"].random(5))


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="glibc's malloc decides whether a step's arrays come back from the heap or fresh mmaps",
)
def test_default_step_reuses_heap_pages():
    # glibc raises its mmap threshold only when a large mmapped block is freed; the whole-array
    # noise draw in synth_templates is such a block, so the step's 128-800 KB arrays come from the
    # heap afterwards. Without that raise (a chunked noise draw) each step faults its arrays back
    # in, about 1000 minor faults per step; with it, about 1. A fresh process starts glibc cold.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = textwrap.dedent(
        """
        import resource
        from infogan_lab.config import TrainingConfig
        from infogan_lab.models import init_models
        from infogan_lab.trainer import build_dataset, rng_streams, train_step

        cfg = TrainingConfig()
        rngs = rng_streams(cfg.seed)
        ds = build_dataset(cfg, rngs["dataset"])
        model = init_models(*cfg.net_configs(), cfg.latent_spec(), rngs["init"])
        adam = {}

        def step():
            idx = rngs["batches"].integers(0, len(ds), size=cfg.batch_size)
            train_step(model, ds.batch(idx), cfg, rngs["latent"], adam)

        for _ in range(5):
            step()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            step()
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
        """
    )
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    faults_per_step = float(out.stdout.strip().splitlines()[-1])
    assert faults_per_step < 100, f"{faults_per_step} minor page faults per default step"
