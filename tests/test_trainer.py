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
import warnings
from collections import defaultdict

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
    Run,
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
    """Per-parameter Adam written out on scaled moments: the formula the fused update must reproduce bit for bit.

    ``moments`` holds the reference's own m~, v~ and per-block clocks; the
    returned function has ``adam_step``'s signature and ignores its states.
    The step is alpha' * (m~ / (sqrt(v~) + eps')), with m~ = m / (1 - beta1),
    v~ = v / (1 - beta2), alpha' = alpha_t * (1 - beta1) / sqrt(1 - beta2) and
    eps' = eps_hat / sqrt(1 - beta2): Kingma and Ba's folded step
    alpha_t * m / (sqrt(v) + eps_hat) in exact arithmetic.
    """

    def step(blocks, states, lr, beta1, beta2, epsilon):
        for block in blocks:
            flat_g = block.grad
            moments["t", block.name] += 1
            t = moments["t", block.name]
            alpha_t = lr * math.sqrt(1.0 - beta2**t) / (1.0 - beta1**t)
            eps_hat = epsilon * math.sqrt(1.0 - beta2**t)
            alpha_p, eps_p = alpha_t * (1.0 - beta1) / math.sqrt(1.0 - beta2), eps_hat / math.sqrt(1.0 - beta2)
            start = 0
            for name, p in block.params.items():
                g = flat_g[start : start + p.data.size].reshape(p.shape)
                start += p.data.size
                moments["m", name] = beta1 * moments["m", name] + g
                moments["v", name] = beta2 * moments["v", name] + g * g
                p.data -= alpha_p * (moments["m", name] / (np.sqrt(moments["v", name]) + eps_p))

    return step


def write_grads(blocks, grads):
    """Each flat gradient written into its block's buffer, as a training sweep writes it; the blocks."""
    for block, g in zip(blocks, grads, strict=True):
        block.grad[...] = g
    return blocks


def flat_grads(blocks, grads):
    """Per-name gradients gathered into one flat vector per block, in each block's layout."""
    return [np.concatenate([grads[n] for n in block.params], axis=None) for block in blocks]


def make_block(name, values, dtype=np.float64):
    """A ``dtype`` ParamBlock named ``name`` holding a copy of each array in ``values``, in order."""
    block = ParamBlock.allocate(name, {n: np.shape(v) for n, v in values.items()}, dtype)
    for n, v in values.items():
        block.params[n].data[...] = v
    return block


# the MNIST protocol's shape: cat:10 and two unif codes, noise 62, batchnorm in both nets
_MNIST_SHAPE_CFG = TrainingConfig(
    dataset="mnist", noise_dim=62, codes=tuple(map(parse_block_token, ("cat:10", "unif:-1:1", "unif:-1:1")))
)


def _default_shaped_params():
    return Run(TrainingConfig()).model


class TestAdam:
    def test_first_step_closed_form(self):
        block = make_block("w", {"w": [0.0]})
        adam_step(write_grads([block], [np.array([0.5])]), {}, lr=1e-3, beta1=0.5, beta2=0.999, epsilon=1e-8)
        # m_hat = g, sqrt(v_hat) = |g| on the first step
        expected = -1e-3 * 0.5 / (0.5 + 1e-8)
        assert abs(block.params["w"].data[0] - expected) < 1e-18
        assert abs(block.params["w"].data[0] - (-9.99999980e-4)) < 1e-12

    def test_zero_gradient_keeps_params(self):
        block = make_block("w", {"w": [1.0, -2.0]})
        st = {}
        for _ in range(5):
            adam_step(write_grads([block], [np.zeros(2)]), st, 1e-2, 0.9, 0.999, 1e-8)
        np.testing.assert_array_equal(block.params["w"].data, [1.0, -2.0])

    def test_descends_quadratic(self):
        # independent scalar reference: 100 steps on f(x)=x^2 from 1.0
        block = make_block("w", {"w": [1.0]})
        st = {}
        for _ in range(100):
            g = 2.0 * block.params["w"].data
            adam_step(write_grads([block], [g]), st, 1e-2, 0.9, 0.999, 1e-8)
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
            adam_step(write_grads([block], [np.array([g])]), st, lr, b1, b2, eps)
            assert abs(block.params["w"].data[0] - theta) < 1e-12

    def test_float32_block_matches_float32_scalar_recurrence_bit_for_bit(self):
        # the step on scaled moments in float32 scalars: each Python-float constant rounds to float32
        # once, as it does against a float32 array, and every operation is one correctly rounded float32 op
        rng = np.random.default_rng(3)
        f32 = np.float32
        theta, m, v = f32(0.3), f32(0.0), f32(0.0)
        block = make_block("w", {"w": [theta]}, np.float32)
        st = {}
        lr, b1, b2, eps = 2e-3, 0.5, 0.999, 1e-8
        for t in range(1, 1001):
            g = f32(rng.normal(0, 1))
            m = m * f32(b1) + g
            v = v * f32(b2) + g * g
            root, scale = math.sqrt(1 - b2**t), math.sqrt(1 - b2)
            alpha_p, eps_p = lr * root / (1 - b1**t) * (1 - b1) / scale, eps * root / scale
            theta = theta - m / (np.sqrt(v) + f32(eps_p)) * f32(alpha_p)
            adam_step(write_grads([block], [np.array([g])]), st, lr, b1, b2, eps)
            assert type(theta) is np.float32
            assert block.params["w"].data.tobytes() == theta.tobytes(), t
        assert st["w"].m.dtype == st["w"].v.dtype == np.float32

    def test_gradients_are_left_as_they_were(self):
        block = make_block("gen", {"gen.a": [1.0, 2.0], "gen.b": [3.0]})
        adam_step(write_grads([block], [[0.5, -0.25, 2.0]]), {}, 1e-3, 0.9, 0.999, 1e-8)
        np.testing.assert_array_equal(block.grad, [0.5, -0.25, 2.0])

    def test_nan_gradient_names_parameter(self):
        block = make_block("gen", {"gen.l0.w": [1.0]})
        with pytest.raises(TrainingError, match="gen.l0.w"):
            adam_step(write_grads([block], [np.array([np.nan])]), {}, 1e-3, 0.9, 0.999, 1e-8)

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
                grads = {n: g.astype(fused.dtype) for n, g in grads.items()}
                if it % 7 == 0:
                    grads[names[0]][...] = 0.0
                flat = flat_grads([fused.blocks[b] for b in block_names], grads)
                adam_step(write_grads([fused.blocks[b] for b in block_names], flat), states, lr, 0.5, 0.999, 1e-8)
                step_ref(write_grads([ref.blocks[b] for b in block_names], flat), None, lr, 0.5, 0.999, 1e-8)
            for n in fused.params:
                assert fused.params[n].data.tobytes() == ref.params[n].data.tobytes(), (it, n)
        assert {b: st.t for b, st in states.items()} == {"trunk": 120, "d_head": 60, "gen": 60, "q_head": 60}

    @pytest.mark.parametrize(
        "slice_len, size, dtype",
        [pytest.param(n, size, dtype, id=f"{n}-{size}{suffix}")
         for dtype, suffix in ((np.float64, ""), (np.float32, "-float32"))
         for n, size in ((trainer.ADAM_SLICE, 2 * trainer.ADAM_SLICE + 1237), (1000, 3000), (1, 40))],
    )
    def test_sliced_sweep_is_bitwise_equal_to_reference(self, monkeypatch, slice_len, size, dtype):
        # a block spanning several slices, the last one ragged, at the real slice length and two shorter ones
        monkeypatch.setattr(trainer, "ADAM_SLICE", slice_len)
        rng = np.random.default_rng(18)
        values = {"gen.w": rng.normal(0, 1, size), "gen.b": rng.normal(0, 1, 3)}
        fused, ref = make_block("gen", values, dtype), make_block("gen", values, dtype)
        states = {}
        step_ref = reference_adam(defaultdict(float))
        for _ in range(4):
            grads = {n: (rng.normal(0, 1, v.shape) * 10.0 ** rng.integers(-6, 3)).astype(dtype) for n, v in values.items()}
            adam_step(write_grads([fused], flat_grads([fused], grads)), states, 1e-3, 0.5, 0.999, 1e-8)
            step_ref(write_grads([ref], flat_grads([ref], grads)), None, 1e-3, 0.5, 0.999, 1e-8)
        assert fused.flat.tobytes() == ref.flat.tobytes()
        assert states["gen"].t == 4

    def test_nan_mid_block_names_that_parameter_and_moves_nothing(self):
        block = make_block("gen", {name: np.ones(3) for name in ("gen.a", "gen.b", "gen.c")})
        st = {}
        adam_step(write_grads([block], [np.ones(9)]), st, 1e-3, 0.9, 0.999, 1e-8)
        before = block.flat.copy()
        grads = flat_grads([block], {name: np.ones(3) for name in block.params})
        grads[0][4] = np.inf
        with pytest.raises(TrainingError, match="non-finite gradient for parameter 'gen.b'"):
            adam_step(write_grads([block], grads), st, 1e-3, 0.9, 0.999, 1e-8)
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
            adam_step(write_grads([block], [g]), {}, 1e-3, 0.9, 0.999, 1e-8)
        np.testing.assert_array_equal(block.flat, np.ones(9))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("cfg", [TrainingConfig(), _MNIST_SHAPE_CFG], ids=["default", "mnist-shape"])
    def test_each_block_gradient_buffer_has_the_block_layout_shape_and_dtype(self, cfg, dtype):
        # adam_step reads block.grad unchecked: it must be the flat vector's shape and dtype, and each
        # parameter's gradient view must sit where that parameter's view sits in the flat vector
        from infogan_lab.models import init_models

        gen_cfg, dq_cfg = cfg.net_configs()
        model = init_models(gen_cfg, dq_cfg, cfg.latent_spec(), np.random.default_rng(0), dtype)
        for block in model.blocks.values():
            assert block.grad.shape == block.flat.shape and block.grad.dtype == block.flat.dtype == dtype
            assert block.grad.flags["C_CONTIGUOUS"] and not np.shares_memory(block.grad, block.flat)
            assert list(block.grad_views) == list(block.params)
            for name, view in block.grad_views.items():
                param = block.params[name].data
                assert view.shape == param.shape and view.dtype == dtype and view.base is block.grad
                offset = (view.__array_interface__["data"][0] - block.grad.__array_interface__["data"][0])
                assert offset == param.__array_interface__["data"][0] - block.flat.__array_interface__["data"][0]

    def test_misshapen_block_state_names_block_and_moves_nothing(self):
        gen, trunk = make_block("gen", {"gen.a": [1.0]}), make_block("trunk", {"trunk.a": [1.0], "trunk.b": [2.0]})
        st = {"trunk": AdamState(3, np.float64)}
        grads = [np.array([0.5]), np.array([0.5, 0.5])]
        with pytest.raises(
            TrainingError, match=r"Adam state for block 'trunk' has shape \(3,\) and dtype float64, block has \(2,\) and float64"
        ):
            adam_step(write_grads([gen, trunk], grads), st, 1e-3, 0.9, 0.999, 1e-8)
        assert list(st) == ["trunk"] and gen.params["gen.a"].data[0] == 1.0

    def test_block_state_of_another_dtype_names_block_and_moves_nothing(self):
        # a float64 state beside a float32 block would run the update in mixed precision
        gen, trunk = make_block("gen", {"gen.a": [1.0]}, np.float32), make_block("trunk", {"trunk.a": [1.0]}, np.float32)
        st = {"trunk": AdamState(1, np.float64)}
        grads = [np.array([0.5], np.float32)] * 2
        with pytest.raises(TrainingError, match=r"'trunk' has shape \(1,\) and dtype float64, block has \(1,\) and float32"):
            adam_step(write_grads([gen, trunk], grads), st, 1e-3, 0.9, 0.999, 1e-8)
        assert list(st) == ["trunk"] and gen.flat[0] == 1.0 and st["trunk"].t == 0

    @pytest.mark.parametrize("lr, epsilon, what", [
        # at t = 1, alpha' = alpha_t * (1 - 0.5) / sqrt(1 - 0.999) is lr, eps' = eps_hat / sqrt(1 - 0.999) is
        # epsilon, and the step bound is 2 * alpha' * sqrt(S_1) = 2 * lr
        (1e300, 1e-8, "step bound = 2e+300"),
        (1e-3, 1e300, "eps' = 1e+300 (epsilon 1e+300)"),
    ])
    def test_step_size_the_block_dtype_cannot_hold_names_block_rate_and_dtype_and_moves_nothing(self, lr, epsilon, what):
        gen, trunk = make_block("gen", {"gen.a": [1.0]}, np.float32), make_block("trunk", {"trunk.a": [1.0]}, np.float32)
        st = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError) as err:
                adam_step(write_grads([trunk, gen], [np.array([0.5], np.float32)] * 2), st, lr, 0.5, 0.999, epsilon)
        assert str(err.value) == f"Adam step for block 'trunk' at rate {lr!r}: {what} does not fit float32 (largest 3.40282e+38)"
        assert st == {} and trunk.flat[0] == gen.flat[0] == 1.0
        # float64 holds both
        adam_step(write_grads([make_block("gen", {"gen.a": [1.0]})], [np.array([0.5])]), st, lr, 0.5, 0.999, epsilon)
        assert st["gen"].t == 1
        # float64 holds every one of these
        adam_step(write_grads([make_block("gen", {"gen.a": [1.0]})], [np.array([0.5])]), {}, lr, 0.5, 0.999, epsilon)

    def test_a_rate_whose_step_bound_float32_cannot_hold_is_refused_and_moves_nothing(self):
        # lr = 1e39: alpha_t fits float32, but once the ratio m~ / sqrt(v~) reached 1 the step would not
        gen, trunk = make_block("gen", {"gen.a": [1.0]}, np.float32), make_block("trunk", {"trunk.a": [1.0]}, np.float32)
        st = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError) as err:
                adam_step(write_grads([trunk, gen], [np.array([0.5], np.float32)] * 2), st, 1e39, 0.5, 0.999, 1e-8)
        assert str(err.value) == "Adam step for block 'trunk' at rate 1e+39: step bound = 2e+39 does not fit float32 (largest 3.40282e+38)"
        assert st == {} and trunk.flat[0] == gen.flat[0] == 1.0

    def test_a_rate_just_under_the_step_bound_steps_to_finite_values(self):
        # the gradients for which Cauchy-Schwarz is tight at t = 3, g_(3-j) proportional to (beta1 / beta2)^j,
        # drive m~ / sqrt(v~) to sqrt(S_3); at a rate whose bound is just under float32's largest for every
        # t <= 3, all three steps stay finite, and the last is half the bound (which doubles for its rounding
        # margin). The parameter is put back to 0 before each step: the bound is on one step, not on a sum
        b1, b2, eps, big = 0.5, 0.999, 1e-8, float(np.finfo(np.float32).max)

        def bound(t, lr):
            root, scale = math.sqrt(1 - b2**t), math.sqrt(1 - b2)
            return trainer._step_bound(lr * root / (1 - b1**t) * (1 - b1) / scale, eps * root / scale, b1, b2, t, np.float32)

        lr = 0.999 * big / max(bound(t, 1.0) for t in (1, 2, 3))
        block, st = make_block("gen", {"gen.a": [0.0]}, np.float32), {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t, g in enumerate([(b1 / b2) ** 2, b1 / b2, 1.0], start=1):
                block.flat[0] = 0.0
                adam_step(write_grads([block], [np.array([g], np.float32)]), st, lr, b1, b2, eps)
                assert np.isfinite(block.flat).all()
        assert -float(block.flat[0]) == pytest.approx(0.5 * bound(3, lr), rel=1e-5)

    def test_fresh_state_takes_the_block_dtype(self):
        for dtype in (np.float32, np.float64):
            st = {}
            adam_step(write_grads([make_block("gen", {"gen.a": [1.0]}, dtype)], [np.array([0.5], dtype)]), st, 1e-3, 0.9, 0.999, 1e-8)
            assert st["gen"].m.dtype == st["gen"].v.dtype == dtype
        assert AdamState(2).m.dtype == np.float32


def _param_hashes(model, prefix):
    out = {}
    for name, t in model.params.items():
        if name.startswith(prefix):
            out[name] = hashlib.sha256(t.data.tobytes()).hexdigest()
    return out


class TestTrainStep:
    def test_step_isolation_by_hashing(self, tmp_path):
        from infogan_lab.trainer import d_step, gq_step

        cfg = tiny_cfg(tmp_path)
        run = Run(cfg)
        model = run.model

        gen_before = _param_hashes(model, "gen")
        q_before = _param_hashes(model, "q_head")
        d_step(model, run.dataset.images[:8], cfg, run.rngs["latent"], run.adam_states)
        # the D step never modifies gen or q_head parameters
        assert _param_hashes(model, "gen") == gen_before
        assert _param_hashes(model, "q_head") == q_before

        d_before = _param_hashes(model, "d_head")
        gq_step(model, cfg, 8, run.rngs["latent"], run.adam_states)
        # the G/Q step never modifies d_head parameters
        assert _param_hashes(model, "d_head") == d_before
        assert _param_hashes(model, "gen") != gen_before
        assert _param_hashes(model, "q_head") != q_before

    def test_q_head_moves_with_zero_lambda(self, tmp_path):
        run = Run(tiny_cfg(tmp_path, lambda_disc=0.0, lambda_cont=0.0))
        before = _param_hashes(run.model, "q_head")
        run.step()
        assert _param_hashes(run.model, "q_head") != before

    def test_gen_gradient_nonzero(self, tmp_path):
        run = Run(tiny_cfg(tmp_path))
        model = run.model
        before = {n: t.data.copy() for n, t in model.blocks["gen"].params.items()}
        run.step()
        moved = sum(np.any(model.params[n].data != before[n]) for n in before)
        assert moved == len(before)

    def test_op_outside_its_domain_is_a_training_error_naming_the_iteration(self, tmp_path):
        run = Run(tiny_cfg(tmp_path))
        for _ in range(6):
            run.step()
        log_sigma = run.model.spec.q_slices()[1].stop - 1  # the uniform code's log sigma column of Q's output
        run.model.params["q_head.out.b"].data[log_sigma] = np.nan  # as weights that diverged would leave it
        message = r"^gaussian_log_q: log_sigma is NaN at iteration 7$"
        with pytest.raises(TrainingError, match=message):
            run.step()
        assert run.iteration == 6

    @staticmethod
    def _step_inputs(cfg):
        # train_step's arguments for a run's first batch_size rows: a toy config's own set, and for an
        # mnist one an IDX pair of that many random images of its size, read before the pair is removed
        from infogan_lab.data_io import write_idx_pair

        with tempfile.TemporaryDirectory() as tmp:
            if cfg.dataset == "mnist":
                ip, lp = os.path.join(tmp, "imgs.idx"), os.path.join(tmp, "lbls.idx")
                images = np.random.default_rng(cfg.seed).integers(0, 256, (cfg.batch_size, *cfg.image_dims), dtype=np.uint8)
                write_idx_pair(images, np.zeros(cfg.batch_size, np.uint8), ip, lp)
                cfg = dataclasses.replace(cfg, mnist_images=ip, mnist_labels=lp, mnist_subset=cfg.batch_size)
            run = Run(cfg)
        return run.model, run.dataset.images[: cfg.batch_size], cfg, run.rngs["latent"], run.adam_states

    @classmethod
    def _default_step_inputs(cls):
        return cls._step_inputs(TrainingConfig(toy_samples=256))

    @pytest.mark.parametrize("cfg, expected", [
        (TrainingConfig(toy_samples=256), (27, 24, 32, 4, 5)),
        # the MNIST protocol's shape: cat:10 and two unif codes, noise 62, batchnorm in both nets
        (TrainingConfig(dataset="mnist", noise_dim=62, codes=tuple(map(parse_block_token, ("cat:10", "unif:-1:1", "unif:-1:1")))),
         (36, 31, 42, 4, 5)),
    ], ids=["default", "mnist-shape"])
    def test_default_step_graph_size(self, monkeypatch, cfg, expected):
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
            def counted(g, node, need, out):
                counts["rules"] += 1
                if node.op == "linear":
                    counts["skipped g @ w.T"] += not need[0]
                    counts["skipped x.T @ g"] += not need[1]
                return rule(g, node, need, out)
            return counted

        monkeypatch.setattr(autodiff, "forward_op", counting_forward_op)
        monkeypatch.setattr(autodiff.Tape, "__exit__", counting_exit)
        monkeypatch.setattr(autodiff, "_OPS", {op: (f, counting_rule(b)) for op, (f, b) in autodiff._OPS.items()})
        train_step(*self._step_inputs(cfg))
        assert tuple(counts.values()) == expected, counts

    def test_d_step_records_no_q_head_parameter(self, tmp_path, monkeypatch):
        from infogan_lab.trainer import d_step

        cfg = tiny_cfg(tmp_path, batchnorm=True)
        run = Run(cfg)
        model = run.model
        read, tape_exit = set(), autodiff.Tape.__exit__

        def reading_exit(tape, *exc):
            # a node names a leaf input by the tensor itself; read them before the tape drops its nodes
            read.update(name for node in tape.nodes for name in node.inputs if not isinstance(name, int))
            return tape_exit(tape, *exc)

        monkeypatch.setattr(autodiff.Tape, "__exit__", reading_exit)
        d_step(model, run.dataset.images[: cfg.batch_size], cfg, run.rngs["latent"], run.adam_states)
        recorded = {n for n, p in model.params.items() if p in read}
        assert recorded == set(model.blocks["trunk"].params) | set(model.blocks["d_head"].params)
        q_bn = model.bn_states["q_head.bn0"]
        np.testing.assert_array_equal(q_bn.running_mean, np.zeros(cfg.q_hidden))
        np.testing.assert_array_equal(q_bn.running_var, np.ones(cfg.q_hidden))

    def test_step_leaves_no_tape_alive(self):
        # a parameter is a leaf and never points at a tape; the returned losses point at closed ones
        model, real, cfg, latent_rng, states = self._default_step_inputs()
        bundle = train_step(model, real, cfg, latent_rng, states)
        assert [n for n, p in model.params.items() if p._tape is not None] == []
        losses = [getattr(bundle, f.name) for f in dataclasses.fields(bundle)]
        assert all(t._tape is not None and t._tape.nodes is None for t in losses)

    def test_batchnorm_gaussian_steps_match_per_parameter_adam(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(tmp_path, batchnorm=True, codes=(CodeBlock.categorical(4), CodeBlock.gaussian(0.0, 1.0)))

        def params_after_three_steps(step_fn):
            monkeypatch.setattr(trainer, "adam_step", step_fn)
            run = Run(cfg)
            for _ in range(3):
                run.step()
            return {n: t.data.tobytes() for n, t in run.model.params.items()}

        fused = params_after_three_steps(adam_step)
        assert any(".bn" in n for n in fused)
        assert fused == params_after_three_steps(reference_adam(defaultdict(float)))

    def test_batchnorm_gaussian_step_works_out_moments_and_inv_var_once(self, tmp_path, monkeypatch):
        # the tape keeps each forward's residuals: one batchnorm forward works out its batch moments
        # once and one gaussian_log_q its inverse variance (its one exp) once, and neither backward
        # rule works either out again (8 batchnorm forwards and 1 gaussian_log_q forward per step)
        calls, running = [], [None]

        class CountingNumpy:
            """autodiff's numpy, recording each exp call against the rule that made it."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def exp(*args, **kwargs):
                calls.append(("exp", running[0]))
                return np.exp(*args, **kwargs)

        def tagged(op, phase, rule):
            def run(*args):
                running[0] = (op, phase)
                try:
                    return rule(*args)
                finally:
                    running[0] = None
            return run

        batch_moments = autodiff._batch_moments

        def counted_moments(*args):
            calls.append(("_batch_moments", running[0]))
            return batch_moments(*args)

        monkeypatch.setattr(autodiff, "_batch_moments", counted_moments)
        monkeypatch.setattr(autodiff, "np", CountingNumpy())
        monkeypatch.setattr(autodiff, "_OPS", {op: (tagged(op, "forward", f), tagged(op, "backward", b))
                                               for op, (f, b) in autodiff._OPS.items()})
        Run(tiny_cfg(tmp_path, batchnorm=True, codes=(CodeBlock.categorical(4), CodeBlock.gaussian(0.0, 1.0)))).step()
        assert [by for name, by in calls if name == "_batch_moments"] == [("batchnorm", "forward")] * 8
        assert [call for call in calls if call[1] in (("gaussian_log_q", "forward"), ("gaussian_log_q", "backward"))] == [
            ("exp", ("gaussian_log_q", "forward"))
        ]

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

    # the per-step tracemalloc peak after three warm-up steps, in bytes; it is the same from step to step up
    # to a few hundred bytes. Ceilings: the measured peak plus 3%, 606.7 kB and 2.231 MB since the blocks
    # own their gradient buffers and the epilogues write in place (1.143 MB and 4.155 MB before)
    @pytest.mark.parametrize("cfg, ceiling", [
        (TrainingConfig(toy_samples=256), 625_000),
        (_MNIST_SHAPE_CFG, 2_298_000),
    ], ids=["default", "mnist-shape"])
    def test_step_allocation_ceiling(self, cfg, ceiling):
        import tracemalloc

        inputs = self._step_inputs(cfg)
        for _ in range(3):
            train_step(*inputs)
        tracemalloc.start()
        try:
            train_step(*inputs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= ceiling, f"a step's traced peak is {peak} B, above its ceiling of {ceiling} B"


def _concatenated_block_grads(tape, root, blocks):
    """The block gradients as they were gathered before the blocks owned gradient buffers: one plain sweep,
    then one concatenation of the per-parameter gradients per block."""
    grads = iter(tape.backward(root, [t for block in blocks for t in block.params.values()]))
    return [np.concatenate([next(grads) for _ in block.params], axis=None) for block in blocks]


class TestBlockGradBuffers:
    """Each sweep writes its blocks' gradients into their buffers, with the bytes of the concatenated gradients."""

    @pytest.mark.parametrize("cfg", [TrainingConfig(toy_samples=256), _MNIST_SHAPE_CFG], ids=["default", "mnist-shape"])
    def test_every_sweep_of_three_steps_matches_the_concatenation(self, monkeypatch, cfg):
        # the D sweep reads the trunk twice (real and fake batches), so its trunk gradients fan out;
        # every buffer is poisoned before each sweep, so an entry the sweep does not write shows as NaN
        block_grads, sweeps = trainer._block_grads, []

        def checked(tape, root, blocks):
            want = _concatenated_block_grads(tape, root, blocks)
            for block in blocks:
                block.grad[...] = np.nan
            block_grads(tape, root, blocks)
            assert [block.grad.tobytes() for block in blocks] == [w.tobytes() for w in want], [block.name for block in blocks]
            sweeps.append(tuple(block.name for block in blocks))

        monkeypatch.setattr(trainer, "_block_grads", checked)
        inputs = TestTrainStep._step_inputs(cfg)
        for _ in range(3):
            train_step(*inputs)
        assert sweeps == [("trunk", "d_head"), ("gen",), ("trunk", "q_head")] * 3

    def test_a_parameter_no_op_reached_is_zeroed_on_every_sweep(self):
        # the D loss does not reach the Q head: its slice of the buffer is zeroed each time, whatever it held
        from infogan_lab.models import disc_forward

        model, real, cfg, _, _ = TestTrainStep._step_inputs(TrainingConfig(toy_samples=256))
        blocks = [model.blocks["trunk"], model.blocks["q_head"]]
        for stale in (np.nan, 1.0):
            model.blocks["q_head"].grad[...] = stale
            with autodiff.Tape() as tape:
                loss = autodiff.weighted_sum([disc_forward(model, autodiff.Tensor(real.astype(model.dtype)))], (1.0,))
                want = _concatenated_block_grads(tape, loss, blocks)
                trainer._block_grads(tape, loss, blocks)
            trunk, q_head = (block.grad for block in blocks)
            assert trunk.tobytes() == want[0].tobytes()
            assert q_head.tobytes() == np.zeros_like(q_head).tobytes()


def _dtype_oracle(monkeypatch, want):
    """Wrap every op rule from outside; the list it returns collects each non-scalar array not of ``want``.

    An entry is ``(direction, op, dtype)``: a forward output, or a gradient a
    backward rule returned. Scalars are left out, since ``weighted_sum``
    folds scalar terms in Python floats.
    """
    leaks = []

    def note(direction, op, arr):
        if arr is not None and arr.ndim and arr.dtype != want:
            leaks.append((direction, op, str(arr.dtype)))

    def wrapped(op, forward, backward):
        def f(arrs, attrs):
            out, saved = forward(arrs, attrs)
            note("forward", op, out)
            return out, saved

        def b(g, node, need, out):
            grads = backward(g, node, need, out)
            for gi in grads:
                note("backward", op, gi)
            return grads
        return f, b

    monkeypatch.setattr(autodiff, "_OPS", {op: wrapped(op, f, b) for op, (f, b) in autodiff._OPS.items()})
    return leaks


def _lrelu_float64_mask(g, h):
    # the lrelu backward as it once was: a bool mask against a Python float rate promotes to float64
    return g * np.maximum(h > 0.0, autodiff.LRELU_RATE)


CODE_FAMILIES = {"categorical": CodeBlock.categorical(4), "uniform": CodeBlock.uniform(-1.0, 1.0), "gaussian": CodeBlock.gaussian(0.0, 1.0, 2)}


class TestTrainingDtype:
    @pytest.mark.parametrize("family", sorted(CODE_FAMILIES))
    @pytest.mark.parametrize("batchnorm", [False, True])
    @pytest.mark.parametrize("gan_mode", ["minimax", "nonsaturating"])
    def test_every_rule_keeps_a_step_in_float32(self, tmp_path, monkeypatch, gan_mode, batchnorm, family):
        run = Run(tiny_cfg(tmp_path, gan_mode=gan_mode, batchnorm=batchnorm, codes=(CODE_FAMILIES[family],)))
        leaks = _dtype_oracle(monkeypatch, np.float32)
        run.step()
        assert leaks == []
        assert {b.flat.dtype for b in run.model.blocks.values()} == {np.dtype(np.float32)}
        assert all(s.running_mean.dtype == s.running_var.dtype == np.float32 for s in run.model.bn_states.values())
        assert all(st.m.dtype == st.v.dtype == np.float32 for st in run.adam_states.values())

    def test_the_oracle_sees_a_float64_lrelu_mask(self, tmp_path, monkeypatch):
        # a step called without an iteration: the message ends at the op's fault
        cfg = tiny_cfg(tmp_path)
        run = Run(cfg)
        model, states = run.model, run.adam_states
        monkeypatch.setitem(autodiff._ACTS, "lrelu", (autodiff._ACTS["lrelu"][0], _lrelu_float64_mask))
        leaks = _dtype_oracle(monkeypatch, np.float32)
        before = _param_hashes(model, "")
        # the D sweep refuses the float64 gradient for the float32 trunk before it writes it, and before any Adam step
        with pytest.raises(autodiff.UsageError, match="^backward: the linear rule gave a float64 gradient for a float32 destination$"):
            train_step(model, run.dataset.images[: cfg.batch_size], cfg, run.rngs["latent"], states)
        assert _param_hashes(model, "") == before and states == {}
        # the trunk's layers are linear ops with the lrelu folded in: their rule returns the float64 gradient
        assert ("backward", "linear", "float64") in leaks

    def test_a_dtype_leak_names_the_iteration(self, tmp_path, monkeypatch):
        # the same stand-in, met by a run's fifth step: the UsageError names the op and says when it was met
        run = Run(tiny_cfg(tmp_path))
        for _ in range(4):
            run.step()
        monkeypatch.setitem(autodiff._ACTS, "lrelu", (autodiff._ACTS["lrelu"][0], _lrelu_float64_mask))
        before, clocks = _param_hashes(run.model, ""), {name: st.t for name, st in run.adam_states.items()}
        message = "^backward: the linear rule gave a float64 gradient for a float32 destination at iteration 5$"
        with pytest.raises(autodiff.UsageError, match=message):
            run.step()
        assert _param_hashes(run.model, "") == before and {name: st.t for name, st in run.adam_states.items()} == clocks
        assert run.iteration == 4

    def test_the_full_graph_check_runs_in_float64(self, monkeypatch):
        from infogan_lab import gradsuite

        seen = []

        def record(loss_builder, params, step):
            seen.append(({p.data.dtype for p in params}, loss_builder(params).data.dtype))
            return 0.0

        monkeypatch.setattr(gradsuite, "grad_check", record)
        leaks = _dtype_oracle(monkeypatch, np.float64)
        gradsuite.full_loss_graph_check(n_seeds=2)
        assert seen == [({np.dtype(np.float64)}, np.float64)] * 2
        assert leaks == []


class TestTrainRun:
    @pytest.mark.parametrize("key, block", [("lr_d", "trunk"), ("lr_g", "gen")])
    def test_rate_float32_cannot_step_with_is_refused_before_a_parameter_moves(self, tmp_path, key, block):
        # once, such a rate wrote inf and NaN into the parameters, and the run failed later on a gradient
        cfg = tiny_cfg(tmp_path, iterations=3, **{key: 1e300})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError, match=rf"^Adam step for block '{block}' at rate 1e\+300: step bound = .* does not fit float32"):
                train_run(cfg)

    def test_a_rate_whose_step_bound_float32_cannot_hold_is_refused_by_name(self, tmp_path):
        # lr_g = 1e39 once wrote inf into the generator's block (alpha_t fits, the step does not), and the
        # run failed a step later on a non-finite trunk gradient that named neither the rate nor Adam
        cfg = tiny_cfg(tmp_path, iterations=3, lr_g=1e39)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError, match=r"^Adam step for block 'gen' at rate 1e\+39: step bound = .* does not fit float32"):
                train_run(cfg)

    @pytest.mark.parametrize("token", ["unif:-1e300:1e300", "gauss:1e300:1"])
    def test_code_float32_cannot_hold_is_a_spec_error_naming_it(self, tmp_path, token):
        code = parse_block_token(token)
        cfg = tiny_cfg(tmp_path, iterations=3, codes=(CodeBlock.categorical(4), code))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecError, match=rf"^code block '{re.escape(code.to_token())}' drew .* which float32 cannot hold$"):
                train_run(cfg)

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
        assert digest == "fd971e2a2b81d9a797f10368d432223a9379f5375e29a3d472459264e0bb3af7", pinned_on

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
        assert digest == "797f4d141fd688b9b02b2cd4e5729c7c84159a927d2d191c9baafe147b6c20a1", pinned_on
        state = hashlib.sha256()
        for name in sorted(model.params):
            state.update(model.params[name].data.tobytes())
        for name in sorted(model.bn_states):
            state.update(model.bn_states[name].running_mean.tobytes())
            state.update(model.bn_states[name].running_var.tobytes())
        assert sorted(model.bn_states) == ["gen.bn0", "gen.bn1", "q_head.bn0", "trunk.bn1"]
        assert state.hexdigest() == "a57be61193f22299109c9ea5ec6632a09c91199db99f72ad88a249d919271b17", pinned_on

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
        assert digest == "7af9b1c5c55e85edddf11c8ce079aea6f4ac0da3a114dab08383022f6472d461", pinned_on
        assert state.hexdigest() == "a68bbc3a76549e316a8634c2e187faed0c1b466a12386cde32f30341bffe93da", pinned_on

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

    @pytest.mark.parametrize("key", ["checkpoint_out", "metrics_out"])
    def test_output_directory_that_does_not_exist_fails_before_iteration_one(self, tmp_path, monkeypatch, key):
        # the outputs used to be opened only after every iteration had run, naming a temp file
        steps = []
        monkeypatch.setattr(trainer, "train_step", lambda *a, **kw: steps.append(a))
        missing = tmp_path / "no-such-dir"
        cfg = tiny_cfg(tmp_path, **{key: str(missing / "out")})
        with pytest.raises(TrainingError, match=rf"^{key} = .*: directory '{re.escape(str(missing))}' does not exist$"):
            train_run(cfg)
        assert steps == [] and os.listdir(tmp_path) == []

    @pytest.mark.parametrize("key", ["checkpoint_out", "metrics_out"])
    def test_output_path_that_is_a_directory_fails_before_iteration_one(self, tmp_path, monkeypatch, key):
        # such a run used to train every iteration and then fail on os.replace, naming the temp file
        steps = []
        monkeypatch.setattr(trainer, "train_step", lambda *a, **kw: steps.append(a))
        folder = tmp_path / "adir"
        folder.mkdir()
        cfg = tiny_cfg(tmp_path, **{key: str(folder)})
        with pytest.raises(TrainingError, match=rf"^{key} = '{re.escape(str(folder))}' is a directory, not a file$"):
            train_run(cfg)
        assert steps == [] and os.listdir(tmp_path) == ["adir"] and os.listdir(folder) == []

    def test_metrics_and_checkpoint_naming_one_file_fail_before_iteration_one(self, tmp_path, monkeypatch):
        # such a run used to succeed, the checkpoint silently replacing the CSV; a relative path names the same file
        steps = []
        monkeypatch.setattr(trainer, "train_step", lambda *a, **kw: steps.append(a))
        monkeypatch.chdir(tmp_path)
        cfg = tiny_cfg(tmp_path, metrics_out=str(tmp_path / "out"), checkpoint_out="out")
        with pytest.raises(TrainingError, match=rf"^metrics_out and checkpoint_out both name '{re.escape(str(tmp_path / 'out'))}'$"):
            train_run(cfg)
        assert steps == [] and os.listdir(tmp_path) == []

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
        # a run steps on the stored bytes: they must train as their float64 pixels train
        from infogan_lab.data_io import float_pixels

        cfg = _idx_cfg(tmp_path, 96)
        on_bytes, on_floats = Run(cfg), Run(cfg)
        assert on_bytes.dataset.images.dtype == np.uint8
        for i in range(3):
            on_bytes.step()
            idx = on_floats.rngs["batches"].integers(0, len(on_floats.dataset), size=cfg.batch_size)
            rows = float_pixels(on_floats.dataset.images[idx])
            assert rows.dtype == np.float64
            train_step(on_floats.model, rows, cfg, on_floats.rngs["latent"], on_floats.adam_states, iteration=i + 1)
        assert _model_bytes(on_bytes.model) == _model_bytes(on_floats.model)

    def test_classifier_scores_bytes_as_their_float_pixels(self, tmp_path):
        # the classifier scales each byte chunk straight into the model's dtype: the same score as float pixels
        from infogan_lab.data_io import Dataset, float_pixels
        from infogan_lab.evaluate import categorical_classifier_eval
        from infogan_lab.models import init_models
        from infogan_lab.trainer import build_dataset

        cfg = _idx_cfg(tmp_path, 96)
        ds = build_dataset(cfg, np.random.default_rng(0))
        floats = Dataset(images=float_pixels(ds.images), labels=ds.labels, dims=ds.dims, provenance=ds.provenance)
        model = init_models(*cfg.net_configs(), cfg.latent_spec(), np.random.default_rng(3))
        assert categorical_classifier_eval(model, ds, 0) == categorical_classifier_eval(model, floats, 0)

    def test_no_float64_copy_of_the_whole_dataset(self, tmp_path):
        import tracemalloc

        from infogan_lab.evaluate import categorical_classifier_eval

        n = 10000
        cfg = _idx_cfg(tmp_path, n)
        tracemalloc.start()
        try:
            run = Run(cfg)
            categorical_classifier_eval(run.model, run.dataset, 0)
            run.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * 28 * 28 * 8, f"traced peak {peak} B reaches one float64 copy of the dataset"


class TestMetricsTrace:
    def test_csv_round_trip_full_precision(self, tmp_path):
        trace = MetricsTrace()
        trace.append(1, 1 / 3, -2 / 7, 0.1234567890123456789, -1e-17)
        trace.append(50, 2.0, 3.0, 4.0, 5.0)
        path = tmp_path / "m.csv"
        trace.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == MetricsTrace.CSV_HEADER
        back = [(int(it), *map(float, vals)) for it, *vals in (line.split(",") for line in lines[1:])]
        assert back == trace.rows

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
mnist_subset = 10000
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
mnist_subset = 500
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
        default_paths = {key: getattr(defaults, key) for key in config._PATH_KEYS}  # never rendered
        assert parse_config(render_config(cfg)) == dataclasses.replace(cfg, **default_paths)

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

    @pytest.mark.parametrize("key", ["checkpoint_out", "metrics_out"])
    def test_empty_output_path_is_refused_naming_its_key(self, key):
        with pytest.raises(ConfigError, match=rf"^{key} must name a file, got ''$"):
            TrainingConfig(**{key: ""})
        with pytest.raises(ConfigError, match=rf"^{key} must name a file"):
            parse_config(f"iterations = 3\n{key} =\n")

    def test_codes_is_not_a_key(self):
        with pytest.raises(ConfigError, match=r"^line 1: unknown key 'codes'$"):
            parse_config("codes = cat:4\n")

    def test_a_config_without_codes_is_refused_naming_codes(self):
        # no config text can list no code (without a code line parse_config takes the default codes), so
        # such a run's checkpoint would not load; lambda = 0 is the run without an information term
        for codes in ((), []):
            with pytest.raises(ConfigError, match=r"^codes must list at least one code block, got none$"):
                TrainingConfig(codes=codes)
        with pytest.raises(ConfigError, match=r"^codes must"):
            dataclasses.replace(TrainingConfig(), codes=())
        assert parse_config(render_config(TrainingConfig(lambda_disc=0.0, lambda_cont=0.0))).codes == TrainingConfig().codes

    @pytest.mark.parametrize("key", ["checkpoint_out", "metrics_out", "mnist_images", "mnist_labels"])
    @pytest.mark.parametrize("path", [" m.csv", "m.csv ", "\tm.csv", "a.igan\nseed = 5", "a\rb", "a\u2028b", "a\x85"])
    def test_path_that_would_not_survive_a_config_line_is_accepted_and_not_rendered(self, key, path):
        # render_config, which checkpoints embed, writes no path, so no path need read back from a line
        cfg = TrainingConfig(**{key: path})
        assert getattr(cfg, key) == path
        text = render_config(cfg)
        assert not [line for line in text.splitlines() if line.partition("=")[0].strip() == key]
        assert text == render_config(TrainingConfig())

    @pytest.mark.parametrize("key", ["checkpoint_out", "metrics_out", "mnist_images", "mnist_labels"])
    def test_path_with_inner_spaces_parses_and_is_not_rendered(self, key):
        cfg = parse_config(f"{key} = run 1/out # x = 2.bin\n")
        assert getattr(cfg, key) == "run 1/out # x = 2.bin"
        assert not [line for line in render_config(cfg).splitlines() if line.partition("=")[0].strip() == key]

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


# derandomized: the same 30 examples on every run, so a pass says the same thing each time
@settings(max_examples=30, deadline=None, derandomize=True)
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
@pytest.mark.parametrize("toy_samples", [256, 512, 1000, 2048, 8192])
def test_default_step_reuses_heap_pages(toy_samples):
    # glibc raises its mmap threshold only when a large mmapped block is freed, and a step's arrays come
    # from the heap once it has been raised; without that raise each step would fault them back in.
    # Three fresh processes per size (256 to 8192) and pair, glibc 2.36 on a 2-core Xeon, read under one
    # minor fault per step in every cell: 0.85-0.9 at 5+20, 0.57-0.6 at 5+100, 0.06-0.08 at 50+400.
    # They read the same with synth_templates' float64 scratch (SYNTH_CHUNK_ROWS rows, 512 KiB) sized
    # to the set's own rows or to 64 rows, so the raise does not hang on that scratch alone.
    # Each reading is a fresh process, which starts glibc cold: it steps a Run, on the rows train_run
    # feeds, with BLAS on one thread, for some warm-up steps and then the measured ones. Below the
    # default size three such pairs are read (5+20, 5+100 and 50+400), two processes at a time.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = textwrap.dedent(
        """
        import resource, sys
        from infogan_lab.config import TrainingConfig
        from infogan_lab.trainer import Run

        toy_samples, warmup, steps = map(int, sys.argv[1:])
        run = Run(TrainingConfig(toy_samples=toy_samples))
        for _ in range(warmup):
            run.step()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(steps):
            run.step()
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps)
        """
    )
    one_thread = {key: "1" for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = {**os.environ, **one_thread, "PYTHONPATH": os.path.join(root, "src")}
    pairs = [(5, 20)] if toy_samples == 8192 else [(5, 20), (5, 100), (50, 400)]
    faults_per_step = {}
    for i in range(0, len(pairs), 2):
        procs = {pair: subprocess.Popen([sys.executable, "-c", code, str(toy_samples), *map(str, pair)], cwd=root, env=env,
                                        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for pair in pairs[i : i + 2]}
        try:
            for (warmup, steps), proc in procs.items():
                out, err = proc.communicate(timeout=120)
                assert proc.returncode == 0, err
                faults_per_step[f"{warmup}+{steps}"] = float(out.strip().splitlines()[-1])
        finally:
            for proc in procs.values():
                proc.kill()
                proc.communicate()
    assert max(faults_per_step.values()) < 100, (
        f"minor page faults per step at {toy_samples} toy samples, by warm-up + measured steps: {faults_per_step}"
    )
