"""Generator and shared D/Q network construction and forward contracts."""

import numpy as np
import pytest

from infogan_lab.autodiff import TRAIN_DTYPE, ShapeError, Tape, Tensor, grad_check
from infogan_lab.config import TrainingConfig
from infogan_lab.latent import CodeBlock, LatentSpec, sample_latent
from infogan_lab.models import (
    NetConfig,
    disc_forward,
    disc_q_forward,
    gen_forward,
    init_models,
    q_forward,
)


def small_setup(seed=0, batchnorm=False, dtype=TRAIN_DTYPE):
    spec = LatentSpec(blocks=(CodeBlock.categorical(4), CodeBlock.uniform(-1, 1)), noise_dim=16)
    gen_cfg = NetConfig(widths=(spec.gen_input_dim, 32, 48, 64), batchnorm=batchnorm)
    dq_cfg = NetConfig(widths=(64, 48, 32), batchnorm=batchnorm, q_hidden=16)
    model = init_models(gen_cfg, dq_cfg, spec, np.random.default_rng(seed), dtype)
    return spec, model


class TestInit:
    def test_same_seed_bitwise_identical(self):
        _, a = small_setup(seed=7)
        _, b = small_setup(seed=7)
        assert set(a.params) == set(b.params)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

    def test_mnist_style_input_width_74(self):
        cfg = TrainingConfig(
            dataset="mnist",
            codes=(CodeBlock.categorical(10), CodeBlock.uniform(-1, 1), CodeBlock.uniform(-1, 1)),
            noise_dim=62,
        )
        assert cfg.latent_spec().gen_input_dim == 74
        gen_cfg, _ = cfg.net_configs()
        assert gen_cfg.widths[0] == 74

    def test_zero_hidden_layers_rejected(self):
        spec = LatentSpec(blocks=(CodeBlock.categorical(4),), noise_dim=4)
        with pytest.raises(ShapeError):
            init_models(
                NetConfig(widths=(spec.gen_input_dim, 64)),  # input -> image, no hidden
                NetConfig(widths=(64, 256, 128)),
                spec,
                np.random.default_rng(0),
            )

    def test_mismatched_input_width_rejected(self):
        spec = LatentSpec(blocks=(CodeBlock.categorical(4),), noise_dim=4)
        with pytest.raises(ShapeError):
            init_models(
                NetConfig(widths=(99, 32, 64)),
                NetConfig(widths=(64, 256, 128)),
                spec,
                np.random.default_rng(0),
            )

    def test_q_head_ends_in_one_output_layer(self):
        # checkpoint entry names: the hidden layer and one output layer holding every code's parameters
        spec = LatentSpec(
            blocks=(CodeBlock.categorical(3), CodeBlock.uniform(-1, 1), CodeBlock.categorical(2), CodeBlock.gaussian(0, 1, 2)),
            noise_dim=2,
        )
        model = init_models(NetConfig(widths=(spec.gen_input_dim, 4, 6)), NetConfig(widths=(6, 4), q_hidden=3), spec,
                            np.random.default_rng(0))
        assert {n: t.shape for n, t in model.blocks["q_head"].params.items()} == {
            "q_head.l0.w": (4, 3), "q_head.l0.b": (3,), "q_head.out.w": (3, 3 + 2 + 2 + 4), "q_head.out.b": (11,),
        }
        q = q_forward(model, Tensor(np.random.default_rng(1).uniform(0, 1, (5, 6))), training=False)
        assert isinstance(q, Tensor) and q.shape == (5, spec.q_dim) == (5, 11)

    @pytest.mark.parametrize("batchnorm", [False, True])
    def test_each_blocks_columns_match_a_float64_reference(self, batchnorm):
        # the trunk and the Q head in float64 numpy from the model's float32 parameters: each block's
        # columns of Q's output are hidden @ W[:, cols] + b[cols], within float32 rounding
        spec = LatentSpec(blocks=(CodeBlock.categorical(4), CodeBlock.gaussian(0, 1, 2), CodeBlock.uniform(-1, 1)),
                          noise_dim=3)
        model = init_models(NetConfig(widths=(spec.gen_input_dim, 8, 16)),
                            NetConfig(widths=(16, 12, 10), batchnorm=batchnorm, q_hidden=6), spec, np.random.default_rng(3))
        x = np.random.default_rng(4).uniform(0, 1, (7, 16)).astype(np.float32)
        q = q_forward(model, Tensor(x), training=False).data
        p = {n: t.data.astype(np.float64) for n, t in model.params.items()}
        bn = model.bn_states

        def lrelu(h):
            return np.where(h > 0.0, h, 0.1 * h)

        def layer(h, name, bn_name=None):
            h = h @ p[f"{name}.w"] + p[f"{name}.b"]
            if batchnorm and bn_name is not None:
                h = (h - bn[bn_name].running_mean) / np.sqrt(bn[bn_name].running_var + 1e-5)
                h = h * p[f"{bn_name}.gamma"] + p[f"{bn_name}.beta"]
            return lrelu(h)

        hidden = layer(layer(layer(x.astype(np.float64), "trunk.l0"), "trunk.l1", "trunk.bn1"), "q_head.l0", "q_head.bn0")
        assert q.dtype == np.float32 and q.shape == (7, 4 + 4 + 2)
        for cols in spec.q_slices():
            want = hidden @ p["q_head.out.w"][:, cols] + p["q_head.out.b"][cols]
            np.testing.assert_allclose(q[:, cols], want, rtol=1e-5, atol=1e-6)

    def test_biases_zero_weights_spread(self):
        _, model = small_setup()
        assert np.all(model.params["gen.l0.b"].data == 0.0)
        assert model.params["gen.l0.w"].data.std() > 0.0


class TestGenForward:
    def test_outputs_strictly_inside_unit_interval(self):
        spec, model = small_setup()
        batch = sample_latent(spec, 32, np.random.default_rng(1))
        out = gen_forward(model, batch.g_input, training=False)
        assert out.shape == (32, 64)
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    def test_eval_mode_is_deterministic(self):
        spec, model = small_setup(batchnorm=True)
        batch = sample_latent(spec, 8, np.random.default_rng(2))
        a = gen_forward(model, batch.g_input, training=False).data
        b = gen_forward(model, batch.g_input, training=False).data
        np.testing.assert_array_equal(a, b)

    def test_gradient_through_continuous_code(self):
        # a gradient check, so in float64
        spec, model = small_setup(dtype=np.float64)
        batch = sample_latent(spec, 4, np.random.default_rng(3), np.float64)
        w = np.random.default_rng(4).normal(0, 1, (4, 64))

        def images(params):
            return gen_forward(model, batch.g_input, training=False)

        # every generator input column: the noise z and the encoded codes c
        assert grad_check(images, [batch.g_input], step=1e-6, readout=w) <= 1e-5

    def test_wrong_input_width_names_both_widths(self):
        spec, model = small_setup()
        width = spec.gen_input_dim
        with pytest.raises(ShapeError, match=rf"^latent input width {width + 1} != generator input {width}$"):
            gen_forward(model, Tensor(np.zeros((3, width + 1))), training=False)


class TestDiscQForward:
    def test_trunk_shared_once_by_op_count(self):
        spec, model = small_setup()
        x = Tensor(np.random.default_rng(5).uniform(0, 1, (4, 64)))
        with Tape() as tape:
            disc_q_forward(model, x, training=False)
            ops = [n.op for n in tape.nodes]
        # trunk layers once, plus D head, Q hidden and Q's one output layer; each activation is
        # folded into its layer, so every node is one linear layer
        n_trunk = len(model.dq_cfg.widths) - 1
        n_heads = 1 + 1 + 1  # d_head, q hidden, q out
        assert ops == ["linear"] * (n_trunk + n_heads)

    def test_single_head_passes_match_the_shared_pass_bitwise(self):
        spec, model = small_setup(batchnorm=True)
        x = Tensor(np.random.default_rng(10).uniform(0, 1, (8, 64)))
        d_logit, q = disc_q_forward(model, x, training=False)
        assert disc_forward(model, x, training=False).data.tobytes() == d_logit.data.tobytes()
        assert q_forward(model, x, training=False).data.tobytes() == q.data.tobytes()

    def test_single_head_passes_record_only_their_head(self):
        spec, model = small_setup()
        x = Tensor(np.random.default_rng(11).uniform(0, 1, (4, 64)))
        n_trunk = len(model.dq_cfg.widths) - 1
        for forward, n_head in ((disc_forward, 1), (q_forward, 1 + 1)):
            with Tape() as tape:
                forward(model, x, training=False)
                assert [n.op for n in tape.nodes] == ["linear"] * (n_trunk + n_head)

    def test_d_logit_finite_over_random_inputs(self):
        spec, model = small_setup()
        x = Tensor(np.random.default_rng(8).uniform(0, 1, (1000, 64)))
        d_logit, _ = disc_q_forward(model, x, training=False)
        assert d_logit.shape == (1000, 1)
        assert np.all(np.isfinite(d_logit.data))

    def test_q_params_function_of_x_alone(self):
        spec, model = small_setup()
        x = np.random.default_rng(9).uniform(0, 1, (8, 64))
        _, qa = disc_q_forward(model, Tensor(x), training=False)
        _, qb = disc_q_forward(model, Tensor(x.copy()), training=False)
        np.testing.assert_array_equal(qa.data, qb.data)

    def test_wrong_image_dim_rejected(self):
        spec, model = small_setup()
        for forward in (disc_q_forward, disc_forward, q_forward):
            with pytest.raises(ShapeError):
                forward(model, Tensor(np.zeros((4, 63))), training=False)


def assert_block_views(model):
    """Every parameter is a C-contiguous view of its block's flat vector, and together they tile it."""
    for block in model.blocks.values():
        assert block.flat.dtype == model.dtype and block.flat.ndim == 1
        assert sum(t.data.size for t in block.params.values()) == block.flat.size
        for t in block.params.values():
            assert t.data.flags["C_CONTIGUOUS"] and np.shares_memory(t.data, block.flat)


class TestParamGroups:
    def test_groups_partition_all_params(self):
        _, model = small_setup(batchnorm=True)
        assert list(model.blocks) == ["gen", "trunk", "d_head", "q_head"]
        # the blocks, in order, hold exactly model.params: same names, same order, same tensors
        assert [(n, t) for b in model.blocks.values() for n, t in b.params.items()] == list(model.params.items())
        assert all(n.partition(".")[0] == b for b, block in model.blocks.items() for n in block.params)

    def test_layer_records_hold_the_named_tensors(self):
        # the forward passes read these records, so each must be the very tensor its name maps to
        spec = LatentSpec(blocks=(CodeBlock.categorical(3), CodeBlock.uniform(-1, 1)), noise_dim=4)
        model = init_models(NetConfig(widths=(spec.gen_input_dim, 8, 12, 16), batchnorm=True),
                            NetConfig(widths=(16, 12, 8), batchnorm=True, q_hidden=6), spec, np.random.default_rng(0))
        p, bn = model.params, model.bn_states

        def named(layer, name, bn_name=None):
            if bn_name is None:
                same_bn = layer.bn is None
            else:
                norm = (p[f"{bn_name}.gamma"], p[f"{bn_name}.beta"], bn[bn_name])
                same_bn = all(a is b for a, b in zip(layer.bn, norm, strict=True))
            return layer.w is p[f"{name}.w"] and layer.b is p[f"{name}.b"] and same_bn

        assert [named(layer, f"gen.l{i}", f"gen.bn{i}" if i < 2 else None) for i, layer in enumerate(model.gen_layers)] == [True] * 3
        assert [named(layer, f"trunk.l{i}", f"trunk.bn{i}" if i > 0 else None)
                for i, layer in enumerate(model.trunk_layers)] == [True] * 2
        assert named(model.d_out, "d_head.out") and named(model.q_l0, "q_head.l0", "q_head.bn0")
        assert named(model.q_out, "q_head.out")

    def test_params_are_read_only(self):
        _, model = small_setup()
        rebound = Tensor(np.zeros(model.params["gen.l0.b"].shape))
        with pytest.raises(TypeError):
            model.params["gen.l0.b"] = rebound
        with pytest.raises(TypeError):
            model.blocks["gen"].params["gen.l0.b"] = rebound

    def test_params_stay_block_views_through_step_and_load(self, tmp_path):
        from infogan_lab.data_io import load_checkpoint
        from infogan_lab.trainer import Run

        cfg = TrainingConfig(
            batch_size=8, toy_samples=64, gen_layers=(16, 24), trunk_layers=(24, 16), q_hidden=8, noise_dim=4,
            batchnorm=True, checkpoint_out=str(tmp_path / "ckpt.igan"), metrics_out=str(tmp_path / "m.csv"),
        )
        run = Run(cfg)
        model = run.model
        assert model.dtype == TRAIN_DTYPE == np.float32
        assert_block_views(model)
        before = {n: b.flat.copy() for n, b in model.blocks.items()}
        run.step()
        assert_block_views(model)
        assert all(not np.array_equal(b.flat, before[n]) for n, b in model.blocks.items())
        run.finish()
        loaded, _ = load_checkpoint(cfg.checkpoint_out)
        assert_block_views(loaded)
        for n, b in model.blocks.items():
            assert loaded.blocks[n].flat.tobytes() == b.flat.tobytes()
