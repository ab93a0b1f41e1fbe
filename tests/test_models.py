"""Generator and shared D/Q network construction and forward contracts."""

import numpy as np
import pytest

from infogan_lab.autodiff import ShapeError, Tape, Tensor, grad_check
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


def small_setup(seed=0, batchnorm=False):
    spec = LatentSpec(blocks=(CodeBlock.categorical(4), CodeBlock.uniform(-1, 1)), noise_dim=16)
    gen_cfg = NetConfig(widths=(spec.gen_input_dim, 32, 48, 64), batchnorm=batchnorm)
    dq_cfg = NetConfig(widths=(64, 48, 32), batchnorm=batchnorm, q_hidden=16)
    model = init_models(gen_cfg, dq_cfg, spec, np.random.default_rng(seed))
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

    def test_q_head_names_count_each_family_in_spec_order(self):
        # checkpoint entry names: interleaved families keep their own counters
        spec = LatentSpec(
            blocks=(CodeBlock.categorical(3), CodeBlock.uniform(-1, 1), CodeBlock.categorical(2), CodeBlock.gaussian(0, 1, 2)),
            noise_dim=2,
        )
        model = init_models(NetConfig(widths=(spec.gen_input_dim, 4, 6)), NetConfig(widths=(6, 4), q_hidden=3), spec,
                            np.random.default_rng(0))
        assert model.q_block_names == ["q_head.cat0", "q_head.cont0", "q_head.cat1", "q_head.cont1"]
        heads = [n for n in model.blocks["q_head"].params if not n.startswith("q_head.l0")]
        assert heads == [
            "q_head.cat0.w", "q_head.cat0.b",
            "q_head.cont0.mu.w", "q_head.cont0.mu.b", "q_head.cont0.s.w", "q_head.cont0.s.b",
            "q_head.cat1.w", "q_head.cat1.b",
            "q_head.cont1.mu.w", "q_head.cont1.mu.b", "q_head.cont1.s.w", "q_head.cont1.s.b",
        ]
        q = q_forward(model, Tensor(np.random.default_rng(1).uniform(0, 1, (5, 6))), training=False)
        shapes = [b.shape if isinstance(b, Tensor) else tuple(t.shape for t in b) for b in q.blocks]
        assert shapes == [(5, 3), ((5, 1), (5, 1)), (5, 2), ((5, 2), (5, 2))]

    def test_biases_zero_weights_spread(self):
        _, model = small_setup()
        assert np.all(model.params["gen.l0.b"].data == 0.0)
        assert model.params["gen.l0.w"].data.std() > 0.0


class TestGenForward:
    def test_outputs_strictly_inside_unit_interval(self):
        spec, model = small_setup()
        batch = sample_latent(spec, 32, np.random.default_rng(1))
        out = gen_forward(model, batch, training=False)
        assert out.shape == (32, 64)
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    def test_eval_mode_is_deterministic(self):
        spec, model = small_setup(batchnorm=True)
        batch = sample_latent(spec, 8, np.random.default_rng(2))
        a = gen_forward(model, batch, training=False).data
        b = gen_forward(model, batch, training=False).data
        np.testing.assert_array_equal(a, b)

    def test_gradient_through_continuous_code(self):
        spec, model = small_setup()
        batch = sample_latent(spec, 4, np.random.default_rng(3))
        w = np.random.default_rng(4).normal(0, 1, (4, 64))

        def images(params):
            return gen_forward(model, batch, training=False)

        # every generator input column: the noise z and the encoded codes c
        assert grad_check(images, [batch.g_input], step=1e-6, readout=w) <= 1e-5


class TestDiscQForward:
    def test_trunk_shared_once_by_op_count(self):
        spec, model = small_setup()
        x = Tensor(np.random.default_rng(5).uniform(0, 1, (4, 64)))
        with Tape() as tape:
            disc_q_forward(model, x, training=False)
            layers = sum(1 for n in tape.nodes if n.op == "linear")
        # trunk layers once, plus D head, Q hidden, and per-block output layers
        n_trunk = len(model.dq_cfg.widths) - 1
        n_heads = 1 + 1 + 1 + 2  # d_head, q hidden, cat logits, cont mu and s
        assert layers == n_trunk + n_heads

    def test_single_head_passes_match_the_shared_pass_bitwise(self):
        spec, model = small_setup(batchnorm=True)
        x = Tensor(np.random.default_rng(10).uniform(0, 1, (8, 64)))
        d_logit, q = disc_q_forward(model, x, training=False)
        assert disc_forward(model, x, training=False).data.tobytes() == d_logit.data.tobytes()
        q_only = q_forward(model, x, training=False)
        (logits, (mu, s)), (logits_only, (mu_only, s_only)) = q.blocks, q_only.blocks
        for a, b in ((logits, logits_only), (mu, mu_only), (s, s_only)):
            assert a.data.tobytes() == b.data.tobytes()

    def test_single_head_passes_record_only_their_head(self):
        spec, model = small_setup()
        x = Tensor(np.random.default_rng(11).uniform(0, 1, (4, 64)))
        n_trunk = len(model.dq_cfg.widths) - 1
        for forward, n_head in ((disc_forward, 1), (q_forward, 1 + 1 + 2)):
            with Tape() as tape:
                forward(model, x, training=False)
                assert sum(1 for n in tape.nodes if n.op == "linear") == n_trunk + n_head

    def test_sigma_strictly_positive_and_bounded(self):
        spec, model = small_setup()
        x = Tensor(np.random.default_rng(6).uniform(0, 1, (16, 64)))
        _, q = disc_q_forward(model, x, training=False)
        _, log_sigma = q.blocks[1]
        sigma = np.exp(log_sigma.data)
        assert np.all(sigma > 0.0)
        assert np.all(np.abs(log_sigma.data) <= 7.0)

    def test_log_sigma_clamp_engages(self):
        spec, model = small_setup()
        model.params["q_head.cont0.s.b"].data[:] = 50.0  # force raw output past the cap
        x = Tensor(np.random.default_rng(7).uniform(0, 1, (4, 64)))
        _, q = disc_q_forward(model, x, training=False)
        np.testing.assert_allclose(q.blocks[1][1].data, 7.0)

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
        np.testing.assert_array_equal(qa.blocks[0].data, qb.blocks[0].data)
        np.testing.assert_array_equal(qa.blocks[1][0].data, qb.blocks[1][0].data)

    def test_wrong_image_dim_rejected(self):
        spec, model = small_setup()
        for forward in (disc_q_forward, disc_forward, q_forward):
            with pytest.raises(ShapeError):
                forward(model, Tensor(np.zeros((4, 63))), training=False)


def assert_block_views(model):
    """Every parameter is a C-contiguous view of its block's flat vector, and together they tile it."""
    for block in model.blocks.values():
        assert block.flat.dtype == np.float64 and block.flat.ndim == 1
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

    def test_params_are_read_only(self):
        _, model = small_setup()
        rebound = Tensor(np.zeros(model.params["gen.l0.b"].shape))
        with pytest.raises(TypeError):
            model.params["gen.l0.b"] = rebound
        with pytest.raises(TypeError):
            model.blocks["gen"].params["gen.l0.b"] = rebound

    def test_params_stay_block_views_through_step_and_load(self, tmp_path):
        from infogan_lab.data_io import load_checkpoint, save_checkpoint
        from infogan_lab.trainer import build_dataset, rng_streams, train_step

        cfg = TrainingConfig(
            batch_size=8, toy_samples=64, gen_layers=(16, 24), trunk_layers=(24, 16), q_hidden=8, noise_dim=4,
            batchnorm=True, checkpoint_out=str(tmp_path / "ckpt.igan"), metrics_out=str(tmp_path / "m.csv"),
        )
        rngs = rng_streams(cfg.seed)
        ds = build_dataset(cfg, rngs["dataset"])
        gen_cfg, dq_cfg = cfg.net_configs()
        model = init_models(gen_cfg, dq_cfg, cfg.latent_spec(), rngs["init"])
        assert_block_views(model)
        before = {n: b.flat.copy() for n, b in model.blocks.items()}
        train_step(model, ds.images[:8], cfg, rngs["latent"], {})
        assert_block_views(model)
        assert all(not np.array_equal(b.flat, before[n]) for n, b in model.blocks.items())
        save_checkpoint(model, cfg, cfg.checkpoint_out)
        loaded, _ = load_checkpoint(cfg.checkpoint_out)
        assert_block_views(loaded)
        for n, b in model.blocks.items():
            assert loaded.blocks[n].flat.tobytes() == b.flat.tobytes()
