"""Tensor engine: forward values, backward rules, and the gradient checker."""

import inspect
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit
from scipy.special import log_softmax as scipy_log_softmax
from scipy.stats import norm

from infogan_lab import autodiff as ad
from infogan_lab.autodiff import (
    BN_EPS,
    OP_CATALOGUE,
    BatchNormState,
    DomainError,
    ShapeError,
    Tape,
    Tensor,
    UsageError,
    forward_op,
    grad_check,
)
from infogan_lab.gradsuite import _OP_CASES


def _ones(*shape):
    return Tensor(np.ones(shape))


_WS_NEEDS = "weighted_sum: needs one weight per scalar or (B,F) input, or their probe stacks of one K"

_SHAPE_ERRORS = [
    (lambda: ad.linear(_ones(2, 3), _ones(2, 3), _ones(3)),
     "linear: needs (B,I) @ (I,O) + (O,), got (2, 3) @ (2, 3) + (3,)"),
    (lambda: ad.linear(_ones(2, 3), _ones(3, 2), _ones(3)),
     "linear: needs (B,I) @ (I,O) + (O,), got (2, 3) @ (3, 2) + (3,)"),
    (lambda: ad.linear(_ones(3), _ones(3, 2), _ones(2)),
     "linear: needs (B,I) @ (I,O) + (O,), got (3,) @ (3, 2) + (2,)"),
    # a weighted_sum input is a scalar or a (B,F) batch, one weight each
    (lambda: ad.weighted_sum([_ones(2, 3, 4, 5), _ones()], (1.0, 1.0)),
     f"{_WS_NEEDS}, got 2 weights for shapes (2, 3, 4, 5), ()"),
    (lambda: ad.weighted_sum([_ones(3, 2), _ones(2, 3)], (1.0,)),
     f"{_WS_NEEDS}, got 1 weights for shapes (3, 2), (2, 3)"),
    (lambda: ad.weighted_sum([_ones()], (1.0, 2.0)),
     f"{_WS_NEEDS}, got 2 weights for shapes ()"),
    (lambda: ad.weighted_sum([], ()),
     f"{_WS_NEEDS}, got 0 weights for shapes "),
    (lambda: ad.categorical_log_q(_ones(2, 3), np.zeros(3, dtype=np.int64), slice(0, 3)),
     "categorical_log_q: needs B integer indices for a (B,F) q, got int64 (3,) for (2, 3)"),
    (lambda: ad.categorical_log_q(_ones(2, 3), np.zeros(2), slice(0, 3)),
     "categorical_log_q: needs B integer indices for a (B,F) q, got float64 (2,) for (2, 3)"),
    (lambda: ad.categorical_log_q(_ones(3), np.zeros(1, dtype=np.int64), slice(0, 3)),
     "categorical_log_q: needs a (B,F) q and a column range inside F, got (3,) and slice(0, 3, None)"),
    # a column range must be a slice of one column or more, inside F, in steps of one
    *[(lambda cols=cols: ad.categorical_log_q(_ones(2, 4), np.zeros(2, dtype=np.int64), cols),
       f"categorical_log_q: needs a (B,F) q and a column range inside F, got (2, 4) and {cols}")
      for cols in (slice(2, 5), slice(None, 3), slice(-2, 4), slice(2, 2), slice(0, 4, 2), slice(3, 1), (0, 4))],
    (lambda: ad.gaussian_log_q(_ones(2, 4), np.zeros((2, 1)), slice(0, 4)),
     "gaussian_log_q: needs a (B,D) code c and 2D columns of q, got (2, 1), (2, 4) and slice(0, 4, None)"),
    (lambda: ad.gaussian_log_q(_ones(2, 4), np.zeros((3, 2)), slice(0, 4)),
     "gaussian_log_q: needs a (B,D) code c and 2D columns of q, got (3, 2), (2, 4) and slice(0, 4, None)"),
    (lambda: ad.gaussian_log_q(_ones(2, 4), np.zeros(2), slice(0, 2)),
     "gaussian_log_q: needs a (B,D) code c and 2D columns of q, got (2,), (2, 4) and slice(0, 2, None)"),
    (lambda: ad.gaussian_log_q(_ones(2, 4), np.zeros((2, 1)), slice(3, 5)),
     "gaussian_log_q: needs a (B,F) q and a column range inside F, got (2, 4) and slice(3, 5, None)"),
    (lambda: ad.batchnorm(_ones(4), _ones(4), _ones(4), BatchNormState(4), True),
     "batchnorm: needs (B,F) input, got (4,)"),
    (lambda: ad.batchnorm(_ones(5, 3), _ones(2), _ones(3), BatchNormState(3), False),
     "batchnorm: scale/shift must be (3,), got (2,) and (3,)"),
]


class TestForwardValues:
    def test_lrelu_example(self):
        out = ad.linear(Tensor([[-1.0, 0.0, 2.0]]), Tensor(np.eye(3)), Tensor(np.zeros(3)), "lrelu")
        np.testing.assert_array_equal(out.data, [[-0.1, 0.0, 2.0]])

    def test_softmax_uniform_row(self):
        out = ad.categorical_log_q(Tensor(np.zeros((10, 10))), np.arange(10), slice(0, 10))
        np.testing.assert_allclose(np.exp(out.data), np.full((10, 1), 0.1), rtol=1e-15)

    def test_categorical_log_q_picks_log_softmax_at_index(self):
        rng = np.random.default_rng(4)
        logits = np.concatenate([rng.normal(0, 3, (6, 5)), [[-1000.0, 0.0, 1000.0, 3.0, -2.0]]])
        index = np.array([0, 1, 2, 3, 4, 0, 0])
        # the block's logits between two columns of other blocks, which it must not read
        q = np.concatenate([np.full((7, 1), np.nan), logits, np.full((7, 2), 1e300)], axis=1)
        out = ad.categorical_log_q(Tensor(q), index, slice(1, 6))
        assert out.shape == (7, 1)
        expected = scipy_log_softmax(logits, axis=1)[np.arange(7), index][:, None]
        np.testing.assert_allclose(out.data, expected, atol=1e-12, rtol=0)

    def test_matmul_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.linear(a, Tensor(np.eye(2)), Tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.data, a.data)

    def test_add_broadcast_bias(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = ad.linear(a, Tensor(np.eye(2)), Tensor([10.0, 20.0]))
        np.testing.assert_array_equal(out.data, [[11.0, 22.0], [13.0, 24.0], [15.0, 26.0]])

    def test_weighted_sum_is_the_left_fold_of_exact_products(self):
        x, y, z = np.random.default_rng(0).normal(0, 1, 3).tolist()
        out = ad.weighted_sum([Tensor(x), Tensor(y), Tensor(z)], (-0.1, 3, 0.7)).data
        assert out.tobytes() == np.float64((x * -0.1 + y * 3.0) + z * 0.7).tobytes()
        assert ad.weighted_sum([Tensor(x)], (-0.1,)).data.tobytes() == np.float64(x * -0.1).tobytes()
        # scalar loss terms in, a 0-d array out, as from every other forward rule
        scalar = ad.weighted_sum([Tensor(1.5), Tensor(2.0)], (1.0, -1.0)).data
        assert type(scalar) is np.ndarray and scalar.shape == () and scalar.item() == -0.5

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_a_batch_term_has_the_bits_of_its_mean_and_the_mean_rule(self, dtype):
        # a (B,F) batch enters the fold as np.add.reduce(x, axis=None) / x.size, and its gradient is
        # np.full(shape, float(g) * w / size, dtype): what a reduce_mean node under a weighted_sum gave
        rng = np.random.default_rng(21)
        a, b = rng.normal(0, 1, (7, 3)).astype(dtype), rng.normal(0, 1, (2, 5)).astype(dtype)
        s, g, weights = rng.normal(0, 1), rng.normal(0, 1), (-0.7, 1.3, 0.9)
        inputs = [Tensor(a), Tensor(s), Tensor(b)]
        with Tape() as tape:
            out = ad.weighted_sum(inputs, weights)
            ga, gs, gb = tape.backward(out, inputs, np.array(g))
        mean_a, mean_b = ((np.add.reduce(x, axis=None) / x.size).item() for x in (a, b))
        assert out.data.dtype == np.float64 and out.data.shape == ()
        assert out.data.tobytes() == np.float64((mean_a * -0.7 + s * 1.3) + mean_b * 0.9).tobytes()
        for grad, x, w in ((ga, a, -0.7), (gb, b, 0.9)):
            assert grad.dtype == dtype and grad.tobytes() == np.full(x.shape, float(g) * w / x.size, dtype).tobytes()
        assert gs.tobytes() == np.float64(g * 1.3).tobytes()

    def test_sigmoid_cross_entropy_is_the_mean_softplus_and_stays_finite(self):
        # label 1 is mean softplus(-x) = -mean log sigmoid(x); label 0 is mean softplus(x)
        x = np.concatenate([np.random.default_rng(1).normal(0, 10, 50), [-1000.0, 1000.0]])[None, :]
        for label, sx in ((1, -x), (0, x)):
            out = ad.sigmoid_cross_entropy(Tensor(x), label).data
            assert out.shape == () and np.isfinite(out)
            assert out.tobytes() == np.logaddexp(0.0, sx).mean().tobytes()
        for label, sign in ((1, -1.0), (0, 1.0)):
            assert float(ad.sigmoid_cross_entropy(Tensor([[sign * 1000.0]]), label)) == 1000.0
            assert 0.0 <= float(ad.sigmoid_cross_entropy(Tensor([[sign * -1000.0]]), label)) < 1e-300

    @pytest.mark.parametrize("label", [2, -1, 0.5, float("nan"), None])
    def test_sigmoid_cross_entropy_label_must_be_0_or_1(self, label):
        with pytest.raises(DomainError, match=r"sigmoid_cross_entropy: label must be 0 or 1, got"):
            ad.sigmoid_cross_entropy(Tensor(np.zeros((2, 2))), label)

    def test_gaussian_log_q_matches_norm_logpdf_row_sums(self):
        rng = np.random.default_rng(2)
        c, mu = rng.normal(0, 1, (5, 3)), rng.normal(0, 1, (5, 3))
        log_sigma = rng.uniform(-7.0, 7.0, (5, 3))
        # mu's three columns, then log sigma's, after two columns of another block it must not read
        q = np.concatenate([np.full((5, 2), np.nan), mu, log_sigma], axis=1)
        out = ad.gaussian_log_q(Tensor(q), c, slice(2, 8))
        assert out.shape == (5, 1)
        expected = norm.logpdf(c, loc=mu, scale=np.exp(log_sigma)).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_shape_errors_name_op_and_shapes(self):
        # each shape check builds its message only when it fails; the text is pinned verbatim
        for call, message in _SHAPE_ERRORS:
            with pytest.raises(ShapeError) as err:
                call()
            assert str(err.value) == message

    def test_domain_errors(self):
        # K is the block's column count, not q's width
        zeros = Tensor(np.zeros((1, 5)))
        with pytest.raises(DomainError, match=r"categorical_log_q: index outside \[0, 2\) \(min 2, max 2\)"):
            ad.categorical_log_q(zeros, [2], slice(1, 3))
        with pytest.raises(DomainError, match=r"categorical_log_q: index outside \[0, 2\) \(min -1"):
            ad.categorical_log_q(zeros, [-1], slice(1, 3))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("past", [8.0, 50.0, 400.0, np.inf, -8.0, -50.0, -400.0, -np.inf])
    def test_gaussian_log_q_reads_log_sigma_past_the_bound_as_the_bound(self, dtype, past):
        # log sigma is clamped before any exponentiation: a value past +-7 reads the bound's bits,
        # in either dtype and without a RuntimeWarning (exp(-2 * -400) overflows float64, and
        # exp(-2 * -50) float32), and its gradient is zero
        rng = np.random.default_rng(3)
        c, mu = (rng.normal(0, 1, (1, 2)).astype(dtype) for _ in range(2))
        q, at_bound = (Tensor(np.concatenate([mu, np.array([[0.5, s]], dtype)], axis=1)) for s in (past, math.copysign(7.0, past)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = ad.gaussian_log_q(at_bound, c, slice(0, 4)).data
            with Tape() as tape:
                out = ad.gaussian_log_q(q, c, slice(0, 4))
                (grad,) = tape.backward(out, [q], np.ones((1, 1)))
        assert out.data.dtype == dtype and out.data.tobytes() == bound.tobytes()
        assert grad[0, 2] != 0.0 and grad[0, 3] == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gaussian_log_q_nan_log_sigma_is_a_domain_error_without_a_warning(self, dtype):
        zeros = np.zeros((2, 2), dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for row in ([np.nan, 0.0], [np.nan, np.inf], [-np.inf, np.nan]):
                q = Tensor(np.concatenate([zeros, np.array([[0.3, 1.0], row], dtype)], axis=1))
                with pytest.raises(DomainError, match=r"^gaussian_log_q: log_sigma is NaN$"):
                    ad.gaussian_log_q(q, zeros, slice(0, 4))
            # an empty batch has no NaN, and a NaN in another block's column is not this block's
            assert ad.gaussian_log_q(Tensor(np.zeros((0, 4), dtype)), np.zeros((0, 2)), slice(0, 4)).shape == (0, 1)
            q = Tensor(np.concatenate([zeros, zeros, np.full((2, 1), np.nan, dtype)], axis=1))
            assert np.isfinite(ad.gaussian_log_q(q, zeros, slice(0, 4)).data).all()

    def test_unknown_op(self):
        with pytest.raises(UsageError, match="unknown op"):
            forward_op("convolve", [Tensor([1.0])])


def _reference_index_check(index, k):
    """The categorical index range check as first written: index.min() and index.max()."""
    if index.size and not (0 <= index.min() and index.max() < k):
        raise DomainError(f"categorical_log_q: index outside [0, {k}) (min {index.min()}, max {index.max()})")


def _outcome(call):
    try:
        return "ok", call().tobytes()
    except DomainError as err:
        return "raise", str(err)


def _linear_identity(x, act):
    """act(x) through a linear op of one input and one output column, x * 1 + 0, which is x exactly for finite x."""
    column = Tensor(x.reshape(-1, 1))
    one, zero = Tensor(np.ones((1, 1), x.dtype)), Tensor(np.zeros(1, x.dtype))
    return ad.linear(column, one, zero, act).data.reshape(x.shape)


class TestSigmoidAgainstExpit:
    """The numpy sigmoid of the ``sigmoid`` epilogue and of ``sigmoid_cross_entropy``'s backward against
    scipy's expit, a test-only oracle."""

    @staticmethod
    def _sigmoid_and_cross_entropy_grad(x):
        # the forward (logaddexp) is not under test here: only the two sigmoid uses run under "raise";
        # label 0 and a cotangent of x.size make the gradient of the mean sigmoid(x) itself
        t = Tensor(x)
        with Tape() as tape:
            y = ad.sigmoid_cross_entropy(t, 0)
            with np.errstate(all="raise"):
                (grad,) = tape.backward(y, [t], np.array(float(x.size)))
                return _linear_identity(x, "sigmoid"), grad

    def test_within_rounding_of_expit_on_seeded_draws(self):
        # away from the subnormal results below x = -708.4, where a relative bound means nothing
        rng = np.random.default_rng(17)
        x = np.concatenate([rng.normal(0.0, 4.0, 50_000), rng.uniform(-700.0, 700.0, 50_000)]).reshape(100, 1000)
        sig, grad = self._sigmoid_and_cross_entropy_grad(x)
        np.testing.assert_allclose(sig, expit(x), rtol=1e-15, atol=0)
        np.testing.assert_allclose(grad, expit(x), rtol=1e-15, atol=0)

    def test_extremes_raise_nothing_and_equal_expit(self):
        x = np.array([[-800.0, -710.0, -709.0, 709.0, 710.0, 800.0]])
        sig, grad = self._sigmoid_and_cross_entropy_grad(x)
        np.testing.assert_array_equal(sig, expit(x))
        np.testing.assert_array_equal(grad, expit(x))
        assert sig[0, :2].tolist() == [0.0, 0.0] and sig[0, 3:].tolist() == [1.0, 1.0, 1.0]

    def test_float32_extremes_raise_nothing(self):
        # exp(-x) overflows float32 from x <= -89 on: the sigmoid is exactly 0 there, and 1 at the top
        x = np.array([[-100.0, -89.0, -88.0, 0.0, 88.0, 89.0]], np.float32)
        sig, grad = self._sigmoid_and_cross_entropy_grad(x)
        assert sig.dtype == grad.dtype == np.float32
        np.testing.assert_array_equal(sig, grad)
        assert sig[0, :2].tolist() == [0.0, 0.0] and 0.0 < sig[0, 2] < 1e-38 and sig[0, 3] == 0.5
        assert sig[0, 4:].tolist() == [1.0, 1.0]


class TestDomainCheckFastForms:
    """The fast domain checks raise on exactly the inputs the reference forms do, with the same
    message, and return bitwise-equal values everywhere else."""

    @pytest.mark.parametrize(
        "dtype, index",
        [
            (dtype, index)
            for dtype in (np.int8, np.int32, np.int64, np.uint8, np.uint64)
            for index in ([0, 1, 2], [2, 2, 0], [3, 0, 1], [0, -1, 2], [-3, 0, 0], [255, 0, 0], [0, 100, 1])
            if np.iinfo(dtype).min <= min(index) and max(index) <= np.iinfo(dtype).max
        ],
    )
    def test_categorical_index_check_matches_reference(self, dtype, index):
        index = np.array(index, dtype=dtype)
        logits = np.random.default_rng(2).normal(0, 1, (3, 3))

        def reference():
            _reference_index_check(index, 3)
            return scipy_log_softmax(logits, axis=1)[np.arange(3), index][:, None]

        fast = _outcome(lambda: ad.categorical_log_q(Tensor(logits), index, slice(0, 3)).data)
        ref = _outcome(reference)
        assert fast[0] == ref[0]
        if fast[0] == "raise":
            assert fast == ref
        else:
            np.testing.assert_allclose(np.frombuffer(fast[1]), np.frombuffer(ref[1]), atol=1e-12, rtol=0)

    def test_categorical_empty_index(self):
        out = ad.categorical_log_q(Tensor(np.zeros((0, 3))), np.zeros(0, dtype=np.int64), slice(0, 3))
        assert out.shape == (0, 1)


def test_forward_outputs_are_fresh_c_contiguous_float64(monkeypatch):
    # forward_op wraps a rule's output unchecked, so every rule must return a
    # new float64 ndarray in C order that shares no memory with its inputs
    seen = set()
    real_forward_op = ad.forward_op

    def checked_forward_op(name, inputs, attrs=None):
        out = real_forward_op(name, inputs, attrs)
        seen.add(name)
        assert type(out.data) is np.ndarray, name
        assert out.data.dtype == np.float64, name
        assert out.data.flags["C_CONTIGUOUS"] and out.data.flags["OWNDATA"], name
        for t in inputs:
            assert not np.shares_memory(out.data, t.data), name
        return out

    monkeypatch.setattr(ad, "forward_op", checked_forward_op)
    for case in _OP_CASES.values():
        for seed in range(3):
            params, builder, _ = case(np.random.default_rng(seed))
            builder(params)
    assert seen == set(OP_CATALOGUE)


@pytest.mark.parametrize("case", sorted(_OP_CASES))
def test_every_rule_is_dtype_generic(case):
    # the op cases again with float32 inputs (a batchnorm case gets float32 running moments, as a
    # float32 model holds them): each output and each input gradient is float32, and within float32
    # rounding of the float64 values
    params, builder, w = _OP_CASES[case](np.random.default_rng(5))
    if case.startswith("batchnorm"):
        state = BatchNormState(params[0].shape[1], np.float32)
        state.running_mean[:], state.running_var[:] = 0.1, 1.3
        act = {"batchnorm_train": "relu", "batchnorm_eval": "lrelu"}[case]
        builder = lambda p, training=case.endswith("train"): ad.batchnorm(p[0], p[1], p[2], state, training, act)  # noqa: E731
    narrow = [Tensor(p.data.astype(np.float32)) for p in params]
    assert all(t.data.dtype == np.float32 for t in narrow)
    runs = []
    for ps, cotangent in ((params, w), (narrow, None if w is None else w.astype(np.float32))):
        with Tape() as tape:
            out = builder(ps)
            runs.append((out.data, tape.backward(out, ps, cotangent)))
    (out64, grads64), (out32, grads32) = runs
    # weighted_sum folds its terms in Python floats: its sum, and a scalar term's gradient g * w, are float64
    folded = np.float64 if case == "weighted_sum" else np.float32
    assert out32.dtype == folded and all(g.dtype == (folded if g.ndim == 0 else np.float32) for g in grads32)
    np.testing.assert_allclose(out32, out64, rtol=1e-5, atol=1e-6)
    for g32, g64 in zip(grads32, grads64):
        np.testing.assert_allclose(g32, g64, rtol=1e-4, atol=1e-5)


def test_tensors_keep_float32_and_widen_the_rest_to_float64():
    assert Tensor(np.ones(2, np.float32)).data.dtype == np.float32
    assert Tensor(np.float32(1.0)).data.dtype == np.float32
    for values in ([1.0, 2.0], np.ones(2, np.float16), np.arange(2), 3, np.ones(2)):
        assert Tensor(values).data.dtype == np.float64


PROBES = 7  # a probe count that equals no dimension of any op case


@pytest.mark.parametrize("case", sorted(_OP_CASES))
def test_each_probe_of_a_stacked_forward_is_its_unstacked_forward_bit_for_bit(case):
    # grad_check runs all probes of a parameter as one pass, stacked on a leading axis: slice k of
    # the stacked output must be the unstacked output at probe k, so an op that reduced over the
    # probe axis, or broadcast a stacked input the wrong way, fails here
    rng = np.random.default_rng(17)
    params, builder, _ = _OP_CASES[case](rng)
    for j, p in enumerate(params):
        orig = p.data
        probes = orig + rng.normal(0.0, 0.1, (PROBES, *orig.shape))
        p.data = probes.reshape(ad._stacked_shape(orig.shape, PROBES))
        stacked = builder(params).data
        p.data = orig
        assert stacked.dtype == np.float64 and stacked.flags["C_CONTIGUOUS"], (case, j)
        for k in range(PROBES):
            p.data = np.array(probes[k])  # a 0-d probe stays 0-d
            single = builder(params).data
            p.data = orig
            assert stacked.shape == ad._stacked_shape(single.shape, PROBES), (case, j)
            assert stacked[k].tobytes() == single.tobytes(), (case, j, k)


_STACKED_SHAPE_ERRORS = [
    # two stacked inputs whose probe counts differ
    (lambda: ad.linear(_ones(7, 3, 4), _ones(5, 4, 2), _ones(2)),
     "linear: needs (B,I) @ (I,O) + (O,), got (7, 3, 4) @ (5, 4, 2) + (2,)"),
    # a stacked 1-D parameter is (K, 1, F), not (K, F)
    (lambda: ad.linear(_ones(3, 4), _ones(4, 2), _ones(7, 2)),
     "linear: needs (B,I) @ (I,O) + (O,), got (3, 4) @ (4, 2) + (7, 2)"),
    # scalar probes (K,) and batch probes (K,B,F) of one call share K, and a stack still takes one weight
    (lambda: ad.weighted_sum([_ones(7, 3, 4), _ones(5)], (1.0, 1.0)),
     f"{_WS_NEEDS}, got 2 weights for shapes (7, 3, 4), (5,)"),
    (lambda: ad.weighted_sum([_ones(7), _ones(3, 5), _ones(5, 3, 5)], (1.0, 1.0, 1.0)),
     f"{_WS_NEEDS}, got 3 weights for shapes (7,), (3, 5), (5, 3, 5)"),
    (lambda: ad.weighted_sum([_ones(7, 3, 4), _ones(7)], (1.0,)),
     f"{_WS_NEEDS}, got 1 weights for shapes (7, 3, 4), (7,)"),
    (lambda: ad.weighted_sum([_ones(2, 7, 3, 4)], (1.0,)),
     f"{_WS_NEEDS}, got 1 weights for shapes (2, 7, 3, 4)"),
    (lambda: ad.categorical_log_q(_ones(7, 2, 3), np.zeros(3, dtype=np.int64), slice(0, 3)),
     "categorical_log_q: needs B integer indices for a (B,F) q, got int64 (3,) for (7, 2, 3)"),
    (lambda: ad.categorical_log_q(_ones(2, 7, 2, 3), np.zeros(2, dtype=np.int64), slice(0, 3)),
     "categorical_log_q: needs a (B,F) q and a column range inside F, got (2, 7, 2, 3) and slice(0, 3, None)"),
    (lambda: ad.gaussian_log_q(_ones(7, 2, 4), np.zeros((7, 2)), slice(0, 4)),
     "gaussian_log_q: needs a (B,D) code c and 2D columns of q, got (7, 2), (7, 2, 4) and slice(0, 4, None)"),
    (lambda: ad.batchnorm(_ones(7, 5, 3), _ones(7, 1, 2), _ones(3), BatchNormState(3), True),
     "batchnorm: scale/shift must be (3,), got (7, 1, 2) and (3,)"),
    (lambda: ad.batchnorm(_ones(2, 7, 5, 3), _ones(3), _ones(3), BatchNormState(3), True),
     "batchnorm: needs (B,F) input, got (2, 7, 5, 3)"),
]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_each_probe_of_a_stacked_weighted_sum_is_its_unstacked_call(dtype):
    # scalar probes (K,) and batch probes (K,B,F), each batch probe reduced by its own mean, beside an
    # unstacked batch and scalar: slice k of the sum is the call on probe k, bit for bit
    rng = np.random.default_rng(22)
    batches, scalars = rng.normal(0, 1, (PROBES, 4, 3)).astype(dtype), rng.normal(0, 1, PROBES).astype(dtype)
    fixed = [Tensor(rng.normal(0, 1, (2, 5)).astype(dtype)), Tensor(rng.normal(0, 1))]
    weights = (0.3, -1.7, 2.5, 0.9)
    stacked = ad.weighted_sum([Tensor(batches), Tensor(scalars), *fixed], weights).data
    assert stacked.shape == (PROBES,) and stacked.dtype == np.float64
    for k in range(PROBES):
        single = ad.weighted_sum([Tensor(batches[k]), Tensor(np.array(scalars[k])), *fixed], weights).data
        assert single.shape == () and stacked[k].tobytes() == single.tobytes(), k


def test_stacked_inputs_that_are_no_probe_stack_are_shape_errors():
    for call, message in _STACKED_SHAPE_ERRORS:
        with pytest.raises(ShapeError) as err:
            call()
        assert str(err.value) == message


def _log_softmax_by_index(x):
    """Every column of log-softmax(x), each from one categorical_log_q call."""
    b, k = x.shape
    return np.concatenate([ad.categorical_log_q(Tensor(x), np.full(b, j), slice(0, k)).data for j in range(k)], axis=1)


class TestSoftmaxInvariants:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one_and_positive(self, seed):
        x = np.random.default_rng(seed).uniform(-30, 30, (4, 7))
        out = np.exp(_log_softmax_by_index(x))
        assert np.all(out > 0.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_log_softmax_matches_log_of_softmax(self, seed):
        x = np.random.default_rng(seed).uniform(-30, 30, (4, 7))
        ls = _log_softmax_by_index(x)
        np.testing.assert_allclose(ls, scipy_log_softmax(x, axis=1), atol=1e-12)
        assert np.all(np.isfinite(ls))


# inputs for the activation epilogues: signed zeros, infinities, NaN, subnormals and
# the smallest normal, then random values of both signs
_EPILOGUE_EDGES = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308]
)


def _edge_inputs(dtype):
    rng = np.random.default_rng(0)
    x = np.concatenate([_EPILOGUE_EDGES, rng.normal(0, 3, 200), rng.normal(0, 1e-300, 20)]).reshape(1, -1).astype(dtype)
    return x, rng.normal(0, 1, x.shape).astype(dtype)


def _run_epilogue(h, g, act):
    """The epilogue ``act`` on pre-activation h, and its backward of g: (out, gradient at h)."""
    out, act_saved = ad._epilogue(h, {"act": act})
    return out, ad._ACTS[act][1](g, act_saved)


_DTYPES = [pytest.param(np.float64, id="float64"), pytest.param(np.float32, id="float32")]


class TestEpilogueEdges:
    """Each activation epilogue at +-0, +-inf, NaN and subnormals, bitwise against its reference form."""

    @pytest.mark.parametrize(
        "rate, dtype",
        [pytest.param(rate, dtype, id=f"{rate}{suffix}")
         for dtype, suffix in ((np.float64, ""), (np.float32, "-float32")) for rate in (0.01, 0.1, 0.2, 0.3, 0.7)],
    )
    def test_lrelu_bitwise_equal_to_where_forms(self, monkeypatch, rate, dtype):
        # the masks hold for any leak in (0, 1), as LRELU_RATE's comment states; 0.1 is the one in use.
        # In float32 the where forms read the rate as float32 too, as a float32 array reads a Python float
        monkeypatch.setattr(ad, "LRELU_RATE", rate)
        x, g = _edge_inputs(dtype)
        out, dx = _run_epilogue(x, g, "lrelu")
        assert out.dtype == dx.dtype == dtype
        assert out.tobytes() == np.where(x > 0.0, x, dtype(rate) * x).tobytes()
        assert dx.tobytes() == (g * np.where(x > 0.0, dtype(1.0), dtype(rate))).tobytes()

    @pytest.mark.parametrize("dtype", _DTYPES)
    def test_relu_bitwise_equal_to_where_forms(self, dtype):
        # max(x, 0) is x where x > 0, NaN where x is NaN, and +0.0 elsewhere, -0.0 included; the mask is 0
        # at both zeros and at NaN
        x, g = _edge_inputs(dtype)
        out, dx = _run_epilogue(x, g, "relu")
        assert out.dtype == dx.dtype == dtype
        assert out.tobytes() == np.where((x > 0.0) | np.isnan(x), x, dtype(0.0)).tobytes()
        assert dx.tobytes() == (g * np.where(x > 0.0, dtype(1.0), dtype(0.0))).tobytes()

    @pytest.mark.parametrize("dtype", _DTYPES)
    def test_sigmoid_tails_and_edges(self, dtype):
        # exactly 0 far left (exp overflows, silently), exactly 1 far right, 1/2 at both zeros, NaN kept;
        # the gradient y * (1 - y) is 0 in both tails and 1/4 at the zeros
        x, g = _edge_inputs(dtype)
        with np.errstate(all="raise"):
            out, dx = _run_epilogue(x, g, "sigmoid")
        assert out.dtype == dx.dtype == dtype
        assert out[0, 2] == 1.0 and out[0, 3] == 0.0 and np.isnan(out[0, 4])
        assert out[0, 0] == out[0, 1] == 0.5
        assert dx[0, 2] == dx[0, 3] == 0.0 and dx[0, 0] == g[0, 0] * 0.25 and np.isnan(dx[0, 4])
        assert dx.tobytes() == (g * out * (1.0 - out)).tobytes()

    @pytest.mark.parametrize("act", ["tanh", "", "Relu", 0, ["relu"]])
    def test_unknown_activation_is_a_usage_error_naming_it(self, act):
        state = BatchNormState(2)
        with pytest.raises(UsageError, match=rf"^unknown activation {re.escape(repr(act))} \(one of relu, lrelu, sigmoid, or None\)$"):
            ad.linear(_ones(2, 2), _ones(2, 2), _ones(2), act)
        with pytest.raises(UsageError, match=rf"^unknown activation {re.escape(repr(act))}"):
            ad.batchnorm(_ones(2, 2), _ones(2), _ones(2), state, True, act)
        assert state.running_mean.tolist() == [0.0, 0.0]


def _fused_and_unfused(op, act, rng, leak=0.1):
    """op's output and input gradients with the epilogue ``act`` folded in, and the same computed by
    hand: the op without it, the epilogue's forward expression (an lrelu of ``leak``), the epilogue's
    backward expression."""
    if op == "linear":
        inputs = [Tensor(rng.normal(0, 1, s)) for s in ((6, 4), (4, 3), (3,))]
        run = lambda *a: ad.linear(*inputs, *a)  # noqa: E731
    else:
        inputs = [Tensor(rng.normal(0, 1, (6, 3))), Tensor(rng.uniform(0.5, 1.5, 3)), Tensor(rng.normal(0, 0.3, 3))]
        run = lambda *a, training=op.endswith("train"): ad.batchnorm(*inputs, BatchNormState(3), training, *a)  # noqa: E731
    g = rng.normal(0, 1, (6, 3))
    with Tape() as tape:
        out = run(act)
        fused = (out.data, tape.backward(out, inputs, g))
    with Tape() as tape:
        h = run()
        y = {"relu": lambda: np.maximum(h.data, 0.0), "lrelu": lambda: np.maximum(h.data, leak * h.data),
             "sigmoid": lambda: 1.0 / (1.0 + np.exp(-h.data))}[act]()
        gh = {"relu": lambda: g * (h.data > 0.0), "lrelu": lambda: g * np.maximum(h.data > 0.0, leak),
              "sigmoid": lambda: g * y * (1.0 - y)}[act]()
        unfused = (y, tape.backward(h, inputs, gh))
    return fused, unfused


@pytest.mark.parametrize("act", ["relu", "lrelu", "sigmoid"])
@pytest.mark.parametrize("op", ["linear", "batchnorm_train", "batchnorm_eval"])
def test_a_folded_epilogue_is_the_op_then_the_activation_bit_for_bit(op, act):
    (out, grads), (ref_out, ref_grads) = _fused_and_unfused(op, act, np.random.default_rng(12))
    assert out.tobytes() == ref_out.tobytes()
    assert [gi.tobytes() for gi in grads] == [gi.tobytes() for gi in ref_grads]


@pytest.mark.parametrize("op", ["linear", "batchnorm_train", "batchnorm_eval"])
def test_every_folded_lrelu_reads_the_one_leak(monkeypatch, op):
    # no op takes a rate of its own: a folded lrelu reads LRELU_RATE, forward and backward, when it runs
    assert "rate" not in inspect.signature(ad.linear if op == "linear" else ad.batchnorm).parameters
    monkeypatch.setattr(ad, "LRELU_RATE", 0.3)
    (out, grads), (ref_out, ref_grads) = _fused_and_unfused(op, "lrelu", np.random.default_rng(13), leak=0.3)
    assert out.tobytes() == ref_out.tobytes()
    assert [gi.tobytes() for gi in grads] == [gi.tobytes() for gi in ref_grads]


@pytest.mark.parametrize("dtype", _DTYPES)
@pytest.mark.parametrize("width", [64, 128, 256])
def test_the_one_column_input_gradient_is_the_k1_product_bit_for_bit(dtype, width):
    # a layer of one output column computes g * w.T where g @ w.T would run a K=1 GEMM
    rng = np.random.default_rng(width)
    x, w, b = (Tensor(rng.normal(0, 1, s).astype(dtype)) for s in ((64, width), (width, 1), (1,)))
    g = rng.normal(0, 1, (64, 1)).astype(dtype)
    with Tape() as tape:
        (gx,) = tape.backward(ad.linear(x, w, b), [x], g)
    assert gx.dtype == dtype and gx.flags["C_CONTIGUOUS"]
    assert gx.tobytes() == (g @ w.data.T).tobytes()


class TestBatchnorm:
    def test_train_mode_moments(self):
        # eps=1e-5 shifts output variance by eps/var; keep input var >> 10*eps/1e-6
        rng = np.random.default_rng(3)
        x = rng.normal(5.0, 10.0, (64, 4))
        state = BatchNormState(4)
        out = ad.batchnorm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)), state, True)
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.data.var(axis=0), 1.0, atol=1e-6)

    def test_batch_moments_bitwise_equal_numpy_mean_and_var(self):
        from infogan_lab.autodiff import _batch_moments

        rng = np.random.default_rng(8)
        for _ in range(200):
            b, f = rng.integers(1, 300), rng.integers(1, 40)
            x = rng.normal(rng.normal(0.0, 5.0), rng.uniform(1e-3, 10.0), (b, f))
            before = x.tobytes()
            for arr in (x, np.asfortranarray(x)):
                mean, var, _, centered = _batch_moments(arr)
                assert mean.tobytes() == arr.mean(axis=0).tobytes()
                assert var.tobytes() == arr.var(axis=0).tobytes()
                assert centered.tobytes() == (arr - arr.mean(axis=0)).tobytes()
            assert x.tobytes() == before  # the input is left as it was

    def test_running_stats_momentum(self):
        state = BatchNormState(2)
        x = np.array([[1.0, 2.0], [3.0, 6.0]])
        ad.batchnorm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), state, True)
        np.testing.assert_allclose(state.running_mean, 0.9 * 0.0 + 0.1 * x.mean(axis=0))
        np.testing.assert_allclose(state.running_var, 0.9 * 1.0 + 0.1 * x.var(axis=0))

    def test_train_mode_updates_the_running_arrays_in_place(self):
        # an array taken from the state before a step (a checkpoint entry) stays the state's array
        state = BatchNormState(2)
        mean_before, var_before = state.running_mean, state.running_var
        x = np.array([[1.0, 2.0], [3.0, 6.0]])
        ad.batchnorm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), state, True)
        assert state.running_mean is mean_before and state.running_var is var_before
        np.testing.assert_array_equal(mean_before, 0.9 * np.zeros(2) + (1.0 - 0.9) * x.mean(axis=0))
        np.testing.assert_array_equal(var_before, 0.9 * np.ones(2) + (1.0 - 0.9) * x.var(axis=0))

    @staticmethod
    def _long_form_grads(x, gamma, beta, g, training, act, rate, running_mean, running_var):
        """The batchnorm backward before its compact form, in float64: the chain through the batch mean and
        variance, the activation's derivative first. Returns (dx, dgamma, dbeta, the largest term of dx)."""
        mean, var = (x.mean(axis=0), x.var(axis=0)) if training else (running_mean, running_var)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        centered = x - mean
        h = gamma * (centered * inv_std) + beta
        if act == "relu":
            g = g * (h > 0.0)
        elif act == "lrelu":
            g = g * np.where(h > 0.0, 1.0, rate)
        elif act == "sigmoid":
            y = 1.0 / (1.0 + np.exp(-h))
            g = g * y * (1.0 - y)
        n, dxhat = x.shape[0], g * gamma
        if training:
            dvar = (dxhat * centered).sum(axis=0) * (-0.5) * inv_std**3
            dmean = -(dxhat.sum(axis=0)) * inv_std + dvar * (-2.0) * centered.sum(axis=0) / n
            dx = dxhat * inv_std + dvar * 2.0 * centered / n + dmean / n
        else:
            dx = dxhat * inv_std
        return dx, (g * (centered * inv_std)).sum(axis=0), g.sum(axis=0), np.max(np.abs(dxhat * inv_std))

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("act", [None, "relu", "lrelu", "sigmoid"])
    @pytest.mark.parametrize("b, f", list(itertools.product((2, 5, 64), (1, 3, 128))))
    def test_compact_backward_matches_the_long_form(self, training, act, b, f):
        # dgamma and dbeta are the long form's sums bit for bit, as is eval mode's dx. Train mode's dx,
        # (gamma * inv_std / n) * (n * g - dbeta - xhat * dgamma), drops the long form's sum(centered)
        # term, exactly 0, and rounds otherwise: it must lie within 1e-12 of the largest term
        # |g * gamma * inv_std|, a relative tolerance; 20 seeds read at most 5.1e-14, at b = 2, where the
        # terms cancel to nearly 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.normal(rng.normal(0.0, 3.0), rng.uniform(0.1, 5.0), (b, f))
            gamma, beta, g = rng.normal(1.0, 0.5, f), rng.normal(0.0, 0.5, f), rng.normal(0.0, 1.0, (b, f))
            state = BatchNormState(f)
            state.running_mean[...], state.running_var[...] = rng.normal(0.0, 1.0, f), rng.uniform(0.5, 2.0, f)
            dx_ref, dgamma_ref, dbeta_ref, term = self._long_form_grads(
                x, gamma, beta, g, training, act, 0.1, state.running_mean.copy(), state.running_var.copy()
            )
            inputs = [Tensor(x), Tensor(gamma), Tensor(beta)]
            with Tape() as tape:
                dx, dgamma, dbeta = tape.backward(ad.batchnorm(*inputs, state, training, act), inputs, g)
            assert dgamma.tobytes() == dgamma_ref.tobytes() and dbeta.tobytes() == dbeta_ref.tobytes()
            if training:
                assert np.max(np.abs(dx - dx_ref)) <= 1e-12 * term
            else:
                assert dx.tobytes() == dx_ref.tobytes()

    def test_eval_uses_running_stats(self):
        state = BatchNormState(1)
        state.running_mean = np.array([2.0])
        state.running_var = np.array([4.0])
        out = ad.batchnorm(Tensor([[4.0]]), Tensor(np.ones(1)), Tensor(np.zeros(1)), state, False)
        np.testing.assert_allclose(out.data, (4.0 - 2.0) / np.sqrt(4.0 + BN_EPS))


class TestBackward:
    def test_square_sum(self):
        # with c = 0 and log sigma 0, gaussian_log_q is -sum(mu**2)/2 minus a constant, so its gradient
        # at the mean columns is -mu exactly; at each log sigma it is mu**2 - 1
        q = Tensor([[1.0, 2.0, 3.0, 0.0, 0.0, 0.0]])
        with Tape() as tape:
            (g,) = tape.backward(ad.gaussian_log_q(q, np.zeros((1, 3)), slice(0, 6)), [q])
        np.testing.assert_array_equal(g, [[-1.0, -2.0, -3.0, 0.0, 3.0, 8.0]])

    def test_mean_spreads_evenly(self):
        x = Tensor(np.arange(4.0).reshape(2, 2))
        with Tape() as tape:
            (g,) = tape.backward(ad.weighted_sum([x], (1.0,)), [x])
        np.testing.assert_array_equal(g, np.full((2, 2), 0.25))

    def test_fanout_accumulates(self):
        x = Tensor(2.0)
        with Tape() as tape:
            y = ad.weighted_sum([x, x], (3.0, 5.0))
            (g,) = tape.backward(y, [x])
        np.testing.assert_array_equal(g, 8.0)

    def test_unreached_leaf_gets_zeros(self):
        x, other = Tensor([[1.0, 2.0]]), Tensor(np.ones((3, 3)))
        with Tape() as tape:
            ad.weighted_sum([other], (1.0,))
            g_x, g_other = tape.backward(ad.weighted_sum([x], (1.0,)), [x, other])
        np.testing.assert_array_equal(g_x, [[0.5, 0.5]])
        np.testing.assert_array_equal(g_other, np.zeros((3, 3)))

    def test_wrt_never_recorded_gets_zeros(self):
        x, stranger = Tensor([[1.0, 2.0]]), Tensor(np.ones((2, 3)))
        with Tape() as tape:
            (g,) = tape.backward(ad.weighted_sum([x], (1.0,)), [stranger])
        np.testing.assert_array_equal(g, np.zeros((2, 3)))

    def test_pruned_gradient_is_bitwise_equal(self):
        rng = np.random.default_rng(5)
        a, b, c = Tensor(rng.normal(0, 1, (4, 3))), Tensor(rng.normal(0, 1, (3, 2))), Tensor(rng.normal(0, 1, 2))
        s, t = Tensor(rng.normal(0, 1, (3, 3))), Tensor(rng.normal(0, 1, 3))
        with Tape() as tape:
            h = ad.linear(ad.linear(a, s, t, "sigmoid"), b, c, "lrelu")
            root = ad.weighted_sum([h, ad.linear(a, b, c)], (1.0, 1.0))
            v = rng.normal(0, 1, root.shape)
            (only_a,) = tape.backward(root, [a], v)
            both = tape.backward(root, [a, b], v)
        assert only_a.tobytes() == both[0].tobytes()
        assert both[1].shape == (3, 2) and np.any(both[1] != 0.0)

    def test_sweep_skips_nodes_no_wrt_tensor_feeds(self, monkeypatch):
        calls = []

        def logged(rule):
            def run(g, node, need, out):
                calls.append((node.op, need))
                return rule(g, node, need, out)
            return run

        monkeypatch.setattr(ad, "_OPS", {name: (f, logged(b)) for name, (f, b) in ad._OPS.items()})
        x, w, b = Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))), Tensor(np.ones(2))
        with Tape() as tape:
            h = ad.linear(ad.linear(x, Tensor(np.eye(2)), Tensor(np.zeros(2)), "sigmoid"), Tensor(np.eye(2)), b, "relu")
            root = ad.weighted_sum([ad.linear(h, w, b)], (1.0,))
            tape.backward(root, [w])
        # the two layers before depend on x and constants only, so only the last linear and weighted_sum run,
        # and that linear is asked for w alone
        assert calls == [("weighted_sum", (True,)), ("linear", (False, True, False))]

    def test_non_scalar_root_rejected(self):
        x = Tensor(np.ones((2, 2)))
        with Tape() as tape:
            y = ad.linear(x, Tensor(np.eye(2)), Tensor(np.zeros(2)))
            with pytest.raises(UsageError, match=r"root must be scalar, got shape \(2, 2\)"):
                tape.backward(y, [x])

    @pytest.mark.parametrize("read_by_an_op", [False, True], ids=["unread-leaf", "read-leaf"])
    def test_root_must_be_on_tape(self, read_by_an_op):
        # a leaf is never a node, also after an op on the tape has read it
        x = Tensor(1.0)
        with Tape() as tape:
            if read_by_an_op:
                ad.weighted_sum([x], (2.0,))
            with pytest.raises(UsageError, match="not recorded"):
                tape.backward(x, [x])

    def test_multiple_backward_roots_on_one_tape(self):
        x = Tensor(3.0)
        with Tape() as tape:
            a = ad.weighted_sum([x], (2.0,))
            b = ad.weighted_sum([a, x], (1.0, 1.0))
            np.testing.assert_array_equal(tape.backward(a, [x])[0], 2.0)
            np.testing.assert_array_equal(tape.backward(b, [x])[0], 3.0)

    def test_exit_drops_nodes(self):
        w = Tensor([[1.0, 2.0]])
        with Tape() as tape:
            ad.weighted_sum([ad.weighted_sum([w], (2.0,))], (1.0,))
            assert len(tape.nodes) == 2
        assert w._tape is None and tape.nodes is None

    def test_backward_after_exit_raises(self):
        w = Tensor([[1.0, 2.0]])
        with Tape() as tape:
            y = ad.weighted_sum([w], (2.0,))
        with pytest.raises(UsageError, match="tape is closed"):
            tape.backward(y, [w])

    def test_closed_tape_cannot_record_again(self):
        with Tape() as tape:
            pass
        with pytest.raises(UsageError, match="closed"):
            with tape:
                pass

    def test_no_recording_without_tape(self):
        out = ad.weighted_sum([Tensor(1.0), Tensor(2.0)], (1.0, 1.0))
        assert out.node is None

    def test_cotangent_ones_on_scalar_root_matches_default(self):
        rng = np.random.default_rng(6)
        x, w, b = Tensor(rng.normal(0, 1, (4, 3))), Tensor(rng.normal(0, 1, (3, 2))), Tensor(rng.normal(0, 1, 2))
        with Tape() as tape:
            root = ad.sigmoid_cross_entropy(ad.linear(x, w, b), 0)
            default = tape.backward(root, [x, w, b])
            seeded = tape.backward(root, [x, w, b], np.ones(()))
        assert [g.tobytes() for g in seeded] == [g.tobytes() for g in default]

    def test_cotangent_gives_the_vector_jacobian_product(self):
        # w and b feed both layers of a non-scalar root, so their products accumulate over the fan-out
        rng = np.random.default_rng(8)
        x, w, b = Tensor(rng.normal(0, 1, (4, 3))), Tensor(rng.normal(0, 1, (3, 3))), Tensor(rng.normal(0, 1, 3))
        v = rng.normal(0, 1, (4, 3))
        with Tape() as tape:
            root = ad.linear(ad.linear(x, w, b), w, b)
            g_x, g_w, g_b = tape.backward(root, [x, w, b], v)
        h, g_h = x.data @ w.data + b.data, v @ w.data.T
        np.testing.assert_allclose(g_x, g_h @ w.data.T, rtol=1e-13)
        np.testing.assert_allclose(g_w, x.data.T @ g_h + h.T @ v, rtol=1e-13)
        np.testing.assert_allclose(g_b, g_h.sum(axis=0) + v.sum(axis=0), rtol=1e-13)

    def test_cotangent_is_copied(self):
        x = Tensor([[1.0, 2.0]])
        v = np.array([[3, 4]])  # integers: the seed is a float64 copy
        with Tape() as tape:
            (g,) = tape.backward(ad.linear(x, Tensor(2.0 * np.eye(2)), Tensor(np.zeros(2))), [x], v)
        assert g.dtype == np.float64 and not np.shares_memory(g, v)
        np.testing.assert_array_equal(g, [[6.0, 8.0]])

    @pytest.mark.parametrize("shape", [(), (2,), (3, 2), (1, 2, 3)])
    def test_cotangent_shape_must_match_root(self, shape):
        x = Tensor(np.ones((2, 3)))
        with Tape() as tape:
            y = ad.linear(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
            with pytest.raises(UsageError) as err:
                tape.backward(y, [x], np.ones(shape))
        assert str(err.value) == f"backward: cotangent shape {shape} does not match root shape (2, 3)"


def _masked_rule_cases():
    rng = np.random.default_rng(9)

    def bn(training, act=None):
        state = BatchNormState(3)
        state.running_mean, state.running_var = rng.normal(0, 1, 3), rng.uniform(0.5, 2.0, 3)
        return lambda x, gamma, beta: ad.batchnorm(x, gamma, beta, state, training, act)

    return {
        "linear": (ad.linear, [(5, 4), (4, 3), (3,)]),
        "linear_lrelu": (lambda x, w, b: ad.linear(x, w, b, "lrelu"), [(5, 4), (4, 3), (3,)]),
        "linear_one_column": (ad.linear, [(5, 4), (4, 1), (1,)]),
        "weighted_sum": (lambda *xs: ad.weighted_sum(xs, (0.5, -1.0, 2.0)), [(5, 3), (2, 4), (5, 3)]),
        "batchnorm_train": (bn(True), [(5, 3), (3,), (3,)]),
        "batchnorm_eval": (bn(False), [(5, 3), (3,), (3,)]),
        "batchnorm_train_relu": (bn(True, "relu"), [(5, 3), (3,), (3,)]),
        "batchnorm_eval_sigmoid": (bn(False, "sigmoid"), [(5, 3), (3,), (3,)]),
    }


class TestMaskedRules:
    """A multi-input rule computes exactly the input gradients ``need`` asks for."""

    @pytest.mark.parametrize("case", sorted(_masked_rule_cases()))
    def test_every_need_subset_matches_the_full_rule(self, case):
        op, shapes = _masked_rule_cases()[case]
        rng = np.random.default_rng(3)
        inputs = [Tensor(rng.normal(0, 1, s)) for s in shapes]
        with Tape() as tape:
            out = op(*inputs)
            node = tape.nodes[out.node]
        rule = ad._OPS[node.op][1]
        g = rng.normal(0, 1, out.shape)
        full = rule(g, node, (True,) * len(inputs), (None,) * len(inputs))
        assert all(isinstance(gi, np.ndarray) for gi in full)
        for need in itertools.product((False, True), repeat=len(inputs)):
            got = rule(g, node, need, (None,) * len(inputs))
            assert len(got) == len(inputs)
            for needed, gi, ref in zip(need, got, full):
                if needed:
                    assert gi.tobytes() == ref.tobytes()
                else:
                    assert gi is None


    @pytest.mark.parametrize("case", sorted(_masked_rule_cases()))
    def test_a_rule_given_destinations_returns_the_same_bits(self, case):
        # a rule writes a gradient into its destination or returns a fresh one: either way the bits of
        # the rule without destinations, and a rule never writes one it was not asked for
        op, shapes = _masked_rule_cases()[case]
        rng = np.random.default_rng(4)
        inputs = [Tensor(rng.normal(0, 1, s)) for s in shapes]
        with Tape() as tape:
            out = op(*inputs)
            node = tape.nodes[out.node]
        rule = ad._OPS[node.op][1]
        g = rng.normal(0, 1, out.shape)
        full = rule(g, node, (True,) * len(inputs), (None,) * len(inputs))
        for need in itertools.product((False, True), repeat=len(inputs)):
            dests = tuple(np.full(s, np.nan) for s in shapes)
            got = rule(g, node, need, dests)
            for needed, gi, ref, d in zip(need, got, full, dests):
                if needed:
                    assert gi.tobytes() == ref.tobytes()
                else:
                    assert gi is None and np.isnan(d).all()


class TestBackwardDestinations:
    """``Tape.backward``'s ``out``: each gradient lands in its destination with the bits of a sweep without one.

    Each runs in float64, the dtype of the gradient checks, and in float32, the dtype of the training buffers.
    """

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_fan_out_accumulates_in_the_destination_with_the_bits_of_the_plain_sweep(self, dtype):
        rng = np.random.default_rng(6)
        x, w, b = (Tensor(rng.normal(0, 1, s).astype(dtype)) for s in ((5, 3), (3, 3), 3))
        with Tape() as tape:
            # w and b feed two linear ops, and the second reads the first's output; the root's own
            # gradient is the seed, a scalar of the input dtype
            root = ad.sigmoid_cross_entropy(ad.linear(ad.linear(x, w, b, "lrelu"), w, b, "sigmoid"), 1)
            plain = tape.backward(root, [w, b, x, root])
            dests = [np.full(w.shape, np.nan, dtype), np.full(b.shape, np.nan, dtype), None, np.full((), np.nan, dtype)]
            got = tape.backward(root, [w, b, x, root], out=dests)
        assert got[0] is dests[0] and got[1] is dests[1] and got[3] is dests[3]
        assert {a.dtype for a in plain} == {np.dtype(dtype)}
        assert [a.tobytes() for a in got] == [a.tobytes() for a in plain]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_an_input_named_twice_by_one_op_adds_into_its_destination(self, dtype):
        # batchnorm writes its scale and shift gradients into their destinations: one tensor as both
        # gets its destination at the first place only, and the second gradient is added into it
        rng = np.random.default_rng(7)
        x, p = Tensor(rng.normal(0, 1, (5, 3)).astype(dtype)), Tensor(rng.normal(1, 0.5, 3).astype(dtype))
        batch = Tensor(rng.normal(1, 0.5, (1, 3)).astype(dtype))
        for twice, build in ((batch, lambda: ad.weighted_sum([batch, batch], (2.0, 3.0))),
                             (p, lambda: ad.batchnorm(x, p, p, BatchNormState(3, dtype), True, "relu"))):
            with Tape() as tape:
                root = ad.weighted_sum([build()], (1.0,))
                (plain,) = tape.backward(root, [twice])
                d = np.full(twice.shape, np.nan, dtype)
                (got,) = tape.backward(root, [twice], out=[d])
            assert got is d and plain.dtype == dtype and d.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_a_tensor_no_rule_reached_gets_zeros_written_into_its_destination(self, dtype):
        x, other = Tensor(np.ones((2, 2), dtype)), Tensor(np.ones(3, dtype))
        with Tape() as tape:
            root = ad.weighted_sum([x], (1.0,))
            d = np.full(3, np.nan, dtype)
            _, got = tape.backward(root, [x, other], out=[None, d])
        assert got is d
        np.testing.assert_array_equal(d, np.zeros(3))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("fan_out", [False, True])
    def test_a_gradient_of_another_dtype_is_refused_naming_its_rule(self, monkeypatch, dtype, fan_out):
        # a rule that leaks the other dtype is refused before its gradient is written, never cast: on the
        # first reach its destination stays unwritten, and on fan-out it keeps what earlier places wrote
        other = np.dtype(np.float64 if dtype == np.float32 else np.float32)
        forward, backward = ad._OPS["weighted_sum"]
        monkeypatch.setitem(ad._OPS, "weighted_sum", (forward, lambda g, node, need, out: [
            gi if fan_out and i == 0 else gi.astype(other) for i, gi in enumerate(backward(g, node, need, out))]))
        x = Tensor(np.ones((1, 3), dtype))
        with Tape() as tape:
            root = ad.weighted_sum([x, x], (2.0, 3.0)) if fan_out else ad.weighted_sum([x], (2.0,))
            d = np.full((1, 3), np.nan, dtype)
            message = f"^backward: the weighted_sum rule gave a {other} gradient for a {np.dtype(dtype)} destination$"
            with pytest.raises(UsageError, match=message):
                tape.backward(root, [x], out=[d])
        if fan_out:
            assert d.tobytes() == np.full((1, 3), 2.0 / 3, dtype).tobytes()
        else:
            assert np.isnan(d).all()

    @pytest.mark.parametrize("n_wrt, dest, message", [
        (1, [np.zeros(3)], r"a destination of shape \(3,\) and dtype float64 for a wrt tensor of shape \(1, 3\) and dtype float64"),
        (1, [np.zeros((1, 3), np.float32)], r"a destination of shape \(1, 3\) and dtype float32 for a wrt tensor of shape \(1, 3\) and dtype float64"),
        (1, [None, None], r"2 destinations for 1 wrt tensors"),
        # one destination per tensor: a second one would be left unwritten
        (2, [np.zeros((1, 3)), np.zeros((1, 3))], r"wrt tensor 1 repeats an earlier one with another destination"),
    ])
    def test_a_destination_must_match_its_tensor(self, n_wrt, dest, message):
        x = Tensor(np.ones((1, 3)))
        with Tape() as tape:
            root = ad.weighted_sum([x], (1.0,))
            with pytest.raises(UsageError, match=message):
                tape.backward(root, [x] * n_wrt, out=dest)


class TestGradCheck:
    def test_quadratic_is_nearly_exact(self):
        # -sum(mu**2)/2 minus a constant at log sigma 0: a central difference of a quadratic is exact up to
        # rounding; each log sigma s moves it by -s - mu**2 * (exp(-2s) - 1) / 2, whose third derivative is small
        params = [Tensor([[1.0, -2.0, 0.5, 0.0, 0.0, 0.0]])]
        err = grad_check(lambda p: ad.gaussian_log_q(p[0], np.zeros((1, 3)), slice(0, 6)), params, step=1e-6)
        assert err <= 1e-9

    @pytest.mark.parametrize("label", [0, 1])
    def test_sigmoid_cross_entropy_disc_loss(self, label):
        # mean log sigmoid(x) = -(label-1 cross-entropy), mean log(1 - sigmoid(x)) = -(label-0 cross-entropy)
        logits = Tensor(np.random.default_rng(7).normal(0, 2, (8, 8)))

        def mean_log_s(p):
            return ad.weighted_sum([ad.sigmoid_cross_entropy(p[0], label)], (-1.0,))

        assert grad_check(mean_log_s, [logits], step=1e-6) <= 1e-5

    def test_step_bounds(self):
        with pytest.raises(UsageError):
            grad_check(lambda p: ad.weighted_sum([p[0]], (1.0,)), [Tensor(1.0)], step=0.5)

    @pytest.mark.parametrize("params", [[], [Tensor(np.zeros((0, 3)))]], ids=["no-tensor", "size-0-tensor"])
    def test_check_with_no_coordinates_is_refused(self, params):
        # a check of nothing would read error 0.0: a pass that shows nothing
        with pytest.raises(UsageError, match="^grad_check: the parameters hold no entries"):
            grad_check(lambda p: ad.weighted_sum([Tensor(1.0)], (1.0,)), params)

    def test_nondeterministic_builder_rejected(self):
        state = {"n": 0}

        def noisy(p):
            state["n"] += 1
            return ad.weighted_sum([p[0]], (float(state["n"]),))

        with pytest.raises(UsageError, match="deterministic"):
            grad_check(noisy, [Tensor(1.0)])

    def test_deterministic_nan_builder_reports_inf(self):
        # NaN != NaN, so the determinism probe must not take a builder that is NaN every time for a noisy one
        def nan_loss(p):
            return ad.weighted_sum([p[0]], (math.nan,))

        assert grad_check(nan_loss, [Tensor([[1.0, 2.0]])]) == math.inf

    def test_builder_nan_only_sometimes_is_not_deterministic(self):
        state = {"n": 0}

        def flaky(p):
            state["n"] += 1
            return ad.weighted_sum([p[0]], (math.nan if state["n"] % 2 else 1.0,))

        with pytest.raises(UsageError, match="deterministic"):
            grad_check(flaky, [Tensor(1.0)])

    def test_params_restored_after_check(self):
        p = Tensor(np.array([1.0, 2.0]))
        before = p.data.copy()
        grad_check(lambda ps: ad.linear(Tensor(np.ones((1, 2))), Tensor(np.eye(2)), ps[0]), [p], readout=np.array([[1.0, -1.0]]))
        np.testing.assert_array_equal(p.data, before)

    # call 1 is the taped pass; call 2 is the stacked pass of every probe of every parameter
    @pytest.mark.parametrize("n_params", [1, 2])
    def test_coordinate_restored_when_builder_raises(self, n_params):
        ws = [Tensor(np.array([[0.0, 1.0]]) + j) for j in range(n_params)]
        arrays = [w.data for w in ws]
        calls = {"n": 0}

        def loss(p):
            calls["n"] += 1
            if calls["n"] == 2:
                raise DomainError("probe failed")
            return ad.weighted_sum(p, (2.0,) * n_params)

        with pytest.raises(DomainError, match="probe failed"):
            grad_check(loss, ws)
        assert calls["n"] == 2
        for j, w in enumerate(ws):
            # the very array it held before: a model parameter is a view into its block's vector
            assert w.data is arrays[j]
            np.testing.assert_array_equal(w.data, [[0.0 + j, 1.0 + j]])

    @pytest.mark.parametrize("raises", [False, True])
    def test_probe_stacks_are_tiled_rows_moved_on_their_diagonals_bit_for_bit(self, raises):
        # every parameter's stack, as the builder sees it, against rows tiled and moved one entry at a
        # time: row offset + i at orig + step, row n + offset + i at orig - step, the last row unmoved
        step, rng = 1e-6, np.random.default_rng(11)
        layout = [((1,), np.float64), ((3,), np.float32), ((2, 3), np.float64),
                  ((2, 3), np.float32), ((1,), np.float32), ((3,), np.float64)]
        params = [Tensor(rng.normal(0.0, 1.0, shape).astype(dtype)) for shape, dtype in layout]
        origs = [p.data for p in params]
        before = [o.tobytes() for o in origs]
        seen = []

        def loss(p):
            seen.append([t.data for t in p])
            if raises and len(seen) == 2:
                raise DomainError("stacked pass failed")
            return ad.weighted_sum([p[2]], (1.0,))

        if raises:
            with pytest.raises(DomainError, match="stacked pass failed"):
                grad_check(loss, params, step)
        else:
            assert grad_check(loss, params, step) <= 1e-6
        n = sum(o.size for o in origs)
        k, offset = 2 * n + 1, 0
        for orig, stack in zip(origs, seen[1]):
            want = np.tile(orig.ravel(), (k, 1))
            for i in range(orig.size):
                want[offset + i, i] += step
                want[n + offset + i, i] -= step
            offset += orig.size
            assert stack.dtype == orig.dtype and stack.shape == ad._stacked_shape(orig.shape, k)
            assert stack.tobytes() == want.tobytes()
        # each parameter holds the very array it held before, unmoved
        for p, orig, (shape, dtype) in zip(params, origs, layout):
            assert p.data is orig and p.data.shape == shape and p.data.dtype == dtype
        assert [p.data.tobytes() for p in params] == before

    @pytest.mark.parametrize("name", sorted(_OP_CASES))
    def test_error_is_a_per_probe_vdot_reference_bit_for_bit(self, name):
        # grad_check reads all probes in one call and scores them as arrays; a reference reads each probe
        # with its own np.vdot (or .item()) and scores each coordinate in Python floats
        for seed in range(3):
            params, builder, w = _OP_CASES[name](np.random.default_rng(seed))
            outs = []

            def recording(p):
                outs.append(builder(p))
                return outs[-1]

            got = grad_check(recording, params, 1e-6, w)
            with Tape() as tape:
                analytic = tape.backward(builder(params), params, w)
            f = [row.item() if w is None else float(np.vdot(w, row)) for row in outs[1].data]
            n, want = sum(p.data.size for p in params), 0.0
            for a, up, down in zip([a for g in analytic for a in g.ravel().tolist()], f[:n], f[n:-1]):
                numeric = (up - down) / 2e-6
                want = max(want, abs(a - numeric) / max(1.0, abs(a), abs(numeric)))
            assert got.hex() == want.hex()

    def test_one_taped_pass_then_one_stack_of_every_probe_of_every_parameter(self):
        shapes = []

        def loss(p):
            shapes.append(tuple(t.shape for t in p))
            return ad.weighted_sum([ad.linear(p[0], p[1], p[2])], (1.0,))

        rng = np.random.default_rng(4)
        params = [Tensor(rng.normal(0, 1, s)) for s in ((3, 4), (4, 2), (2,))]
        assert grad_check(loss, params) <= 1e-6
        # 12 + 8 + 2 = 22 coordinates, each at orig + step and at orig - step, and one unmoved probe
        assert shapes == [((3, 4), (4, 2), (2,)), ((45, 3, 4), (45, 4, 2), (45, 1, 2))]

    def test_an_output_off_the_probe_stack_is_rejected_naming_both_shapes(self):
        # the builder reshapes its parameter by hand, so the stacked pass loses the probe axis
        def loss(p):
            return ad.linear(Tensor(p[0].data.reshape(-1, 4)), Tensor(np.eye(4)), Tensor(np.zeros(4)))

        with pytest.raises(UsageError) as err:
            grad_check(loss, [Tensor(np.ones((2, 2)))], readout=np.ones((1, 4)))
        assert str(err.value) == (
            "grad_check: the stacked pass gave shape (9, 4), neither the output "
            "shape (1, 4) nor its stack of 9 probes (9, 1, 4)"
        )

    def test_a_tensor_listed_twice_is_rejected(self):
        # one stack per tensor: the second listing's probes would overwrite the first's
        w = Tensor(np.array([1.0, 2.0]))
        with pytest.raises(UsageError, match="listed twice"):
            grad_check(lambda p: ad.weighted_sum([p[0]], (1.0,)), [w, w])

    def test_a_stacked_forward_one_ulp_off_its_unstacked_forward_is_rejected(self, monkeypatch):
        # every probe moves by the same ulp, so the differences hide it; only the unmoved probe,
        # read against the taped pass, shows that the stacked pass is not the unstacked one
        forward, backward = ad._OPS["linear"]

        def off_when_stacked(arrs, attrs):
            out, saved = forward(arrs, attrs)
            return (np.nextafter(out, np.inf) if out.ndim == 3 else out), saved

        monkeypatch.setitem(ad._OPS, "linear", (off_when_stacked, backward))
        params, builder, w = _OP_CASES["linear_relu"](np.random.default_rng(0))
        with pytest.raises(UsageError, match="unmoved probe"):
            grad_check(builder, params, readout=w)

    def test_an_output_the_parameter_does_not_reach_reads_the_same_on_every_probe(self):
        # the probes of a parameter the output does not depend on read the unmoved value, so the
        # numeric gradient is zero, as the analytic one of an unreached leaf is
        other = Tensor(np.array([1.0, -2.0]))
        assert grad_check(lambda p: ad.weighted_sum([p[1]], (1.0,)), [other, Tensor(np.array([[0.5]]))]) <= 1e-9

    def test_an_output_no_parameter_reaches_keeps_the_taped_shape(self):
        # the stacked pass gives back the unstacked shape, and every probe reads that one value
        fixed, shapes = Tensor(np.array([[1.0, -2.0]])), []

        def loss(p):
            shapes.append(p[0].shape)
            return ad.linear(fixed, Tensor(np.eye(2)), Tensor(np.zeros(2)))

        assert grad_check(loss, [Tensor(np.ones(3))], readout=np.ones((1, 2))) == 0.0
        assert shapes == [(3,), (7, 1, 3)]

    @pytest.mark.parametrize("readout", [np.ones(4), np.ones(6), np.ones((3, 2))])
    def test_readout_must_have_the_output_shape(self, readout):
        with pytest.raises(UsageError) as err:
            grad_check(lambda p: ad.linear(p[0], Tensor(np.eye(3)), Tensor(np.zeros(3))), [Tensor(np.ones((2, 3)))], readout=readout)
        assert str(err.value) == f"backward: cotangent shape {readout.shape} does not match root shape (2, 3)"

    @pytest.mark.parametrize("act, bad", [("relu", np.nan), ("sigmoid", np.inf)])
    def test_non_finite_analytic_gradient_fails_the_check(self, monkeypatch, act, bad):
        # a NaN error fails every comparison, so it must be counted as inf rather than dropped
        forward, _ = ad._ACTS[act]
        monkeypatch.setitem(ad._ACTS, act, (forward, lambda g, act_saved: g * bad))
        params, builder, w = _OP_CASES[f"linear_{act}"](np.random.default_rng(0))
        with np.errstate(invalid="ignore"):  # the layer's own products of an inf gradient are NaN: inf - inf
            assert grad_check(builder, params, readout=w) == math.inf


def test_forward_determinism_same_seed():
    def run():
        rng = np.random.default_rng(123)
        x = Tensor(rng.normal(0, 1, (5, 5)))
        h = ad.linear(x, Tensor(rng.normal(0, 1, (5, 5))), Tensor(rng.normal(0, 1, 5)), "lrelu")
        logits = ad.linear(h, Tensor(rng.normal(0, 1, (5, 5))), Tensor(rng.normal(0, 1, 5)), "sigmoid")
        y = ad.categorical_log_q(logits, rng.integers(0, 5, 5), slice(0, 5))
        return y.data

    np.testing.assert_array_equal(run(), run())


def test_platform_key_names_numpy_its_dispatch_level_and_blas_core():
    key = ad.platform_key()
    assert re.fullmatch(rf"numpy {re.escape(np.__version__)} / (X86_V[234]|unknown) / \S+", key), key


def test_platform_key_reads_an_unknown_blas_core_as_unknown(monkeypatch):
    # a numpy whose BLAS exports no core name (or none at all) must still give a key
    import ctypes

    def no_library(path):
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(ctypes, "CDLL", no_library)
    assert ad.platform_key().endswith(" / unknown")
