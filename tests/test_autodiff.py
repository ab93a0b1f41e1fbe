"""Tensor engine: forward values, backward rules, and the gradient checker."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_softmax as scipy_log_softmax
from scipy.stats import norm

from infogan_lab import autodiff as ad
from infogan_lab.autodiff import (
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


_SHAPE_ERRORS = [
    (lambda: ad.linear(_ones(2, 3), _ones(2, 3), _ones(3)),
     "linear: needs (B,I) @ (I,O) + (O,), got (2, 3) @ (2, 3) + (3,)"),
    (lambda: ad.linear(_ones(2, 3), _ones(3, 2), _ones(3)),
     "linear: needs (B,I) @ (I,O) + (O,), got (2, 3) @ (3, 2) + (3,)"),
    (lambda: ad.linear(_ones(3), _ones(3, 2), _ones(2)),
     "linear: needs (B,I) @ (I,O) + (O,), got (3,) @ (3, 2) + (2,)"),
    (lambda: ad.add(_ones(2, 3), _ones(3, 2)), "add: shapes must match, got (2, 3) + (3, 2)"),
    (lambda: ad.add(_ones(3, 2), _ones(2)), "add: shapes must match, got (3, 2) + (2,)"),
    (lambda: ad.categorical_log_q(_ones(2, 3), np.zeros(3, dtype=np.int64)),
     "categorical_log_q: needs (B,K) logits and B integer indices, got (2, 3) and int64 (3,)"),
    (lambda: ad.categorical_log_q(_ones(2, 3), np.zeros(2)),
     "categorical_log_q: needs (B,K) logits and B integer indices, got (2, 3) and float64 (2,)"),
    (lambda: ad.gaussian_log_q(_ones(2, 3), _ones(2, 2), _ones(2, 3)),
     "gaussian_log_q: c, mu and log_sigma must share one (B,D) shape, got (2, 3), (2, 2) and (2, 3)"),
    (lambda: ad.batchnorm(_ones(4), _ones(4), _ones(4), BatchNormState(4), True),
     "batchnorm: needs (B,F) input, got (4,)"),
    (lambda: ad.batchnorm(_ones(5, 3), _ones(2), _ones(3), BatchNormState(3), False),
     "batchnorm: scale/shift must be (3,), got (2,) and (3,)"),
]


class TestForwardValues:
    def test_lrelu_example(self):
        out = ad.lrelu(Tensor([[-1.0, 0.0, 2.0]]), rate=0.1)
        np.testing.assert_array_equal(out.data, [[-0.1, 0.0, 2.0]])

    def test_softmax_uniform_row(self):
        out = ad.categorical_log_q(Tensor(np.zeros((10, 10))), np.arange(10))
        np.testing.assert_allclose(np.exp(out.data), np.full((10, 1), 0.1), rtol=1e-15)

    def test_categorical_log_q_picks_log_softmax_at_index(self):
        rng = np.random.default_rng(4)
        logits = np.concatenate([rng.normal(0, 3, (6, 5)), [[-1000.0, 0.0, 1000.0, 3.0, -2.0]]])
        index = np.array([0, 1, 2, 3, 4, 0, 0])
        out = ad.categorical_log_q(Tensor(logits), index)
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

    def test_scale_is_exact_product(self):
        x = np.random.default_rng(0).normal(0, 1, (4, 3))
        np.testing.assert_array_equal(ad.scale(Tensor(x), -0.1).data, x * -0.1)

    def test_clip_example(self):
        out = ad.clip(Tensor([[-9.0, -7.0, 0.5, 7.0, 50.0]]), -7.0, 7.0)
        np.testing.assert_array_equal(out.data, [[-7.0, -7.0, 0.5, 7.0, 7.0]])

    def test_softplus_matches_logaddexp_and_stays_finite(self):
        x = np.concatenate([np.random.default_rng(1).normal(0, 10, 50), [-1000.0, 1000.0]])[None, :]
        out = ad.softplus(Tensor(x)).data
        np.testing.assert_allclose(out, np.logaddexp(0.0, x), rtol=1e-15, atol=0)
        assert np.all(np.isfinite(out))
        assert out[0, -1] == 1000.0 and 0.0 <= out[0, -2] < 1e-300

    def test_gaussian_log_q_matches_norm_logpdf_row_sums(self):
        rng = np.random.default_rng(2)
        c, mu = rng.normal(0, 1, (5, 3)), rng.normal(0, 1, (5, 3))
        log_sigma = rng.uniform(-7.0, 7.0, (5, 3))
        out = ad.gaussian_log_q(Tensor(c), Tensor(mu), Tensor(log_sigma))
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
        zeros = Tensor(np.zeros((1, 2)))
        with pytest.raises(DomainError, match="gaussian_log_q.*overflow"):
            ad.gaussian_log_q(zeros, zeros, Tensor([[0.0, -400.0]]))
        with pytest.raises(DomainError, match=r"categorical_log_q: index outside \[0, 2\) \(min 2, max 2\)"):
            ad.categorical_log_q(zeros, [2])
        with pytest.raises(DomainError, match=r"categorical_log_q: index outside \[0, 2\) \(min -1"):
            ad.categorical_log_q(zeros, [-1])

    def test_unknown_op(self):
        with pytest.raises(UsageError, match="unknown op"):
            forward_op("convolve", [Tensor([1.0])])


def _reference_gaussian_inv_var(log_sigma):
    """The inverse-variance check as first written: errstate and isfinite on every call."""
    with np.errstate(over="ignore"):
        inv_var = np.exp(-2.0 * log_sigma)
    if not np.all(np.isfinite(inv_var)):
        raise DomainError(f"gaussian_log_q: exp(-2*log_sigma) overflow (min log_sigma {log_sigma.min():g})")
    return inv_var


def _reference_index_check(index, k):
    """The categorical index range check as first written: index.min() and index.max()."""
    if index.size and not (0 <= index.min() and index.max() < k):
        raise DomainError(f"categorical_log_q: index outside [0, {k}) (min {index.min()}, max {index.max()})")


def _outcome(call):
    try:
        return "ok", call().tobytes()
    except DomainError as err:
        return "raise", str(err)


# the largest log sigma whose exp(-2*log_sigma) overflows; the next double up is finite
_FIRST_OVERFLOW = -354.89135644669204


class TestDomainCheckFastForms:
    """The fast domain checks raise on exactly the inputs the reference forms do, with the same
    message, and return bitwise-equal values everywhere else."""

    def test_first_overflow_is_the_boundary(self):
        with np.errstate(over="ignore"):
            assert np.isinf(np.exp(-2.0 * _FIRST_OVERFLOW))
            assert np.isfinite(np.exp(-2.0 * np.nextafter(_FIRST_OVERFLOW, 0.0)))

    @pytest.mark.parametrize(
        "edge",
        [-354.0, np.nextafter(-354.0, -np.inf), np.nextafter(_FIRST_OVERFLOW, 0.0), _FIRST_OVERFLOW,
         -400.0, np.nan, np.inf, -np.inf, 0.0, 354.0, 1000.0],
    )
    def test_gaussian_inv_var_matches_reference(self, edge):
        rng = np.random.default_rng(0)
        for log_sigma in (np.array([[edge]]), np.array([[0.3, edge], [-1.0, 2.0]]), np.full((2, 3), edge)):
            assert _outcome(lambda: ad._gaussian_inv_var(log_sigma)) == _outcome(
                lambda: _reference_gaussian_inv_var(log_sigma)
            )
            c, mu = Tensor(rng.normal(0, 1, log_sigma.shape)), Tensor(rng.normal(0, 1, log_sigma.shape))
            diff = c.data - mu.data

            def reference():
                # the forward rule's arithmetic around the reference check
                elem = -0.5 * ad._LN_2PI - log_sigma - 0.5 * (diff * diff) * _reference_gaussian_inv_var(log_sigma)
                return elem.sum(axis=1, keepdims=True)

            # just inside the bound, inv_var * diff**2 may overflow to inf in both forms
            with np.errstate(over="ignore"):
                assert _outcome(lambda: ad.gaussian_log_q(c, mu, Tensor(log_sigma)).data) == _outcome(reference)

    def test_gaussian_inv_var_empty_and_random(self):
        empty = np.zeros((0, 2))
        assert ad._gaussian_inv_var(empty).shape == (0, 2)
        x = np.random.default_rng(1).uniform(-360.0, 360.0, (200, 3))
        for row in x:
            assert _outcome(lambda: ad._gaussian_inv_var(row)) == _outcome(lambda: _reference_gaussian_inv_var(row))

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

        fast = _outcome(lambda: ad.categorical_log_q(Tensor(logits), index).data)
        ref = _outcome(reference)
        assert fast[0] == ref[0]
        if fast[0] == "raise":
            assert fast == ref
        else:
            np.testing.assert_allclose(np.frombuffer(fast[1]), np.frombuffer(ref[1]), atol=1e-12, rtol=0)

    def test_categorical_empty_index(self):
        out = ad.categorical_log_q(Tensor(np.zeros((0, 3))), np.zeros(0, dtype=np.int64))
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


def _log_softmax_by_index(x):
    """Every column of log-softmax(x), each from one categorical_log_q call."""
    b, k = x.shape
    return np.concatenate([ad.categorical_log_q(Tensor(x), np.full(b, j)).data for j in range(k)], axis=1)


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


# inputs for the lrelu forms: signed zeros, infinities, NaN, subnormals and
# the smallest normal, then random values of both signs
_LRELU_EDGES = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308]
)


class TestLreluFastForms:
    @pytest.mark.parametrize("rate", [0.01, 0.1, 0.2, 0.3, 0.7])
    def test_bitwise_equal_to_where_forms(self, rate):
        rng = np.random.default_rng(0)
        x = np.concatenate([_LRELU_EDGES, rng.normal(0, 3, 200), rng.normal(0, 1e-300, 20)]).reshape(1, -1)
        g = rng.normal(0, 1, x.shape)
        out = ad.lrelu(Tensor(x), rate).data
        assert out.tobytes() == np.where(x > 0.0, x, rate * x).tobytes()
        node = ad.TapeNode("lrelu", (0,), (x,), out, {"rate": rate})
        (dx,) = ad._OPS["lrelu"][1](g, node, (True,))
        assert dx.tobytes() == (g * np.where(x > 0.0, 1.0, rate)).tobytes()

    @pytest.mark.parametrize("rate", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(DomainError, match=r"lrelu: rate must lie in \(0, 1\), got"):
            ad.lrelu(Tensor(np.ones((2, 2))), rate)


class TestBatchnorm:
    def test_train_mode_moments(self):
        # eps=1e-5 shifts output variance by eps/var; keep input var >> 10*eps/1e-6
        rng = np.random.default_rng(3)
        x = rng.normal(5.0, 10.0, (64, 4))
        state = BatchNormState(4)
        out = ad.batchnorm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)), state, True)
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.data.var(axis=0), 1.0, atol=1e-6)

    def test_running_stats_momentum(self):
        state = BatchNormState(2, momentum=0.9)
        x = np.array([[1.0, 2.0], [3.0, 6.0]])
        ad.batchnorm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), state, True)
        np.testing.assert_allclose(state.running_mean, 0.9 * 0.0 + 0.1 * x.mean(axis=0))
        np.testing.assert_allclose(state.running_var, 0.9 * 1.0 + 0.1 * x.var(axis=0))

    def test_eval_uses_running_stats(self):
        state = BatchNormState(1)
        state.running_mean = np.array([2.0])
        state.running_var = np.array([4.0])
        out = ad.batchnorm(Tensor([[4.0]]), Tensor(np.ones(1)), Tensor(np.zeros(1)), state, False)
        np.testing.assert_allclose(out.data, (4.0 - 2.0) / np.sqrt(4.0 + state.eps))


class TestBackward:
    def test_square_sum(self):
        # gaussian_log_q(0, w, 0) is -sum(w**2)/2 minus a constant, so its gradient is -w exactly
        w, zeros = Tensor([[1.0, 2.0, 3.0]]), Tensor(np.zeros((1, 3)))
        with Tape() as tape:
            (g,) = tape.backward(ad.gaussian_log_q(zeros, w, zeros), [w])
        np.testing.assert_array_equal(g, [[-1.0, -2.0, -3.0]])

    def test_mean_spreads_evenly(self):
        x = Tensor(np.arange(4.0))
        with Tape() as tape:
            (g,) = tape.backward(ad.reduce_mean(x), [x])
        np.testing.assert_array_equal(g, np.full(4, 0.25))

    def test_fanout_accumulates(self):
        x = Tensor([2.0])
        with Tape() as tape:
            y = ad.add(ad.scale(x, 3.0), ad.scale(x, 5.0))
            (g,) = tape.backward(y, [x])
        np.testing.assert_array_equal(g, [8.0])

    def test_unreached_leaf_gets_zeros(self):
        x, other = Tensor([1.0, 2.0]), Tensor(np.ones((3, 3)))
        with Tape() as tape:
            ad.reduce_mean(other)
            g_x, g_other = tape.backward(ad.reduce_mean(x), [x, other])
        np.testing.assert_array_equal(g_x, [0.5, 0.5])
        np.testing.assert_array_equal(g_other, np.zeros((3, 3)))

    def test_wrt_never_recorded_gets_zeros(self):
        x, stranger = Tensor([1.0, 2.0]), Tensor(np.ones((2, 3)))
        with Tape() as tape:
            (g,) = tape.backward(ad.reduce_mean(x), [stranger])
        np.testing.assert_array_equal(g, np.zeros((2, 3)))

    def test_pruned_gradient_is_bitwise_equal(self):
        rng = np.random.default_rng(5)
        a, b, c = Tensor(rng.normal(0, 1, (4, 3))), Tensor(rng.normal(0, 1, (3, 2))), Tensor(rng.normal(0, 1, 2))
        with Tape() as tape:
            h = ad.softplus(ad.linear(ad.sigmoid(a), b, c))
            root = ad.add(h, ad.linear(a, b, c))
            v = rng.normal(0, 1, root.shape)
            (only_a,) = tape.backward(root, [a], v)
            both = tape.backward(root, [a, b], v)
        assert only_a.tobytes() == both[0].tobytes()
        assert both[1].shape == (3, 2) and np.any(both[1] != 0.0)

    def test_sweep_skips_nodes_no_wrt_tensor_feeds(self, monkeypatch):
        calls = []

        def logged(rule):
            def run(g, node, need):
                calls.append((node.op, need))
                return rule(g, node, need)
            return run

        monkeypatch.setattr(ad, "_OPS", {name: (f, logged(b)) for name, (f, b) in ad._OPS.items()})
        x, w, b = Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))), Tensor(np.ones(2))
        with Tape() as tape:
            h = ad.relu(ad.sigmoid(x))
            root = ad.reduce_mean(ad.linear(h, w, b))
            tape.backward(root, [w])
        # sigmoid and relu depend on x only, so only linear and reduce_mean run, and linear is asked for w alone
        assert calls == [("reduce_mean", (True,)), ("linear", (False, True, False))]

    def test_non_scalar_root_rejected(self):
        x = Tensor(np.ones((2, 2)))
        with Tape() as tape:
            y = ad.add(x, x)
            with pytest.raises(UsageError, match=r"root must be scalar, got shape \(2, 2\)"):
                tape.backward(y, [x])

    def test_root_must_be_on_tape(self):
        x = Tensor([1.0])
        with Tape() as tape:
            with pytest.raises(UsageError, match="not recorded"):
                tape.backward(x, [x])

    def test_multiple_backward_roots_on_one_tape(self):
        x = Tensor([3.0])
        with Tape() as tape:
            a = ad.scale(x, 2.0)
            b = ad.add(a, x)
            np.testing.assert_array_equal(tape.backward(a, [x])[0], [2.0])
            np.testing.assert_array_equal(tape.backward(b, [x])[0], [3.0])

    def test_exit_drops_nodes(self):
        w = Tensor([1.0, 2.0])
        with Tape() as tape:
            ad.reduce_mean(ad.scale(w, 2.0))
            assert len(tape.nodes) == 3
        assert w._tape is tape and tape.nodes is None

    def test_backward_after_exit_raises(self):
        w = Tensor([1.0, 2.0])
        with Tape() as tape:
            y = ad.reduce_mean(ad.scale(w, 2.0))
        with pytest.raises(UsageError, match="tape is closed"):
            tape.backward(y, [w])

    def test_closed_tape_cannot_record_again(self):
        with Tape() as tape:
            pass
        with pytest.raises(UsageError, match="closed"):
            with tape:
                pass

    def test_no_recording_without_tape(self):
        out = ad.add(Tensor([1.0]), Tensor([2.0]))
        assert out.node is None

    def test_cotangent_ones_on_scalar_root_matches_default(self):
        rng = np.random.default_rng(6)
        x, w, b = Tensor(rng.normal(0, 1, (4, 3))), Tensor(rng.normal(0, 1, (3, 2))), Tensor(rng.normal(0, 1, 2))
        with Tape() as tape:
            root = ad.reduce_mean(ad.softplus(ad.linear(x, w, b)))
            default = tape.backward(root, [x, w, b])
            seeded = tape.backward(root, [x, w, b], np.ones(()))
        assert [g.tobytes() for g in seeded] == [g.tobytes() for g in default]

    def test_cotangent_gives_the_vector_jacobian_product(self):
        rng = np.random.default_rng(8)
        x, w, b = Tensor(rng.normal(0, 1, (4, 3))), Tensor(rng.normal(0, 1, (3, 2))), Tensor(rng.normal(0, 1, 2))
        v = rng.normal(0, 1, (4, 2))
        with Tape() as tape:
            root = ad.add(ad.linear(x, w, b), ad.linear(x, w, b))
            g_x, g_w, g_b = tape.backward(root, [x, w, b], v)
        np.testing.assert_allclose(g_x, 2.0 * v @ w.data.T, rtol=1e-14)
        np.testing.assert_allclose(g_w, 2.0 * x.data.T @ v, rtol=1e-14)
        np.testing.assert_allclose(g_b, 2.0 * v.sum(axis=0), rtol=1e-14)

    def test_cotangent_is_copied(self):
        x = Tensor([1.0, 2.0])
        v = np.array([3, 4])  # integers: the seed is a float64 copy
        with Tape() as tape:
            (g,) = tape.backward(ad.add(x, x), [x], v)
        assert g.dtype == np.float64 and not np.shares_memory(g, v)
        np.testing.assert_array_equal(g, [6.0, 8.0])

    @pytest.mark.parametrize("shape", [(), (2,), (3, 2), (1, 2, 3)])
    def test_cotangent_shape_must_match_root(self, shape):
        x = Tensor(np.ones((2, 3)))
        with Tape() as tape:
            y = ad.scale(x, 2.0)
            with pytest.raises(UsageError) as err:
                tape.backward(y, [x], np.ones(shape))
        assert str(err.value) == f"backward: cotangent shape {shape} does not match root shape (2, 3)"


def _masked_rule_cases():
    rng = np.random.default_rng(9)

    def bn(training):
        state = BatchNormState(3)
        state.running_mean, state.running_var = rng.normal(0, 1, 3), rng.uniform(0.5, 2.0, 3)
        return lambda x, gamma, beta: ad.batchnorm(x, gamma, beta, state, training)

    return {
        "linear": (ad.linear, [(5, 4), (4, 3), (3,)]),
        "gaussian_log_q": (ad.gaussian_log_q, [(5, 3), (5, 3), (5, 3)]),
        "batchnorm_train": (bn(True), [(5, 3), (3,), (3,)]),
        "batchnorm_eval": (bn(False), [(5, 3), (3,), (3,)]),
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
        full = rule(g, node, (True,) * len(inputs))
        assert all(isinstance(gi, np.ndarray) for gi in full)
        for need in itertools.product((False, True), repeat=len(inputs)):
            got = rule(g, node, need)
            assert len(got) == len(inputs)
            for needed, gi, ref in zip(need, got, full):
                if needed:
                    assert gi.tobytes() == ref.tobytes()
                else:
                    assert gi is None


class TestGradCheck:
    def test_quadratic_is_nearly_exact(self):
        # -sum(p**2)/2 minus a constant: a central difference of a quadratic is exact up to rounding
        params, zeros = [Tensor([[1.0, -2.0, 0.5]])], Tensor(np.zeros((1, 3)))
        err = grad_check(lambda p: ad.gaussian_log_q(zeros, p[0], zeros), params, step=1e-6)
        assert err <= 1e-9

    def test_sigmoid_cross_entropy_disc_loss(self):
        # log sigmoid(x) = -softplus(-x)
        rng = np.random.default_rng(7)
        logits = Tensor(rng.normal(0, 2, (8, 8)))
        w = rng.normal(0, 1, (8, 8))

        def log_s(p):
            return ad.scale(ad.softplus(ad.scale(p[0], -1.0)), -1.0)

        # the weighted mean of log sigmoid, read out by w / 64
        assert grad_check(log_s, [logits], step=1e-6, readout=w / w.size) <= 1e-5

    def test_step_bounds(self):
        with pytest.raises(UsageError):
            grad_check(lambda p: ad.reduce_mean(p[0]), [Tensor([1.0])], step=0.5)

    def test_nondeterministic_builder_rejected(self):
        state = {"n": 0}

        def noisy(p):
            state["n"] += 1
            return ad.scale(p[0], float(state["n"]))

        with pytest.raises(UsageError, match="deterministic"):
            grad_check(noisy, [Tensor([1.0])])

    def test_params_restored_after_check(self):
        p = Tensor(np.array([1.0, 2.0]))
        before = p.data.copy()
        grad_check(lambda ps: ad.scale(ps[0], 2.0), [p], readout=np.array([1.0, -1.0]))
        np.testing.assert_array_equal(p.data, before)

    # calls 1-3 are the taped pass and the two determinism probes; 4 and 5
    # are the +step and -step passes of the first coordinate
    @pytest.mark.parametrize("failing_call", [4, 5])
    def test_coordinate_restored_when_builder_raises(self, failing_call):
        w = Tensor(np.array([0.0, 1.0]))
        calls = {"n": 0}

        def loss(p):
            calls["n"] += 1
            if calls["n"] == failing_call:
                raise DomainError("probe failed")
            return ad.scale(p[0], 2.0)

        with pytest.raises(DomainError, match="probe failed"):
            grad_check(loss, [w], readout=np.ones(2))
        np.testing.assert_array_equal(w.data, [0.0, 1.0])

    @pytest.mark.parametrize("readout", [np.ones(4), np.ones(6), np.ones((3, 2))])
    def test_readout_must_have_the_output_shape(self, readout):
        with pytest.raises(UsageError) as err:
            grad_check(lambda p: ad.scale(p[0], 2.0), [Tensor(np.ones((2, 3)))], readout=readout)
        assert str(err.value) == f"backward: cotangent shape {readout.shape} does not match root shape (2, 3)"

    @pytest.mark.parametrize("op, bad", [("relu", np.nan), ("sigmoid", np.inf)])
    def test_non_finite_analytic_gradient_fails_the_check(self, monkeypatch, op, bad):
        # a NaN error fails every comparison, so it must be counted as inf rather than dropped
        forward, _ = ad._OPS[op]
        monkeypatch.setitem(ad._OPS, op, (forward, lambda g, node, need: [g * bad]))
        params, builder, w = _OP_CASES[op](np.random.default_rng(0))
        assert grad_check(builder, params, readout=w) == math.inf


def test_forward_determinism_same_seed():
    def run():
        rng = np.random.default_rng(123)
        x = Tensor(rng.normal(0, 1, (5, 5)))
        h = ad.clip(ad.softplus(x), 0.0, 1.5)
        logits = ad.linear(ad.sigmoid(h), Tensor(rng.normal(0, 1, (5, 5))), Tensor(rng.normal(0, 1, 5)))
        y = ad.categorical_log_q(logits, rng.integers(0, 5, 5))
        return y.data

    np.testing.assert_array_equal(run(), run())
