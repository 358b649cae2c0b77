import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bem.elbo import BatchPrior, Edge
from bem.errors import ShapeError, TrainingError
from bem.nets import (GRAD_ROWS, ROW_BLOCK, AdamState, DiffNet, NetGrads, adam_step,
                      net_forward_rows, sigmoid)
from pair_oracle import _backward_from_cache, _forward_cached, elbo_pair_accumulate_grads

# Largest allowed gap between a blocked row and the explicit-loop oracle for
# order-one values: a few dozen ulps (8.9e-16 measured).
ROWS_ATOL = 1e-14

# Largest allowed gap between a buffered weight gradient and the per-node
# outer-product loop, relative to the largest entry of the loop's sum: a
# matrix product sums each entry in a different order than the loop.
GRAD_RTOL = 1e-13


def straight_line_forward(net, x):
    """Oracle: re-evaluate the layer algebra with explicit loops."""
    hidden = []
    for h in range(net.hidden_dim):
        acc = net.b1[h]
        for i in range(net.in_dim):
            acc += net.W1[h, i] * x[i]
        hidden.append(acc if acc > 0 else 0.0)
    out = []
    for o in range(net.out_dim):
        acc = net.b2[o]
        for h in range(net.hidden_dim):
            acc += net.W2[o, h] * hidden[h]
        out.append(acc)
    return np.array(out)


def zero_net(in_dim, hidden_dim, out_dim):
    return DiffNet(in_dim, hidden_dim, out_dim, W1=np.zeros((hidden_dim, in_dim)),
                   b1=np.zeros(hidden_dim), W2=np.zeros((out_dim, hidden_dim)),
                   b2=np.zeros(out_dim))


def identity_net(dim):
    return DiffNet(dim, dim, dim, W1=np.eye(dim), b1=np.zeros(dim),
                   W2=np.eye(dim), b2=np.zeros(dim))


class TestForward:
    def test_zero_net_maps_everything_to_zero(self):
        net = zero_net(3, 5, 2)
        x = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(net_forward_rows(net, [x]), np.zeros((1, 2)))
        assert np.array_equal(_forward_cached(net, x)[0], np.zeros(2))

    def test_relu_kills_negative_coordinate(self):
        net = identity_net(2)
        x = np.array([1.0, -1.0])
        assert np.array_equal(net_forward_rows(net, [x]), [[1.0, 0.0]])
        assert np.array_equal(_forward_cached(net, x)[0], [1.0, 0.0])

    def test_seeded_net_matches_straight_line_reevaluation(self):
        net = DiffNet.random(3, 4, 2, np.random.default_rng(7))
        x = np.array([0.1, 0.2, 0.3])
        expected = straight_line_forward(net, x)
        assert np.allclose(net_forward_rows(net, [x])[0], expected, rtol=0, atol=1e-12)
        assert np.allclose(_forward_cached(net, x)[0], expected, rtol=0, atol=1e-12)

    def test_forward_is_pure(self):
        net = DiffNet.random(5, 6, 4, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=5)
        first_row = net_forward_rows(net, [x])
        first = _forward_cached(net, x)[0]
        for _ in range(5):
            assert np.array_equal(net_forward_rows(net, [x]), first_row)
            assert np.array_equal(_forward_cached(net, x)[0], first)

    def test_dimension_mismatch_raises(self):
        net = zero_net(3, 4, 2)
        with pytest.raises(ShapeError):
            net_forward_rows(net, [[1.0, 2.0]])
        with pytest.raises(ShapeError):
            net_forward_rows(net, [1.0, 2.0, 3.0])

    def test_rows_helper_matches_single_vector_calls(self):
        # Blocked matrix products sum in another order than the explicit
        # loop, so the loop is an oracle within ROWS_ATOL, not bit for bit.
        net = DiffNet.random(4, 50, 3, np.random.default_rng(2))
        X = np.random.default_rng(3).normal(size=(2 * ROW_BLOCK + 3, 4))
        batched = net_forward_rows(net, X)
        for i in range(len(X)):
            assert np.allclose(batched[i], straight_line_forward(net, X[i]),
                               rtol=0, atol=ROWS_ATOL)
        assert np.array_equal(net_forward_rows(net, X), batched)

    def test_column_blocks_match_the_joined_matrix_bit_for_bit(self):
        net = DiffNet.random(5, 50, 3, np.random.default_rng(2))
        X = np.random.default_rng(3).normal(size=(ROW_BLOCK + 7, 5))
        assert np.array_equal(net_forward_rows(net, X[:, :2], X[:, 2:]),
                              net_forward_rows(net, X))
        with pytest.raises(ShapeError):
            net_forward_rows(net, X[:, :2], X[1:, 2:])
        with pytest.raises(ShapeError):
            net_forward_rows(net, X[:, :2], X)
        with pytest.raises(ShapeError):
            net_forward_rows(net)

    def test_rows_helper_ignores_input_memory_layout(self):
        net = DiffNet.random(4, 50, 3, np.random.default_rng(2))
        X = np.random.default_rng(3).normal(size=(ROW_BLOCK + 7, 4))
        assert np.array_equal(net_forward_rows(net, np.asfortranarray(X)),
                              net_forward_rows(net, X))


def masked_sigmoid(x):
    """The two-branch logistic: 1/(1 + exp(-x)) for x >= 0, else exp(x)/(1 + exp(x))."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_matches_the_two_branch_formula(self):
        # exp(-softplus(-x)) carries the rounding of an exponent near |x|,
        # which shows only while exp(x) is not negligible, |x| below ~37:
        # 40 ulps allowed, 3.8e-15 relative measured. Below -745 both are 0.
        x = np.concatenate([np.linspace(-800.0, 800.0, 160_001), [-1e-300, -0.0, 1e-300]])
        assert np.allclose(sigmoid(x), masked_sigmoid(x), rtol=40 * np.finfo(float).eps, atol=0)

    def test_extremes_are_exact(self):
        assert np.array_equal(sigmoid(np.array([-800.0, 0.0, 800.0])), [0.0, 0.5, 1.0])


class TestInit:
    def test_uniform_bounds_and_zero_biases(self):
        net = DiffNet.random(30, 40, 20, np.random.default_rng(9))
        lim1 = np.sqrt(6.0 / (30 + 40))
        lim2 = np.sqrt(6.0 / (40 + 20))
        assert np.all(np.abs(net.W1) <= lim1)
        assert np.all(np.abs(net.W2) <= lim2)
        assert np.all(net.b1 == 0.0) and np.all(net.b2 == 0.0)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ShapeError):
            DiffNet(3, 4, 2, W1=np.zeros((4, 2)), b1=np.zeros(4),
                    W2=np.zeros((2, 4)), b2=np.zeros(2))


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        net = DiffNet.random(3, 4, 2, np.random.default_rng(0))
        x = np.array([0.3, -0.2, 0.9])
        _, pre, hid = _forward_cached(net, x)
        grads, dx = _backward_from_cache(net, x, pre, hid, np.zeros(2),
                                         NetGrads.zeros_like(net))
        for arr in (grads.W1, grads.b1, grads.W2, grads.b2, dx):
            assert np.all(arr == 0.0)

    def test_identity_net_relu_mask_on_input_grad(self):
        net = identity_net(2)
        x = np.array([1.0, -1.0])
        _, pre, hid = _forward_cached(net, x)
        _, dx = _backward_from_cache(net, x, pre, hid, np.ones(2), NetGrads.zeros_like(net))
        assert np.array_equal(dx, [1.0, 0.0])

    def test_gradients_match_finite_differences(self):
        # >= 100 random (net, x, upstream) triples; relu kinks avoided by
        # rejecting configurations with near-zero hidden pre-activations.
        rng = np.random.default_rng(123)
        step = 1e-5
        checked = 0
        while checked < 100:
            in_dim, hid, out = rng.integers(1, 6, size=3)
            net = DiffNet.random(in_dim, hid, out, rng)
            net.b1 = rng.normal(size=hid) * 0.2
            net.b2 = rng.normal(size=out) * 0.2
            x = rng.normal(size=in_dim)
            if np.min(np.abs(net.W1 @ x + net.b1)) < 1e-3:
                continue
            upstream = rng.normal(size=out)
            _, pre, hid = _forward_cached(net, x)
            grads, dx = _backward_from_cache(net, x, pre, hid, upstream,
                                             NetGrads.zeros_like(net))
            def value():
                return float(upstream @ _forward_cached(net, x)[0])
            for arr, g in ((net.W1, grads.W1), (net.b1, grads.b1),
                           (net.W2, grads.W2), (net.b2, grads.b2)):
                it = np.nditer(arr, flags=["multi_index"])
                while not it.finished:
                    ix = it.multi_index
                    old = arr[ix]
                    arr[ix] = old + step
                    up = value()
                    arr[ix] = old - step
                    dn = value()
                    arr[ix] = old
                    fd = (up - dn) / (2 * step)
                    assert abs(g[ix] - fd) <= 1e-4 * max(abs(g[ix]), abs(fd), 1e-3)
                    it.iternext()
            for i in range(in_dim):
                old = x[i]
                x[i] = old + step
                up = value()
                x[i] = old - step
                dn = value()
                x[i] = old
                fd = (up - dn) / (2 * step)
                assert abs(dx[i] - fd) <= 1e-4 * max(abs(dx[i]), abs(fd), 1e-3)
            checked += 1

    def test_shape_mismatch_raises(self):
        # The pair objective, the backward pass's one caller, checks the
        # shapes first: inference-net output, node input and noise length.
        d_w, d_z = 3, 2
        proj = zero_net(d_w, 4, d_z)
        fits = zero_net(d_w + d_z, 4, 2 * d_w + 2 * d_z)
        too_wide = zero_net(d_w + d_z, 4, 2 * d_w + 2 * d_z + 1)
        prior = BatchPrior(np.ones(d_w), np.zeros(d_z), np.ones(d_z))
        eps = np.zeros(2 * d_w + 2 * d_z)
        for infer, kg_i, noise, what in (
                (too_wide, np.ones(d_w), np.zeros(len(eps) + 1), "net output"),
                (fits, np.ones(d_w + 1), eps, "input dimension"),
                (fits, np.ones(d_w), eps[1:], "pair noise")):
            with pytest.raises(ShapeError, match=what):
                elbo_pair_accumulate_grads(
                    proj, infer, Edge.TRANSLATION, kg_i, np.ones(d_z), np.ones(d_w),
                    np.ones(d_z), prior, prior, noise,
                    NetGrads.zeros_like(proj), NetGrads.zeros_like(infer))


class TestAdam:
    def test_zero_gradient_fresh_state_is_identity(self):
        net = DiffNet.random(3, 4, 2, np.random.default_rng(5))
        params = net.param_dict()
        before = {k: v.copy() for k, v in params.items()}
        state = AdamState.for_params(params, learning_rate=0.01)
        adam_step(params, {k: np.zeros_like(v) for k, v in params.items()}, state)
        for k in params:
            assert np.array_equal(params[k], before[k])
        assert state.step_count == 1

    @given(lr=st.floats(1e-5, 1.0), steps=st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_zero_gradient_identity_holds_through_repeated_steps(self, lr, steps):
        params = {"p": np.array([0.3, -0.7])}
        state = AdamState.for_params(params, learning_rate=lr)
        for _ in range(steps):
            adam_step(params, {"p": np.zeros(2)}, state)
        assert np.array_equal(params["p"], [0.3, -0.7])

    def test_first_step_moves_by_learning_rate(self):
        # Bias-corrected first step: p -= lr * g / (|g| + eps), so a unit
        # gradient moves the scalar by ~ -lr.
        params = {"p": np.array([0.0])}
        state = AdamState.for_params(params, learning_rate=0.001)
        adam_step(params, {"p": np.array([1.0])}, state)
        expected = -0.001 * 1.0 / (1.0 + 1e-8)
        assert params["p"][0] == pytest.approx(expected, rel=1e-12)

    def test_two_identical_steps_shrink_the_move(self):
        # Evaluate the update formulas by hand for t = 1, 2.
        params = {"p": np.array([0.0])}
        state = AdamState.for_params(params, learning_rate=0.001)
        adam_step(params, {"p": np.array([1.0])}, state)
        p1 = params["p"][0]
        adam_step(params, {"p": np.array([1.0])}, state)
        p2 = params["p"][0]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        m2 = (beta1 * 0.1 + 0.1) / (1 - beta1 ** 2)
        v2 = (beta2 * 0.001 + 0.001) / (1 - beta2 ** 2)
        expected_step2 = -0.001 * m2 / (np.sqrt(v2) + eps)
        assert p2 - p1 == pytest.approx(expected_step2, rel=1e-12)
        assert abs(p2 - p1) <= abs(p1 - 0.0) + 1e-15

    def test_non_finite_gradient_names_the_tensor(self):
        params = {"weights": np.zeros(2)}
        state = AdamState.for_params(params, learning_rate=0.1)
        with pytest.raises(TrainingError, match="weights"):
            adam_step(params, {"weights": np.array([np.nan, 0.0])}, state)

    def test_parameters_stay_finite_after_updates(self):
        rng = np.random.default_rng(8)
        net = DiffNet.random(4, 6, 3, rng)
        params = net.param_dict()
        state = AdamState.for_params(params, learning_rate=0.05)
        for _ in range(50):
            grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
            adam_step(params, grads, state)
        for v in params.values():
            assert np.all(np.isfinite(v))
        assert all(np.all(v >= 0) for v in state.second_moment.values())


class TestNetGrads:
    def test_scale_in_place(self):
        net = DiffNet.random(2, 3, 2, np.random.default_rng(0))
        x = np.array([1.0, 2.0])
        _, pre, hid = _forward_cached(net, x)
        g, _ = _backward_from_cache(net, x, pre, hid, np.array([1.0, -1.0]),
                                    NetGrads.zeros_like(net))
        w1 = g.W1.copy()
        g.scale_(0.5)
        assert np.array_equal(g.W1, 0.5 * w1)

    def test_zeros_like_matches_shapes(self):
        net = zero_net(2, 3, 4)
        g = NetGrads.zeros_like(net)
        assert g.W1.shape == (3, 2) and g.W2.shape == (4, 3)
        assert g.b1.shape == (3,) and g.b2.shape == (4,)


class TestBufferedWeightGradients:
    """``NetGrads._add_rows`` sums weight gradients as one product per
    GRAD_ROWS node rows and each bias pair by pair; the oracle is the
    per-node ``np.outer`` loop."""

    @staticmethod
    def pair_rows(net, n_pairs, rng):
        """2n node rows, side a then side b: inputs, hidden deltas, hidden
        activations and output upstreams."""
        x = rng.normal(size=(2 * n_pairs, net.in_dim))
        hid = np.maximum(x @ net.W1.T + net.b1, 0.0)
        up = rng.normal(size=(2 * n_pairs, net.out_dim))
        return x, (up @ net.W2) * (hid > 0), hid, up

    @staticmethod
    def assert_matches_loop(acc, loop):
        for name in ("W1", "b1", "W2", "b2"):
            want = loop[name]
            assert np.allclose(getattr(acc, name), want, rtol=0,
                               atol=GRAD_RTOL * np.max(np.abs(want)))

    # Pairs in all, added in calls of 1, 2, 5 and 13 pairs in turn, so that
    # calls end short of, at and past a flush and cross flushes.
    @pytest.mark.parametrize("count", [1, GRAD_ROWS - 1, GRAD_ROWS, GRAD_ROWS + 1,
                                       3 * GRAD_ROWS + 5])
    def test_matches_outer_product_loop(self, count):
        rng = np.random.default_rng(count)
        net = DiffNet.random(5, 30, 7, rng)
        net.b1 = rng.normal(size=30) * 0.3
        acc = NetGrads.zeros_like(net)
        loop = {k: np.zeros_like(v) for k, v in net.param_dict().items()}
        added, sizes, read_mid_run = 0, itertools.cycle((1, 2, 5, 13)), False
        while added < count:
            n_pairs = min(next(sizes), count - added)
            x, dpre, hid, up = self.pair_rows(net, n_pairs, rng)
            acc._add_rows(x, dpre, hid, up)
            added += n_pairs
            for r in range(len(x)):
                loop["W1"] += np.outer(dpre[r], x[r])
                loop["b1"] += dpre[r]
                loop["W2"] += np.outer(up[r], hid[r])
                loop["b2"] += up[r]
            if not read_mid_run and added >= count // 2:
                # A read mid-run sees every row added so far.
                self.assert_matches_loop(acc, loop)
                read_mid_run = True
        # scale_ flushes the rows still buffered before it scales.
        acc.scale_(-0.5)
        self.assert_matches_loop(acc, {k: -0.5 * v for k, v in loop.items()})
