import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bem.elbo import BatchPrior, Edge
from bem.errors import ShapeError, TrainingError
from bem.nets import (GRAD_ROWS, ROW_BLOCK, DiffNet, adam_step, flat_views,
                      net_forward_rows, softplus)
from pair_oracle import (_backward_from_cache, _forward_cached, elbo_pair_accumulate_grads,
                         zero_grads)

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
        rng = np.random.default_rng(2)
        net = DiffNet.random(4, 50, 3, rng)
        net.b1, net.b2 = rng.normal(size=50), rng.normal(size=3)
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


def softplus_sigmoid(x):
    """The sigmoid as ``elbo.elbo_batch_grads`` takes it: from the softplus."""
    return -np.expm1(-softplus(x))


class TestSigmoid:
    def test_matches_the_two_branch_formula(self):
        # -expm1(-softplus(x)) carries the rounding of softplus: 40 ulps
        # allowed, 6.0e-16 relative measured for x >= -708 (2M uniform
        # draws). Below -708 it is off by one subnormal ulp at most, and not
        # at all on this grid; below -745 both are 0.
        x = np.concatenate([np.linspace(-800.0, 800.0, 160_001), [-1e-300, -0.0, 1e-300]])
        assert np.allclose(softplus_sigmoid(x), masked_sigmoid(x),
                           rtol=40 * np.finfo(float).eps, atol=0)

    def test_extremes_are_exact(self):
        assert np.array_equal(softplus_sigmoid(np.array([-800.0, 0.0, 800.0])),
                              [0.0, 0.5, 1.0])


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
                                         zero_grads(net))
        for arr in (grads.W1, grads.b1, grads.W2, grads.b2, dx):
            assert np.all(arr == 0.0)

    def test_identity_net_relu_mask_on_input_grad(self):
        net = identity_net(2)
        x = np.array([1.0, -1.0])
        _, pre, hid = _forward_cached(net, x)
        _, dx = _backward_from_cache(net, x, pre, hid, np.ones(2), zero_grads(net))
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
                                             zero_grads(net))
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
                    zero_grads(proj), zero_grads(infer))


class TestAdam:
    """``adam_step`` on flat arrays: parameters, gradient, two moments."""

    @staticmethod
    def state(theta):
        theta = np.array(theta, dtype=float)
        return theta, np.zeros_like(theta), np.zeros_like(theta)

    def test_zero_gradient_fresh_state_is_identity(self):
        net = DiffNet.random(3, 4, 2, np.random.default_rng(5))
        theta, first, second = self.state(np.concatenate(
            [p.ravel() for p in net.param_dict().values()]))
        before = theta.copy()
        adam_step(theta, np.zeros_like(theta), first, second, 1, 0.01)
        assert np.array_equal(theta, before)

    @given(lr=st.floats(1e-5, 1.0), steps=st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_zero_gradient_identity_holds_through_repeated_steps(self, lr, steps):
        theta, first, second = self.state([0.3, -0.7])
        for t in range(1, steps + 1):
            adam_step(theta, np.zeros(2), first, second, t, lr)
        assert np.array_equal(theta, [0.3, -0.7])

    def test_first_step_moves_by_learning_rate(self):
        # Bias-corrected first step: p -= lr * g / (|g| + eps), so a unit
        # gradient moves the scalar by ~ -lr.
        theta, first, second = self.state([0.0])
        adam_step(theta, np.array([1.0]), first, second, 1, 0.001)
        expected = -0.001 * 1.0 / (1.0 + 1e-8)
        assert theta[0] == pytest.approx(expected, rel=1e-12)

    def test_two_identical_steps_shrink_the_move(self):
        # Evaluate the update formulas by hand for t = 1, 2.
        theta, first, second = self.state([0.0])
        adam_step(theta, np.array([1.0]), first, second, 1, 0.001)
        p1 = theta[0]
        adam_step(theta, np.array([1.0]), first, second, 2, 0.001)
        p2 = theta[0]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        m2 = (beta1 * 0.1 + 0.1) / (1 - beta1 ** 2)
        v2 = (beta2 * 0.001 + 0.001) / (1 - beta2 ** 2)
        expected_step2 = -0.001 * m2 / (np.sqrt(v2) + eps)
        assert p2 - p1 == pytest.approx(expected_step2, rel=1e-12)
        assert abs(p2 - p1) <= abs(p1 - 0.0) + 1e-15

    def test_non_finite_gradient_raises_before_any_update(self):
        # The trainer names the tensor (test_trainer); here only the flat check.
        for bad in (np.nan, np.inf):
            theta, first, second = self.state([0.5, 0.5])
            with pytest.raises(TrainingError, match="non-finite gradient"):
                adam_step(theta, np.array([bad, 0.0]), first, second, 1, 0.1)
            assert np.array_equal(theta, [0.5, 0.5]) and not np.any(first)

    def test_parameters_stay_finite_after_updates(self):
        rng = np.random.default_rng(8)
        net = DiffNet.random(4, 6, 3, rng)
        theta, first, second = self.state(np.concatenate(
            [p.ravel() for p in net.param_dict().values()]))
        for t in range(1, 51):
            adam_step(theta, rng.normal(size=theta.shape), first, second, t, 0.05)
        assert np.all(np.isfinite(theta))
        assert np.all(second >= 0)


class TestFlatViews:
    def test_views_tile_the_array_in_param_dict_order(self):
        nets = (zero_net(2, 3, 4), zero_net(5, 3, 1))
        sizes = [p.size for net in nets for p in net.param_dict().values()]
        flat = np.arange(float(sum(sizes)))
        views = flat_views(flat, *nets)
        for net, net_views in zip(nets, views):
            assert list(net_views) == list(net.param_dict())
            for name, view in net_views.items():
                assert view.shape == getattr(net, name).shape
                assert np.shares_memory(view, flat)
        joined = np.concatenate([v.ravel() for net_views in views for v in net_views.values()])
        assert np.array_equal(joined, flat)


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
        acc = zero_grads(net)
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
                # A flush mid-run takes in every row added so far.
                acc.flush()
                self.assert_matches_loop(acc, loop)
                read_mid_run = True
        acc.flush()
        self.assert_matches_loop(acc, loop)
