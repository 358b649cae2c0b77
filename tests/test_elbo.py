import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from bem.elbo import (BatchPrior, Edge, LOG_RESVAR_VAR_MIN, STD_FLOOR, VAR_FLOOR,
                      edge_apply, edge_output_dim, elbo_batch_grads, estimate_prior)
from bem.errors import ConfigError, NumericalError, ShapeError
from bem.nets import DiffNet
from pair_oracle import (NodePrior, PosteriorStats, _forward_cached, _reconstruction,
                         elbo_pair_accumulate_grads, kl_penalty, node_priors,
                         reparametrize, zero_grads)
from test_nets import zero_net

EDGES = (Edge.TRANSLATION, Edge.INNER_PRODUCT, Edge.IDENTITY)


def pair_grads(proj, infer, edge, *rest):
    """One pair's ELBO parts and its gradients, accumulated from zero."""
    acc_proj, acc_infer = zero_grads(proj), zero_grads(infer)
    parts = elbo_pair_accumulate_grads(proj, infer, edge, *rest, acc_proj, acc_infer)
    return parts, acc_proj, acc_infer


def random_stats(rng, d_w, d_g, spread=1.0):
    return PosteriorStats(
        shift_mean=spread * rng.normal(size=d_w),
        shift_std=rng.uniform(0.3, 2.0, size=d_w),
        log_resvar_mean=spread * rng.normal(size=d_g),
        log_resvar_std=rng.uniform(0.3, 2.0, size=d_g),
    )


def random_prior(rng, d_w, d_g, lambda1=None, lambda2=None):
    """A node prior with random variances scaled by random (or given) lambdas."""
    shift_var = rng.uniform(0.2, 3.0, size=d_w)
    log_resvar_mean = rng.normal(size=d_g)
    log_resvar_var = rng.uniform(0.2, 3.0, size=d_g)
    lambda1 = lambda1 if lambda1 is not None else rng.uniform(0.2, 4.0)
    lambda2 = lambda2 if lambda2 is not None else rng.uniform(0.2, 4.0)
    return NodePrior(shift_var=lambda1 * shift_var, log_resvar_mean=log_resvar_mean,
                     log_resvar_var=lambda2 * log_resvar_var)


def stacked(v, rows):
    """``v`` itself (one pair), or ``rows`` copies of it as a matrix (a pair per row)."""
    v = np.asarray(v, dtype=float)
    return v if rows is None else np.tile(v, (rows, 1))


def assert_matches_finite_differences(proj, infer, grads_proj, grads_infer, value):
    """Each parameter's gradient against the central difference of ``value()``."""
    step = 1e-5
    for net, grads in ((proj, grads_proj), (infer, grads_infer)):
        for name in ("W1", "b1", "W2", "b2"):
            arr = getattr(net, name)
            g = getattr(grads, name)
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


# One pair as vectors, and three pairs as the rows of matrices.
ROWS = (None, 3)


class TestEdgeApply:
    def test_translation_of_equal_vectors_is_zero(self):
        for rows in ROWS:
            v = stacked([0.3, -0.1], rows)
            assert np.array_equal(edge_apply(Edge.TRANSLATION, v, v), stacked([0.0, 0.0], rows))

    def test_inner_product_of_orthogonal_vectors_is_zero(self):
        for rows in ROWS:
            out = edge_apply(Edge.INNER_PRODUCT, stacked([1.0, 0.0], rows),
                             stacked([0.0, 1.0], rows))
            assert np.array_equal(out, stacked([0.0], rows))

    def test_translation_componentwise(self):
        for rows in ROWS:
            out = edge_apply(Edge.TRANSLATION, stacked([1.0, 2.0], rows),
                             stacked([0.5, 1.0], rows))
            assert np.array_equal(out, stacked([0.5, 1.0], rows))

    def test_identity_concatenates(self):
        for rows in ROWS:
            out = edge_apply(Edge.IDENTITY, stacked([1.0, 2.0], rows), stacked([3.0, 4.0], rows))
            assert np.array_equal(out, stacked([1.0, 2.0, 3.0, 4.0], rows))

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=6))
    def test_inner_product_symmetry(self, vals):
        rng = np.random.default_rng(0)
        x = np.array(vals)
        y = rng.normal(size=len(vals))
        assert edge_apply(Edge.INNER_PRODUCT, x, y)[0] == pytest.approx(
            edge_apply(Edge.INNER_PRODUCT, y, x)[0])

    def test_output_dims(self):
        assert edge_output_dim(Edge.TRANSLATION, 7) == 7
        assert edge_output_dim(Edge.INNER_PRODUCT, 7) == 1
        assert edge_output_dim(Edge.IDENTITY, 7) == 14

    def test_length_mismatch_raises(self):
        for x, y in (([1.0], [1.0, 2.0]), (np.ones((2, 1)), np.ones((2, 2))),
                     (np.ones((2, 2)), np.ones((3, 2))),
                     (np.ones((2, 2, 2)), np.ones((2, 2, 2)))):
            with pytest.raises(ShapeError):
                edge_apply(Edge.TRANSLATION, x, y)


class TestEstimatePrior:
    def test_identical_rows_clamp_to_var_floor(self):
        rng = np.random.default_rng(0)
        kg = np.ones((4, 3))
        bg = rng.normal(size=(4, 5))
        prior = estimate_prior(np.stack([kg, kg]), np.stack([bg, bg]), Edge.TRANSLATION,
                               1.0, 1.0)
        assert np.array_equal(prior.var[0, :3], np.full(3, VAR_FLOOR))

    def test_two_point_sample_variance(self):
        rng = np.random.default_rng(1)
        kg_a = np.array([[0.0, 0.0], [2.0, 0.0]])
        kg_b = np.array([[1.0, 1.0], [3.0, 1.0]])
        bg = rng.normal(size=(2, 2))
        prior = estimate_prior(np.stack([kg_a, kg_b]), np.stack([bg, bg]), Edge.TRANSLATION,
                               1.0, 1.0)
        assert prior.var[0, 0] == pytest.approx(2.0)
        assert prior.var[0, 1] == pytest.approx(VAR_FLOOR)

    @pytest.mark.parametrize("edge", EDGES)
    def test_matches_straight_loop_recomputation(self, edge):
        # Brute-force oracle with explicit Python loops: the delta-method
        # spread of the mean squared deviation, sqrt((m4 - m2**2) / n).
        n, d_w, d_z, lam1, lam2 = 4, 3, 5, 0.7, 1.3
        data_rng = np.random.default_rng(42)
        kg_a = data_rng.normal(size=(n, d_w))
        kg_b = data_rng.normal(size=(n, d_w))
        bg_a = data_rng.normal(size=(n, d_z))
        bg_b = data_rng.normal(size=(n, d_z))

        prior = estimate_prior(np.stack([kg_a, kg_b]), np.stack([bg_a, bg_b]), edge,
                               lam1, lam2)

        g_rows = [edge_apply(edge, bg_a[m], bg_b[m]) for m in range(n)]
        d_g = len(g_rows[0])
        g_bar = [sum(r[k] for r in g_rows) / n for k in range(d_g)]
        m2 = [sum((r[k] - g_bar[k]) ** 2 for r in g_rows) / n for k in range(d_g)]
        m4 = [sum((r[k] - g_bar[k]) ** 4 for r in g_rows) / n for k in range(d_g)]

        for k in range(d_g):
            floored = max(m2[k], VAR_FLOOR)
            sd_res = np.sqrt((m4[k] - m2[k] ** 2) / n)
            assert prior.mean[d_w + k] == pytest.approx(np.log(floored), abs=1e-12)
            expected_var = lam2 * min(max((sd_res / floored) ** 2, 1e-6), 10.0)
            for side in range(2):
                assert prior.var[side, d_w + k] == pytest.approx(expected_var, abs=1e-12)
        for side, kg_side in enumerate((kg_a, kg_b)):
            for k in range(d_w):
                mean_k = sum(kg_side[m, k] for m in range(n)) / n
                var_k = sum((kg_side[m, k] - mean_k) ** 2 for m in range(n)) / (n - 1)
                assert prior.var[side, k] == pytest.approx(
                    lam1 * max(var_k, VAR_FLOOR), abs=1e-12)
        # The node layout: shift, then log share; both sides share the latter.
        assert prior.mean.shape == (d_w + d_g,) and prior.var.shape == (2, d_w + d_g)
        assert np.array_equal(prior.mean[:d_w], np.zeros(d_w))
        assert np.array_equal(prior.var[0, d_w:], prior.var[1, d_w:])

    @pytest.mark.parametrize("edge", EDGES)
    def test_spread_agrees_with_a_large_bootstrap(self, edge):
        # The closed-form spread is what a bootstrap of the pair list
        # estimates: 4000 replicates of 200 pairs agree within 5%.
        n, d_z, n_boot = 200, 3, 4000
        rng = np.random.default_rng(5)
        kg = rng.normal(size=(n, 2))
        bg_a, bg_b = rng.normal(size=(n, d_z)), rng.standard_t(5, size=(n, d_z))
        prior = estimate_prior(np.stack([kg, kg]), np.stack([bg_a, bg_b]), edge, 1.0, 1.0)
        g = edge_apply(edge, bg_a, bg_b)
        boot = np.array([np.var(g[idx], axis=0)
                         for idx in rng.integers(0, n, size=(n_boot, n))])
        closed_sd = np.sqrt(prior.var[0, 2:]) * np.var(g, axis=0)
        assert np.allclose(closed_sd / boot.std(axis=0), 1.0, rtol=0, atol=0.05)

    @pytest.mark.parametrize("edge", EDGES)
    def test_constant_edge_coordinate_clamps_to_the_floor(self, edge):
        bg = np.full((6, 2), 0.5)
        with np.errstate(all="raise"):
            prior = estimate_prior(np.stack([np.eye(6, 2)] * 2), np.stack([bg, bg]), edge,
                                   1.0, 1.0)
        assert not np.any(np.isnan(prior.var))
        assert np.all(prior.var[:, 2:] == LOG_RESVAR_VAR_MIN)
        assert np.all(prior.mean[2:] == np.log(VAR_FLOOR))

    def test_batch_of_one_rejected(self):
        one = np.ones((2, 1, 2))
        with pytest.raises(ConfigError):
            estimate_prior(one, one, Edge.TRANSLATION, 1.0, 1.0)

    def test_rows_not_side_stacked_rejected(self):
        rows = np.ones((2, 4, 3))
        for kg, bg in ((rows[0], rows), (rows, rows[:, :3]), (np.ones((3, 4, 3)),) * 2):
            with pytest.raises(ConfigError, match="side rows"):
                estimate_prior(kg, bg, Edge.TRANSLATION, 1.0, 1.0)


class TestInferPosterior:
    """The inference net's posterior, as the pair objective reads it per node."""

    def test_zero_net_gives_softplus_zero_stds(self):
        d_w, d_z, d_g = 3, 4, 4
        rng = np.random.default_rng(0)
        proj = DiffNet.random(d_w, 5, d_z, rng)
        net = zero_net(d_w + d_z, 5, 2 * d_w + 2 * d_g)
        prior = random_prior(rng, d_w, d_g)
        parts, _, _ = pair_grads(proj, net, Edge.TRANSLATION, np.ones(d_w), np.ones(d_z),
                                 -np.ones(d_w), np.zeros(d_z), prior, prior,
                                 rng.standard_normal(2 * d_w + 2 * d_g))
        for stats in (parts.stats_i, parts.stats_j):
            assert np.array_equal(stats.shift_mean, np.zeros(d_w))
            assert np.allclose(stats.shift_std, np.log(2.0) + STD_FLOOR)
            assert np.allclose(stats.log_resvar_std, np.log(2.0) + STD_FLOOR)

    def test_passthrough_net_copies_input_into_shift_mean(self):
        # With the inner-product edge and d_z = d_w + 2 the inference net
        # is square, so relu(x) - relu(-x) = x builds an exact pass-through
        # and the shift mean equals the first d_w coordinates of (bg, kg).
        d_w, d_z = 3, 5
        dim = d_w + d_z
        assert dim == 2 * d_w + 2 * edge_output_dim(Edge.INNER_PRODUCT, d_z)
        eye = np.eye(dim)
        net = DiffNet(dim, 2 * dim, dim,
                      W1=np.vstack([eye, -eye]), b1=np.zeros(2 * dim),
                      W2=np.hstack([eye, -eye]), b2=np.zeros(dim))
        rng = np.random.default_rng(1)
        proj = DiffNet.random(d_w, 4, d_z, rng)
        prior = random_prior(rng, d_w, 1)
        kg_i, kg_j = np.array([0.5, -0.6, 0.7]), np.array([0.1, 0.2, -0.3])
        bg_i = np.array([1.5, -2.5, 3.5, -4.5, 5.5])
        bg_j = np.array([-0.5, 0.25, 1.0, 2.0, -1.0])
        parts, _, _ = pair_grads(proj, net, Edge.INNER_PRODUCT, kg_i, bg_i, kg_j, bg_j,
                                 prior, prior, np.zeros(dim))
        assert np.array_equal(parts.stats_i.shift_mean, bg_i[:d_w])
        assert np.array_equal(parts.stats_j.shift_mean, bg_j[:d_w])

    def test_matches_forward_then_split(self):
        rng = np.random.default_rng(5)
        d_w, d_z, d_g = 2, 3, 3
        net = DiffNet.random(d_w + d_z, 6, 2 * d_w + 2 * d_g, rng)
        proj = DiffNet.random(d_w, 6, d_z, rng)
        kg_i, kg_j = rng.normal(size=d_w), rng.normal(size=d_w)
        bg_i, bg_j = rng.normal(size=d_z), rng.normal(size=d_z)
        prior = random_prior(rng, d_w, d_g)
        parts, _, _ = pair_grads(proj, net, Edge.TRANSLATION, kg_i, bg_i, kg_j, bg_j,
                                 prior, prior, rng.standard_normal(2 * d_w + 2 * d_g))
        for stats, kg, bg in ((parts.stats_i, kg_i, bg_i), (parts.stats_j, kg_j, bg_j)):
            # Means (shift, log share), then raw stds in the same order.
            raw = _forward_cached(net, np.concatenate([bg, kg]))[0]
            assert np.array_equal(stats.shift_mean, raw[:d_w])
            assert np.array_equal(stats.log_resvar_mean, raw[d_w:d_w + d_g])
            assert np.allclose(stats.shift_std,
                               np.logaddexp(0.0, raw[d_w + d_g:2 * d_w + d_g]) + STD_FLOOR)
            assert np.allclose(stats.log_resvar_std,
                               np.logaddexp(0.0, raw[2 * d_w + d_g:]) + STD_FLOOR)
            assert np.all(stats.shift_std > 0) and np.all(stats.log_resvar_std > 0)

    def test_dimension_mismatch_raises(self):
        # An inference net for 5 inputs against kg and bg vectors of 3 each.
        proj = zero_net(3, 4, 3)
        net = zero_net(5, 4, 12)
        prior = NodePrior(np.ones(3), np.zeros(3), np.ones(3))
        with pytest.raises(ShapeError, match="input dimension"):
            pair_grads(proj, net, Edge.TRANSLATION, np.ones(3), np.ones(3),
                       np.ones(3), np.ones(3), prior, prior, np.zeros(12))


class TestReparametrize:
    def test_zero_noise_returns_the_means(self):
        rng = np.random.default_rng(0)
        stats = random_stats(rng, 3, 4)
        sample = reparametrize(stats, np.zeros(3), np.zeros(4))
        assert np.array_equal(sample.shift, stats.shift_mean)
        assert np.allclose(sample.res_var, np.exp(stats.log_resvar_mean))

    def test_unit_lognormal_draw(self):
        stats = PosteriorStats(shift_mean=np.zeros(1), shift_std=np.ones(1),
                               log_resvar_mean=np.zeros(1),
                               log_resvar_std=np.ones(1))
        sample = reparametrize(stats, np.zeros(1), np.ones(1))
        assert sample.res_var[0] == pytest.approx(np.e)

    def test_monte_carlo_mean_of_shift(self):
        rng = np.random.default_rng(77)
        stats = random_stats(rng, 4, 2)
        n = 100_000
        draws = np.empty((n, 4))
        for t in range(n):
            draws[t] = reparametrize(stats, rng.standard_normal(4),
                                     np.zeros(2)).shift
        se = stats.shift_std / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - stats.shift_mean) < 4 * se)

    def test_positivity(self):
        rng = np.random.default_rng(3)
        stats = random_stats(rng, 2, 3, spread=3.0)
        for _ in range(100):
            s = reparametrize(stats, rng.standard_normal(2), rng.standard_normal(3))
            assert np.all(s.res_var > 0)

    def test_overflowing_variance_share_raises(self):
        stats = PosteriorStats(shift_mean=np.zeros(1), shift_std=np.ones(1),
                               log_resvar_mean=np.array([0.0, 700.0]),
                               log_resvar_std=np.ones(2))
        assert np.isfinite(reparametrize(stats, np.zeros(1), np.zeros(2)).res_var).all()
        with pytest.raises(NumericalError, match="variance share"):
            reparametrize(stats, np.zeros(1), np.array([0.0, 10.0]))


class TestReconstructionTerm:
    def test_perfect_reconstruction_unit_variance(self):
        z = np.array([0.1, 0.2, 0.3])
        nu = z.copy()
        half = np.full(3, 0.5)
        val, _, _ = _reconstruction(Edge.TRANSLATION, z, np.zeros(3), nu,
                                    np.zeros(3), half, half)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_unit_residual_unit_variance(self):
        # d_g = 1 via the inner-product edge: residual 1, total variance 1.
        val, _, _ = _reconstruction(Edge.INNER_PRODUCT, np.array([1.0]),
                                    np.array([1.0]), np.array([0.0]),
                                    np.array([1.0]), np.array([0.5]),
                                    np.array([0.5]))
        assert val == pytest.approx(-0.5)

    @pytest.mark.parametrize("edge", EDGES)
    def test_equals_gaussian_logpdf_up_to_constant(self, edge):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d_z = int(rng.integers(1, 6))
            d_g = edge_output_dim(edge, d_z)
            bg_i, bg_j = rng.normal(size=d_z), rng.normal(size=d_z)
            nu_i, nu_j = rng.normal(size=d_z), rng.normal(size=d_z)
            va, vb = rng.uniform(0.05, 3.0, size=d_g), rng.uniform(0.05, 3.0, size=d_g)
            val, _, _ = _reconstruction(edge, bg_i, bg_j, nu_i, nu_j, va, vb)
            logpdf = float(np.sum(sps.norm.logpdf(
                edge_apply(edge, bg_i, bg_j),
                loc=edge_apply(edge, nu_i, nu_j),
                scale=np.sqrt(va + vb))))
            assert val == pytest.approx(logpdf + 0.5 * d_g * np.log(2 * np.pi), abs=1e-9)

    def test_maximal_at_perfect_reconstruction(self):
        rng = np.random.default_rng(4)
        z_i, z_j = rng.normal(size=3), rng.normal(size=3)
        v = rng.uniform(0.2, 1.0, size=3)
        best, _, _ = _reconstruction(Edge.TRANSLATION, z_i, z_j, z_i, z_j, v, v)
        for _ in range(20):
            off = rng.normal(size=3) * 0.5
            worse, _, _ = _reconstruction(Edge.TRANSLATION, z_i, z_j, z_i + off, z_j, v, v)
            assert worse <= best + 1e-12

    def test_translation_residual_vanishes_for_equal_nodes(self):
        # z_i = z_j and nu_i = nu_j: only the log-variance part remains,
        # whatever produced the projections.
        rng = np.random.default_rng(6)
        z = rng.normal(size=4)
        nu = rng.normal(size=4)
        v = rng.uniform(0.1, 2.0, size=4)
        val, _, _ = _reconstruction(Edge.TRANSLATION, z, z, nu, nu, v, v)
        assert val == pytest.approx(float(-0.5 * np.sum(np.log(2 * v))), abs=1e-12)


class TestKlPenalty:
    def test_matched_posterior_is_zero(self):
        rng = np.random.default_rng(0)
        prior = random_prior(rng, 3, 2)
        stats = PosteriorStats(
            shift_mean=np.zeros(3),
            shift_std=np.sqrt(prior.shift_var),
            log_resvar_mean=prior.log_resvar_mean.copy(),
            log_resvar_std=np.sqrt(prior.log_resvar_var),
        )
        assert kl_penalty(stats, prior) == pytest.approx(0.0, abs=1e-12)

    def test_unit_mean_shift_gives_half(self):
        prior = NodePrior(shift_var=np.ones(1), log_resvar_mean=np.zeros(1),
                          log_resvar_var=np.ones(1))
        stats = PosteriorStats(shift_mean=np.ones(1), shift_std=np.ones(1),
                               log_resvar_mean=np.zeros(1),
                               log_resvar_std=np.ones(1))
        assert kl_penalty(stats, prior) == pytest.approx(0.5)

    def test_non_negativity_on_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(2000):
            d_w, d_g = rng.integers(1, 5, size=2)
            stats = random_stats(rng, d_w, d_g, spread=2.0)
            prior = random_prior(rng, d_w, d_g)
            assert kl_penalty(stats, prior) >= -1e-12

    def test_matches_monte_carlo_kl_estimate(self):
        # KL(q||p) = E_q[log q - log p], estimated with 200k draws, on 50
        # random instances; agreement within 3 standard errors.
        rng = np.random.default_rng(99)
        n = 200_000
        fails = 0
        for _ in range(50):
            d_w, d_g = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            stats = random_stats(rng, d_w, d_g)
            prior = random_prior(rng, d_w, d_g)
            exact = kl_penalty(stats, prior)

            mu_q = np.concatenate([stats.shift_mean, stats.log_resvar_mean])
            sd_q = np.concatenate([stats.shift_std, stats.log_resvar_std])
            mu_p = np.concatenate([np.zeros(d_w), prior.log_resvar_mean])
            sd_p = np.sqrt(np.concatenate([prior.shift_var, prior.log_resvar_var]))
            draws = mu_q + sd_q * rng.standard_normal((n, d_w + d_g))
            log_q = sps.norm.logpdf(draws, loc=mu_q, scale=sd_q).sum(axis=1)
            log_p = sps.norm.logpdf(draws, loc=mu_p, scale=sd_p).sum(axis=1)
            diff = log_q - log_p
            se = diff.std(ddof=1) / np.sqrt(n)
            if abs(diff.mean() - exact) > 3 * se:
                fails += 1
        # 3 SE misses happen ~0.3% of the time per instance; allow one.
        assert fails <= 1


class TestElboPair:
    def make_setup(self, edge, seed=0, d_w=3, d_z=4, n_h=6):
        rng = np.random.default_rng(seed)
        d_g = edge_output_dim(edge, d_z)
        proj = DiffNet.random(d_w, n_h, d_z, rng)
        infer = DiffNet.random(d_w + d_z, n_h, 2 * d_w + 2 * d_g, rng)
        kg_i, kg_j = rng.normal(size=d_w), rng.normal(size=d_w)
        bg_i, bg_j = rng.normal(size=d_z), rng.normal(size=d_z)
        prior_i = random_prior(rng, d_w, d_g, 1.0, 1.0)
        prior_j = random_prior(rng, d_w, d_g, 1.0, 1.0)
        eps = rng.standard_normal(2 * d_w + 2 * d_g)
        return proj, infer, kg_i, bg_i, kg_j, bg_j, prior_i, prior_j, eps

    def test_parts_add_up(self):
        args = self.make_setup(Edge.TRANSLATION)
        parts, _, _ = pair_grads(args[0], args[1], Edge.TRANSLATION, *args[2:])
        assert parts.elbo == pytest.approx(parts.recon - parts.kl_i - parts.kl_j)

    def test_lambda_direction_of_each_kl_summand(self):
        # Evaluating the coordinate formula at two lambda values: the
        # summand decreases with lambda exactly while
        # lambda * var < var_hat + mean_gap^2, and increases past that
        # point (the log term eventually dominates).
        def coord_kl(var_hat, gap2, lam, var):
            v = lam * var
            return 0.5 * (-np.log(var_hat / v) + var_hat / v + gap2 / v - 1.0)

        var_hat, var, gap2 = 0.5, 1.0, 8.0
        # lambda * var stays below var_hat + gap2 = 8.5: decreasing.
        assert coord_kl(var_hat, gap2, 2.0, var) < coord_kl(var_hat, gap2, 1.0, var)
        assert coord_kl(var_hat, gap2, 6.0, var) < coord_kl(var_hat, gap2, 2.0, var)
        # beyond the crossover the summand grows again.
        assert coord_kl(var_hat, gap2, 50.0, var) > coord_kl(var_hat, gap2, 9.0, var)
        # with matched means and var_hat < lambda * var it is increasing.
        assert coord_kl(var_hat, 0.0, 2.0, var) > coord_kl(var_hat, 0.0, 1.0, var)

    def test_zero_kl_leaves_reconstruction_only(self):
        rng = np.random.default_rng(2)
        edge = Edge.TRANSLATION
        d_w, d_z = 2, 3
        d_g = edge_output_dim(edge, d_z)
        proj = DiffNet.random(d_w, 5, d_z, rng)
        infer = DiffNet.random(d_w + d_z, 5, 2 * d_w + 2 * d_g, rng)
        kg_i, kg_j = rng.normal(size=d_w), rng.normal(size=d_w)
        bg_i, bg_j = rng.normal(size=d_z), rng.normal(size=d_z)
        eps = rng.standard_normal(2 * d_w + 2 * d_g)
        # The shift prior has mean 0, so the shift-mean outputs are zeroed.
        infer.W2[:d_w] = 0.0
        # The posteriors do not depend on the priors: a first pass with any
        # priors gives them, and the second pass uses them as the priors.
        prior = random_prior(rng, d_w, d_g)
        first, _, _ = pair_grads(proj, infer, edge, kg_i, bg_i, kg_j, bg_j,
                                 prior, prior, eps)
        priors = []
        for stats in (first.stats_i, first.stats_j):
            assert np.array_equal(stats.shift_mean, np.zeros(d_w))
            priors.append(NodePrior(
                shift_var=stats.shift_std ** 2,
                log_resvar_mean=stats.log_resvar_mean.copy(),
                log_resvar_var=stats.log_resvar_std ** 2))
        parts, _, _ = pair_grads(proj, infer, edge, kg_i, bg_i, kg_j, bg_j,
                                 priors[0], priors[1], eps)
        assert parts.kl_i == pytest.approx(0.0, abs=1e-10)
        assert parts.kl_j == pytest.approx(0.0, abs=1e-10)
        assert parts.elbo == pytest.approx(parts.recon, abs=1e-9)

    def test_identity_edge_decomposes_into_node_terms(self):
        # Independent per-node oracle: a diagonal-Gaussian fit of each
        # node's own observation given its block of the total variance,
        # minus that node's KL. The identity edge must introduce no
        # cross-node coupling beyond the shared variance blocks.
        def node_term(bg_vec, proj_vec, var_block):
            return float(-np.sum(0.5 * np.log(var_block)
                                 + (bg_vec - proj_vec) ** 2 / (2.0 * var_block)))

        for seed in range(10):
            args = self.make_setup(Edge.IDENTITY, seed=seed)
            proj, infer, kg_i, bg_i, kg_j, bg_j, prior_i, prior_j, eps = args
            parts, _, _ = pair_grads(proj, infer, Edge.IDENTITY, kg_i, bg_i,
                                     kg_j, bg_j, prior_i, prior_j, eps)
            d_z = proj.out_dim
            total_var = parts.sample_i.res_var + parts.sample_j.res_var
            oracle = (node_term(bg_i, parts.proj_i, total_var[:d_z])
                      - kl_penalty(parts.stats_i, prior_i)
                      + node_term(bg_j, parts.proj_j, total_var[d_z:])
                      - kl_penalty(parts.stats_j, prior_j))
            assert parts.elbo == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("edge", EDGES)
    def test_gradients_match_finite_differences(self, edge):
        args = self.make_setup(edge, seed=17)
        proj, infer = args[0], args[1]
        rest = args[2:]
        parts, gp, gi = pair_grads(proj, infer, edge, *rest)
        assert_matches_finite_differences(
            proj, infer, gp, gi, lambda: pair_grads(proj, infer, edge, *rest)[0].elbo)

    def test_accumulation_equals_sum_of_singles(self):
        argsA = self.make_setup(Edge.TRANSLATION, seed=3)
        argsB = self.make_setup(Edge.TRANSLATION, seed=4)
        proj, infer = argsA[0], argsA[1]
        acc_p = zero_grads(proj)
        acc_i = zero_grads(infer)
        elbo_pair_accumulate_grads(proj, infer, Edge.TRANSLATION, *argsA[2:],
                                   acc_proj=acc_p, acc_infer=acc_i)
        elbo_pair_accumulate_grads(proj, infer, Edge.TRANSLATION, *argsB[2:],
                                   acc_proj=acc_p, acc_infer=acc_i)
        _, gA_p, gA_i = pair_grads(proj, infer, Edge.TRANSLATION, *argsA[2:])
        _, gB_p, gB_i = pair_grads(proj, infer, Edge.TRANSLATION, *argsB[2:])
        assert np.allclose(acc_p.W1, gA_p.W1 + gB_p.W1, atol=1e-12)
        assert np.allclose(acc_i.W2, gA_i.W2 + gB_i.W2, atol=1e-12)


# Largest allowed gap between the engine and the per-pair oracle: the ELBO,
# reconstruction and KL relative to their own value, each gradient relative to
# the largest entry of the oracle's array. The engine sums in another order
# (matrix products over the stacked node rows, bias rows added pair by pair);
# 2.9e-15 measured over the three edges, 1-40 pairs and widths up to
# kg 16, bg 32, hidden 500.
ENGINE_RTOL = 1e-13


def batch_case(edge, n, seed, d_w=3, d_z=4, n_h=6):
    """Nets with nonzero biases, n pairs as side-stacked (2, n, dim) rows, a
    batch prior and the noise: the arguments of ``elbo_batch_grads``."""
    rng = np.random.default_rng(seed)
    d_g = edge_output_dim(edge, d_z)
    proj = DiffNet.random(d_w, n_h, d_z, rng)
    infer = DiffNet.random(d_w + d_z, n_h, 2 * d_w + 2 * d_g, rng)
    for net in (proj, infer):
        net.b1 = 0.3 * rng.normal(size=net.hidden_dim)
        net.b2 = 0.3 * rng.normal(size=net.out_dim)
    kg = rng.normal(size=(2, n, d_w))
    bg = rng.normal(size=(2, n, d_z))
    sides = (random_prior(rng, d_w, d_g, 1.0, 1.0), random_prior(rng, d_w, d_g, 1.0, 1.0))
    prior = BatchPrior(np.concatenate([np.zeros(d_w), sides[0].log_resvar_mean]),
                       np.stack([np.concatenate([side.shift_var, sides[0].log_resvar_var])
                                 for side in sides]))
    noise = rng.standard_normal((n, 2, d_w + d_g)).transpose(1, 0, 2)
    return proj, infer, (kg, bg, prior, noise)


def engine_grads(proj, infer, edge, *rest):
    """The engine's (elbo, recon, kl) sums and gradients, accumulated from zero."""
    acc_proj, acc_infer = zero_grads(proj), zero_grads(infer)
    values = elbo_batch_grads(proj, infer, edge, *rest, acc_proj, acc_infer)
    return values, acc_proj, acc_infer


def oracle_grads(proj, infer, edge, kg, bg, prior, noise):
    """The same sums and gradients from the per-pair oracle, pair by pair."""
    acc_proj, acc_infer = zero_grads(proj), zero_grads(infer)
    elbo = recon = kl = 0.0
    for m in range(noise.shape[1]):
        parts = elbo_pair_accumulate_grads(proj, infer, edge, kg[0, m], bg[0, m], kg[1, m],
                                           bg[1, m], *node_priors(prior, kg.shape[-1]),
                                           noise[:, m].ravel(),
                                           acc_proj, acc_infer)
        elbo, recon, kl = elbo + parts.elbo, recon + parts.recon, kl + parts.kl_i + parts.kl_j
    return (elbo, recon, kl), acc_proj, acc_infer


class TestElboBatch:
    """``elbo_batch_grads`` over n pairs against the per-pair oracle."""

    @pytest.mark.parametrize("n", [1, 3, 40])
    @pytest.mark.parametrize("edge", EDGES)
    def test_matches_pair_oracle(self, edge, n):
        proj, infer, rest = batch_case(edge, n, seed=n)
        values, gp, gi = engine_grads(proj, infer, edge, *rest)
        want, op, oi = oracle_grads(proj, infer, edge, *rest)
        elbo, recon, kl = values
        assert elbo == recon - kl
        for got, ref in zip(values, want):
            assert abs(got - ref) <= ENGINE_RTOL * abs(ref)
        for acc, ref in ((gp, op), (gi, oi)):
            for name in ("W1", "b1", "W2", "b2"):
                want_arr = getattr(ref, name)
                assert np.max(np.abs(getattr(acc, name) - want_arr)) \
                    <= ENGINE_RTOL * np.max(np.abs(want_arr))
        # b2 cancels in proj_a - proj_b: each pair's two rows add exactly 0.
        assert np.any(gp.b2) == (edge is not Edge.TRANSLATION)

    @pytest.mark.parametrize("edge", EDGES)
    def test_gradients_match_finite_differences(self, edge):
        proj, infer, rest = batch_case(edge, 3, seed=17)
        _, gp, gi = engine_grads(proj, infer, edge, *rest)
        assert_matches_finite_differences(
            proj, infer, gp, gi, lambda: engine_grads(proj, infer, edge, *rest)[0][0])

    @pytest.mark.parametrize("edge", EDGES)
    def test_posterior_at_the_prior_has_zero_kl(self, edge):
        # The inference net emits the means (shift, log share), then the raw
        # stds in the same order: a constant output can equal the prior.
        proj, infer, (kg, bg, _, noise) = batch_case(edge, 3, seed=23)
        rng = np.random.default_rng(24)
        d_w, d_g = proj.in_dim, edge_output_dim(edge, proj.out_dim)
        v, u = rng.uniform(0.2, 3.0, size=d_w), rng.uniform(0.2, 3.0, size=d_g)
        mu = rng.normal(size=d_g)

        def raw_std(var):  # softplus inverse of the std less its floor
            return np.log(np.expm1(np.sqrt(var) - STD_FLOOR))

        infer.W2[:] = 0.0
        infer.b2 = np.concatenate([np.zeros(d_w), mu, raw_std(v), raw_std(u)])
        prior = BatchPrior(np.concatenate([np.zeros(d_w), mu]),
                           np.stack([np.concatenate([v, u])] * 2))
        kl = engine_grads(proj, infer, edge, kg, bg, prior, noise)[0][2]
        assert abs(kl) <= 1e-12

    def test_overflowing_variance_share_raises(self):
        proj, infer, rest = batch_case(Edge.TRANSLATION, 3, seed=5)
        d_w, d_g = proj.in_dim, proj.out_dim
        infer.b2[d_w:d_w + d_g] = 800.0  # the log-share means
        with pytest.raises(NumericalError, match="variance share"):
            engine_grads(proj, infer, Edge.TRANSLATION, *rest)

    def test_shape_mismatch_raises(self):
        proj, infer, rest = batch_case(Edge.TRANSLATION, 3, seed=6)
        kg, bg, prior, noise = rest
        d_w = kg.shape[-1]
        too_wide = zero_net(infer.in_dim, 4, infer.out_dim + 1)
        for net, kg_in, bg_in, prior_in, eps, what in (
                (too_wide, kg, bg, prior, noise, "net output"),
                (infer, kg[..., 1:], bg, prior, noise, "input dimensions"),
                (infer, kg[:, :2], bg, prior, noise, "input dimensions"),
                (infer, kg[0], bg, prior, noise, "input dimensions"),
                (infer, kg, bg[..., 1:], prior, noise, "input dimensions"),
                (infer, kg, bg, prior, noise[..., 1:], "pair noise"),
                (infer, kg, bg, BatchPrior(prior.mean, prior.var[:, :d_w]), noise,
                 "batch prior"),
                (infer, kg, bg, BatchPrior(prior.mean[:d_w], prior.var), noise, "batch prior")):
            with pytest.raises(ShapeError, match=what):
                engine_grads(proj, net, Edge.TRANSLATION, kg_in, bg_in, prior_in, eps)
