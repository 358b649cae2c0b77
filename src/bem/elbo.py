"""Variational objective for refining a KG table against a BG table.

One entity carries a KG vector (the prior side) and a BG vector (the
observed side). Per entity the latents are a correction shift added to the
KG vector before projection, and a positive per-coordinate share of the
variance of the pairwise edge residual. The shift posterior is Gaussian;
the variance share is log-normal, parametrized by the mean/std of its log
so that positivity and the closed-form KL both hold.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, ShapeError
from .nets import (DiffNet, NetGrads, _backward_from_cache, _forward_cached,
                   net_forward, net_forward_rows, sigmoid, softplus)

# Clamps that keep degenerate batches out of log/divide trouble.
VAR_FLOOR = 1e-6
STD_FLOOR = 1e-4
LOG_RESVAR_VAR_MIN = 1e-6
LOG_RESVAR_VAR_MAX = 10.0


class Edge(enum.Enum):
    """Pairwise interaction carried into the Gaussian observation model."""

    TRANSLATION = "translation"
    INNER_PRODUCT = "inner"
    IDENTITY = "identity"


def edge_output_dim(edge: Edge, bg_dim: int) -> int:
    if edge is Edge.TRANSLATION:
        return bg_dim
    if edge is Edge.INNER_PRODUCT:
        return 1
    return 2 * bg_dim


def edge_allows_self_pairs(edge: Edge) -> bool:
    # A self pair has residual identically zero under the other two edges.
    return edge is Edge.IDENTITY


def edge_apply(edge: Edge, x, y) -> np.ndarray:
    """Translation: x - y. Inner product: <x, y> as a 1-vector. Identity: (x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeError(f"edge inputs must be equal-length vectors, got {x.shape} and {y.shape}")
    if edge is Edge.TRANSLATION:
        return x - y
    if edge is Edge.INNER_PRODUCT:
        return np.array([float(x @ y)])
    return np.concatenate([x, y])


def _edge_apply_rows(edge: Edge, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    if edge is Edge.TRANSLATION:
        return X - Y
    if edge is Edge.INNER_PRODUCT:
        return np.sum(X * Y, axis=1, keepdims=True)
    return np.hstack([X, Y])


@dataclass(eq=False)
class BatchPrior:
    """Per-batch prior for the shift and for the log of the variance share.

    ``shift_mean`` is identically zero; ``lambda1`` scales the shift prior
    variance and ``lambda2`` the log-variance-share prior variance inside
    the KL penalty.
    """

    shift_mean: np.ndarray
    shift_var: np.ndarray
    log_resvar_mean: np.ndarray
    log_resvar_var: np.ndarray
    lambda1: float = 1.0
    lambda2: float = 1.0


@dataclass(eq=False)
class PosteriorStats:
    """Approximate posterior means and stds produced by the inference net."""

    shift_mean: np.ndarray
    shift_std: np.ndarray
    log_resvar_mean: np.ndarray
    log_resvar_std: np.ndarray


@dataclass(eq=False)
class LatentSample:
    """One reparametrized draw: the shift and the positive variance share."""

    shift: np.ndarray
    res_var: np.ndarray


def estimate_prior(kg_a, kg_b, bg_a, bg_b, edge: Edge, n_boot: int,
                   rng: np.random.Generator, lambda1: float = 1.0,
                   lambda2: float = 1.0) -> tuple[BatchPrior, BatchPrior]:
    """Moment-based priors from one paired batch.

    The shift prior variance is the unbiased per-coordinate sample variance
    of each side's KG rows. The variance-share prior is estimated from the
    spread of the edge values: its location is the per-coordinate mean
    squared deviation of edge(bg_a, bg_b) around the batch mean (divisor
    n), and its uncertainty is the standard deviation of that estimator
    over ``n_boot`` bootstrap resamples of the pair list, drawn as one
    ``rng.integers(0, n, size=(n_boot, n))`` call. Both moments are mapped
    to log space by the first-order delta method and clamped.
    """
    kg_a = np.asarray(kg_a, dtype=float)
    kg_b = np.asarray(kg_b, dtype=float)
    bg_a = np.asarray(bg_a, dtype=float)
    bg_b = np.asarray(bg_b, dtype=float)
    n = kg_a.shape[0]
    if n < 2 or kg_b.shape[0] != n or bg_a.shape[0] != n or bg_b.shape[0] != n:
        raise ConfigError("prior estimation needs two aligned batches of size >= 2")
    if n_boot < 1:
        raise ConfigError("bootstrap replicate count must be positive")

    gvals = _edge_apply_rows(edge, bg_a, bg_b)
    mu_res = np.mean((gvals - gvals.mean(axis=0)) ** 2, axis=0)

    idx = rng.integers(0, n, size=(n_boot, n))
    boot = np.empty((n_boot, gvals.shape[1]))
    for r in range(n_boot):
        sample = gvals[idx[r]]
        boot[r] = np.mean((sample - sample.mean(axis=0)) ** 2, axis=0)
    sd_res = np.sqrt(np.mean((boot - boot.mean(axis=0)) ** 2, axis=0))

    floored = np.maximum(mu_res, VAR_FLOOR)
    log_mean = np.log(floored)
    log_var = np.clip((sd_res / floored) ** 2, LOG_RESVAR_VAR_MIN, LOG_RESVAR_VAR_MAX)

    priors = []
    for kg_side in (kg_a, kg_b):
        shift_var = np.maximum(np.var(kg_side, axis=0, ddof=1), VAR_FLOOR)
        priors.append(BatchPrior(
            shift_mean=np.zeros(kg_side.shape[1]),
            shift_var=shift_var,
            log_resvar_mean=log_mean.copy(),
            log_resvar_var=log_var.copy(),
            lambda1=lambda1,
            lambda2=lambda2,
        ))
    return priors[0], priors[1]


def _split_raw(raw: np.ndarray, kg_dim: int, edge_dim: int):
    m_shift = raw[:kg_dim]
    r_shift = raw[kg_dim:2 * kg_dim]
    m_log = raw[2 * kg_dim:2 * kg_dim + edge_dim]
    r_log = raw[2 * kg_dim + edge_dim:]
    return m_shift, r_shift, m_log, r_log


def _stats_from_raw(raw: np.ndarray, kg_dim: int, edge_dim: int) -> PosteriorStats:
    m_shift, r_shift, m_log, r_log = _split_raw(raw, kg_dim, edge_dim)
    return PosteriorStats(
        shift_mean=m_shift.copy(),
        shift_std=softplus(r_shift) + STD_FLOOR,
        log_resvar_mean=m_log.copy(),
        log_resvar_std=softplus(r_log) + STD_FLOOR,
    )


def infer_posterior(infer_net: DiffNet, kg_vec, bg_vec) -> PosteriorStats:
    """Run the inference net on the concatenation (bg_vec, kg_vec).

    The raw output splits into (shift mean, raw shift std, log-share mean,
    raw log-share std); stds go through softplus plus a small floor.
    """
    kg_vec = np.asarray(kg_vec, dtype=float)
    bg_vec = np.asarray(bg_vec, dtype=float)
    if infer_net.in_dim != kg_vec.shape[0] + bg_vec.shape[0]:
        raise ShapeError(
            f"inference net expects input {infer_net.in_dim}, "
            f"got {kg_vec.shape[0]} + {bg_vec.shape[0]}")
    kg_dim = kg_vec.shape[0]
    if (infer_net.out_dim - 2 * kg_dim) % 2 != 0 or infer_net.out_dim <= 2 * kg_dim:
        raise ShapeError("inference net output must be 2*kg_dim + 2*edge_dim")
    edge_dim = (infer_net.out_dim - 2 * kg_dim) // 2
    raw = net_forward(infer_net, np.concatenate([bg_vec, kg_vec]))
    return _stats_from_raw(raw, kg_dim, edge_dim)


def shift_mean_rows(infer_net: DiffNet, kg_rows: np.ndarray,
                    bg_rows: np.ndarray) -> np.ndarray:
    """Posterior shift means of a block of rows: the batched
    ``infer_posterior(...).shift_mean``, through ``net_forward_rows``.
    The caller checks that the net fits the row dimensions."""
    raw = net_forward_rows(infer_net, np.hstack([bg_rows, kg_rows]))
    return raw[:, :kg_rows.shape[1]]


def reparametrize(stats: PosteriorStats, eps_shift, eps_logres) -> LatentSample:
    """shift = mean + std*eps; variance share = exp(log mean + log std*eps),
    a NumericalError when that overflows."""
    eps_shift = np.asarray(eps_shift, dtype=float)
    eps_logres = np.asarray(eps_logres, dtype=float)
    if eps_shift.shape != stats.shift_mean.shape:
        raise ShapeError("shift noise has wrong shape")
    if eps_logres.shape != stats.log_resvar_mean.shape:
        raise ShapeError("log-share noise has wrong shape")
    shift = stats.shift_mean + stats.shift_std * eps_shift
    with np.errstate(over="raise"):
        try:
            res_var = np.exp(stats.log_resvar_mean + stats.log_resvar_std * eps_logres)
        except FloatingPointError:
            raise NumericalError("variance share overflows") from None
    return LatentSample(shift=shift, res_var=res_var)


def reconstruction_term(edge: Edge, bg_i, bg_j, proj_i, proj_j,
                        res_var_i, res_var_j) -> float:
    """Gaussian fit of the edge residual, additive constant dropped.

    Per coordinate: -(log(total_var)/2 + residual^2 / (2 total_var)) with
    total_var = res_var_i + res_var_j, summed over coordinates. Equals the
    diagonal-Gaussian log-density up to +(d/2) log(2 pi).
    """
    return _reconstruction(edge, bg_i, bg_j, proj_i, proj_j, res_var_i, res_var_j)[0]


def _reconstruction(edge, bg_i, bg_j, proj_i, proj_j, res_var_i, res_var_j):
    """``reconstruction_term`` with the residual and the total variance
    behind it, which the gradient reuses."""
    res_var_i = np.asarray(res_var_i, dtype=float)
    res_var_j = np.asarray(res_var_j, dtype=float)
    total_var = res_var_i + res_var_j
    if np.any(total_var <= 0.0) or not np.all(np.isfinite(total_var)):
        raise NumericalError("total residual variance must be positive and finite")
    resid = edge_apply(edge, bg_i, bg_j) - edge_apply(edge, proj_i, proj_j)
    if resid.shape != total_var.shape:
        raise ShapeError("variance shares must have the edge output dimension")
    recon = float(-np.sum(0.5 * np.log(total_var) + resid ** 2 / (2.0 * total_var)))
    return recon, resid, total_var


def kl_penalty(stats: PosteriorStats, prior: BatchPrior) -> float:
    """Exact KL from the posterior to the lambda-scaled prior, both blocks.

    Per coordinate: (-log(v_hat/v) + v_hat/v + (m_hat - m)^2 / v - 1) / 2
    with v = lambda * prior variance. The log-normal block reduces to the
    KL of the underlying normals on the log scale. Non-negative; zero only
    when posterior and scaled prior coincide.
    """
    v = prior.lambda1 * prior.shift_var
    var_hat = stats.shift_std ** 2
    if var_hat.shape != v.shape:
        raise ShapeError("posterior and prior disagree on the shift dimension")
    kl = 0.5 * np.sum(-np.log(var_hat / v) + var_hat / v
                      + (stats.shift_mean - prior.shift_mean) ** 2 / v - 1.0)
    u = prior.lambda2 * prior.log_resvar_var
    lvar_hat = stats.log_resvar_std ** 2
    if lvar_hat.shape != u.shape:
        raise ShapeError("posterior and prior disagree on the edge dimension")
    kl += 0.5 * np.sum(-np.log(lvar_hat / u) + lvar_hat / u
                       + (stats.log_resvar_mean - prior.log_resvar_mean) ** 2 / u - 1.0)
    return float(kl)


@dataclass(eq=False)
class ElboParts:
    """Single-draw objective value with the intermediates behind it."""

    elbo: float
    recon: float
    kl_i: float
    kl_j: float
    stats_i: PosteriorStats
    stats_j: PosteriorStats
    sample_i: LatentSample
    sample_j: LatentSample
    proj_i: np.ndarray
    proj_j: np.ndarray


@dataclass(eq=False)
class _Node:
    """One node's forward pass as its backward pass reads it. The caches
    are each net's (input, hidden pre-activation, hidden activation)."""

    prior: BatchPrior
    eps: np.ndarray
    raw: np.ndarray
    stats: PosteriorStats
    sample: LatentSample
    proj: np.ndarray
    infer_cache: tuple
    proj_cache: tuple


def _forward(proj_net, infer_net, edge, kg_i, bg_i, kg_j, bg_j, prior_i,
             prior_j, eps):
    """One pair's ELBO parts, and the tape ``_backward`` reads: the
    residual, the total variance and both nodes."""
    kg_dim = proj_net.in_dim
    edge_dim = edge_output_dim(edge, proj_net.out_dim)
    if infer_net.out_dim != 2 * kg_dim + 2 * edge_dim:
        raise ShapeError("inference net output does not match kg/edge dimensions")
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (infer_net.out_dim,):
        raise ShapeError(f"pair noise has shape {eps.shape}, "
                         f"expected ({infer_net.out_dim},)")
    nodes = []
    for kg_vec, bg_vec, prior, node_eps in (
            (kg_i, bg_i, prior_i, eps[:kg_dim + edge_dim]),
            (kg_j, bg_j, prior_j, eps[kg_dim + edge_dim:])):
        kg_vec = np.asarray(kg_vec, dtype=float)
        infer_in = np.concatenate([np.asarray(bg_vec, dtype=float), kg_vec])
        if infer_in.shape[0] != infer_net.in_dim:
            raise ShapeError("inference net input dimension mismatch")
        raw, pre, hid = _forward_cached(infer_net, infer_in)
        stats = _stats_from_raw(raw, kg_dim, edge_dim)
        sample = reparametrize(stats, node_eps[:kg_dim], node_eps[kg_dim:])
        proj_in = kg_vec + sample.shift
        proj, proj_pre, proj_hid = _forward_cached(proj_net, proj_in)
        nodes.append(_Node(prior, node_eps, raw, stats, sample, proj,
                           (infer_in, pre, hid), (proj_in, proj_pre, proj_hid)))
    ni, nj = nodes
    recon, resid, total_var = _reconstruction(edge, bg_i, bg_j, ni.proj, nj.proj,
                                              ni.sample.res_var, nj.sample.res_var)
    kl_i = kl_penalty(ni.stats, prior_i)
    kl_j = kl_penalty(nj.stats, prior_j)
    parts = ElboParts(elbo=recon - kl_i - kl_j, recon=recon, kl_i=kl_i, kl_j=kl_j,
                      stats_i=ni.stats, stats_j=nj.stats,
                      sample_i=ni.sample, sample_j=nj.sample,
                      proj_i=ni.proj, proj_j=nj.proj)
    return parts, (resid, total_var, ni, nj)


def _backward(proj_net, infer_net, edge, tape, acc_proj, acc_infer) -> None:
    """Add the taped pair's ELBO gradients into the accumulators, node i
    first."""
    resid, total_var, ni, nj = tape
    d_total_var = -0.5 / total_var + resid ** 2 / (2.0 * total_var ** 2)
    d_gnu = resid / total_var  # d ELBO / d edge(proj_i, proj_j)
    if edge is Edge.TRANSLATION:
        d_projs = (d_gnu, -d_gnu)
    elif edge is Edge.INNER_PRODUCT:
        d_projs = (d_gnu[0] * nj.proj, d_gnu[0] * ni.proj)
    else:
        half = ni.proj.shape[0]
        d_projs = (d_gnu[:half], d_gnu[half:])
    kg_dim = proj_net.in_dim
    for node, d_proj in zip((ni, nj), d_projs):
        # Through the projection net down to the sampled shift.
        _, d_shift = _backward_from_cache(proj_net, *node.proj_cache, d_proj, acc_proj)
        # Through the reparametrizations, plus the KL's own gradient.
        d_logres = d_total_var * node.sample.res_var
        prior, stats = node.prior, node.stats
        eps_shift, eps_logres = node.eps[:kg_dim], node.eps[kg_dim:]
        v = prior.lambda1 * prior.shift_var
        u = prior.lambda2 * prior.log_resvar_var
        d_m_shift = d_shift - (stats.shift_mean - prior.shift_mean) / v
        d_s_shift = d_shift * eps_shift - (stats.shift_std / v - 1.0 / stats.shift_std)
        d_m_log = d_logres - (stats.log_resvar_mean - prior.log_resvar_mean) / u
        d_s_log = d_logres * eps_logres - (stats.log_resvar_std / u
                                           - 1.0 / stats.log_resvar_std)
        _, r_shift, _, r_log = _split_raw(node.raw, kg_dim, total_var.shape[0])
        upstream = np.concatenate([
            d_m_shift,
            d_s_shift * sigmoid(r_shift),
            d_m_log,
            d_s_log * sigmoid(r_log),
        ])
        _backward_from_cache(infer_net, *node.infer_cache, upstream, acc_infer)


def elbo_pair(proj_net: DiffNet, infer_net: DiffNet, edge: Edge,
              kg_i, bg_i, kg_j, bg_j, prior_i: BatchPrior,
              prior_j: BatchPrior, eps) -> ElboParts:
    """Single-draw lower bound for one pair: reconstruction minus both KLs.

    ``eps`` is the pair's standard-normal noise, 2*kg_dim + 2*edge_dim
    values in the order shift_i, logres_i, shift_j, logres_j.
    """
    return _forward(proj_net, infer_net, edge, kg_i, bg_i, kg_j, bg_j,
                    prior_i, prior_j, eps)[0]


def elbo_pair_accumulate_grads(proj_net: DiffNet, infer_net: DiffNet, edge: Edge,
                               kg_i, bg_i, kg_j, bg_j, prior_i: BatchPrior,
                               prior_j: BatchPrior, eps,
                               acc_proj: NetGrads, acc_infer: NetGrads) -> ElboParts:
    """``elbo_pair``, adding the pair's ELBO gradients into the accumulators.

    Gradients are of the ELBO itself (ascent direction) with the noise draws
    held fixed, pathwise through the reparametrization.
    """
    parts, tape = _forward(proj_net, infer_net, edge, kg_i, bg_i, kg_j, bg_j,
                           prior_i, prior_j, eps)
    _backward(proj_net, infer_net, edge, tape, acc_proj, acc_infer)
    return parts
