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
from .nets import DiffNet, NetGrads, _block_forward, sigmoid, softplus

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
    """The edge over the last axis of equal-shape vectors (one pair) or
    matrices (a pair per row). Translation: x - y. Inner product: <x, y>,
    a last axis of length 1. Identity: (x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim not in (1, 2):
        raise ShapeError(f"edge inputs must be equal-shape vectors or matrices, "
                         f"got {x.shape} and {y.shape}")
    if edge is Edge.TRANSLATION:
        return x - y
    if edge is Edge.INNER_PRODUCT:
        return np.sum(x * y, axis=-1, keepdims=True)
    return np.concatenate([x, y], axis=-1)


@dataclass(eq=False)
class BatchPrior:
    """The prior of one batch of pairs, as the KL reads it. The shift prior
    has mean 0 and variance ``shift_var``, one row per side (a, then b). The
    log of the variance share has mean ``log_resvar_mean`` and variance
    ``log_resvar_var``, one estimate that both sides share. Both variances
    already carry their ``lambda1``/``lambda2`` factor."""

    shift_var: np.ndarray
    log_resvar_mean: np.ndarray
    log_resvar_var: np.ndarray


def estimate_prior(kg, bg, edge: Edge, lambda1: float, lambda2: float) -> BatchPrior:
    """Moment-based prior of one batch of n pairs, in closed form, from its
    side-stacked (2, n, dim) KG and BG rows.

    Each side's shift prior variance is ``lambda1`` times the unbiased
    per-coordinate sample variance of that side's KG rows, floored. The
    shared variance-share prior is estimated from the edge values
    g = edge(bg[0], bg[1]): its location is the per-coordinate mean of
    dev2 = (g - mean(g))**2 (divisor n), and its spread is that estimator's
    delta-method standard error sqrt(var(dev2) / n), the two-pass form of
    sqrt((m4 - m2**2) / n). Both are mapped to log space by the first-order
    delta method and clamped; ``lambda2`` then scales the log-space variance.
    """
    kg, bg = np.asarray(kg, dtype=float), np.asarray(bg, dtype=float)
    n = kg.shape[1] if kg.ndim == 3 else 0
    if n < 2 or len(kg) != 2 or bg.ndim != 3 or bg.shape[:2] != kg.shape[:2]:
        raise ConfigError("prior estimation needs (2, n, dim) side rows with n >= 2")

    gvals = edge_apply(edge, bg[0], bg[1])
    dev2 = (gvals - gvals.mean(axis=0)) ** 2
    mu_res = dev2.mean(axis=0)
    sd_res = np.sqrt(dev2.var(axis=0) / n)

    floored = np.maximum(mu_res, VAR_FLOOR)
    log_var = lambda2 * np.clip((sd_res / floored) ** 2, LOG_RESVAR_VAR_MIN, LOG_RESVAR_VAR_MAX)
    return BatchPrior(shift_var=lambda1 * np.maximum(np.var(kg, axis=1, ddof=1), VAR_FLOOR),
                      log_resvar_mean=np.log(floored), log_resvar_var=log_var)


def elbo_batch_grads(proj_net: DiffNet, infer_net: DiffNet, edge: Edge, kg, bg,
                     prior: BatchPrior, noise, acc_proj: NetGrads, acc_infer: NetGrads
                     ) -> tuple[float, float, float]:
    """The summed single-draw ELBO, reconstruction and KL of n pairs, adding
    their gradients into the accumulators: of the ELBO itself (ascent
    direction), pathwise through the reparametrization with ``noise`` fixed.

    Every per-pair array is side-stacked, side a then side b: pair m is
    [:, m] of the (2, n, kg_dim) ``kg``, the (2, n, bg_dim) ``bg`` and the
    (2, n, kg_dim + edge_dim) ``noise``, each node's normals in the order
    shift, logres. Each net runs forward and backward over the 2n node rows as
    matrix products, the rest is row-wise, and the prior broadcasts: each
    side's shift variance over its side, the variance-share prior over both.

    Per coordinate, the reconstruction is -(log(t)/2 + r^2 / (2t)) with r the
    edge residual and t = res_var_a + res_var_b: the Gaussian log-density
    up to +log(2 pi)/2. Each KL block is the exact
    (v_hat/v - log(v_hat/v) + (m_hat - m)^2 / v - 1) / 2 against the prior
    variance v and mean m (0 for the shift); the log-normal block is the KL
    of the underlying normals on the log scale.
    """
    kg, bg, noise = (np.asarray(x, dtype=float) for x in (kg, bg, noise))
    kg_dim, bg_dim = proj_net.in_dim, proj_net.out_dim
    n = kg.shape[1] if kg.ndim == 3 else 0
    edge_dim = edge_output_dim(edge, bg_dim)
    node_dim = kg_dim + edge_dim
    if infer_net.out_dim != 2 * node_dim:
        raise ShapeError("inference net output does not match kg/edge dimensions")
    if (infer_net.in_dim != kg_dim + bg_dim or kg.shape != (2, n, kg_dim)
            or bg.shape != (2, n, bg_dim)):
        raise ShapeError("pair rows do not match the nets' input dimensions")
    if noise.shape != (2, n, node_dim):
        raise ShapeError(f"pair noise has shape {noise.shape}, expected {(2, n, node_dim)}")
    if (prior.shift_var.shape != (2, kg_dim)
            or not prior.log_resvar_mean.shape == prior.log_resvar_var.shape == (edge_dim,)):
        raise ShapeError("batch prior does not match the kg/edge dimensions")

    infer_in = np.empty((2, n, infer_net.in_dim))
    infer_in[..., :bg_dim], infer_in[..., bg_dim:] = bg, kg
    eps_shift, eps_log = noise[..., :kg_dim], noise[..., kg_dim:]
    v, mu, u = prior.shift_var[:, None], prior.log_resvar_mean, prior.log_resvar_var

    # Forward: the posterior of each node, one draw, its projection.
    infer_hid = np.empty((2, n, infer_net.hidden_dim))
    raw = np.empty((2, n, infer_net.out_dim))
    _block_forward(infer_net, infer_in.reshape(2 * n, -1), infer_hid.reshape(2 * n, -1),
                   raw.reshape(2 * n, -1))
    m_shift, r_shift = raw[..., :kg_dim], raw[..., kg_dim:2 * kg_dim]
    m_log, r_log = raw[..., 2 * kg_dim:kg_dim + node_dim], raw[..., kg_dim + node_dim:]
    s_shift = softplus(r_shift) + STD_FLOOR
    s_log = softplus(r_log) + STD_FLOOR
    proj_in = infer_in[..., bg_dim:] + (m_shift + s_shift * eps_shift)
    with np.errstate(over="raise"):
        try:
            res_var = np.exp(m_log + s_log * eps_log)
        except FloatingPointError:
            raise NumericalError("variance share overflows") from None
    proj_hid = np.empty((2, n, proj_net.hidden_dim))
    proj = np.empty((2, n, bg_dim))
    _block_forward(proj_net, proj_in.reshape(2 * n, -1), proj_hid.reshape(2 * n, -1),
                   proj.reshape(2 * n, -1))

    # Gaussian fit of each edge residual with variance res_var_a + res_var_b,
    # additive constant dropped, minus both nodes' closed-form KL.
    total_var = res_var[0] + res_var[1]
    if not np.all((total_var > 0.0) & (total_var < np.inf)):
        raise NumericalError("total residual variance must be positive and finite")
    resid = edge_apply(edge, bg[0], bg[1]) - edge_apply(edge, proj[0], proj[1])
    recon = -np.sum(0.5 * np.log(total_var) + resid ** 2 / (2.0 * total_var))
    shift_ratio, log_ratio = s_shift ** 2 / v, s_log ** 2 / u
    log_gap = m_log - mu
    kl = 0.5 * (np.sum(shift_ratio - np.log(shift_ratio) + m_shift ** 2 / v - 1.0)
                + np.sum(log_ratio - np.log(log_ratio) + log_gap ** 2 / u - 1.0))

    # Backward: the projection net down to the sampled shift, then the
    # inference net through the reparametrization, plus the KL's own gradient.
    d_total_var = -0.5 / total_var + resid ** 2 / (2.0 * total_var ** 2)
    d_gnu = resid / total_var  # d ELBO / d edge(proj_a, proj_b)
    if edge is Edge.TRANSLATION:
        d_proj = np.concatenate((d_gnu, -d_gnu))
    elif edge is Edge.INNER_PRODUCT:
        d_proj = d_gnu * proj[::-1]
    else:
        d_proj = d_gnu.reshape(n, 2, bg_dim).transpose(1, 0, 2)
    dpre = _rows_backward(proj_net, proj_in, proj_hid, d_proj, acc_proj)
    d_shift = (dpre @ proj_net.W1).reshape(2, n, kg_dim)
    d_logres = d_total_var * res_var
    upstream = np.empty_like(raw)
    upstream[..., :kg_dim] = d_shift - m_shift / v
    upstream[..., kg_dim:2 * kg_dim] = (
        (d_shift * eps_shift - (s_shift / v - 1.0 / s_shift)) * sigmoid(r_shift))
    upstream[..., 2 * kg_dim:kg_dim + node_dim] = d_logres - log_gap / u
    upstream[..., kg_dim + node_dim:] = (
        (d_logres * eps_log - (s_log / u - 1.0 / s_log)) * sigmoid(r_log))
    _rows_backward(infer_net, infer_in, infer_hid, upstream, acc_infer)
    recon, kl = float(recon), float(kl)
    return recon - kl, recon, kl


def _rows_backward(net: DiffNet, x, hidden, upstream, acc: NetGrads) -> np.ndarray:
    """Backward pass over stacked node rows given the net's input and hidden
    activation, accumulated into ``acc``; returns the hidden delta rows. The
    relu mask ``hidden > 0`` is ``pre > 0``: the subgradient at 0 is 0."""
    x, hidden, upstream = (a.reshape(-1, a.shape[-1]) for a in (x, hidden, upstream))
    dpre = upstream @ net.W2
    dpre *= hidden > 0
    acc._add_rows(x, dpre, hidden, upstream)
    return dpre
