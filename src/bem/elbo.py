"""Variational objective for refining a KG table against a BG table.

One entity carries a KG vector (the prior side) and a BG vector (the
observed side). Per entity the latent is one diagonal Gaussian over
kg_dim + edge_dim coordinates: a correction shift added to the KG vector
before projection, then the log of a positive per-coordinate share of the
variance of the pairwise edge residual, so that the share is log-normal and
the KL is closed-form. The inference net emits the latent's means, then its
raw stds, both in that coordinate order.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, ShapeError
from .nets import DiffNet, NetGrads, _block_forward, softplus

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
    (2, n, node_dim) ``noise``. Each net runs forward and backward over the
    2n node rows as matrix products; the rest is row-wise. A node's latent
    is one diagonal Gaussian over node_dim = kg_dim + edge_dim coordinates,
    shift then log share (the noise's order too). The inference net emits
    its means, then its raw stds: std = softplus(raw) + STD_FLOOR. The prior
    has mean (0, log_resvar_mean) and variance (side's shift_var, log_resvar_var).

    Per coordinate, the reconstruction is -(log(t)/2 + r^2 / (2t)) with r the
    edge residual and t = res_var_a + res_var_b: the Gaussian log-density
    up to +log(2 pi)/2. The KL is the exact
    (v_hat/v - log(v_hat/v) + (m_hat - m)^2 / v - 1) / 2 against the prior
    variance v and mean m: on the log share, that of its underlying normals.
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

    # The node-wide prior: (node_dim,) mean, (2, 1, node_dim) variance.
    loc = np.concatenate((np.zeros(kg_dim), prior.log_resvar_mean))
    var = np.concatenate((prior.shift_var, [prior.log_resvar_var] * 2), axis=-1)[:, None]

    # Forward: the posterior of each node, one draw, its projection.
    infer_in = np.concatenate((bg, kg), axis=-1)
    infer_hid, raw = (a.reshape(2, n, -1)
                      for a in _block_forward(infer_net, infer_in.reshape(2 * n, -1)))
    mean, soft = raw[..., :node_dim], softplus(raw[..., node_dim:])
    std = soft + STD_FLOOR
    draw = mean + std * noise
    proj_in = kg + draw[..., :kg_dim]
    with np.errstate(over="raise"):
        try:
            res_var = np.exp(draw[..., kg_dim:])
        except FloatingPointError:
            raise NumericalError("variance share overflows") from None
    proj_hid, proj = (a.reshape(2, n, -1)
                      for a in _block_forward(proj_net, proj_in.reshape(2 * n, -1)))

    # Gaussian fit of each edge residual with variance res_var_a + res_var_b,
    # additive constant dropped, minus both nodes' closed-form KL.
    total_var = res_var[0] + res_var[1]
    if not np.all((total_var > 0.0) & (total_var < np.inf)):
        raise NumericalError("total residual variance must be positive and finite")
    resid = edge_apply(edge, bg[0], bg[1]) - edge_apply(edge, proj[0], proj[1])
    recon = -np.sum(0.5 * np.log(total_var) + resid ** 2 / (2.0 * total_var))
    ratio, gap = std ** 2 / var, mean - loc
    kl = 0.5 * np.sum(ratio - np.log(ratio) + gap ** 2 / var - 1.0)

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
    d_draw = np.concatenate((d_shift, d_total_var * res_var), axis=-1)
    # -expm1(-softplus(r)) is sigmoid(r), the derivative of softplus(r).
    upstream = np.concatenate((d_draw - gap / var,
                               (d_draw * noise - (std / var - 1.0 / std)) * -np.expm1(-soft)),
                              axis=-1)
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
