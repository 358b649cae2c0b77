"""The ELBO of one pair, one node vector at a time: the oracle that
``elbo.elbo_batch_grads`` is checked against.

Each net runs forward and backward as matrix-vector products on one node,
the posterior, the draw, the reconstruction and the KL are kept as named
vectors, and the weight gradients are per-node outer products added straight
into the ``NetGrads`` sums (no row buffers, so no ``flush()`` is needed before
a read). The math is the engine's; only the evaluation order differs, so the
two agree to rounding.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bem.elbo import STD_FLOOR, BatchPrior, Edge, edge_apply, edge_output_dim
from bem.errors import NumericalError, ShapeError
from bem.nets import DiffNet, NetGrads, softplus


def sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)) without overflow: exactly 0 or 1 far out
    return np.exp(-softplus(-x))


def zero_grads(net: DiffNet) -> NetGrads:
    """An accumulator of ``net``'s shapes holding zero gradients."""
    return NetGrads(*(np.zeros_like(p) for p in net.param_dict().values()))


def _forward_cached(net: DiffNet, x: np.ndarray):
    """Forward pass keeping the hidden pre-activation and activation."""
    pre = net.W1 @ x + net.b1
    hid = np.maximum(pre, 0.0)
    return net.W2 @ hid + net.b2, pre, hid


def _backward_from_cache(net: DiffNet, x: np.ndarray, pre: np.ndarray,
                         hid: np.ndarray, upstream: np.ndarray, acc: NetGrads):
    """Backward pass given cached activations, accumulated into ``acc`` as
    outer products. Returns ``(acc, d_input)``. The relu subgradient at
    exactly 0 is 0."""
    dh = net.W2.T @ upstream
    dpre = dh * (pre > 0)
    for total, part in ((acc.W1, np.outer(dpre, x)), (acc.b1, dpre),
                        (acc.W2, np.outer(upstream, hid)), (acc.b2, upstream)):
        total += part
    return acc, net.W1.T @ dpre


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


def _split_raw(raw: np.ndarray, kg_dim: int, edge_dim: int):
    """The inference net's output as the shift mean, shift raw std, log-share
    mean and log-share raw std; it holds the two means, then the two raw stds."""
    node_dim = kg_dim + edge_dim
    m_shift = raw[:kg_dim]
    m_log = raw[kg_dim:node_dim]
    r_shift = raw[node_dim:node_dim + kg_dim]
    r_log = raw[node_dim + kg_dim:]
    return m_shift, r_shift, m_log, r_log


def _stats_from_raw(raw: np.ndarray, kg_dim: int, edge_dim: int) -> PosteriorStats:
    """Posterior of one node from the inference net's output on (bg, kg)."""
    m_shift, r_shift, m_log, r_log = _split_raw(raw, kg_dim, edge_dim)
    return PosteriorStats(
        shift_mean=m_shift.copy(),
        shift_std=softplus(r_shift) + STD_FLOOR,
        log_resvar_mean=m_log.copy(),
        log_resvar_std=softplus(r_log) + STD_FLOOR,
    )


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


def _reconstruction(edge, bg_i, bg_j, proj_i, proj_j, res_var_i, res_var_j):
    """Gaussian fit of the edge residual, additive constant dropped, with
    the residual and the total variance behind it, which the gradient reuses.

    Per coordinate: -(log(total_var)/2 + residual^2 / (2 total_var)) with
    total_var = res_var_i + res_var_j, summed over coordinates. Equals the
    diagonal-Gaussian log-density up to +(d/2) log(2 pi).
    """
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
    """Exact KL from the posterior to the (lambda-scaled) prior, both blocks.

    Per coordinate: (-log(v_hat/v) + v_hat/v + (m_hat - m)^2 / v - 1) / 2
    with v the prior variance and m the prior mean, 0 for the shift. The
    log-normal block reduces to the KL of the underlying normals on the log
    scale. Non-negative; zero only when posterior and prior coincide.
    """
    v = prior.shift_var
    var_hat = stats.shift_std ** 2
    if var_hat.shape != v.shape:
        raise ShapeError("posterior and prior disagree on the shift dimension")
    kl = 0.5 * np.sum(-np.log(var_hat / v) + var_hat / v + stats.shift_mean ** 2 / v - 1.0)
    u = prior.log_resvar_var
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
        v, u = prior.shift_var, prior.log_resvar_var
        d_m_shift = d_shift - stats.shift_mean / v
        d_s_shift = d_shift * eps_shift - (stats.shift_std / v - 1.0 / stats.shift_std)
        d_m_log = d_logres - (stats.log_resvar_mean - prior.log_resvar_mean) / u
        d_s_log = d_logres * eps_logres - (stats.log_resvar_std / u
                                           - 1.0 / stats.log_resvar_std)
        _, r_shift, _, r_log = _split_raw(node.raw, kg_dim, total_var.shape[0])
        upstream = np.concatenate([
            d_m_shift,
            d_m_log,
            d_s_shift * sigmoid(r_shift),
            d_s_log * sigmoid(r_log),
        ])
        _backward_from_cache(infer_net, *node.infer_cache, upstream, acc_infer)


def node_priors(prior: BatchPrior) -> list[BatchPrior]:
    """A batch prior as the oracle takes it: one node prior per side, each
    with that side's ``shift_var`` row and the shared variance-share prior."""
    return [BatchPrior(shift_var, prior.log_resvar_mean, prior.log_resvar_var)
            for shift_var in prior.shift_var]


def elbo_pair_accumulate_grads(proj_net: DiffNet, infer_net: DiffNet, edge: Edge,
                               kg_i, bg_i, kg_j, bg_j, prior_i: BatchPrior,
                               prior_j: BatchPrior, eps,
                               acc_proj: NetGrads, acc_infer: NetGrads) -> ElboParts:
    """One pair's single-draw ELBO parts (reconstruction minus both KLs),
    adding its gradients into the accumulators: of the ELBO itself (ascent
    direction), pathwise through the reparametrization with ``eps`` fixed.
    ``eps`` is the pair's standard-normal noise, 2*kg_dim + 2*edge_dim
    values in the order shift_i, logres_i, shift_j, logres_j."""
    parts, tape = _forward(proj_net, infer_net, edge, kg_i, bg_i, kg_j, bg_j,
                           prior_i, prior_j, eps)
    _backward(proj_net, infer_net, edge, tape, acc_proj, acc_infer)
    return parts
