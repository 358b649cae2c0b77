"""End-to-end training loop and the final refinement pass.

Randomness enters only through the "train" substream of the config seed,
in a fixed draw order: net initialization (projection net first), then per
step the paired batches, the bootstrap indices of the prior estimate, and
one standard-normal noise matrix with a row per pair, its columns in the
order shift_i, logres_i, shift_j, logres_j. Identical inputs therefore
give bit-identical reports and refined tables.
"""
from __future__ import annotations

import hashlib
import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .dataio import (EmbeddingTable, _frozen, _id_set_difference, normalize_rows,
                     unit_rows)
from .elbo import (Edge, edge_allows_self_pairs, edge_output_dim,
                   elbo_pair_accumulate_grads, estimate_prior)
from .errors import (AlignmentError, ConfigError, NumericalError, ShapeError,
                     TrainingError)
from .nets import ROW_BLOCK, AdamState, DiffNet, NetGrads, _block_forward, adam_step
from .rng import named_rng


@dataclass
class TrainConfig:
    """All tunables of the training loop. Under the translation edge the
    projection net's output bias ``b2`` cancels: its gradient is exactly 0."""

    n_batch: int = 500
    epochs: float = 20.0
    lambda1: float = 1.0
    lambda2: float = 1.0
    learning_rate: float = 0.001
    hidden_dim: int = 500
    n_bootstrap: int = 30
    edge: Edge = Edge.TRANSLATION
    n_iter: int = 1
    seed: int = 0
    normalize_inputs: bool = True

    def validate(self, n_entities: int | None = None) -> None:
        if self.n_batch < 2:
            raise ConfigError("n_batch must be at least 2")
        if n_entities is not None and self.n_batch > n_entities:
            raise ConfigError(f"n_batch {self.n_batch} exceeds entity count {n_entities}")
        for name in ("epochs", "lambda1", "lambda2"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
        # learning_rate 0 is allowed: it freezes the optimizer.
        if not 0 <= self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be non-negative and finite")
        if self.hidden_dim < 1 or self.n_bootstrap < 1 or self.n_iter < 1:
            raise ConfigError("hidden_dim, n_bootstrap and n_iter must be positive")
        if not isinstance(self.edge, Edge):
            raise ConfigError(f"unknown edge function {self.edge!r}")

    def n_steps(self, n_entities: int) -> int:
        return max(1, math.ceil(self.epochs * n_entities / self.n_batch))

    def model_inputs(self, kg: EmbeddingTable, bg: EmbeddingTable
                     ) -> tuple[EmbeddingTable, EmbeddingTable, np.ndarray | float]:
        """The tables as the nets see them and the factor that takes refined
        BG rows back to input scale: unit rows and the (n, 1) BG row norms
        with ``normalize_inputs``, else the tables themselves and 1.0."""
        if not self.normalize_inputs:
            return kg, bg, 1.0
        bg_unit, bg_norms = unit_rows(bg.matrix)
        return (normalize_rows(kg), EmbeddingTable(ids=bg.ids, matrix=_frozen(bg_unit)),
                bg_norms[:, None])

    def to_dict(self) -> dict:
        d = asdict(self)
        d["edge"] = self.edge.value
        return d

    @classmethod
    def from_dict(cls, d) -> "TrainConfig":
        """The inverse of ``to_dict``, checked: exactly the fields, each of its
        default's type (a float field also takes an int), then ``validate``."""
        kinds = {f.name: type(f.default) for f in fields(cls)}
        if not isinstance(d, dict) or set(d) != set(kinds):
            raise ConfigError(f"config must hold exactly the keys {sorted(kinds)}")
        for name, kind in kinds.items():
            value = d[name]
            allowed = {Edge: str, float: (int, float)}.get(kind, kind)
            if not isinstance(value, allowed) or isinstance(value, bool) is not (kind is bool):
                raise ConfigError(f"config {name} must be of type {kind.__name__}, got {value!r}")
        if d["edge"] not in [e.value for e in Edge]:
            raise ConfigError(f"unknown edge function {d['edge']!r}")
        cfg = cls(**{**d, "edge": Edge(d["edge"])})
        cfg.validate()
        return cfg


@dataclass
class StepRecord:
    step: int
    elbo: float
    recon: float
    kl: float
    wall_s: float


@dataclass
class TrainReport:
    records: list[StepRecord] = field(default_factory=list)
    param_checksum: str = ""

    @property
    def n_steps(self) -> int:
        return len(self.records)

    def elbo_trace(self) -> np.ndarray:
        return np.array([r.elbo for r in self.records])


def sample_paired_batches(n_entities: int, n_batch: int, rng: np.random.Generator,
                          allow_self_pairs: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Two independent without-replacement batches, paired by position.

    When self pairs are disallowed, the second batch is redrawn whole until
    no position collides with the first.
    """
    if n_entities < 2:
        raise ConfigError("need at least 2 entities to sample pairs")
    if not 1 <= n_batch <= n_entities:
        raise ConfigError(f"batch size {n_batch} out of range for {n_entities} entities")
    batch_a = rng.choice(n_entities, size=n_batch, replace=False)
    batch_b = rng.choice(n_entities, size=n_batch, replace=False)
    if not allow_self_pairs:
        for _ in range(10_000):
            if not np.any(batch_a == batch_b):
                break
            batch_b = rng.choice(n_entities, size=n_batch, replace=False)
        else:  # pragma: no cover - astronomically unlikely
            raise TrainingError("could not draw collision-free paired batches")
    return batch_a, batch_b


def _check_aligned(kg: EmbeddingTable, bg: EmbeddingTable) -> None:
    if kg.ids == bg.ids:
        return
    if difference := _id_set_difference(kg.ids, bg.ids):
        raise AlignmentError(f"tables are not aligned: {difference}")
    raise AlignmentError("tables hold the same ids in different orders; align first")


def _param_checksum(params: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode("utf-8"))
        h.update(params[name].tobytes())
    return h.hexdigest()


def train(kg: EmbeddingTable, bg: EmbeddingTable,
          cfg: TrainConfig) -> tuple[DiffNet, DiffNet, TrainReport]:
    """Fit the projection and inference nets on one aligned table pair."""
    _check_aligned(kg, bg)
    n = len(kg)
    cfg.validate(n)
    kg, bg, _ = cfg.model_inputs(kg, bg)
    W = kg.matrix
    Z = bg.matrix
    kg_dim, bg_dim = kg.dim, bg.dim
    edge_dim = edge_output_dim(cfg.edge, bg_dim)

    rng = named_rng(cfg.seed, "train")
    proj_net = DiffNet.random(kg_dim, cfg.hidden_dim, bg_dim, rng)
    infer_net = DiffNet.random(kg_dim + bg_dim, cfg.hidden_dim,
                               2 * kg_dim + 2 * edge_dim, rng)
    params = {**proj_net.param_dict("proj."), **infer_net.param_dict("infer.")}
    state = AdamState.for_params(params, cfg.learning_rate)

    n_steps = cfg.n_steps(n)
    allow_self = edge_allows_self_pairs(cfg.edge)
    report = TrainReport()
    for step in range(1, n_steps + 1):
        t0 = time.perf_counter()
        batch_a, batch_b = sample_paired_batches(n, cfg.n_batch, rng, allow_self)
        prior_a, prior_b = estimate_prior(W[batch_a], W[batch_b],
                                          Z[batch_a], Z[batch_b],
                                          cfg.edge, cfg.n_bootstrap, rng,
                                          cfg.lambda1, cfg.lambda2)
        noise = rng.standard_normal((cfg.n_batch, 2 * kg_dim + 2 * edge_dim))
        elbo_sum = recon_sum = kl_sum = 0.0
        try:
            for _ in range(cfg.n_iter):
                acc_proj = NetGrads.zeros_like(proj_net)
                acc_infer = NetGrads.zeros_like(infer_net)
                elbo_sum = recon_sum = kl_sum = 0.0
                for m in range(cfg.n_batch):
                    i, j = batch_a[m], batch_b[m]
                    parts = elbo_pair_accumulate_grads(
                        proj_net, infer_net, cfg.edge, W[i], Z[i], W[j], Z[j],
                        prior_a, prior_b, noise[m], acc_proj, acc_infer)
                    elbo_sum += parts.elbo
                    recon_sum += parts.recon
                    kl_sum += parts.kl_i + parts.kl_j
                # Batch objective is the mean over pairs; Adam minimizes, so
                # the loss gradient is the negated ELBO gradient.
                scale = -1.0 / cfg.n_batch
                grads = {**acc_proj.scale_(scale).param_dict("proj."),
                         **acc_infer.scale_(scale).param_dict("infer.")}
                adam_step(params, grads, state)
        except (NumericalError, TrainingError) as exc:
            raise TrainingError(f"step {step}: {exc}") from exc
        elbo_mean = elbo_sum / cfg.n_batch
        if not math.isfinite(elbo_mean):
            raise TrainingError(f"non-finite ELBO at step {step}")
        report.records.append(StepRecord(
            step=step, elbo=elbo_mean, recon=recon_sum / cfg.n_batch,
            kl=kl_sum / cfg.n_batch, wall_s=time.perf_counter() - t0))
    report.param_checksum = _param_checksum(params)
    return proj_net, infer_net, report


def refine(kg: EmbeddingTable, bg: EmbeddingTable, proj_net: DiffNet,
           infer_net: DiffNet) -> tuple[EmbeddingTable, EmbeddingTable]:
    """Posterior-mean refinement of both tables; no sampling, inputs untouched.

    Each KG row moves by its inferred shift mean: the first ``kg.dim``
    inference-net outputs on (bg row, kg row), the only second-layer rows
    refine computes. The refined BG row is the deterministic projection of
    the shifted KG row. The tables are taken as the nets see them
    (``TrainConfig.model_inputs``), and the refined tables are in that space.
    """
    _check_aligned(kg, bg)
    if proj_net.in_dim != kg.dim:
        raise ShapeError(f"projection net expects dim {proj_net.in_dim}, kg table has {kg.dim}")
    if proj_net.out_dim != bg.dim:
        raise ShapeError(f"projection net emits dim {proj_net.out_dim}, bg table has {bg.dim}")
    if infer_net.in_dim != kg.dim + bg.dim:
        raise ShapeError("inference net input does not match the table dimensions")
    n, kg_dim, bg_dim = len(kg), kg.dim, bg.dim
    kg_out, bg_out = np.empty((n, kg_dim)), np.empty((n, bg_dim))
    # One pass over fixed ROW_BLOCK blocks (see nets.ROW_BLOCK): the last
    # block's padding rows are zero inputs whose outputs are never read.
    inputs = np.zeros((ROW_BLOCK, infer_net.in_dim))
    infer_hidden, shifted, proj_hidden, projected = (
        np.empty((ROW_BLOCK, width))
        for width in (infer_net.hidden_dim, kg_dim, proj_net.hidden_dim, bg_dim))
    for start in range(0, n, ROW_BLOCK):
        rows = min(ROW_BLOCK, n - start)
        stop = start + rows
        inputs[:rows, :bg_dim] = bg.matrix[start:stop]
        inputs[:rows, bg_dim:] = kg.matrix[start:stop]
        inputs[rows:] = 0.0
        _block_forward(inputs, infer_net.W1, infer_net.b1, infer_net.W2[:kg_dim],
                       infer_net.b2[:kg_dim], infer_hidden, shifted)
        shifted += inputs[:, bg_dim:]
        kg_out[start:stop] = shifted[:rows]
        _block_forward(shifted, proj_net.W1, proj_net.b1, proj_net.W2, proj_net.b2,
                       proj_hidden, projected)
        bg_out[start:stop] = projected[:rows]
    return (EmbeddingTable(ids=kg.ids, matrix=_frozen(kg_out)),
            EmbeddingTable(ids=kg.ids, matrix=_frozen(bg_out)))
