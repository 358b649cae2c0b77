"""End-to-end training loop and the final refinement pass.

Randomness enters only through the "train" substream of the config seed,
in a fixed draw order: net initialization (projection net first), then per
step the paired batches and one standard-normal noise matrix with a row per
pair, its columns in the order shift_a, logres_a, shift_b, logres_b (the
batch prior is a closed form and draws nothing). Identical inputs therefore
give bit-identical reports and refined tables.

A step holds its batch side-stacked, side a then side b: the (2, n_batch)
indices, the KG and BG rows they gather, and the noise viewed as
(2, n_batch, kg_dim + edge_dim), its draw unchanged. It sums its pairs' ELBO
gradients with ``elbo.elbo_batch_grads``, one pair per call: the engine takes
any number of pairs, and the call over a whole batch waits on a benchmark
whose peak memory does not grow with the number of pipelines in a run.

The state is four flat arrays made once per call: the nets' tensors are
views of ``theta``, the two ``NetGrads`` sum into views of ``grad``
(``nets.flat_views``). Each ``n_iter`` pass clears ``grad``, sums its pairs,
flushes both sums (only then are they whole) and takes one ``adam_step``.
Steps call the module global ``sample_paired_batches``, not a local binding,
so a caller who swaps it (the benchmark, to time steps) sees every step.
"""
from __future__ import annotations

import hashlib
import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .dataio import EmbeddingTable, _id_set_difference, normalize_rows, unit_rows
from .elbo import (Edge, edge_allows_self_pairs, edge_output_dim,
                   elbo_batch_grads, estimate_prior)
from .errors import (AlignmentError, ConfigError, NumericalError, ShapeError,
                     TrainingError)
from .nets import DiffNet, NetGrads, adam_step, flat_views, net_forward_rows
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
        if self.hidden_dim < 1 or self.n_iter < 1:
            raise ConfigError("hidden_dim and n_iter must be positive")
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
        return normalize_rows(kg), bg.with_matrix(bg_unit), bg_norms[:, None]

    def to_dict(self) -> dict:
        d = asdict(self)
        d["edge"] = self.edge.value
        return d

    @classmethod
    def from_dict(cls, d) -> "TrainConfig":
        """The inverse of ``to_dict``, checked: exactly the fields, each of its
        default's type (a float field also takes an int), then ``validate``.
        Model headers written before 0.3.0 also hold ``n_bootstrap``, the
        replicate count of the old bootstrap prior: an int, ignored."""
        kinds = {f.name: type(f.default) for f in fields(cls)}
        if isinstance(d, dict) and "n_bootstrap" in d:
            d = dict(d)
            legacy = d.pop("n_bootstrap")
            if not isinstance(legacy, int) or isinstance(legacy, bool):
                raise ConfigError(f"config n_bootstrap must be of type int, got {legacy!r}")
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
                          allow_self_pairs: bool = False) -> np.ndarray:
    """Sides a and b, two independent without-replacement batches paired by
    position, as one (2, n_batch) index array.

    When self pairs are disallowed, the second batch is redrawn whole until
    no position collides with the first.
    """
    if n_entities < 2:
        raise ConfigError("need at least 2 entities to sample pairs")
    if not 1 <= n_batch <= n_entities:
        raise ConfigError(f"batch size {n_batch} out of range for {n_entities} entities")
    pairs = np.stack([rng.choice(n_entities, size=n_batch, replace=False) for _ in range(2)])
    if not allow_self_pairs:
        for _ in range(10_000):
            if not np.any(pairs[0] == pairs[1]):
                break
            pairs[1] = rng.choice(n_entities, size=n_batch, replace=False)
        else:  # pragma: no cover - astronomically unlikely
            raise TrainingError("could not draw collision-free paired batches")
    return pairs


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
    W, Z = kg.matrix, bg.matrix
    kg_dim, bg_dim = kg.dim, bg.dim
    node_dim = kg_dim + edge_output_dim(cfg.edge, bg_dim)

    rng = named_rng(cfg.seed, "train")
    nets = (DiffNet.random(kg_dim, cfg.hidden_dim, bg_dim, rng),
            DiffNet.random(kg_dim + bg_dim, cfg.hidden_dim, 2 * node_dim, rng))
    proj_net, infer_net = nets
    theta = np.concatenate([p.ravel() for net in nets for p in net.param_dict().values()])
    grad, first, second = (np.zeros_like(theta) for _ in range(3))
    for net, views in zip(nets, flat_views(theta, *nets)):
        vars(net).update(views)
    acc_proj, acc_infer = (NetGrads(**views) for views in flat_views(grad, *nets))

    n_steps = cfg.n_steps(n)
    allow_self = edge_allows_self_pairs(cfg.edge)
    report = TrainReport()
    for step in range(1, n_steps + 1):
        t0 = time.perf_counter()
        pairs = sample_paired_batches(n, cfg.n_batch, rng, allow_self)
        kg_rows, bg_rows = W[pairs], Z[pairs]
        prior = estimate_prior(kg_rows, bg_rows, cfg.edge, cfg.lambda1, cfg.lambda2)
        noise = rng.standard_normal((cfg.n_batch, 2, node_dim)).transpose(1, 0, 2)
        try:
            for i in range(cfg.n_iter):
                grad.fill(0.0)
                elbo_sum = recon_sum = kl_sum = 0.0
                # A non-finite sum is refused by adam_step and named below.
                with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                    # One pair (rows m:m+1) per engine call until the benchmark
                    # holds its peak memory flat (see the module docstring).
                    for m in range(cfg.n_batch):
                        rows = slice(m, m + 1)
                        elbo, recon, kl = elbo_batch_grads(
                            proj_net, infer_net, cfg.edge, kg_rows[:, rows],
                            bg_rows[:, rows], prior, noise[:, rows], acc_proj, acc_infer)
                        elbo_sum += elbo
                        recon_sum += recon
                        kl_sum += kl
                    acc_proj.flush()
                    acc_infer.flush()
                # Batch objective is the mean over pairs; Adam minimizes, so
                # the loss gradient is the negated ELBO gradient.
                grad *= -1.0 / cfg.n_batch
                t = (step - 1) * cfg.n_iter + i + 1  # Adam's count runs across passes
                adam_step(theta, grad, first, second, t, cfg.learning_rate)
        except NumericalError as exc:
            raise TrainingError(f"step {step}: {exc}") from exc
        except TrainingError as exc:
            # adam_step checks grad, then theta: name the first non-finite tensor.
            bad = next(prefix + key for flat in (grad, theta)
                       for prefix, views in zip(("proj.", "infer."), flat_views(flat, *nets))
                       for key, view in views.items() if not np.all(np.isfinite(view)))
            raise TrainingError(f"step {step}: {exc} in {bad}") from exc
        elbo_mean = elbo_sum / cfg.n_batch
        if not math.isfinite(elbo_mean):
            raise TrainingError(f"non-finite ELBO at step {step}")
        report.records.append(StepRecord(
            step=step, elbo=elbo_mean, recon=recon_sum / cfg.n_batch,
            kl=kl_sum / cfg.n_batch, wall_s=time.perf_counter() - t0))
    report.param_checksum = _param_checksum(
        {**proj_net.param_dict("proj."), **infer_net.param_dict("infer.")})
    return proj_net, infer_net, report


def refine(kg: EmbeddingTable, bg: EmbeddingTable, proj_net: DiffNet,
           infer_net: DiffNet) -> tuple[EmbeddingTable, EmbeddingTable]:
    """Posterior-mean refinement of both tables; no sampling, inputs untouched.

    Each KG row moves by its inferred shift mean: the first ``kg.dim``
    inference-net outputs on (bg row, kg row), the only output rows refine
    computes. The refined BG row is the deterministic projection of the
    shifted KG row. Both are ``nets.net_forward_rows`` passes, so a row's
    bits do not depend on the table's height. The tables are taken as the
    nets see them (``TrainConfig.model_inputs``), and the refined tables are
    in that space.
    """
    _check_aligned(kg, bg)
    if proj_net.in_dim != kg.dim:
        raise ShapeError(f"projection net expects dim {proj_net.in_dim}, kg table has {kg.dim}")
    if proj_net.out_dim != bg.dim:
        raise ShapeError(f"projection net emits dim {proj_net.out_dim}, bg table has {bg.dim}")
    if infer_net.in_dim != kg.dim + bg.dim:
        raise ShapeError("inference net input does not match the table dimensions")
    shift_net = DiffNet(infer_net.in_dim, infer_net.hidden_dim, kg.dim, infer_net.W1,
                        infer_net.b1, infer_net.W2[:kg.dim], infer_net.b2[:kg.dim])
    kg_out = net_forward_rows(shift_net, bg.matrix, kg.matrix)
    kg_out += kg.matrix
    bg_out = net_forward_rows(proj_net, kg_out)
    return kg.with_matrix(kg_out), kg.with_matrix(bg_out)
