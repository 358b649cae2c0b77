"""Synthetic ground truth drawn from the generative model itself.

Entities live in clusters on the unit sphere of the KG space. Each entity
gets a private correction shift; a fixed random two-layer net projects the
shifted KG vector into BG space, and the observed BG table adds white
noise on top of that clean projection. Because the clean projection is
kept, refinement quality is measurable as a plain MSE.

The true net's hidden width is its own knob, deliberately independent of
the trainer's, so the trained model class never contains the truth
trivially. The net's output layer folds in a dataset-wide centering and
scaling, which makes the clean table zero-mean with entry std
``signal_std``; the clean row is still exactly the net applied to
(kg row + shift).

``bem synth`` writes the clean table as ``truth.tsv`` in the plain table
format, and the cluster labels to ``labels.tsv`` only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import EmbeddingTable, _frozen, unit_rows
from .errors import ConfigError, DataError, ShapeError
from .nets import DiffNet, net_forward_rows
from .rng import named_rng


@dataclass
class SynthSpec:
    """Desk-scale defaults; ``validate`` states the allowed values."""

    n_entities: int = 2000
    kg_dim: int = 16
    bg_dim: int = 32
    n_clusters: int = 10
    delta_scale: float = 0.1
    noise_scale: float = 0.3
    true_hidden: int = 24
    jitter_scale: float = 0.1
    signal_std: float = 0.4
    seed: int = 0

    def validate(self) -> None:
        if self.n_entities < 1 or self.kg_dim < 1 or self.bg_dim < 1:
            raise ConfigError("entity count and dimensions must be positive")
        if not 1 <= self.n_clusters <= self.n_entities:
            raise ConfigError("n_clusters must be in [1, n_entities]")
        for name in ("delta_scale", "noise_scale", "jitter_scale"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be non-negative and finite")
        if not 0 < self.signal_std < np.inf:
            raise ConfigError("signal_std must be positive and finite")
        if self.true_hidden < 1:
            raise ConfigError("true_hidden must be positive")


@dataclass(eq=False)
class SynthTruth:
    """Everything the generator knows, including what training never sees."""

    kg: EmbeddingTable
    shift: np.ndarray
    clean_bg: EmbeddingTable
    bg: EmbeddingTable
    labels: dict[str, tuple[str, ...]]
    attributes: dict[str, str]
    true_net: DiffNet


def generate(spec: SynthSpec) -> SynthTruth:
    """Sample one dataset; deterministic given the spec."""
    spec.validate()
    rng = named_rng(spec.seed, "synth")
    n, k = spec.n_entities, spec.n_clusters

    centers, _ = unit_rows(rng.standard_normal((k, spec.kg_dim)))
    labels = rng.permutation(np.arange(n) % k)
    kg_mat, _ = unit_rows(centers[labels]
                          + spec.jitter_scale * rng.standard_normal((n, spec.kg_dim)))
    shift = spec.delta_scale * rng.standard_normal((n, spec.kg_dim))

    true_net = DiffNet.random(spec.kg_dim, spec.true_hidden, spec.bg_dim, rng)
    raw = net_forward_rows(true_net, kg_mat + shift)
    col_means = raw.mean(axis=0)
    scale = float(np.std(raw - col_means)) / spec.signal_std
    if not scale < np.inf:
        raise ConfigError(f"standardization scale is {scale}: signal_std "
                          f"{spec.signal_std!r} is too small or a scale too large")
    if scale < 1e-12:
        scale = 1.0
    # Fold the standardization into the output layer so the clean table is
    # exactly the net applied to (kg + shift).
    true_net.W2 /= scale
    true_net.b2 -= col_means
    true_net.b2 /= scale
    del raw
    clean = net_forward_rows(true_net, kg_mat + shift)

    noisy = rng.standard_normal((n, spec.bg_dim))
    noisy *= spec.noise_scale
    noisy += clean
    width = max(5, len(str(max(n - 1, 0))))
    ids = tuple(f"e{i:0{width}d}" for i in range(n))
    singles = [(f"c{c}",) for c in range(k)]  # one name and one 1-tuple per cluster
    return SynthTruth(
        kg=EmbeddingTable(ids=ids, matrix=_frozen(kg_mat)),
        shift=shift,
        clean_bg=EmbeddingTable(ids=ids, matrix=_frozen(clean)),
        bg=EmbeddingTable(ids=ids, matrix=_frozen(noisy)),
        labels=dict(zip(ids, (singles[c] for c in labels.tolist()))),
        attributes=dict(zip(ids, (singles[c][0] for c in labels.tolist()))),
        true_net=true_net,
    )


def oracle_error(refined_bg: EmbeddingTable,
                 truth: SynthTruth | EmbeddingTable) -> float:
    """Mean squared entry-wise error against the clean projection.

    ``truth`` is the generator's SynthTruth or a clean table, such as
    ``truth.tsv`` read back by ``load_table``. Rows are matched by id, so
    the truth may be in any order and hold extra rows; a refined id without
    a truth row raises DataError.
    """
    clean = truth.clean_bg if isinstance(truth, SynthTruth) else truth
    if refined_bg.dim != clean.dim:
        raise ShapeError(
            f"refined table has dim {refined_bg.dim}, truth has {clean.dim}")
    rows = clean.matrix
    if refined_bg.ids != clean.ids:  # gather only when needed: a table-sized copy
        index = clean.id_index
        missing = [eid for eid in refined_bg.ids if eid not in index]
        if missing:
            raise DataError(f"{len(missing)} refined ids have no truth row "
                            f"(e.g. {missing[:10]})")
        rows = rows[[index[eid] for eid in refined_bg.ids]]
    diff = refined_bg.matrix - rows
    return float(np.mean(np.square(diff, out=diff)))

