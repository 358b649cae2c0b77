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
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import EmbeddingTable, LabelTable, _atomic_write_text, _format_float
from .errors import ConfigError, DataError, ShapeError
from .nets import DiffNet, net_forward_rows
from .rng import named_rng


@dataclass
class SynthSpec:
    """Desk-scale defaults; all fields positive, n_clusters <= n_entities."""

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
        if self.delta_scale < 0 or self.noise_scale < 0 or self.jitter_scale < 0:
            raise ConfigError("scales must be non-negative")
        if self.true_hidden < 1 or self.signal_std <= 0:
            raise ConfigError("true_hidden and signal_std must be positive")


@dataclass(eq=False)
class SynthTruth:
    """Everything the generator knows, including what training never sees."""

    kg: EmbeddingTable
    shift: np.ndarray
    clean_bg: EmbeddingTable
    bg: EmbeddingTable
    labels: LabelTable
    attributes: dict[str, str]
    true_net: DiffNet


def _unit_rows(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    return mat / np.where(norms > 0.0, norms, 1.0)


def generate(spec: SynthSpec) -> SynthTruth:
    """Sample one dataset; deterministic given the spec."""
    spec.validate()
    rng = named_rng(spec.seed, "synth")
    n, k = spec.n_entities, spec.n_clusters

    centers = _unit_rows(rng.standard_normal((k, spec.kg_dim)))
    labels = rng.permutation(np.arange(n) % k)
    kg_mat = _unit_rows(centers[labels]
                        + spec.jitter_scale * rng.standard_normal((n, spec.kg_dim)))
    shift = spec.delta_scale * rng.standard_normal((n, spec.kg_dim))

    true_net = DiffNet.random(spec.kg_dim, spec.true_hidden, spec.bg_dim, rng)
    raw = net_forward_rows(true_net, kg_mat + shift)
    col_means = raw.mean(axis=0)
    scale = float(np.std(raw - col_means)) / spec.signal_std
    if scale < 1e-12:
        scale = 1.0
    # Fold the standardization into the output layer so the clean table is
    # exactly the net applied to (kg + shift).
    true_net.W2 /= scale
    true_net.b2 -= col_means
    true_net.b2 /= scale
    clean = net_forward_rows(true_net, kg_mat + shift)

    noise = spec.noise_scale * rng.standard_normal((n, spec.bg_dim))
    width = max(5, len(str(max(n - 1, 0))))
    ids = tuple(f"e{i:0{width}d}" for i in range(n))
    cluster_names = tuple(f"c{c}" for c in labels)
    return SynthTruth(
        kg=EmbeddingTable(ids=ids, matrix=kg_mat),
        shift=shift,
        clean_bg=EmbeddingTable(ids=ids, matrix=clean),
        bg=EmbeddingTable(ids=ids, matrix=clean + noise),
        labels=LabelTable(ids=ids, label_sets=tuple((c,) for c in cluster_names)),
        attributes=dict(zip(ids, cluster_names)),
        true_net=true_net,
    )


def oracle_error(refined_bg: EmbeddingTable, truth: SynthTruth) -> float:
    """Mean squared entry-wise error against the clean projection."""
    if refined_bg.dim != truth.clean_bg.dim:
        raise ShapeError(
            f"refined table has dim {refined_bg.dim}, truth has {truth.clean_bg.dim}")
    if refined_bg.ids != truth.clean_bg.ids:
        raise ShapeError("refined table ids do not match the truth ids")
    diff = refined_bg.matrix - truth.clean_bg.matrix
    return float(np.mean(diff ** 2))


def write_truth(truth: SynthTruth, path) -> None:
    """Sidecar with the clean BG table and the cluster label per entity."""
    lines = [f"#dim={truth.clean_bg.dim}"]
    for eid, row in zip(truth.clean_bg.ids, truth.clean_bg.matrix):
        label = truth.labels.mapping[eid][0]
        lines.append(eid + "\t" + label + "\t"
                     + "\t".join(_format_float(v) for v in row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def load_truth(path) -> tuple[EmbeddingTable, dict[str, str]]:
    """Read a truth sidecar back as (clean table, id -> cluster label)."""
    path = Path(path)
    ids: list[str] = []
    rows: list[list[float]] = []
    attrs: dict[str, str] = {}
    dim = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if lineno == 1 and line.startswith("#dim="):
                try:
                    dim = int(line[len("#dim="):])
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad #dim header {line!r}")
                if dim < 1:
                    raise DataError(f"{path}:{lineno}: non-positive #dim header")
                continue
            parts = line.split("\t")
            if len(parts) < 3:
                raise DataError(f"{path}:{lineno}: expected 'id<TAB>label<TAB>values'")
            eid, label = parts[0], parts[1]
            try:
                vals = [float(v) for v in parts[2:]]
            except ValueError:
                raise DataError(f"{path}:{lineno}: unparsable value in truth row")
            if dim is None:
                dim = len(vals)
            elif len(vals) != dim:
                raise DataError(f"{path}:{lineno}: ragged truth row")
            ids.append(eid)
            attrs[eid] = label
            rows.append(vals)
    if not ids:
        raise DataError(f"{path}: no data rows")
    return EmbeddingTable(ids=tuple(ids), matrix=np.array(rows)), attrs
