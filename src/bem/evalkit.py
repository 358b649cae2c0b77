"""Evaluation harness: node classification, similarity histogram, cluster
ratio, nearest-neighbour hit recall and random Gaussian projection.

All metrics are pure functions of immutable tables. Randomness, where a
metric needs it, comes in through an explicit generator or split seed.
Hit recall takes ``QUERY_BLOCK`` triggers' cosines per GEMM on the raw
candidate table, within 1e-15 of a per-trigger product of unit rows, and
ranks each such block of cosines as one array.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataio import EmbeddingTable, _row_norms, align
from .errors import ConfigError, EvalError, ShapeError
from .rng import named_rng

# Triggers per GEMM and per ranking pass in ``hit_recall``; its (QUERY_BLOCK, n)
# cosines are the call's largest array. For 200 triggers on 2000 x 32 and on
# 100k x 32, 32 rows gained 8% and 17% over 16 but its buffer alone reaches
# tests/test_memory.py's bound; 8 rows lost 9% and 20%, 4 rows 35% and 51%.
QUERY_BLOCK = 16


@dataclass
class EvalSplit:
    """Disjoint train/test id lists drawn from the labeled, embedded ids."""

    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]


def make_split(ids, seed: int, train_fraction: float = 0.8) -> EvalSplit:
    ids = tuple(ids)
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError("train_fraction must be in (0, 1)")
    if len(ids) < 2:
        raise EvalError("need at least 2 ids to split")
    rng = named_rng(seed, "eval.split")
    perm = rng.permutation(len(ids))
    n_train = min(max(int(round(train_fraction * len(ids))), 1), len(ids) - 1)
    train = tuple(ids[i] for i in perm[:n_train])
    test = tuple(ids[i] for i in perm[n_train:])
    return EvalSplit(train_ids=train, test_ids=test)


@dataclass(eq=False)
class ClassifierModel:
    """One-vs-rest logistic regression: a weight vector and bias per class."""

    classes: tuple[str, ...]
    weights: np.ndarray
    bias: np.ndarray


def train_classifier(table: EmbeddingTable, labels: dict[str, tuple[str, ...]],
                     split: EvalSplit, reg: float = 1e-4,
                     epochs: int = 300, lr: float = 0.1) -> ClassifierModel:
    """Full-batch gradient descent with L2 regularization.

    Each epoch proposes one step from the best weights so far and keeps it
    only if its loss is no higher (a NaN loss is higher); a rejected step
    halves the learning rate, so the returned weights have the lowest loss
    seen. Zero initialization makes training deterministic.
    """
    if epochs < 1 or not 0.0 < lr < np.inf or not 0.0 <= reg < np.inf:
        raise ConfigError("classifier needs epochs >= 1, finite lr > 0 and finite reg >= 0")
    train_ids = [eid for eid in split.train_ids
                 if eid in table.id_index and eid in labels]
    if not train_ids:
        raise EvalError("no labeled entities overlap the embedding table")
    classes = tuple(sorted({c for eid in train_ids for c in labels[eid]}))
    if len(classes) < 2:
        raise EvalError(f"degenerate training labels: only {classes} present")
    class_index = {c: k for k, c in enumerate(classes)}
    X = table.matrix[[table.id_index[eid] for eid in train_ids]]
    Y = np.zeros((len(train_ids), len(classes)))
    for r, eid in enumerate(train_ids):
        Y[r, [class_index[c] for c in labels[eid]]] = 1.0

    def loss(W, scores):
        # summed over classes, averaged over samples: softplus(s) - y*s, plus the L2 term
        return (float(np.sum(np.mean(np.logaddexp(0.0, scores) - Y * scores, axis=0)))
                + 0.5 * reg * float(np.sum(W * W)))

    W = np.zeros((len(classes), table.dim))
    B = np.zeros(len(classes))
    scores = X @ W.T + B
    best = loss(W, scores)
    for _ in range(epochs):
        G = (1.0 / (1.0 + np.exp(-scores)) - Y) / len(X)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss is refused
            W_new = W - lr * (G.T @ X + reg * W)
            B_new = B - lr * G.sum(axis=0)
            scores_new = X @ W_new.T + B_new
            loss_new = loss(W_new, scores_new)
        if loss_new <= best:
            W, B, scores, best = W_new, B_new, scores_new, loss_new
        else:
            lr *= 0.5
    return ClassifierModel(classes=classes, weights=W, bias=B)


def classify_accuracy(model: ClassifierModel, table: EmbeddingTable,
                      labels: dict[str, tuple[str, ...]], test_ids) -> float:
    """Argmax prediction counts as a hit when it lies in the label set."""
    test_ids = tuple(test_ids)
    if not test_ids:
        raise EvalError("empty test set")
    if model.weights.shape[1] != table.dim:
        raise ShapeError(
            f"classifier expects dim {model.weights.shape[1]}, table has {table.dim}")
    for eid in test_ids:
        if eid not in table.id_index or eid not in labels:
            raise EvalError(f"test id {eid!r} lacks an embedding or a label")
    rows = table.matrix[[table.id_index[eid] for eid in test_ids]]
    predicted = np.argmax(rows @ model.weights.T + model.bias, axis=1)
    hits = sum(model.classes[k] in labels[eid] for k, eid in zip(predicted.tolist(), test_ids))
    return hits / len(test_ids)


@dataclass(eq=False)
class Histogram:
    """Normalized histogram of |cosine similarity| over sampled pairs."""

    edges: np.ndarray
    mass: np.ndarray
    n_pairs: int
    n_used: int
    n_skipped: int

    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def mean(self) -> float:
        return float(np.sum(self.centers() * self.mass))

    def variance(self) -> float:
        c = self.centers()
        m = float(np.sum(c * self.mass))
        return float(np.sum(self.mass * (c - m) ** 2))

    def rows(self) -> list[tuple[float, float, float]]:
        return [(float(self.edges[b]), float(self.edges[b + 1]), float(self.mass[b]))
                for b in range(len(self.mass))]


def similarity_histogram(table: EmbeddingTable, n_pairs: int, bins: int,
                         rng: np.random.Generator) -> Histogram:
    """|cosine| over uniformly sampled distinct index pairs.

    Pairs whose norm product is zero or not finite (a zero-norm row, or
    norms whose product overflows float64) are dropped from the histogram
    and counted in ``n_skipped``; the remaining mass sums to 1.
    """
    if n_pairs < 1 or bins < 1:
        raise ConfigError("n_pairs and bins must be positive")
    n = len(table)
    if n < 2:
        raise EvalError("need at least 2 rows to sample pairs")
    ii = jj = np.empty(0, dtype=np.int64)
    while len(ii) < n_pairs:
        need = n_pairs - len(ii)
        a, b = rng.integers(0, n, size=need), rng.integers(0, n, size=need)
        ii, jj = np.concatenate([ii, a[a != b]]), np.concatenate([jj, b[a != b]])
    # Only the sampled rows are read: no norm pass over the whole table.
    rows_i, rows_j = table.matrix[ii], table.matrix[jj]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow only marks a skip
        scale = _row_norms(rows_i) * _row_norms(rows_j)
        ok = (scale > 0.0) & (scale < np.inf)
        n_skipped = int(n_pairs - np.sum(ok))
        if n_skipped == n_pairs:
            raise EvalError("every sampled pair touched a zero-norm or overflowing row")
        rows_i *= rows_j
        cos = np.abs(np.sum(rows_i, axis=1)[ok] / scale[ok])
    counts, edges = np.histogram(np.clip(cos, 0.0, 1.0), bins=bins, range=(0.0, 1.0))
    return Histogram(edges=edges, mass=counts / len(cos), n_pairs=n_pairs,
                     n_used=len(cos), n_skipped=n_skipped)


@dataclass
class ClusterRatioDetail:
    ratio: float
    max_within: float
    min_between: float
    n_classes: int


def _first_label_groups(table: EmbeddingTable,
                        labels: dict[str, tuple[str, ...]]) -> dict[str, np.ndarray]:
    groups: dict[str, list[int]] = {}
    for eid, ls in labels.items():
        idx = table.id_index.get(eid)
        if idx is not None:
            groups.setdefault(ls[0], []).append(idx)
    return {c: table.matrix[sorted(rows)] for c, rows in groups.items()}


def cluster_ratio_detail(table: EmbeddingTable,
                         labels: dict[str, tuple[str, ...]]) -> ClusterRatioDetail:
    """Largest within-class scatter over smallest between-class gap.

    Within-class scatter is the mean distance to the class centroid;
    between-class gap is the closest cross-class point pair, taken from the
    expanded square on points less the table's column means, so that a table
    far from the origin keeps its gaps. Distances are taken in units of a
    power of two at most 1 near the largest |entry|, so that a table near the
    origin keeps them too; scaling by a power of two is exact, so a table
    whose squares stay in range gets the bits of unscaled distances.
    Multi-label entities count under their first listed class. A zero gap yields an infinite ratio with a
    warning rather than an error; a distance that overflows float64 raises
    EvalError.
    """
    groups = _first_label_groups(table, labels)
    if sum(1 for pts in groups.values() if len(pts) >= 2) < 2:
        raise EvalError("need at least two classes with at least two members each")
    overflow = EvalError("a within-class or between-class distance overflows float64")
    max_within = 0.0
    classes = sorted(groups)
    min_between = np.inf
    exponent = np.frexp(np.max(np.abs(table.matrix)))[1]
    unit = float(np.ldexp(1.0, min(exponent, 0)))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below
        center = table.matrix.mean(axis=0) / unit
        for pts in groups.values():
            pts /= unit
            within = float(np.mean(np.linalg.norm(pts - pts.mean(axis=0), axis=1)))
            if not np.isfinite(within):
                raise overflow
            max_within = max(max_within, within)
        for a in range(len(classes)):
            pa = groups[classes[a]] - center
            for b in range(a + 1, len(classes)):
                pb = groups[classes[b]] - center
                d2 = (np.sum(pa ** 2, axis=1)[:, None] + np.sum(pb ** 2, axis=1)[None, :]
                      - 2.0 * pa @ pb.T)
                if not np.isfinite(d2).all():
                    raise overflow
                min_between = min(min_between, float(np.sqrt(max(d2.min(), 0.0))))
    if min_between == 0.0:
        warnings.warn("between-class distance is zero; cluster ratio is infinite")
        ratio = np.inf
    else:
        ratio = max_within / min_between
    return ClusterRatioDetail(ratio=ratio, max_within=max_within * unit,
                              min_between=min_between * unit, n_classes=len(classes))


@dataclass
class RecallResult:
    recall: float
    hits: int
    retrieved: int
    skipped_triggers: int


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Per row of ``scores``, the indices of its k largest scores, highest
    first and ties by index: row r is the first ``min(k, n)`` of
    ``np.argsort(-scores[r], kind="stable")`` (NaN last), without sorting
    every score. Each row's k-th key comes from partitioning its negation in
    one reused buffer; the scores at or above it (NaN included, ranked after
    every number) are gathered for the whole block in index order and sorted
    by (row, -score) in one stable ``lexsort``, so ties stay in index order."""
    n_rows, n = scores.shape
    k = min(k, n)
    if k == 0:
        return np.empty((n_rows, 0), dtype=np.intp)
    kth = np.empty((n_rows, 1))
    keys = np.empty(n)
    for r in range(n_rows):
        np.negative(scores[r], out=keys)
        keys.partition(k - 1)
        kth[r] = keys[k - 1]
    near = np.flatnonzero(~(scores < -kth))
    near_rows, near_cols = np.divmod(near, n)
    order = np.lexsort((-scores.ravel()[near], near_rows))
    counts = np.bincount(near_rows, minlength=n_rows)
    starts = np.cumsum(counts) - counts
    return near_cols[order][starts[:, None] + np.arange(k)]


def _norms(rows: np.ndarray) -> np.ndarray:
    """Row norms from one ``einsum`` pass, mended by ``dataio._row_norms``."""
    return _row_norms(rows, np.sqrt(np.einsum("ij,ij->i", rows, rows)))


def _cosine_blocks(queries: np.ndarray, matrix: np.ndarray):
    """Yield ``(Q̂ @ Mᵀ) / ‖m‖`` per ``QUERY_BLOCK`` query rows (Q̂: the rows
    over their nonzero norms), -inf where ``‖m‖ = 0``. Each block is a view
    of one buffer that the next overwrites; no table-sized temporary."""
    norms = _norms(matrix)
    zero = norms == 0.0
    norms[zero] = 1.0
    buffer = np.empty((min(QUERY_BLOCK, len(queries)), len(matrix)))
    for start in range(0, len(queries), QUERY_BLOCK):
        block = queries[start:start + QUERY_BLOCK]
        unit = block / _norms(block)[:, None]
        sims = np.matmul(unit, matrix.T, out=buffer[:len(block)])
        sims /= norms
        sims[:, zero] = -np.inf
        yield sims


def hit_recall(query: EmbeddingTable, candidates: EmbeddingTable,
               triggers_by_user: dict[str, list[str]],
               truth_by_user: dict[str, set[str]],
               item_attrs: dict[str, str], k: int) -> RecallResult:
    """Top-k cosine retrieval per trigger; a retrieved item hits when its
    attribute lies in the user's ground-truth attribute set.

    Cosines ``(q / ‖q‖) @ m / ‖m‖`` come from one GEMM per ``QUERY_BLOCK``
    triggers: within 1e-15 of a per-trigger unit-row product (only
    near-ties can rank otherwise) and the same bits on every run. Each
    block is ranked in one pass (``_top_k``); ties rank by candidate index.
    The trigger itself and zero-norm candidates are never retrieved;
    triggers missing from the query table (or with zero norm) are skipped
    and counted. Micro-averaged: hits over retrieved.
    """
    if k < 1:
        raise ConfigError("k must be at least 1")
    if query.dim != candidates.dim:
        raise ShapeError(f"query dim {query.dim} != candidate dim {candidates.dim}")
    found = [(query.id_index[trig], candidates.id_index.get(trig), truth_by_user.get(user, set()))
             for user in sorted(triggers_by_user) for trig in triggers_by_user[user]
             if trig in query.id_index]
    rows = query.matrix[[qidx for qidx, _, _ in found]]
    live = _norms(rows) > 0.0
    skipped = sum(map(len, triggers_by_user.values())) - int(np.sum(live))
    kept = [f for f, ok in zip(found, live) if ok]
    hits = retrieved = 0
    start = 0
    for sims in _cosine_blocks(rows[live], candidates.matrix):
        block = kept[start:start + len(sims)]
        start += len(sims)
        for r, (_, self_idx, _) in enumerate(block):
            if self_idx is not None:
                sims[r, self_idx] = -np.inf
        top = _top_k(sims, k)
        # Cosines are finite, -inf (never retrieved) or NaN (an overflowed
        # norm); the non-finite rank last, so each row's retrievals are a prefix.
        n_finite = np.sum(np.isfinite(np.take_along_axis(sims, top, axis=1)), axis=1)
        retrieved += int(np.sum(n_finite))
        for idx, m, (_, _, truth) in zip(top.tolist(), n_finite.tolist(), block):
            hits += sum(item_attrs.get(candidates.ids[i]) in truth for i in idx[:m])
    if retrieved == 0:
        raise EvalError("no retrievals performed (all triggers skipped?)")
    return RecallResult(recall=hits / retrieved, hits=hits,
                        retrieved=retrieved, skipped_triggers=skipped)


def random_project(table: EmbeddingTable, target_dim: int,
                   rng: np.random.Generator,
                   matrix: np.ndarray | None = None) -> EmbeddingTable:
    """Project rows with an i.i.d. N(0, 1/target_dim) Gaussian matrix.

    ``matrix`` substitutes a fixed projection (test hook); it must have
    shape (dim, target_dim).
    """
    if target_dim < 1:
        raise ConfigError("target_dim must be positive")
    if matrix is None:
        matrix = rng.normal(0.0, np.sqrt(1.0 / target_dim),
                            size=(table.dim, target_dim))
    else:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (table.dim, target_dim):
            raise ShapeError(
                f"projection matrix has shape {matrix.shape}, "
                f"expected {(table.dim, target_dim)}")
    return table.with_matrix(table.matrix @ matrix)


def concat_tables(first: EmbeddingTable, second: EmbeddingTable) -> EmbeddingTable:
    """Column-wise concatenation over the shared ids, in first-table order."""
    a, b, _ = align(first, second, policy="intersect")
    return a.with_matrix(np.hstack([a.matrix, b.matrix]))
