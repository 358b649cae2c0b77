import numpy as np
import pytest

from bem.dataio import EmbeddingTable, LabelTable
from bem.errors import ConfigError, EvalError, ShapeError
from bem.evalkit import (QUERY_BLOCK, _cosine_blocks, _top_k, classify_accuracy,
                         cluster_ratio_detail, concat_tables, hit_recall, make_split,
                         random_project, similarity_histogram, train_classifier)


def loop_cosines(candidates, qvec):
    """Reference similarity: unit candidate rows times the unit trigger row,
    one trigger at a time; -inf for zero-norm candidates."""
    norms = np.linalg.norm(candidates.matrix, axis=1)
    unit = candidates.matrix / np.where(norms > 0.0, norms, 1.0)[:, None]
    sims = unit @ (qvec / np.linalg.norm(qvec))
    sims[norms == 0.0] = -np.inf
    return sims


def argsort_hit_recall(query, candidates, triggers_by_user, truth_by_user,
                       item_attrs, k, cosines="blocks"):
    """Oracle: rank every candidate with a full stable argsort per trigger,
    by ``_cosine_blocks`` (the same bits as hit_recall) or, with
    ``cosines="loop"``, by ``loop_cosines``."""
    live, skipped = [], 0  # (trigger, user, query row) per ranked trigger
    for user in sorted(triggers_by_user):
        for trig in triggers_by_user[user]:
            qidx = query.id_index.get(trig)
            if qidx is None or np.linalg.norm(query.matrix[qidx]) == 0.0:
                skipped += 1
            else:
                live.append((trig, user, qidx))
    rows = query.matrix[[qidx for _, _, qidx in live]].reshape(-1, query.dim)
    if cosines == "loop":
        sims_rows = [loop_cosines(candidates, row) for row in rows]
    else:
        sims_rows = [row.copy() for block in _cosine_blocks(rows, candidates.matrix)
                     for row in block]
    hits = retrieved = 0
    for (trig, user, _), sims in zip(live, sims_rows):
        if trig in candidates.id_index:
            sims[candidates.id_index[trig]] = -np.inf
        order = np.argsort(-sims, kind="stable")
        for idx in order[:k]:
            if np.isfinite(sims[idx]):
                retrieved += 1
                hits += item_attrs.get(candidates.ids[idx]) in truth_by_user.get(user, set())
    return hits, retrieved, skipped


def tie_heavy_case(seed):
    """Small integer tables: many exactly equal cosines, some zero rows."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    dim = int(rng.integers(1, 4))
    ids = tuple(f"i{j}" for j in range(n))
    mat = rng.integers(-1, 2, size=(n, dim)).astype(float)
    table = EmbeddingTable(ids=ids, matrix=mat)
    attrs = {eid: f"a{rng.integers(0, 3)}" for eid in ids}
    users = {}
    for u in range(int(rng.integers(1, 6))):
        picks = rng.choice(n + 3, size=int(rng.integers(1, 4)))
        users[f"u{u}"] = [f"i{j}" for j in picks]  # j >= n: missing trigger
    truth = {u: {f"a{rng.integers(0, 3)}"} for u in users}
    k = int(rng.integers(1, n + 3))
    return table, users, truth, attrs, k


class TestTopK:
    def test_matches_stable_argsort_prefix(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            scores = rng.integers(-3, 4, size=int(rng.integers(1, 60))) / 3.0
            scores[rng.random(len(scores)) < 0.2] = -np.inf
            scores[rng.random(len(scores)) < 0.2] = -0.0
            for k in range(1, len(scores) + 3):
                expected = np.argsort(-scores, kind="stable")[:k]
                assert np.array_equal(_top_k(scores, k), expected), (seed, k)


class TestHitRecall:
    def test_matches_argsort_oracle_on_ties(self):
        for seed in range(300):
            table, users, truth, attrs, k = tie_heavy_case(seed)
            expected = argsort_hit_recall(table, table, users, truth, attrs, k)
            if expected[1] == 0:
                with pytest.raises(EvalError):
                    hit_recall(table, table, users, truth, attrs, k)
                continue
            result = hit_recall(table, table, users, truth, attrs, k)
            got = (result.hits, result.retrieved, result.skipped_triggers)
            assert got == expected, seed
            assert result.recall == expected[0] / expected[1]

    @pytest.mark.parametrize("n_triggers", [1, QUERY_BLOCK - 1, QUERY_BLOCK,
                                            QUERY_BLOCK + 1, 3 * QUERY_BLOCK + 2])
    def test_block_cosines_match_the_per_trigger_loop(self, n_triggers):
        # The GEMM cosines are within 1e-15 of the unit-row loop, and the
        # same bits on every run; ranked by either, hits agree on every
        # trigger whose k-th and (k+1)-th loop cosines are 1e-12 apart.
        k = 5
        for seed in range(4):
            rng = np.random.default_rng(seed)
            n, dim = int(rng.integers(100, 400)), int(rng.integers(1, 33))
            ids = tuple(f"i{j}" for j in range(n))
            mat = rng.normal(size=(n, dim)) * rng.lognormal(0.0, 2.0, size=(n, 1))
            mat[rng.integers(0, n)] = 0.0
            table = EmbeddingTable(ids=ids, matrix=mat)
            attrs = {eid: f"a{rng.integers(0, 4)}" for eid in ids}
            picks = [ids[j] for j in rng.permutation(n)]
            rows = table.matrix[[table.id_index[t] for t in picks]]
            keep = np.linalg.norm(rows, axis=1) > 0.0
            blocks = np.vstack([b.copy() for b in _cosine_blocks(rows[keep], table.matrix)])
            again = np.vstack([b.copy() for b in _cosine_blocks(rows[keep], table.matrix)])
            assert np.array_equal(blocks, again)
            loop = np.array([loop_cosines(table, row) for row in rows[keep]])
            assert np.array_equal(np.isinf(blocks), np.isinf(loop))
            finite = np.isfinite(loop)
            assert np.max(np.abs(blocks[finite] - loop[finite])) <= 1e-15

            separated = []
            for t in picks:
                if not np.any(table.row(t)):
                    continue
                sims = loop_cosines(table, table.row(t))
                sims[table.id_index[t]] = -np.inf
                top = np.sort(sims)[::-1]
                if top[k - 1] - top[k] > 1e-12:
                    separated.append(t)
            triggers = separated[:n_triggers]
            assert len(triggers) == n_triggers
            users = {f"u{u}": triggers[u::3] for u in range(3)}
            truth = {u: {f"a{rng.integers(0, 4)}"} for u in users}
            result = hit_recall(table, table, users, truth, attrs, k)
            got = (result.hits, result.retrieved, result.skipped_triggers)
            assert got == argsort_hit_recall(table, table, users, truth, attrs, k,
                                             cosines="loop")
            again = hit_recall(table, table, users, truth, attrs, k)
            assert (again.hits, again.retrieved) == (result.hits, result.retrieved)

    def test_zero_norm_rows_are_skipped_and_never_retrieved(self):
        ids = ("z", "a", "b", "c")
        table = EmbeddingTable(ids=ids, matrix=[[0.0, 0.0], [1.0, 0.0],
                                                [1.0, 0.1], [0.0, 1.0]])
        attrs = {"z": "x", "a": "x", "b": "x", "c": "y"}
        result = hit_recall(table, table, {"u": ["z", "a"]}, {"u": {"x"}}, attrs, k=10)
        # "z" is skipped as a trigger; "a" retrieves b and c, never z or itself.
        assert (result.hits, result.retrieved, result.skipped_triggers) == (1, 2, 1)

    def test_missing_triggers_are_counted(self):
        table = EmbeddingTable(ids=("a", "b"), matrix=[[1.0, 0.0], [0.0, 1.0]])
        result = hit_recall(table, table, {"u": ["a", "nope"], "v": ["gone"]},
                            {"u": {"x"}}, {"a": "x", "b": "x"}, k=1)
        assert (result.hits, result.retrieved, result.skipped_triggers) == (1, 1, 2)

    def test_k_at_least_n_retrieves_every_other_candidate(self):
        rng = np.random.default_rng(4)
        ids = tuple(f"i{j}" for j in range(7))
        table = EmbeddingTable(ids=ids, matrix=rng.normal(size=(7, 3)))
        attrs = {eid: "x" for eid in ids}
        for k in (6, 7, 50):
            result = hit_recall(table, table, {"u": ["i2"]}, {"u": {"x"}}, attrs, k)
            assert (result.hits, result.retrieved) == (6, 6)

    def test_all_triggers_skipped_raises(self):
        table = EmbeddingTable(ids=("a", "z"), matrix=[[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(EvalError):
            hit_recall(table, table, {"u": ["z", "missing"]}, {}, {}, k=3)

    def test_k_below_one_raises(self):
        table = EmbeddingTable(ids=("a", "b"), matrix=[[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ConfigError):
            hit_recall(table, table, {"u": ["a"]}, {}, {}, k=0)


class TestClassifier:
    def setup_method(self):
        ids = tuple(f"e{i}" for i in range(20))
        rng = np.random.default_rng(0)
        classes = np.arange(20) % 2
        matrix = rng.normal(size=(20, 3)) + 4.0 * classes[:, None]
        self.table = EmbeddingTable(ids=ids, matrix=matrix)
        self.labels = LabelTable(ids=ids, label_sets=[(f"c{c}",) for c in classes])
        self.split = make_split(ids, 0)

    def test_separable_classes_are_learned(self):
        model = train_classifier(self.table, self.labels, self.split)
        assert classify_accuracy(model, self.table, self.labels, self.split.test_ids) == 1.0

    @pytest.mark.parametrize("setting", [{"epochs": 0}, {"epochs": -1}, {"lr": 0.0},
                                         {"lr": -1.0}, {"lr": float("nan")},
                                         {"reg": -1.0}, {"reg": float("nan")}])
    def test_meaningless_settings_raise(self, setting):
        with pytest.raises(ConfigError):
            train_classifier(self.table, self.labels, self.split, **setting)

    def test_zero_regularization_is_allowed(self):
        train_classifier(self.table, self.labels, self.split, reg=0.0, epochs=1)


def whole_table_histogram(table, n_pairs, bins, rng):
    """Reference: the pair draw of ``similarity_histogram``, scored with the
    norms of the whole table."""
    n = len(table)
    norms = np.linalg.norm(table.matrix, axis=1)
    ii, jj = [], []
    while len(ii) < n_pairs:
        need = n_pairs - len(ii)
        a, b = rng.integers(0, n, size=need), rng.integers(0, n, size=need)
        ii += a[a != b].tolist()
        jj += b[a != b].tolist()
    ii, jj = np.array(ii), np.array(jj)
    ok = (norms[ii] > 0.0) & (norms[jj] > 0.0)
    ii, jj = ii[ok], jj[ok]
    cos = np.abs(np.sum(table.matrix[ii] * table.matrix[jj], axis=1)
                 / (norms[ii] * norms[jj]))
    counts, edges = np.histogram(np.clip(cos, 0.0, 1.0), bins=bins, range=(0.0, 1.0))
    return counts / len(cos), edges, int(n_pairs - np.sum(ok))


class TestSimilarityHistogram:
    @pytest.mark.parametrize("seed,n,dim,bins", [(0, 7, 1, 3), (1, 500, 16, 1000),
                                                 (2, 3000, 33, 50000)])
    def test_same_bits_as_whole_table_norms(self, seed, n, dim, bins):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(n, dim)) * rng.uniform(1e-3, 1e3, size=(n, 1))
        matrix[::5] = 0.0
        table = EmbeddingTable(ids=tuple(f"i{j}" for j in range(n)), matrix=matrix)
        hist = similarity_histogram(table, 4000, bins, np.random.default_rng(seed + 10))
        mass, edges, n_skipped = whole_table_histogram(table, 4000, bins,
                                                       np.random.default_rng(seed + 10))
        assert np.array_equal(hist.mass, mass) and np.array_equal(hist.edges, edges)
        assert (hist.n_used, hist.n_skipped) == (4000 - n_skipped, n_skipped)

    def test_mass_sums_to_one(self):
        rng = np.random.default_rng(0)
        table = EmbeddingTable(ids=tuple(f"i{j}" for j in range(20)),
                               matrix=rng.normal(size=(20, 3)))
        hist = similarity_histogram(table, n_pairs=500, bins=10,
                                    rng=np.random.default_rng(1))
        assert hist.mass.sum() == pytest.approx(1.0)
        assert (hist.n_used, hist.n_skipped) == (500, 0)
        assert len(hist.edges) == 11

    def test_zero_norm_rows_are_skipped(self):
        # Every kept pair is {a, b}: |cos| = 1/sqrt(2), in bin [0.7, 0.8).
        table = EmbeddingTable(ids=("a", "b", "z"),
                               matrix=[[1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        hist = similarity_histogram(table, n_pairs=300, bins=10,
                                    rng=np.random.default_rng(2))
        assert hist.n_skipped > 0
        assert hist.n_used + hist.n_skipped == 300
        assert hist.mass[7] == 1.0
        assert hist.mass.sum() == 1.0

    def test_every_pair_skipped_raises(self):
        table = EmbeddingTable(ids=("a", "y", "z"),
                               matrix=[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(EvalError):
            similarity_histogram(table, n_pairs=50, bins=5,
                                 rng=np.random.default_rng(3))


class TestClusterRatio:
    def test_hand_computed_ratio(self):
        # Class A: (0,0), (2,0) and the multi-label e (1,0), listed under A
        # first; mean distance to centroid (1,0) is 2/3. Class B: (10,0),
        # (10,4); mean distance to centroid (10,2) is 2. The closest
        # cross-class pair is (2,0)-(10,0), 8 apart.
        ids = ("a1", "a2", "e", "b1", "b2")
        table = EmbeddingTable(ids=ids, matrix=[[0.0, 0.0], [2.0, 0.0], [1.0, 0.0],
                                                [10.0, 0.0], [10.0, 4.0]])
        labels = LabelTable(ids=ids, label_sets=(("A",), ("A",), ("A", "B"),
                                                 ("B",), ("B",)))
        detail = cluster_ratio_detail(table, labels)
        assert detail.max_within == pytest.approx(2.0)
        assert detail.min_between == pytest.approx(8.0)
        assert detail.ratio == pytest.approx(0.25)
        assert detail.n_classes == 2

    def test_zero_gap_gives_infinite_ratio_with_warning(self):
        ids = ("a1", "a2", "b1", "b2")
        table = EmbeddingTable(ids=ids, matrix=[[0.0, 0.0], [1.0, 0.0],
                                                [1.0, 0.0], [5.0, 5.0]])
        labels = LabelTable(ids=ids, label_sets=(("A",), ("A",), ("B",), ("B",)))
        with pytest.warns(UserWarning, match="between-class distance is zero"):
            detail = cluster_ratio_detail(table, labels)
        assert detail.min_between == 0.0
        assert detail.ratio == np.inf


class TestRandomProject:
    def test_matrix_hook_is_applied(self):
        table = EmbeddingTable(ids=("a", "b"), matrix=[[1.0, 2.0, 3.0],
                                                       [0.0, -1.0, 4.0]])
        proj = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, -1.0]])
        out = random_project(table, 2, np.random.default_rng(0), matrix=proj)
        assert out.ids == ("a", "b")
        assert np.array_equal(out.matrix, [[4.0, 1.0], [4.0, -6.0]])

    def test_matrix_hook_shape_is_checked(self):
        table = EmbeddingTable(ids=("a",), matrix=[[1.0, 2.0, 3.0]])
        with pytest.raises(ShapeError):
            random_project(table, 2, np.random.default_rng(0), matrix=np.ones((2, 3)))

    def test_gaussian_projection_has_the_target_dim(self):
        table = EmbeddingTable(ids=("a", "b"), matrix=np.eye(2, 5))
        out = random_project(table, 3, np.random.default_rng(0))
        assert out.matrix.shape == (2, 3)
        with pytest.raises(ConfigError):
            random_project(table, 0, np.random.default_rng(0))


class TestConcatTables:
    def test_shared_ids_in_first_table_order(self):
        first = EmbeddingTable(ids=("a", "b", "c", "d"),
                               matrix=[[1.0], [2.0], [3.0], [4.0]])
        second = EmbeddingTable(ids=("d", "x", "b", "a"),
                                matrix=[[40.0, 0.4], [0.0, 0.0], [20.0, 0.2], [10.0, 0.1]])
        out = concat_tables(first, second)
        assert out.ids == ("a", "b", "d")
        assert np.array_equal(out.matrix, [[1.0, 10.0, 0.1], [2.0, 20.0, 0.2],
                                           [4.0, 40.0, 0.4]])
