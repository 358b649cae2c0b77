import numpy as np
import pytest

from bem.dataio import EmbeddingTable
from bem.errors import ConfigError, EvalError
from bem.evalkit import _top_k, hit_recall


def argsort_hit_recall(query, candidates, triggers_by_user, truth_by_user,
                       item_attrs, k):
    """Oracle: rank every candidate with a full stable argsort per trigger."""
    cand_norms = np.linalg.norm(candidates.matrix, axis=1)
    unit = candidates.matrix / np.where(cand_norms > 0.0, cand_norms, 1.0)[:, None]
    hits = retrieved = skipped = 0
    for user in sorted(triggers_by_user):
        truth = truth_by_user.get(user, set())
        for trig in triggers_by_user[user]:
            qidx = query.id_index.get(trig)
            if qidx is None or np.linalg.norm(query.matrix[qidx]) == 0.0:
                skipped += 1
                continue
            qvec = query.matrix[qidx]
            sims = unit @ (qvec / np.linalg.norm(qvec))
            sims[cand_norms == 0.0] = -np.inf
            if trig in candidates.id_index:
                sims[candidates.id_index[trig]] = -np.inf
            order = np.argsort(-sims, kind="stable")
            for idx in order[:k]:
                if np.isfinite(sims[idx]):
                    retrieved += 1
                    hits += item_attrs.get(candidates.ids[idx]) in truth
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
