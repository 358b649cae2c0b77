"""Table-scale calls hold no table-sized temporary: on a 20000 x 32 table
(5.12 MB of floats) the traced peak of one call, beyond the tables it
returns, stays below the size of one table."""
import tracemalloc

import numpy as np

from bem.dataio import EmbeddingTable, normalize_rows
from bem.evalkit import hit_recall
from bem.nets import DiffNet
from bem.trainer import refine

N, DIM = 20000, 32


def table(seed):
    rng = np.random.default_rng(seed)
    return EmbeddingTable(ids=tuple(f"e{i}" for i in range(N)),
                          matrix=rng.normal(size=(N, DIM)))


def peak_beyond_output(call):
    """Traced peak bytes of ``call()`` minus the matrices of the tables it returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    tables = out if isinstance(out, tuple) else (out,)
    return peak - sum(t.matrix.nbytes for t in tables if isinstance(t, EmbeddingTable))


def test_hit_recall_holds_no_unit_copy():
    t = table(0)
    users = {f"u{u}": list(t.ids[u::997][:3]) for u in range(40)}
    truth = {u: {"x"} for u in users}
    attrs = {eid: "x" for eid in t.ids[::2]}
    assert peak_beyond_output(lambda: hit_recall(t, t, users, truth, attrs, 10)) \
        < t.matrix.nbytes


def test_normalize_rows_holds_no_copy_beyond_its_output():
    t = table(1)
    assert peak_beyond_output(lambda: normalize_rows(t)) < t.matrix.nbytes


def test_refine_holds_no_copy_beyond_its_output():
    kg, bg = table(2), table(3)
    rng = np.random.default_rng(4)
    proj = DiffNet.random(DIM, 8, DIM, rng)
    infer = DiffNet.random(2 * DIM, 8, 4 * DIM, rng)
    assert peak_beyond_output(lambda: refine(kg, bg, proj, infer)) < kg.matrix.nbytes
