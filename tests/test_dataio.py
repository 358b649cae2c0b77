import json
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bem import dataio
from bem.dataio import (CHUNK_ROWS, AlignResult, EmbeddingTable,
                        align, load_labels, load_model, load_table,
                        normalize_rows, save_model, unit_rows, write_labels, write_table)
from bem.elbo import Edge, edge_output_dim
from bem.errors import (AlignmentError, DataError, ModelFormatError,
                        ShapeError)
from bem.nets import DiffNet
from bem.trainer import TrainConfig


def table_of(ids, rows):
    return EmbeddingTable(ids=tuple(ids), matrix=np.array(rows, dtype=float))


class TestLoadTable:
    def test_basic_two_rows(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("e1\t1.0\t2.0\ne2\t0.0\t1.0\n")
        t = load_table(p)
        assert t.ids == ("e1", "e2") and t.dim == 2
        assert np.array_equal(t.matrix, [[1.0, 2.0], [0.0, 1.0]])

    def test_duplicate_id_names_both_lines(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("e1\t1.0\ne2\t2.0\ne1\t3.0\n")
        with pytest.raises(DataError, match=r"e1.*line 1") as exc:
            load_table(p)
        assert ":3:" in str(exc.value)

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("e1\t1.0\t2.0\ne2\t3.0\n")
        with pytest.raises(DataError, match=":2:"):
            load_table(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_rejected_with_location(self, tmp_path, bad):
        p = tmp_path / "t.tsv"
        p.write_text(f"e1\t1.0\ne2\t{bad}\n")
        with pytest.raises(DataError, match=":2:"):
            load_table(p)

    def test_unparsable_value(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("e1\tx1.0\n")
        with pytest.raises(DataError, match=":1:"):
            load_table(p)

    def test_dim_header_enforced(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("#dim=3\ne1\t1.0\t2.0\n")
        with pytest.raises(ShapeError):
            load_table(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("")
        with pytest.raises(DataError):
            load_table(p)

    def test_matrix_is_locked(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("e1\t1.0\n")
        t = load_table(p)
        with pytest.raises(ValueError):
            t.matrix[0, 0] = 5.0


class TestTableMatrix:
    IDS = ("a", "b", "c")

    def test_frozen_owning_array_is_shared(self):
        mat = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        mat.flags.writeable = False
        assert EmbeddingTable(ids=self.IDS, matrix=mat).matrix is mat

    def test_writeable_array_is_copied_and_frozen(self):
        mat = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        t = EmbeddingTable(ids=self.IDS, matrix=mat)
        assert not np.shares_memory(t.matrix, mat)
        assert not t.matrix.flags.writeable
        mat[0, 0] = 9.0
        assert t.matrix[0, 0] == 0.0

    def test_frozen_view_is_copied(self):
        base = np.arange(8, dtype=float).reshape(4, 2)
        view = base[:3]
        view.flags.writeable = False
        t = EmbeddingTable(ids=self.IDS, matrix=view)
        assert not np.shares_memory(t.matrix, base)
        base[0, 0] = 9.0
        assert t.matrix[0, 0] == 0.0

    def test_frozen_array_is_still_validated(self):
        mat = np.array([[1.0, np.nan]])
        mat.flags.writeable = False
        with pytest.raises(DataError, match="non-finite"):
            EmbeddingTable(ids=("a",), matrix=mat)

    def test_loaded_matrix_is_not_copied_again(self, tmp_path, monkeypatch):
        p = tmp_path / "t.tsv"
        p.write_text("e1\t1.0\t2.0\n")
        parsed = []
        frozen = dataio._frozen

        def capture(matrix):
            parsed.append(frozen(matrix))
            return parsed[-1]

        monkeypatch.setattr(dataio, "_frozen", capture)
        assert load_table(p).matrix is parsed[0]

    def test_subset_matrix_is_not_copied_again(self):
        t = EmbeddingTable(ids=self.IDS, matrix=np.arange(6.0).reshape(3, 2))
        picked = []

        class Picking:
            def __getitem__(self, index, matrix=t.matrix):
                picked.append(matrix[index])
                return picked[-1]

        t.matrix = Picking()
        sub = t.subset([2, 0])
        assert sub.matrix is picked[0]
        assert not sub.matrix.flags.writeable
        assert sub.matrix.tolist() == [[4.0, 5.0], [0.0, 1.0]]

    def test_with_matrix_keeps_the_ids_and_the_matrix_uncopied(self):
        t = EmbeddingTable(ids=self.IDS, matrix=np.arange(6.0).reshape(3, 2))
        mat = np.ones((3, 4))
        out = t.with_matrix(mat)
        assert out.ids is t.ids and out.matrix is mat
        assert not mat.flags.writeable and out.dim == 4

    @pytest.mark.parametrize("mat", [np.ones((2, 2)), np.ones((4, 2)), np.ones(3)],
                             ids=["fewer-rows", "more-rows", "1-D"])
    def test_with_matrix_of_another_shape_raises(self, mat):
        t = EmbeddingTable(ids=self.IDS, matrix=np.arange(6.0).reshape(3, 2))
        with pytest.raises(ShapeError, match="3 ids for a matrix of shape"):
            t.with_matrix(mat)

    def test_with_matrix_rejects_non_finite_values(self):
        t = EmbeddingTable(ids=self.IDS, matrix=np.arange(6.0).reshape(3, 2))
        with pytest.raises(DataError, match="non-finite"):
            t.with_matrix(np.array([[0.0], [np.inf], [1.0]]))

    def test_subset_of_every_row_in_order_is_the_table_itself(self):
        t = EmbeddingTable(ids=self.IDS, matrix=np.arange(6.0).reshape(3, 2))
        assert t.subset(range(3)) is t
        assert t.subset(range(0, 3, 1)) is t

    @pytest.mark.parametrize("indices", [[0, 1, 2], np.arange(3), range(2), range(1, 3),
                                         range(2, -1, -1)])
    def test_any_other_selection_copies(self, indices):
        t = EmbeddingTable(ids=self.IDS, matrix=np.arange(6.0).reshape(3, 2))
        sub = t.subset(indices)
        assert sub is not t and not np.shares_memory(sub.matrix, t.matrix)
        assert sub.ids == tuple(self.IDS[i] for i in indices)
        assert np.array_equal(sub.matrix, t.matrix[list(indices)])


class TestRoundTrip:
    def test_write_then_load_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        t = table_of([f"e{i}" for i in range(20)],
                     rng.normal(size=(20, 7)) * 10.0 ** rng.integers(-9, 9, size=(20, 7)))
        p = tmp_path / "t.tsv"
        write_table(t, p)
        back = load_table(p)
        assert back.ids == t.ids
        assert np.array_equal(back.matrix, t.matrix)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 12)), int(rng.integers(1, 8))
        t = table_of([f"id{i}" for i in range(n)],
                     rng.normal(size=(n, d)) * np.exp(rng.normal(size=(n, d)) * 5))
        p = tmp_path_factory.mktemp("rt") / "t.tsv"
        write_table(t, p)
        back = load_table(p)
        assert back.ids == t.ids and np.array_equal(back.matrix, t.matrix)


def loop_load_table(path):
    """Reference reader: one float() per field, the codec's accepted language."""
    path = Path(path)
    ids, rows, seen = [], [], {}
    dim = header_dim = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if lineno == 1 and line.startswith("#dim="):
                try:
                    header_dim = int(line[len("#dim="):])
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad #dim header {line!r}")
                if header_dim < 1:
                    raise DataError(f"{path}:{lineno}: non-positive #dim header")
                continue
            if line == "":
                raise DataError(f"{path}:{lineno}: blank line")
            parts = line.split("\t")
            eid = parts[0]
            if eid == "":
                raise DataError(f"{path}:{lineno}: empty entity id")
            if eid in seen:
                raise DataError(
                    f"{path}:{lineno}: duplicate id {eid!r} "
                    f"(first seen on line {seen[eid]})")
            seen[eid] = lineno
            if len(parts) < 2:
                raise DataError(f"{path}:{lineno}: row has no values")
            if dim is None:
                dim = len(parts) - 1
            elif len(parts) - 1 != dim:
                raise DataError(
                    f"{path}:{lineno}: ragged row, {len(parts) - 1} values, expected {dim}")
            vals = []
            for field in parts[1:]:
                try:
                    v = float(field)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: unparsable value {field!r}")
                if not math.isfinite(v):
                    raise DataError(f"{path}:{lineno}: non-finite value {field!r}")
                vals.append(v)
            ids.append(eid)
            rows.append(vals)
    if not rows:
        raise DataError(f"{path}: no data rows")
    if header_dim is not None and header_dim != dim:
        raise ShapeError(f"{path}: #dim={header_dim} but rows have {dim} values")
    return EmbeddingTable(ids=tuple(ids), matrix=np.array(rows, dtype=float))


def loop_table_bytes(ids, matrix) -> bytes:
    """Reference writer: one format(v, ".17g") per value."""
    lines = [f"#dim={matrix.shape[1]}"]
    for eid, row in zip(ids, matrix):
        lines.append(eid + "\t" + "\t".join(format(v, ".17g") for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def outcome(reader, path):
    try:
        t = reader(path)
    except (DataError, ShapeError) as exc:
        return type(exc), str(exc)
    return t.ids, t.matrix.shape, t.matrix.tobytes()


FINITE = st.floats(allow_nan=False, allow_infinity=False)
GOOD_FIELDS = st.one_of(
    FINITE.map(lambda v: format(v, ".17g")),
    FINITE.map(repr),
    FINITE.map(lambda v: "%.3e" % v),
    st.integers(-10**6, 10**6).map(str),
)
ODD_FIELDS = st.one_of(
    st.tuples(st.sampled_from(["", " ", "+", "-", "\x0b", "\xa0", "\x1c", "\u2003"]),
              GOOD_FIELDS,
              st.sampled_from(["", " ", "\x0c", "\x1f", "\u3000"])).map("".join),
    st.sampled_from(["1_0", "1_000.5", "_1", "inf", "-inf", "nan", "-NaN",
                     "Infinity", "\u0661\u0662", "\uff11.5", "", " ", "x",
                     "1e", "0x10", "1,5", "1 2", "\x00", "1d5", "1e999"]),
    st.text(st.characters(codec="utf-8"), max_size=3),
)


@st.composite
def table_texts(draw):
    """Mostly well-formed table text with rare faults in every position."""
    dim = draw(st.integers(1, 3))
    text = draw(st.sampled_from(["", "", "", f"#dim={dim}\n", f"#dim={dim}\n",
                                 "#dim=2\n", "#dim= 3\n", "#dim=0\n", "#dim=x\n"]))
    n_rows = draw(st.integers(0, 14))
    rare = st.integers(0, 24).map(lambda r: r == 0)
    lines = []
    for i in range(n_rows):
        eid = draw(st.sampled_from(["", "e0", "#dim=1"])) if draw(rare) else f"e{i}"
        width = draw(st.integers(0, 4)) if draw(rare) else dim
        fields = [draw(ODD_FIELDS if draw(rare) else GOOD_FIELDS) for _ in range(width)]
        lines.append("" if draw(rare) else "\t".join([eid, *fields]))
    text += "\n".join(lines)
    return text + ("\n" if lines and not draw(rare) else "")


class TestStreamedCodec:
    @settings(max_examples=400, deadline=None)
    @given(text=table_texts(), chunk=st.sampled_from([1, 2, 3, 5, CHUNK_ROWS]))
    def test_reader_matches_per_field_loop(self, tmp_path_factory, text, chunk):
        path = tmp_path_factory.mktemp("rd") / "t.tsv"
        path.write_bytes(text.encode("utf-8"))
        want = outcome(loop_load_table, path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "CHUNK_ROWS", chunk)
            got = outcome(load_table, path)
        assert got == want

    @pytest.mark.parametrize("field", ["1_0", "\u0661", "\uff11", " +1.5\u2003",
                                       "\x1c1", "1\x1f", "nan", "-inf", "", "1e999"])
    def test_float_language_is_kept(self, tmp_path, field):
        path = tmp_path / "t.tsv"
        path.write_text(f"e0\t2.5\ne1\t{field}\ne2\t0.5\n", encoding="utf-8")
        assert outcome(load_table, path) == outcome(loop_load_table, path)

    def test_earliest_error_wins_across_chunks(self, tmp_path):
        path = tmp_path / "t.tsv"
        rows = [f"e{i}\t{i}.5" for i in range(3 * CHUNK_ROWS)]
        rows[CHUNK_ROWS + 7] = f"e{CHUNK_ROWS + 7}\tbad"
        rows[CHUNK_ROWS + 9] = "e0\t1.0"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=rf":{CHUNK_ROWS + 8}: unparsable"):
            load_table(path)

    @pytest.mark.parametrize("n_rows", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    def test_writer_bytes_match_per_value_format(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        mat = rng.normal(size=(n_rows, 5)) * 10.0 ** rng.integers(-30, 30, size=(n_rows, 5))
        specials = [-0.0, 5e-324, 1e22, 1e-300, -1.7976931348623157e308]
        for r in {0, CHUNK_ROWS - 2, n_rows - 2, n_rows - 1}:
            mat[r] = np.roll(specials, r)
        ids = [f"e{i}" for i in range(n_rows)]
        path = tmp_path / "t.tsv"
        write_table(table_of(ids, mat), path)
        assert path.read_bytes() == loop_table_bytes(ids, mat)
        assert np.array_equal(load_table(path).matrix, mat)

    def test_failed_write_keeps_old_target(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"old contents\n")
        ids = [f"e{i}" for i in range(CHUNK_ROWS + 2)]
        ids[-1] = "\ud800"  # cannot be encoded: fails in the second chunk
        with pytest.raises(UnicodeEncodeError):
            write_table(table_of(ids, np.zeros((len(ids), 2))), path)
        assert path.read_bytes() == b"old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.tsv"]

    def test_existing_tmp_file_survives_a_write(self, tmp_path):
        path = tmp_path / "t.tsv"
        (tmp_path / "t.tsv.tmp").write_bytes(b"user data\n")
        write_table(table_of(["e1"], [[1.0]]), path)
        assert (tmp_path / "t.tsv.tmp").read_bytes() == b"user data\n"
        assert load_table(path).matrix.tolist() == [[1.0]]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.tsv", "t.tsv.tmp"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "t.tsv"
        with pytest.raises(RuntimeError):
            with dataio._atomic_open(path) as fh:
                fh.write(b"partial")
                raise RuntimeError("interrupted")
        assert list(tmp_path.iterdir()) == []

    def test_writers_to_one_target_use_separate_temp_files(self, tmp_path):
        path = tmp_path / "t.tsv"
        with dataio._atomic_open(path) as first, dataio._atomic_open(path) as second:
            assert first.name != second.name
            first.write(b"first\n")
            second.write(b"second\n")
        assert path.read_bytes() == b"first\n"  # the outer block completes last
        assert [p.name for p in tmp_path.iterdir()] == ["t.tsv"]

    def test_written_file_has_the_default_mode(self, tmp_path):
        plain = tmp_path / "plain"
        plain.write_bytes(b"")
        path = tmp_path / "t.tsv"
        write_table(table_of(["e1"], [[1.0]]), path)
        assert os.stat(path).st_mode == os.stat(plain).st_mode

    @pytest.mark.parametrize("reader", [load_table, load_labels])
    def test_non_utf8_is_a_data_error_naming_the_line(self, tmp_path, reader):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"e1\t1.0\ne2\t\xe9\n")
        with pytest.raises(DataError, match=":2: not UTF-8"):
            reader(path)

    @pytest.mark.parametrize("reader", [load_table, load_labels])
    @pytest.mark.parametrize("content, error", [
        (b"e1\t1.0\re2\t1\r\ne3\t\xe2\x82", ":3: not UTF-8 text \\(unexpected end"),
        (b"e1\t1.0\ne1\t2.0\n\xff\n", ":2: duplicate id"),
    ], ids=["cr-ends-a-line", "earlier-error-wins"])
    def test_undecodable_line_is_numbered_like_any_other(self, tmp_path, reader, content,
                                                          error):
        path = tmp_path / "t.tsv"
        path.write_bytes(content)
        with pytest.raises(DataError, match=error):
            reader(path)


class TestLabels:
    def test_round_trip(self, tmp_path):
        lt = {"b": ("x", "y"), "a": ("z",)}
        p = tmp_path / "l.tsv"
        write_labels(lt, p)
        back = load_labels(p)
        assert list(back.items()) == list(lt.items())

    def test_empty_label_set_rejected(self, tmp_path):
        p = tmp_path / "l.tsv"
        p.write_text("a\t\n")
        with pytest.raises(DataError, match=":1:"):
            load_labels(p)

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "l.tsv"
        p.write_text("a\tx\na\ty\n")
        with pytest.raises(DataError, match="duplicate"):
            load_labels(p)

    def test_empty_id_rejected(self, tmp_path):
        p = tmp_path / "l.tsv"
        p.write_text("a\tx\n\ty\n")
        with pytest.raises(DataError, match=":2: empty entity id"):
            load_labels(p)

    @settings(max_examples=200, deadline=None)
    @given(text=st.lists(st.sampled_from(["a", "b", "a\t", "\t", "\t", ",", "x,", "\n", "\n",
                                          "\r", "\r\n", "\u2028", "\x1c", "\x85", " "]),
                         max_size=30).map("".join))
    def test_reader_matches_per_line_loop(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("lb") / "l.tsv"
        path.write_bytes(text.encode("utf-8"))
        assert label_outcome(load_labels, path) == label_outcome(loop_load_labels, path)


def loop_load_labels(path):
    """Reference label reader: one plain loop over the lines."""
    labels, seen = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line == "":
                raise DataError(f"{path}:{lineno}: blank line")
            fields = line.split("\t")
            eid = fields[0]
            if eid == "":
                raise DataError(f"{path}:{lineno}: empty entity id")
            if eid in seen:
                raise DataError(
                    f"{path}:{lineno}: duplicate id {eid!r} (first seen on line {seen[eid]})")
            seen[eid] = lineno
            if len(fields) != 2:
                raise DataError(f"{path}:{lineno}: expected 'id<TAB>labels'")
            classes = tuple(c for c in fields[1].split(",") if c != "")
            if not classes:
                raise DataError(f"{path}:{lineno}: empty label set for {eid!r}")
            labels[eid] = classes
    if not labels:
        raise DataError(f"{path}: no data rows")
    return labels


def label_outcome(reader, path):
    try:
        labels = reader(path)
    except DataError as exc:
        return str(exc)
    return list(labels.items())


class TestAlign:
    def test_identity_alignment(self):
        t = table_of(["a", "b"], [[1.0], [2.0]])
        kg, bg, res = align(t, t, policy="strict")
        assert kg.ids == bg.ids == ("a", "b")
        assert res == AlignResult(kept=2, dropped_kg=0, dropped_bg=0)

    @pytest.mark.parametrize("policy", ["strict", "intersect"])
    def test_aligned_tables_come_back_uncopied(self, policy):
        kg = table_of(["a", "b"], [[1.0], [2.0]])
        bg = table_of(["a", "b"], [[3.0, 4.0], [5.0, 6.0]])
        kg2, bg2, res = align(kg, bg, policy=policy)
        assert kg2 is kg and bg2 is bg
        assert res == AlignResult(kept=2, dropped_kg=0, dropped_bg=0)

    def test_intersection_with_drop_report(self):
        kg = table_of(["a", "b", "c"], [[1.0], [2.0], [3.0]])
        bg = table_of(["b", "c", "d"], [[5.0], [6.0], [7.0]])
        kg2, bg2, res = align(kg, bg, policy="intersect")
        assert kg2.ids == bg2.ids == ("b", "c")
        assert np.array_equal(bg2.matrix, [[5.0], [6.0]])
        assert res.dropped_kg == 1 and res.dropped_bg == 1

    def test_strict_mismatch_lists_examples(self):
        kg = table_of(["a", "b"], [[1.0], [2.0]])
        bg = table_of(["b", "c"], [[1.0], [2.0]])
        with pytest.raises(AlignmentError, match="'a'") as exc:
            align(kg, bg, policy="strict")
        assert "'c'" in str(exc.value)

    def test_intersect_preserves_kg_order_for_shuffled_bg(self):
        rng = np.random.default_rng(3)
        ids = [f"e{i}" for i in range(30)]
        kg = table_of(ids, rng.normal(size=(30, 2)))
        perm = rng.permutation(30)
        bg = table_of([ids[i] for i in perm], rng.normal(size=(30, 3)))
        kg2, bg2, _ = align(kg, bg, policy="intersect")
        assert kg2.ids == tuple(ids)
        assert bg2.ids == tuple(ids)
        for eid in ids:
            assert np.array_equal(bg2.matrix[bg2.id_index[eid]], bg.matrix[bg.id_index[eid]])

    def test_disjoint_tables_fail(self):
        kg = table_of(["a"], [[1.0]])
        bg = table_of(["b"], [[1.0]])
        with pytest.raises(AlignmentError):
            align(kg, bg, policy="intersect")

    def test_strict_reorders_bg_to_kg_order(self):
        kg = table_of(["a", "b"], [[1.0], [2.0]])
        bg = table_of(["b", "a"], [[9.0], [8.0]])
        _, bg2, _ = align(kg, bg, policy="strict")
        assert bg2.ids == ("a", "b")
        assert np.array_equal(bg2.matrix, [[8.0], [9.0]])


class TestNormalizeRows:
    def test_unit_norms_and_zero_rows_kept(self):
        t = table_of(["a", "b"], [[3.0, 4.0], [0.0, 0.0]])
        out = normalize_rows(t)
        assert np.allclose(out.matrix[0], [0.6, 0.8])
        assert np.array_equal(out.matrix[1], [0.0, 0.0])
        assert np.array_equal(t.matrix[0], [3.0, 4.0])  # input untouched
        assert out.ids is t.ids

    def test_rows_whose_squares_underflow_or_overflow_still_normalize(self):
        # Plain norms read 0 and inf here: the squares leave float64's range.
        unit, norms = unit_rows(np.array([[1e-200, 2e-200], [1e200, 2e200]]))
        assert np.allclose(unit, np.array([[1.0, 2.0]] * 2) / np.sqrt(5.0), rtol=1e-15, atol=0)
        assert np.allclose(norms, np.sqrt(5.0) * np.array([1e-200, 1e200]), rtol=1e-15, atol=0)


def make_model(seed=0, edge=Edge.TRANSLATION, d_w=3, d_z=4, hidden=6):
    rng = np.random.default_rng(seed)
    d_g = edge_output_dim(edge, d_z)
    proj = DiffNet.random(d_w, hidden, d_z, rng)
    infer = DiffNet.random(d_w + d_z, hidden, 2 * d_w + 2 * d_g, rng)
    cfg = TrainConfig(n_batch=4, epochs=1.0, hidden_dim=hidden, edge=edge,
                      seed=seed, normalize_inputs=False)
    return proj, infer, cfg


def write_huge_tensor_model(path):
    """A model file with a valid CRC whose first tensor claims
    (2**32 - 1) x (2**32 - 1) values: more than 2**63 in all."""
    save_model(*make_model(), path)
    payload = path.read_bytes()[:-4]
    hlen = struct.unpack("<I", payload[8:12])[0]
    payload = payload[:12 + hlen] + struct.pack("<BII", 2, 2**32 - 1, 2**32 - 1)
    path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def rewrite_model(path, header_change, tensors):
    """Replace a saved model's header fields and tensors under a fresh CRC."""
    payload = path.read_bytes()[:-4]
    hlen = struct.unpack("<I", payload[8:12])[0]
    header = {**json.loads(payload[12:12 + hlen]), **header_change}
    new_header = json.dumps(header, sort_keys=True).encode()
    payload = (payload[:8] + struct.pack("<I", len(new_header)) + new_header
               + b"".join(dataio._pack_tensor(t) for t in tensors))
    path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


class TestModelFile:
    def test_round_trip_is_bit_identical(self, tmp_path):
        proj, infer, cfg = make_model(seed=5)
        p = tmp_path / "m.bem"
        save_model(proj, infer, cfg, p)
        proj2, infer2, cfg2 = load_model(p)
        for a, b in ((proj, proj2), (infer, infer2)):
            for name in ("W1", "b1", "W2", "b2"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
        assert cfg2 == cfg

    def test_truncation_gives_checksum_error(self, tmp_path):
        proj, infer, cfg = make_model()
        p = tmp_path / "m.bem"
        save_model(proj, infer, cfg, p)
        payload = p.read_bytes()
        for cut in (len(payload) - 5, len(payload) // 2, 10):
            p.write_bytes(payload[:cut])
            with pytest.raises(ModelFormatError):
                load_model(p)

    def test_corruption_gives_checksum_error(self, tmp_path):
        proj, infer, cfg = make_model()
        p = tmp_path / "m.bem"
        save_model(proj, infer, cfg, p)
        payload = bytearray(p.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        p.write_bytes(bytes(payload))
        with pytest.raises(ModelFormatError, match="checksum"):
            load_model(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.bem"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(p)

    def test_version_mismatch(self, tmp_path):
        import struct
        import zlib
        proj, infer, cfg = make_model()
        p = tmp_path / "m.bem"
        save_model(proj, infer, cfg, p)
        payload = bytearray(p.read_bytes()[:-4])
        payload[4:8] = struct.pack("<I", 99)
        payload += struct.pack("<I", zlib.crc32(bytes(payload)) & 0xFFFFFFFF)
        p.write_bytes(bytes(payload))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(p)

    def test_header_tensor_consistency_enforced(self, tmp_path):
        # Rewrite the header with a wrong kg_dim; CRC is recomputed so only
        # the cross-field validation can catch it.
        import json
        import struct
        import zlib
        proj, infer, cfg = make_model()
        p = tmp_path / "m.bem"
        save_model(proj, infer, cfg, p)
        payload = bytearray(p.read_bytes()[:-4])
        hlen = struct.unpack("<I", payload[8:12])[0]
        header = json.loads(payload[12:12 + hlen].decode())
        header["kg_dim"] = header["kg_dim"] + 1
        new_header = json.dumps(header, sort_keys=True).encode()
        payload[8:12] = struct.pack("<I", len(new_header))
        payload[12:12 + hlen] = new_header
        payload += struct.pack("<I", zlib.crc32(bytes(payload)) & 0xFFFFFFFF)
        p.write_bytes(bytes(payload))
        with pytest.raises(ModelFormatError):
            load_model(p)

    @pytest.mark.parametrize("hidden", [(4, 7), (7, 4)], ids=["infer-wider", "proj-wider"])
    def test_hidden_width_of_either_net_must_match_the_config(self, tmp_path, hidden):
        # A CRC-valid file whose two nets disagree on the hidden width:
        # save_model refuses such nets, so a good file's header dims and
        # tensors are rewritten.
        proj_h, infer_h = hidden
        proj = make_model(hidden=proj_h)[0]
        infer = make_model(hidden=infer_h)[1]
        p = tmp_path / "m.bem"
        save_model(*make_model(hidden=4), p)
        rewrite_model(p, {"proj": [3, proj_h, 4], "infer": [7, infer_h, 14]},
                      [*proj.param_dict().values(), *infer.param_dict().values()])
        with pytest.raises(ModelFormatError, match="inconsistent"):
            load_model(p)

    @pytest.mark.parametrize("proj_dims,infer_dims,edge", [
        ((3, 5, 4), (7, 6, 14), Edge.TRANSLATION), ((3, 6, 4), (7, 5, 14), Edge.TRANSLATION),
        ((3, 6, 4), (8, 6, 14), Edge.TRANSLATION), ((3, 6, 4), (7, 6, 13), Edge.TRANSLATION),
        ((3, 6, 4), (7, 6, 14), Edge.INNER_PRODUCT),
    ], ids=["proj-hidden", "infer-hidden", "infer-input", "infer-output", "edge-output"])
    def test_save_refuses_what_load_would_refuse(self, tmp_path, proj_dims, infer_dims, edge):
        rng = np.random.default_rng(0)
        proj, infer = DiffNet.random(*proj_dims, rng), DiffNet.random(*infer_dims, rng)
        cfg = TrainConfig(hidden_dim=6, edge=edge)
        with pytest.raises(ModelFormatError, match="do not fit"):
            save_model(proj, infer, cfg, tmp_path / "m.bem")
        assert list(tmp_path.iterdir()) == []

    def test_tensor_dims_past_int64_are_a_format_error(self, tmp_path):
        p = tmp_path / "m.bem"
        write_huge_tensor_model(p)
        with pytest.raises(ModelFormatError, match="ends prematurely"):
            load_model(p)

    @pytest.mark.parametrize("change", [
        {"kg_dim": float("inf")}, {"infer": []}, {"proj": [3, 6, 4, 1]},
        b"[" * 5000 + b"]" * 5000,
        struct.pack("<B", 65) + struct.pack("<I", 0) + struct.pack("<I", 1) * 64,
        struct.pack("<BIII", 3, 0, 2**32 - 1, 2**32 - 1),
    ], ids=["inf-dim", "no-infer-dims", "four-proj-dims", "deep-json", "65-dims", "too-big"])
    def test_bad_header_or_tensor_shape_is_a_format_error(self, tmp_path, change):
        p = tmp_path / "m.bem"
        save_model(*make_model(), p)
        payload = p.read_bytes()[:-4]
        hlen = struct.unpack("<I", payload[8:12])[0]
        header, tensors = payload[12:12 + hlen], payload[12 + hlen:]
        if isinstance(change, dict):
            header = json.dumps({**json.loads(header), **change}).encode()
        elif change.startswith(b"["):
            header = change
        else:
            tensors = change
        payload = payload[:8] + struct.pack("<I", len(header)) + header + tensors
        p.write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
        with pytest.raises(ModelFormatError):
            load_model(p)

    @pytest.mark.parametrize("edge", (Edge.TRANSLATION, Edge.INNER_PRODUCT, Edge.IDENTITY))
    def test_all_edges_round_trip(self, tmp_path, edge):
        proj, infer, cfg = make_model(seed=2, edge=edge)
        p = tmp_path / "m.bem"
        save_model(proj, infer, cfg, p)
        _, _, cfg2 = load_model(p)
        assert cfg2.edge is edge
