"""Loading, aligning, validating and writing tables and model files.

Embedding table format: UTF-8 text, one row per entity, fields separated by
a single tab: the entity id, then d decimal floats (17 significant digits on
write, so values round-trip exactly). An optional first line ``#dim=<d>``
pins the dimension. Every table file is in this format, the synthetic
truth (``truth.tsv``) included.

``write_table`` and ``load_table`` are the one writer and the one reader of
tables, each streamed ``CHUNK_ROWS`` rows at a time. The writer formats a
chunk with one ``%.17g`` template per row (the same bytes as
``format(v, ".17g")`` per value) into a temp file beside the target, then
renames it over the target. The reader checks each line's structure in
Python, with line numbers, and hands each chunk's value fields to numpy's C
parser; a chunk that parser rejects, or that holds a non-finite value, is
parsed again field by field with ``float()``, so the accepted files, the
values and the line-numbered errors are those of a plain per-field
``float()`` loop.

An ``EmbeddingTable`` copies any matrix but a read-only float64 array that
owns its data. Code that builds a fresh matrix for a table hands it over
``_frozen`` and never writes it again, so the table holds no second copy.
A fresh matrix over the ids of an existing table goes to that table's
``with_matrix``, which keeps it uncopied too and checks the matrix alone:
the ids were checked when the existing table was built.

Label file: ``id<TAB>class1,class2,...`` with a non-empty id and a
non-empty class list.

Both writers refuse, with a DataError before the target is touched, an id
or class name that the reader would not give back as it was.

Every text reader (table and label files; ``cli`` manifests and config
files) reads UTF-8 lines with universal newlines: a line ends at
``\n``, ``\r\n`` or ``\r`` and nowhere else. Every error names its 1-based
line, an undecodable line's included.

Model file: magic ``BEM1``, a length-prefixed JSON header, little-endian
float64 tensors and a CRC32 over everything before it. ``_header`` alone
builds the header from the nets and config: ``save_model`` writes it, and
``load_model`` requires each stored field but ``config`` to equal it. Its
``proj`` and ``infer`` dims fix every tensor's prefix, shape and offset, which
``_layout`` alone gives both. A tensor off that layout or refused by the nets
(a non-finite value) is a ``ModelFormatError``, and each load error names the file.
The inference net's output rows are the posterior means (shift, log share),
then the raw stds; ``refine`` reads only the first ``kg_dim``, the shift means.
"""
from __future__ import annotations

import io
import itertools
import json
import math
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .elbo import edge_output_dim
from .errors import (AlignmentError, ConfigError, DataError, ModelFormatError, ShapeError,
                     TrainingError)
from .nets import DiffNet

MODEL_MAGIC = b"BEM1"
MODEL_VERSION = 1
ALIGN_POLICIES = ("strict", "intersect")  # see ``align``

# Rows formatted or parsed at a time: bounds the text and Python objects
# alive at once. Output bytes and parsed values do not depend on it.
CHUNK_ROWS = 4096

# Separators that numpy's parser strips as whitespace but float() rejects;
# a chunk holding one takes the float() path.
_LOADTXT_ONLY = "\x1c\x1d\x1e\x1f"

# Numbers this process's temp files.
_tmp_serial = itertools.count()


@contextmanager
def _atomic_open(path):
    """Binary handle on a new ``<path>.<pid>-<serial>.tmp``, renamed over
    ``path`` when the block completes and removed when it raises, so the
    target is never partial. The temp file is created exclusively: no
    existing file is truncated, and no two writers share one."""
    path = Path(path)
    for serial in _tmp_serial:
        tmp = path.with_name(f"{path.name}.{os.getpid()}-{serial}.tmp")
        try:
            fh = open(tmp, "xb")
            break
        except FileExistsError:  # a stale or foreign file: try the next name
            pass
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write_text(path, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text.encode("utf-8"))


def _lines(path, raw: bytes | None = None):
    """Yield ``(lineno, line)`` per line of a UTF-8 text file (of ``raw``, the
    file's bytes, when given), without its newline; DataError names the first
    line that does not decode (the surrogateescape handler defers a decode
    error to the line that holds it)."""
    stream = open(path, "rb") if raw is None else io.BytesIO(raw)
    with io.TextIOWrapper(stream, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DataError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None
            yield lineno, line.rstrip("\n")


def _keyed_rows(path, lines, missing: str):
    """Yield ``(lineno, (id, rest))`` per line, split at its first tab.
    DataError names a blank line, an empty or duplicate id, a line without a
    tab (the text ``missing``), and a file without lines."""
    seen: dict[str, int] = {}
    for lineno, line in lines:
        if line == "":
            raise DataError(f"{path}:{lineno}: blank line")
        parts = line.split("\t", 1)
        eid = parts[0]
        if eid == "":
            raise DataError(f"{path}:{lineno}: empty entity id")
        if eid in seen:
            raise DataError(
                f"{path}:{lineno}: duplicate id {eid!r} "
                f"(first seen on line {seen[eid]})")
        seen[eid] = lineno
        if len(parts) == 1:
            raise DataError(f"{path}:{lineno}: {missing}")
        yield lineno, parts
    if not seen:
        raise DataError(f"{path}: no data rows")


@dataclass(eq=False)
class EmbeddingTable:
    """Aligned matrix of per-entity vectors. Immutable after construction."""

    ids: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        if not (type(self.ids) is tuple and all(type(i) is str for i in self.ids)):
            self.ids = tuple(str(i) for i in self.ids)
        mat = self.matrix
        if not (type(mat) is np.ndarray and mat.dtype == np.float64
                and mat.flags.owndata and not mat.flags.writeable):
            mat = np.array(mat, dtype=float, copy=True)
        if mat.ndim != 2:
            raise ShapeError(f"embedding matrix must be 2-D, got shape {mat.shape}")
        if len(self.ids) != mat.shape[0]:
            raise DataError(f"{len(self.ids)} ids for {mat.shape[0]} rows")
        if len(set(self.ids)) != len(self.ids):
            raise DataError("duplicate entity ids")
        if not np.all(np.isfinite(mat)):
            raise DataError("non-finite values in embedding matrix")
        mat.flags.writeable = False
        self.matrix = mat

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def id_index(self) -> dict[str, int]:
        return {eid: i for i, eid in enumerate(self.ids)}

    def with_matrix(self, matrix: np.ndarray) -> "EmbeddingTable":
        """A table of these ids over ``matrix``, a fresh float64 array that
        the table keeps uncopied and makes read-only (the caller never writes
        it again). ShapeError unless it is 2-D with a row per id, DataError on
        a non-finite value; the ids are not checked again."""
        if matrix.ndim != 2 or len(matrix) != len(self.ids):
            raise ShapeError(f"{len(self.ids)} ids for a matrix of shape {matrix.shape}")
        if not np.all(np.isfinite(matrix)):
            raise DataError("non-finite values in embedding matrix")
        matrix.flags.writeable = False
        table = object.__new__(EmbeddingTable)  # skips __post_init__'s id checks
        table.ids, table.matrix = self.ids, matrix
        return table

    def subset(self, indices) -> "EmbeddingTable":
        """The rows at ``indices``, in that order, as a new table; the table
        itself when ``indices`` is ``range(len(self))`` (tables are immutable)."""
        if isinstance(indices, range) and indices == range(len(self)):
            return self
        indices = list(indices)
        return EmbeddingTable(ids=tuple(self.ids[i] for i in indices),
                              matrix=_frozen(self.matrix[indices]))


def _frozen(matrix: np.ndarray) -> np.ndarray:
    """A fresh matrix made read-only, for an ``EmbeddingTable`` to keep uncopied."""
    matrix.flags.writeable = False
    return matrix


def _row_norms(rows: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
    """The L2 norms of ``rows``: ``norms``, by default ``np.linalg.norm(rows,
    axis=1)``, bit for bit, except where the squares underflow (0 despite a
    nonzero entry) or overflow (not finite). Those are recomputed in place as
    s * ||row / s||, s the row's largest |entry|."""
    if norms is None:
        with np.errstate(over="ignore"):  # an overflowed square is mended below
            norms = np.linalg.norm(rows, axis=1)
    flagged = np.flatnonzero(~((norms > 0.0) & (norms < np.inf)))
    if len(flagged) == 0:
        return norms
    scale = np.max(np.abs(rows[flagged]), axis=1, initial=0.0)
    mend = (scale > 0.0) & (scale < np.inf)
    flagged, scale = flagged[mend], scale[mend]
    norms[flagged] = scale * np.linalg.norm(rows[flagged] / scale[:, None], axis=1)
    return norms


def unit_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows divided by their L2 norms (zero-norm rows kept), and the norms
    (``_row_norms``), CHUNK_ROWS rows at a time (no table-sized square)."""
    norms = np.empty(len(matrix))
    for start in range(0, len(matrix), CHUNK_ROWS):
        norms[start:start + CHUNK_ROWS] = _row_norms(matrix[start:start + CHUNK_ROWS])
    return matrix / np.where(norms > 0.0, norms, 1.0)[:, None], norms


def normalize_rows(table: EmbeddingTable) -> EmbeddingTable:
    """L2-normalize each row; all-zero rows are left as they are."""
    return table.with_matrix(unit_rows(table.matrix)[0])


def _parse_values(path, first_lineno: int, rests: list[str], dim: int) -> np.ndarray:
    """Parse value fields, one line of ``dim`` tab-separated fields per row."""
    # loadtxt skips empty lines (and warns when all are), so they go to float().
    text = "\n".join(rests)
    if "" not in rests and not any(c in text for c in _LOADTXT_ONLY):
        try:
            block = np.loadtxt(rests, delimiter="\t", comments=None,
                               quotechar=None, ndmin=2)
        except ValueError:
            block = None
        if (block is not None and block.shape == (len(rests), dim)
                and np.isfinite(block).all()):
            return block
    rows = []
    for lineno, rest in enumerate(rests, start=first_lineno):
        vals = []
        for field in rest.split("\t"):
            try:
                v = float(field)
            except ValueError:
                raise DataError(f"{path}:{lineno}: unparsable value {field!r}")
            if not math.isfinite(v):
                raise DataError(f"{path}:{lineno}: non-finite value {field!r}")
            vals.append(v)
        rows.append(vals)
    return np.array(rows, dtype=float)


def load_table(path) -> EmbeddingTable:
    """Parse an embedding table line by line, rejecting anything malformed.

    Besides the ``_lines`` and ``_keyed_rows`` errors, raises DataError
    naming the line of a bad header, a ragged row or an unparsable or
    non-finite value (the earliest line's error wins), and ShapeError when
    the ``#dim=`` header disagrees with the rows.
    """
    path = Path(path)
    ids: list[str] = []
    rests: list[str] = []
    matrix = np.empty((0, 0))  # grows geometrically; no parsed chunk outlives its copy
    dim: int | None = None
    header_dim: int | None = None
    first = 0

    def store_chunk():  # rows before the chunk in ``rests`` are in ``matrix``
        if rests:
            block = _parse_values(path, first, rests, dim)
            if len(ids) > len(matrix):
                matrix.resize((2 * len(matrix) + len(block), dim), refcheck=False)
            matrix[len(ids) - len(block):len(ids)] = block
            rests.clear()

    lines = _lines(path)
    head = next(lines, None)
    if head and head[1].startswith("#dim="):
        try:
            header_dim = int(head[1][len("#dim="):])
        except ValueError:
            raise DataError(f"{path}:1: bad #dim header {head[1]!r}")
        if header_dim < 1:
            raise DataError(f"{path}:1: non-positive #dim header")
    elif head:
        lines = itertools.chain([head], lines)
    try:
        for lineno, (eid, rest) in _keyed_rows(path, lines, "row has no values"):
            width = rest.count("\t") + 1
            dim = dim or width
            if width != dim:
                raise DataError(
                    f"{path}:{lineno}: ragged row, {width} values, expected {dim}")
            if not rests:
                first = lineno
            rests.append(rest)
            ids.append(eid)
            if len(rests) == CHUNK_ROWS:
                store_chunk()
    except DataError:
        store_chunk()  # a value error on an earlier line comes first
        raise
    store_chunk()
    if header_dim is not None and header_dim != dim:
        raise ShapeError(f"{path}: #dim={header_dim} but rows have {dim} values")
    matrix.resize((len(ids), dim), refcheck=False)
    return EmbeddingTable(ids=tuple(ids), matrix=_frozen(matrix))


def _check_fields(fields, path, what: str, forbidden: str = "\t\r") -> None:
    """DataError unless there are ``fields`` (ids or class names) and each is
    non-empty UTF-8 text free of line breaks and of ``forbidden``; one pass
    over their joined text."""
    text = "\n".join(fields)
    if (not fields or "" in fields or text.count("\n") != len(fields) - 1
            or any(c in text for c in forbidden)):
        bad = [f for f in fields if f == "" or any(c in f for c in forbidden + "\n")]
        raise DataError(f"{path}: cannot write {what} {bad[:1]}: there must be one at least, "
                        f"each non-empty, with no line break and none of {forbidden!r}")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DataError(f"{path}: cannot write {what} text that is not UTF-8 ({exc.reason})")


def write_table(table: EmbeddingTable, path) -> None:
    """Write ``#dim=<d>``, then ``id<TAB>v1<TAB>...<TAB>vd`` per row."""
    _check_fields(table.ids, path, "id")
    row_format = "%s\t" + "\t".join(["%.17g"] * table.dim) + "\n"
    with _atomic_open(path) as fh:
        fh.write(f"#dim={table.dim}\n".encode("utf-8"))
        for start in range(0, len(table), CHUNK_ROWS):
            stop = start + CHUNK_ROWS
            chunk = "".join([row_format % (eid, *row) for eid, row in
                             zip(table.ids[start:stop], table.matrix[start:stop].tolist())])
            fh.write(chunk.encode("utf-8"))


def load_labels(path) -> dict[str, tuple[str, ...]]:
    """Each id's class tuple, in file order; DataError names the line of each
    malformed row."""
    path = Path(path)
    mapping: dict[str, tuple[str, ...]] = {}
    expected = "expected 'id<TAB>labels'"
    for lineno, (eid, labels) in _keyed_rows(path, _lines(path), expected):
        if "\t" in labels:
            raise DataError(f"{path}:{lineno}: {expected}")
        classes = tuple(c for c in labels.split(",") if c != "")
        if not classes:
            raise DataError(f"{path}:{lineno}: empty label set for {eid!r}")
        mapping[eid] = classes
    return mapping


def write_labels(labels: dict[str, tuple[str, ...]], path) -> None:
    _check_fields(list(labels), path, "id")
    if not all(labels.values()):
        raise DataError(f"{path}: cannot write an empty label set")
    _check_fields([c for classes in labels.values() for c in classes], path, "class name",
                  ",\t\r")
    lines = [f"{eid}\t{','.join(ls)}" for eid, ls in labels.items()]
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _id_set_difference(kg_ids, bg_ids) -> str:
    """``"N only in kg (e.g. [...]), M only in bg (e.g. [...])"``, listing up
    to 10 sorted ids per side; empty when both hold the same ids."""
    kg_set, bg_set = set(kg_ids), set(bg_ids)
    only_kg, only_bg = sorted(kg_set - bg_set), sorted(bg_set - kg_set)
    if not (only_kg or only_bg):
        return ""
    return (f"{len(only_kg)} only in kg (e.g. {only_kg[:10]}), "
            f"{len(only_bg)} only in bg (e.g. {only_bg[:10]})")


@dataclass
class AlignResult:
    kept: int
    dropped_kg: int
    dropped_bg: int


def align(kg: EmbeddingTable, bg: EmbeddingTable,
          policy: str = "intersect") -> tuple[EmbeddingTable, EmbeddingTable, AlignResult]:
    """Put two tables on a common entity set, in kg order.

    ``strict`` raises on any id-set difference (listing up to 10 examples
    per side); ``intersect`` keeps the common ids. Aligned tables come back uncopied.
    """
    if policy not in ALIGN_POLICIES:
        raise AlignmentError(f"unknown alignment policy {policy!r}")
    if len(kg) and kg.ids == bg.ids:
        return kg, bg, AlignResult(kept=len(kg), dropped_kg=0, dropped_bg=0)
    bg_set = set(bg.ids)
    if policy == "strict" and (difference := _id_set_difference(kg.ids, bg.ids)):
        raise AlignmentError(f"id sets differ: {difference}")
    common = [eid for eid in kg.ids if eid in bg_set]
    if not common:
        raise AlignmentError("tables share no entity ids")
    kg_out = kg.subset([kg.id_index[eid] for eid in common])
    bg_out = bg.subset([bg.id_index[eid] for eid in common])
    result = AlignResult(kept=len(common),
                         dropped_kg=len(kg) - len(common),
                         dropped_bg=len(bg) - len(common))
    return kg_out, bg_out, result


def _layout(dims) -> list[tuple[bytes, tuple[int, ...]]]:
    """Each stored tensor's prefix (ndim, then each dim) and shape, in file order,
    from the ``(in, hidden, out)`` dims of the projection and inference nets;
    ValueError unless each has three dims, struct.error past the prefix's range."""
    layout = []
    for n_in, hidden, n_out in dims:
        for shape in ((hidden, n_in), (hidden,), (n_out, hidden), (n_out,)):
            layout.append((struct.pack(f"<B{len(shape)}I", len(shape), *shape), shape))
    return layout


def _header(proj_net: DiffNet, infer_net: DiffNet, cfg) -> dict | None:
    """The model file's header for these nets and config; None unless the nets
    fit each other and the config, the shape contract that save and load hold."""
    kg_dim, bg_dim = proj_net.in_dim, proj_net.out_dim
    edge_dim = edge_output_dim(cfg.edge, bg_dim)
    if not (infer_net.in_dim == kg_dim + bg_dim
            and infer_net.out_dim == 2 * kg_dim + 2 * edge_dim
            and cfg.hidden_dim == proj_net.hidden_dim == infer_net.hidden_dim):
        return None
    return {"kg_dim": kg_dim, "bg_dim": bg_dim, "edge_dim": edge_dim, "config": cfg.to_dict(),
            "proj": [proj_net.in_dim, proj_net.hidden_dim, proj_net.out_dim],
            "infer": [infer_net.in_dim, infer_net.hidden_dim, infer_net.out_dim]}


def save_model(proj_net: DiffNet, infer_net: DiffNet, cfg, path) -> None:
    """Serialize both nets plus the training config, losslessly. Nets that
    ``load_model`` would refuse raise before anything is written."""
    from .trainer import TrainConfig  # deferred: avoids an import cycle

    if not isinstance(cfg, TrainConfig):
        raise ModelFormatError("cfg must be a TrainConfig")
    if (header := _header(proj_net, infer_net, cfg)) is None:
        raise ModelFormatError(f"{path}: the nets do not fit each other and the config")
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    body = [MODEL_MAGIC, struct.pack("<II", MODEL_VERSION, len(header_bytes)), header_bytes]
    tensors = [arr for net in (proj_net, infer_net) for arr in (net.W1, net.b1, net.W2, net.b2)]
    for (prefix, _), arr in zip(_layout([header["proj"], header["infer"]]), tensors):
        body += [prefix, np.asarray(arr, dtype="<f8").tobytes()]
    payload = b"".join(body)
    payload += struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    with _atomic_open(path) as fh:
        fh.write(payload)


def load_model(path):
    """Read a model file back; returns (proj_net, infer_net, cfg).

    The CRC is verified before anything is parsed, so a truncated or
    corrupted file never yields a partial model.
    """
    from .trainer import TrainConfig  # deferred: avoids an import cycle

    payload = Path(path).read_bytes()
    end = len(payload) - 4  # the CRC's offset
    if end < 12 or payload[:4] != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: not a model file (bad magic or too short)")
    stored_crc = struct.unpack_from("<I", payload, end)[0]
    if zlib.crc32(payload[:end]) & 0xFFFFFFFF != stored_crc:
        raise ModelFormatError(f"{path}: checksum mismatch (truncated or corrupted)")
    version, header_len = struct.unpack_from("<II", payload, 4)
    if version != MODEL_VERSION:
        raise ModelFormatError(f"{path}: unsupported model version {version}")
    pos = 12 + header_len  # a header past ``end`` fails as JSON or at the first prefix
    try:
        header = json.loads(payload[12:pos].decode("utf-8"))
        cfg = TrainConfig.from_dict(header["config"])
        dims = [[int(v) for v in header[net]] for net in ("proj", "infer")]
        layout = _layout(dims)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError, struct.error,
            ConfigError) as exc:  # RecursionError: JSON nested too deep
        raise ModelFormatError(f"{path}: bad header ({exc})")
    tensors = []
    for prefix, shape in layout:
        start, count = pos + len(prefix), math.prod(shape)
        if payload[pos:start] != prefix or start + 8 * count > end:
            raise ModelFormatError(f"{path}: the tensors do not match the header")
        tensors.append(np.frombuffer(payload, "<f8", count, start).reshape(shape).astype(float))
        pos = start + 8 * count
    if pos != end:
        raise ModelFormatError(f"{path}: trailing bytes after tensors")
    try:
        proj_net = DiffNet(*dims[0], *tensors[:4])
        infer_net = DiffNet(*dims[1], *tensors[4:])
    except (ShapeError, TrainingError) as exc:  # ShapeError: a dim below 1
        raise ModelFormatError(f"{path}: the header's nets refuse its tensors ({exc})")
    # A 0.2.x config still holds the retired n_bootstrap, so configs are not compared.
    derived = _header(proj_net, infer_net, cfg)
    if derived is None or {**header, "config": None} != {**derived, "config": None}:
        raise ModelFormatError(f"{path}: header dimensions are inconsistent")
    return proj_net, infer_net, cfg
