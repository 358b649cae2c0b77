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

Every text reader (table and label files; ``cli`` manifests and config
files) reads UTF-8 lines with universal newlines: a line ends at
``\n``, ``\r\n`` or ``\r`` and nowhere else. Every error names its 1-based
line, an undecodable line's included.

Model file: length-prefixed binary, magic ``BEM1``, little-endian float64
tensors, trailing CRC32 over everything before it. The inference net's
output rows are the posterior means (shift, log share), then the raw stds;
``refine`` reads only the first ``kg_dim`` rows, the shift means.
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
from .errors import AlignmentError, ConfigError, DataError, ModelFormatError, ShapeError
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

    def flush():  # rows before the chunk in ``rests`` are in ``matrix``
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
                flush()
    except DataError:
        flush()  # a value error on an earlier line comes first
        raise
    flush()
    if header_dim is not None and header_dim != dim:
        raise ShapeError(f"{path}: #dim={header_dim} but rows have {dim} values")
    matrix.resize((len(ids), dim), refcheck=False)
    return EmbeddingTable(ids=tuple(ids), matrix=_frozen(matrix))


def write_table(table: EmbeddingTable, path) -> None:
    """Write ``#dim=<d>``, then ``id<TAB>v1<TAB>...<TAB>vd`` per row."""
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


def _pack_tensor(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype="<f8")
    out = [struct.pack("<B", arr.ndim)]
    for d in arr.shape:
        out.append(struct.pack("<I", d))
    out.append(arr.tobytes(order="C"))
    return b"".join(out)


class _Reader:
    def __init__(self, payload: bytes):
        self.payload = payload
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.payload):
            raise ModelFormatError("model file ends prematurely")
        chunk = self.payload[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def tensor(self) -> np.ndarray:
        ndim = struct.unpack("<B", self.take(1))[0]
        shape = tuple(struct.unpack("<I", self.take(4))[0] for _ in range(ndim))
        count = math.prod(shape)  # exact: np.prod wraps past 2**63
        data = np.frombuffer(self.take(8 * count), dtype="<f8")
        try:
            return data.reshape(shape).astype(float)
        except ValueError as exc:  # past numpy's dimension or size limits
            raise ModelFormatError(f"unsupported tensor shape ({exc})")


def _model_dims_consistent(proj_net: DiffNet, infer_net: DiffNet, cfg, kg_dim: int,
                           bg_dim: int, edge_dim: int) -> bool:
    """The shape contract of a model file, which save and load both hold."""
    return (proj_net.in_dim == kg_dim and proj_net.out_dim == bg_dim
            and infer_net.in_dim == kg_dim + bg_dim
            and edge_dim == edge_output_dim(cfg.edge, bg_dim)
            and infer_net.out_dim == 2 * kg_dim + 2 * edge_dim
            and cfg.hidden_dim == proj_net.hidden_dim == infer_net.hidden_dim)


def save_model(proj_net: DiffNet, infer_net: DiffNet, cfg, path) -> None:
    """Serialize both nets plus the training config, losslessly. Nets that
    ``load_model`` would refuse raise before anything is written."""
    from .trainer import TrainConfig  # deferred: avoids an import cycle

    if not isinstance(cfg, TrainConfig):
        raise ModelFormatError("cfg must be a TrainConfig")
    header = {
        "kg_dim": proj_net.in_dim,
        "bg_dim": proj_net.out_dim,
        "edge_dim": edge_output_dim(cfg.edge, proj_net.out_dim),
        "proj": [proj_net.in_dim, proj_net.hidden_dim, proj_net.out_dim],
        "infer": [infer_net.in_dim, infer_net.hidden_dim, infer_net.out_dim],
        "config": cfg.to_dict(),
    }
    if not _model_dims_consistent(proj_net, infer_net, cfg, header["kg_dim"],
                                  header["bg_dim"], header["edge_dim"]):
        raise ModelFormatError(f"{path}: the nets do not fit each other and the config")
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    body = [MODEL_MAGIC, struct.pack("<I", MODEL_VERSION),
            struct.pack("<I", len(header_bytes)), header_bytes]
    for net in (proj_net, infer_net):
        for arr in (net.W1, net.b1, net.W2, net.b2):
            body.append(_pack_tensor(arr))
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
    if len(payload) < len(MODEL_MAGIC) + 8 or payload[:4] != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: not a model file (bad magic)")
    stored_crc = struct.unpack("<I", payload[-4:])[0]
    if zlib.crc32(payload[:-4]) & 0xFFFFFFFF != stored_crc:
        raise ModelFormatError(f"{path}: checksum mismatch (truncated or corrupted)")
    reader = _Reader(payload[4:-4])
    version = struct.unpack("<I", reader.take(4))[0]
    if version != MODEL_VERSION:
        raise ModelFormatError(f"{path}: unsupported model version {version}")
    header_len = struct.unpack("<I", reader.take(4))[0]
    try:
        header = json.loads(reader.take(header_len).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise ModelFormatError(f"{path}: bad header ({exc})")
    try:
        cfg = TrainConfig.from_dict(header["config"])
        proj_dims = [int(v) for v in header["proj"]]
        infer_dims = [int(v) for v in header["infer"]]
        kg_dim = int(header["kg_dim"])
        bg_dim = int(header["bg_dim"])
        edge_dim = int(header["edge_dim"])
    except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as exc:
        raise ModelFormatError(f"{path}: bad header ({exc})")
    tensors = [reader.tensor() for _ in range(8)]
    if reader.pos != len(reader.payload):
        raise ModelFormatError(f"{path}: trailing bytes after tensors")
    try:
        proj_net = DiffNet(*proj_dims, *tensors[:4])
        infer_net = DiffNet(*infer_dims, *tensors[4:])
    except (ShapeError, TypeError) as exc:  # TypeError: not three net dims
        raise ModelFormatError(f"{path}: tensor shapes disagree with header ({exc})")
    if not _model_dims_consistent(proj_net, infer_net, cfg, kg_dim, bg_dim, edge_dim):
        raise ModelFormatError(f"{path}: header dimensions are inconsistent")
    return proj_net, infer_net, cfg
