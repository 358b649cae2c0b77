"""Loading, aligning, validating and writing tables and model files.

Embedding table format: UTF-8 text, one row per entity, fields separated by
a single tab: the entity id, then d decimal floats (17 significant digits on
write, so values round-trip exactly). An optional first line ``#dim=<d>``
pins the dimension. A truth file (``synthgen``) is the same format with a
label column between the id and the values.

Tables stream through one codec in both directions. The writer formats
``CHUNK_ROWS`` rows at a time with one ``%.17g`` template per row (the same
bytes as ``format(v, ".17g")`` per value) into a temp file beside the
target, then renames it over the target. The reader checks each line's
structure in Python, with line numbers, and hands each chunk's value
fields to numpy's C parser; a chunk that parser rejects, or that holds a
non-finite value, is parsed again field by field with ``float()``, so the
accepted files, the values and the line-numbered errors are those of a
plain per-field ``float()`` loop.

Label file: ``id<TAB>class1,class2,...`` with a non-empty id and a
non-empty class list.

Every text reader (tables, truth and label files; ``cli`` manifests and
config files) reads UTF-8 lines with universal newlines: a line ends at
``\n``, ``\r\n`` or ``\r`` and nowhere else. Every error names its 1-based
line, an undecodable line's included.

Model file: length-prefixed binary, magic ``BEM1``, little-endian float64
tensors, trailing CRC32 over everything before it.
"""
from __future__ import annotations

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

from .errors import AlignmentError, ConfigError, DataError, ModelFormatError, ShapeError
from .nets import DiffNet

MODEL_MAGIC = b"BEM1"
MODEL_VERSION = 1

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


def _lines(path):
    """Yield ``(lineno, line)`` per line of a UTF-8 text file, without its
    newline; DataError names the first line that does not decode (the
    surrogateescape handler defers a decode error to the line that holds it)."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DataError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None
            yield lineno, line.rstrip("\n")


def _keyed_rows(path, lines, n_keys: int, missing: str):
    """Yield ``(lineno, parts)`` per line, split at its first ``n_keys`` tabs.
    DataError names a blank line, an empty or duplicate id, a line with nothing
    after its keys (the text ``missing``), and a file without lines."""
    seen: dict[str, int] = {}
    for lineno, line in lines:
        if line == "":
            raise DataError(f"{path}:{lineno}: blank line")
        parts = line.split("\t", n_keys)
        eid = parts[0]
        if eid == "":
            raise DataError(f"{path}:{lineno}: empty entity id")
        if eid in seen:
            raise DataError(
                f"{path}:{lineno}: duplicate id {eid!r} "
                f"(first seen on line {seen[eid]})")
        seen[eid] = lineno
        if len(parts) <= n_keys:
            raise DataError(f"{path}:{lineno}: {missing}")
        yield lineno, parts
    if not seen:
        raise DataError(f"{path}: no data rows")


@dataclass(eq=False)
class EmbeddingTable:
    """Aligned matrix of per-entity vectors. Immutable after construction.

    A read-only float64 ndarray that owns its data is kept as it is; any
    other matrix is copied.
    """

    ids: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
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

    def row(self, entity_id: str) -> np.ndarray:
        return self.matrix[self.id_index[entity_id]]

    def subset(self, indices) -> "EmbeddingTable":
        indices = list(indices)
        matrix = self.matrix[indices]  # a fresh array: handed over frozen, not copied
        matrix.flags.writeable = False
        return EmbeddingTable(ids=tuple(self.ids[i] for i in indices), matrix=matrix)


def unit_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows divided by their L2 norms (zero-norm rows kept), and the norms."""
    norms = np.linalg.norm(matrix, axis=1)
    return matrix / np.where(norms > 0.0, norms, 1.0)[:, None], norms


def normalize_rows(table: EmbeddingTable) -> EmbeddingTable:
    """L2-normalize each row; all-zero rows are left as they are."""
    return EmbeddingTable(ids=table.ids, matrix=unit_rows(table.matrix)[0])


@dataclass(eq=False)
class LabelTable:
    """Per-entity non-empty class lists; list order is meaningful."""

    ids: tuple[str, ...]
    label_sets: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        self.ids = tuple(str(i) for i in self.ids)
        self.label_sets = tuple(tuple(ls) for ls in self.label_sets)
        if len(self.ids) != len(self.label_sets):
            raise DataError("id and label counts differ")
        if len(set(self.ids)) != len(self.ids):
            raise DataError("duplicate entity ids in label table")
        for eid, ls in zip(self.ids, self.label_sets):
            if len(ls) == 0:
                raise DataError(f"empty label set for {eid!r}")

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def mapping(self) -> dict[str, tuple[str, ...]]:
        return dict(zip(self.ids, self.label_sets))


def _write_rows(path, keys, matrix: np.ndarray) -> None:
    """Write ``#dim=<d>``, then ``key<TAB>v1<TAB>...<TAB>vd`` per row.

    ``keys`` holds one string per row: the id, or the id and its label
    joined by a tab. Streamed in chunks of ``CHUNK_ROWS`` rows.
    """
    row_format = "%s\t" + "\t".join(["%.17g"] * matrix.shape[1]) + "\n"
    with _atomic_open(path) as fh:
        fh.write(f"#dim={matrix.shape[1]}\n".encode("utf-8"))
        for start in range(0, len(keys), CHUNK_ROWS):
            stop = start + CHUNK_ROWS
            chunk = "".join([row_format % (key, *row) for key, row in
                             zip(keys[start:stop], matrix[start:stop].tolist())])
            fh.write(chunk.encode("utf-8"))


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


def _read_rows(path, label_column: bool = False):
    """Parse a table (or, with ``label_column``, a truth file) line by line.

    Returns ``(ids, labels, matrix)``; ``labels`` is empty without a label
    column. Besides the ``_lines`` and ``_keyed_rows`` errors, raises
    DataError naming the line of a bad header, a ragged row or an unparsable
    or non-finite value (the earliest line's error wins), and ShapeError when
    the ``#dim=`` header disagrees with the rows.
    """
    path = Path(path)
    n_keys = 2 if label_column else 1
    ids: list[str] = []
    labels: list[str] = []
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
        for lineno, parts in _keyed_rows(path, lines, n_keys, "row has no values"):
            rest = parts[n_keys]
            width = rest.count("\t") + 1
            dim = dim or width
            if width != dim:
                raise DataError(
                    f"{path}:{lineno}: ragged row, {width} values, expected {dim}")
            if not rests:
                first = lineno
            rests.append(rest)
            ids.append(parts[0])
            if label_column:
                labels.append(parts[1])
            if len(rests) == CHUNK_ROWS:
                flush()
    except DataError:
        flush()  # a value error on an earlier line comes first
        raise
    flush()
    if header_dim is not None and header_dim != dim:
        raise ShapeError(f"{path}: #dim={header_dim} but rows have {dim} values")
    matrix.resize((len(ids), dim), refcheck=False)
    matrix.flags.writeable = False  # the table takes it without a copy
    return ids, labels, matrix


def load_table(path, expected_dim: int | None = None) -> EmbeddingTable:
    """Parse an embedding table, rejecting anything malformed.

    Raises DataError with the offending line number for ragged rows,
    unparsable or non-finite values and duplicate ids; ShapeError when the
    dimension disagrees with ``expected_dim`` or the ``#dim=`` header.
    """
    ids, _, matrix = _read_rows(path)
    if expected_dim is not None and matrix.shape[1] != expected_dim:
        raise ShapeError(f"{path}: dimension {matrix.shape[1]}, expected {expected_dim}")
    return EmbeddingTable(ids=tuple(ids), matrix=matrix)


def write_table(table: EmbeddingTable, path) -> None:
    _write_rows(path, table.ids, table.matrix)


def load_labels(path) -> LabelTable:
    """Parse a label file; DataError names the line of each malformed row."""
    path = Path(path)
    mapping: dict[str, tuple[str, ...]] = {}
    expected = "expected 'id<TAB>labels'"
    for lineno, (eid, labels) in _keyed_rows(path, _lines(path), 1, expected):
        if "\t" in labels:
            raise DataError(f"{path}:{lineno}: {expected}")
        classes = tuple(c for c in labels.split(",") if c != "")
        if not classes:
            raise DataError(f"{path}:{lineno}: empty label set for {eid!r}")
        mapping[eid] = classes
    return LabelTable(ids=tuple(mapping), label_sets=tuple(mapping.values()))


def write_labels(labels: LabelTable, path) -> None:
    lines = [f"{eid}\t{','.join(ls)}" for eid, ls in zip(labels.ids, labels.label_sets)]
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
    per side); ``intersect`` keeps the common ids.
    """
    if policy not in ("strict", "intersect"):
        raise AlignmentError(f"unknown alignment policy {policy!r}")
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


def save_model(proj_net: DiffNet, infer_net: DiffNet, cfg, path) -> None:
    """Serialize both nets plus the training config, losslessly."""
    from .trainer import TrainConfig  # deferred: avoids an import cycle

    if not isinstance(cfg, TrainConfig):
        raise ModelFormatError("cfg must be a TrainConfig")
    from .elbo import edge_output_dim
    header = {
        "kg_dim": proj_net.in_dim,
        "bg_dim": proj_net.out_dim,
        "edge_dim": edge_output_dim(cfg.edge, proj_net.out_dim),
        "proj": [proj_net.in_dim, proj_net.hidden_dim, proj_net.out_dim],
        "infer": [infer_net.in_dim, infer_net.hidden_dim, infer_net.out_dim],
        "config": cfg.to_dict(),
    }
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
    from .elbo import edge_output_dim

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
    if (proj_net.in_dim != kg_dim or proj_net.out_dim != bg_dim
            or infer_net.in_dim != kg_dim + bg_dim
            or edge_dim != edge_output_dim(cfg.edge, bg_dim)
            or infer_net.out_dim != 2 * kg_dim + 2 * edge_dim
            or cfg.hidden_dim != proj_net.hidden_dim):
        raise ModelFormatError(f"{path}: header dimensions are inconsistent")
    return proj_net, infer_net, cfg
