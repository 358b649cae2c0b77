"""Fuzzing the file boundary: every reader and every subcommand on arbitrary
bytes, and the table and label writers on arbitrary text. Only a BemError
may leave a reader (only a ModelFormatError the model reader), every
subcommand exits with 0, 2, 3 or 4 (refine with a fuzzed model 0 or 3), and
a writer refuses exactly what its reader would not give back."""
import json
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bem.cli import (EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main,
                     read_config_file, read_manifest)
from bem.dataio import (EmbeddingTable, load_labels, load_model, load_table, write_labels,
                        write_table)
from bem.errors import BemError, DataError, ModelFormatError

# Bytes that each reader treats specially, or that a line splitter might.
TOKENS = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xe2\x80\xa8", b"\xe2\x80\xa9", b"\xc2\x85",
          b"\x00", b"\r", b"\n", b"\r\n", b"\t", b"\x0b", b"\x0c", b"\x1c", b"\x1d",
          b"\x1e", b"\x1f", b"#dim=", b"#dim=" + b"9" * 5000, b"#dim=1e400",
          b"#dim=18446744073709551617", b"#dim=-2", b"e1", b"e2", b"1.5", b"-0",
          b"nan", b"1e999", b",", b"a", b" = ", b"=", b"#", b" "]

FUZZ_BYTES = st.one_of(
    st.binary(max_size=48),
    st.lists(st.one_of(st.sampled_from(TOKENS), st.binary(max_size=3)),
             max_size=24).map(b"".join),
)


@st.composite
def mutated(draw, good: bytes):
    """``good`` with up to three spans replaced by fuzz bytes."""
    data = bytearray(good)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        data[at:at + draw(st.integers(0, 8))] = draw(FUZZ_BYTES)
    return bytes(data)


def with_crc(payload: bytes) -> bytes:
    return payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers(-2**70, 2**70) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=4),
    max_leaves=6)


@st.composite
def model_files(draw, good: bytes):
    """A model file whose CRC holds, so the parser past it is reached: a
    header field (or config field) set to arbitrary JSON, a header that is
    not JSON, fuzz bytes spliced into the header or tensors, or one stored
    float set to NaN or an infinity. That kind comes first, so the simplest
    example, which every run tries, is a NaN as the first stored float."""
    payload = good[:-4]
    hlen = struct.unpack("<I", payload[8:12])[0]
    header, tail = json.loads(payload[12:12 + hlen]), payload[12 + hlen:]
    kind = draw(st.sampled_from(["non-finite", "field", "config", "text", "splice"]))
    if kind == "splice":
        return with_crc(draw(mutated(payload)))
    if kind == "non-finite":
        floats, pos = [], 0  # the offset of each stored float
        while pos < len(tail):
            shape = struct.unpack_from(f"<{tail[pos]}I", tail, pos + 1)
            pos += 1 + 4 * len(shape)
            floats += range(pos, pos + 8 * math.prod(shape), 8)
            pos += 8 * math.prod(shape)
        at = draw(st.sampled_from(floats))
        value = struct.pack("<d", draw(st.sampled_from([math.nan, math.inf, -math.inf])))
        return with_crc(payload[:12 + hlen] + tail[:at] + value + tail[at + 8:])
    if kind == "text":
        text = draw(st.one_of(FUZZ_BYTES, st.sampled_from([b"[" * 5000 + b"]" * 5000,
                                                           b"Infinity", b"{}"])))
    else:
        target = header if kind == "field" else header["config"]
        target[draw(st.sampled_from(sorted(target)))] = draw(JSON_VALUES)
        text = json.dumps(header).encode("utf-8")
    return with_crc(payload[:8] + struct.pack("<I", len(text)) + text + tail)


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """A small synthetic data set, a model trained on it and a manifest."""
    root = tmp_path_factory.mktemp("fuzzdata")
    assert main(["synth", "--out", str(root), "--force", "--n", "12", "--kg-dim", "2",
                 "--bg-dim", "3", "--clusters", "2", "--true-hidden", "3"]) == EXIT_OK
    assert main(["train", "--kg", str(root / "kg.tsv"), "--bg", str(root / "bg.tsv"),
                 "--nB", "4", "--nh", "3", "--epochs", "0.5",
                 "--out", str(root / "m.bem")]) == EXIT_OK
    (root / "train.cfg").write_text("nB = 4\nnh = 3\nepochs = 0.5\n", encoding="utf-8")
    return root


# Input role -> the file of the data set that a fuzzed file stands in for.
FILES = {"kg": "kg.tsv", "bg": "bg.tsv", "model": "m.bem", "labels": "labels.tsv",
         "truth": "truth.tsv", "config": "train.cfg", "manifest": "manifest.txt"}


# Input role -> its reader; the model reader has a test of its own.
READERS = {
    "kg": load_table,
    "labels": load_labels,
    "truth": load_table,
    "manifest": read_manifest,
    "config": lambda path: read_config_file(path, {"nB", "nh", "epochs"}),
}


class TestReaders:
    @pytest.mark.parametrize("name", sorted(READERS))
    @settings(max_examples=60, deadline=None)
    @given(draw=st.data())
    def test_only_bem_errors_escape(self, data, tmp_path_factory, name, draw):
        good = (data / FILES[name]).read_bytes()
        path = tmp_path_factory.mktemp("rd") / "input"
        path.write_bytes(draw.draw(st.one_of(FUZZ_BYTES, mutated(good))))
        try:
            READERS[name](path)
        except BemError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(draw=st.data())
    def test_model_reader_raises_only_bem_errors(self, data, tmp_path_factory, draw):
        good = (data / FILES["model"]).read_bytes()
        path = tmp_path_factory.mktemp("md") / "m.bem"
        path.write_bytes(draw.draw(st.one_of(model_files(good), FUZZ_BYTES, mutated(good))))
        try:
            load_model(path)
        except ModelFormatError as exc:
            assert str(exc).startswith(f"{path}: ")


# Ids and class names: any text, lone surrogates included, with the characters
# that the files give a meaning drawn often.
FIELD_TEXT = st.text(st.one_of(st.sampled_from("\t\n\r,\ud800#a"),
                               st.characters(exclude_categories=())), max_size=4)


class TestWriters:
    """A write either raises DataError and leaves no file behind, or reads
    back exactly."""

    @settings(max_examples=300, deadline=None)
    @given(ids=st.lists(FIELD_TEXT, max_size=4, unique=True))
    def test_table_ids_round_trip_or_are_refused(self, tmp_path_factory, ids):
        path = tmp_path_factory.mktemp("wt") / "t.tsv"
        table = EmbeddingTable(tuple(ids), np.arange(2.0 * len(ids)).reshape(-1, 2))
        try:
            write_table(table, path)
        except DataError:
            assert list(path.parent.iterdir()) == []
            return
        back = load_table(path)
        assert back.ids == table.ids and np.array_equal(back.matrix, table.matrix)

    @settings(max_examples=300, deadline=None)
    @given(labels=st.dictionaries(FIELD_TEXT, st.lists(FIELD_TEXT, max_size=3).map(tuple),
                                  max_size=4))
    def test_labels_round_trip_or_are_refused(self, tmp_path_factory, labels):
        path = tmp_path_factory.mktemp("wl") / "l.tsv"
        try:
            write_labels(labels, path)
        except DataError:
            assert list(path.parent.iterdir()) == []
            return
        assert list(load_labels(path).items()) == list(labels.items())


EXIT_CODES = {EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC}
# Every numeric training flag is given, so a fuzzed config cannot make a run slow.
CHEAP = ["--nB", "4", "--nh", "3", "--epochs", "0.5", "--n-iter", "1"]


def cli_argv(d, fuzzed, out, command, role, task):
    """The argv that runs ``command`` with the fuzzed file in ``role``."""
    f = {name: str(d / file) for name, file in FILES.items()}
    f[role] = str(fuzzed)
    config = ["--config", f["config"]] if role == "config" else []
    return {
        "synth": ["synth", "--out", str(fuzzed), "--n", "8",
                  *(["--force"] if role == "force" else [])],
        "train": ["train", "--kg", f["kg"], "--bg", f["bg"], *CHEAP, *config,
                  "--out", str(out / "m.bem")],
        "refine": ["refine", "--kg", f["kg"], "--bg", f["bg"], "--model", f["model"],
                   "--out", str(out / "r")],
        "eval": ["eval", "--table", f["kg"], "--table2", f["bg"], "--labels", f["labels"],
                 "--task", task, "--n-pairs", "50", "--epochs", "5", "--n-users", "5",
                 "--out", str(out / "e")],
        "sweep": ["sweep", "--param", "lr", "--values", "0.1", "0.2",
                  "--metric", "oracle-error", "--truth", f["truth"], "--kg", f["kg"],
                  "--bg", f["bg"], *CHEAP, *config, "--out", str(out / "s")],
        "replay": ["replay", f["manifest"]],
    }[command]


ROLES = {
    "synth": ["out", "force"],
    "train": ["kg", "bg", "config"],
    "refine": ["model", "kg", "bg"],  # a fuzzed model first: see model_files
    "eval": ["kg", "bg", "labels"],
    "sweep": ["kg", "bg", "truth", "config"],
    "replay": ["manifest"],
}


def fuzzed_manifest(draw, d, out):
    """A manifest with one argv record from a fixed list, so that no fuzzed
    command line can write outside ``out``, and fuzzed other lines."""
    argv = draw(st.sampled_from([
        json.dumps(["eval", "--table", str(d / "kg.tsv"), "--task", "histogram",
                    "--n-pairs", "50", "--out", str(out / "e")]),
        json.dumps(["synth", "--out", str(out / "s"), "--n", "8"]),
        json.dumps(["replay", str(d / "manifest.txt")]),
        "[not json", '["eval", 3]', '{"a": 1}', "[]"]))
    rest = b"".join(line for line in (d / "manifest.txt").read_bytes().splitlines(True)
                    if not line.startswith(b"argv"))
    return b"argv = " + argv.encode("utf-8") + b"\n" + draw(
        st.one_of(FUZZ_BYTES, mutated(rest)))


class TestSubcommands:
    @pytest.mark.parametrize("command", sorted(ROLES))
    @settings(max_examples=25, deadline=None)
    @given(draw=st.data())
    def test_exit_code_on_fuzzed_input(self, data, tmp_path_factory, command, draw):
        role = draw.draw(st.sampled_from(ROLES[command]))
        task = draw.draw(st.sampled_from(["classify", "histogram", "cluster-ratio", "recall"]))
        out = tmp_path_factory.mktemp("cli")
        fuzzed = out / "input"
        if role == "manifest":
            content = fuzzed_manifest(draw.draw, data, out)
        elif role in FILES:
            good = (data / FILES[role]).read_bytes()
            variant = model_files(good) if role == "model" else mutated(good)
            content = draw.draw(st.one_of(variant, FUZZ_BYTES))
        else:  # synth's existing --out target
            content = draw.draw(FUZZ_BYTES)
        fuzzed.write_bytes(content)
        # A bad model file is the file's fault: refine exits 0 or 3, never 4.
        codes = {EXIT_OK, EXIT_DATA} if role == "model" else EXIT_CODES
        assert main(cli_argv(data, fuzzed, out, command, role, task)) in codes
