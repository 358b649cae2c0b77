import argparse
import dataclasses
import hashlib
import inspect
import json
import re
import shutil
import struct
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from bem import cli
from bem.cli import (EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, UsageError,
                     build_parser, main, resolve_train_options)
from bem.dataio import EmbeddingTable, load_table
from bem.elbo import Edge, edge_output_dim
from bem.errors import ConfigError
from bem.evalkit import make_split, train_classifier
from bem.nets import DiffNet
from bem.synthgen import oracle_error
from bem.trainer import StepRecord, TrainConfig, TrainReport


# Tables, a model trained on them and the manifest of refining with it, all
# written by bem 0.2.2, whose model header config still holds n_bootstrap.
MODEL_0_2_2 = Path(__file__).parent / "data" / "model-0.2.2"


def synth_manifest(tmp_path, name="synth"):
    out = tmp_path / name
    assert main(["synth", "--out", str(out), "--n", "30", "--seed", "4"]) == EXIT_OK
    return out / "manifest.txt"


def command_manifest(tmp_path, command):
    """The manifest of a small synth, train or refine run."""
    synth = synth_manifest(tmp_path)
    if command == "synth":
        return synth
    data, model = synth.parent, tmp_path / "m.bem"
    tables = ["--kg", str(data / "kg.tsv"), "--bg", str(data / "bg.tsv")]
    assert main(["train", *tables, "--out", str(model), "--nB", "10", "--nh", "4",
                 "--epochs", "1"]) == EXIT_OK
    if command == "train":
        return tmp_path / "m.bem.manifest.txt"
    out = tmp_path / "refined"
    assert main(["refine", *tables, "--model", str(model), "--out", str(out)]) == EXIT_OK
    return out / "manifest.txt"


class TestReplay:
    def test_replay_verifies_synth_outputs(self, tmp_path, capsys):
        manifest = synth_manifest(tmp_path)
        assert main(["replay", str(manifest)]) == EXIT_OK
        assert "bit-identical" in capsys.readouterr().out

    def test_refine_with_a_0_2_2_model_replays(self, tmp_path, monkeypatch, capsys):
        shutil.copytree(MODEL_0_2_2, tmp_path, dirs_exist_ok=True)
        monkeypatch.chdir(tmp_path)
        assert b'"n_bootstrap": 30' in Path("model.bem").read_bytes()
        assert main(["replay", "refine_manifest.txt"]) == EXIT_OK
        assert "bit-identical" in capsys.readouterr().out

    def test_line_separator_in_the_output_path_replays(self, tmp_path, capsys):
        manifest = synth_manifest(tmp_path, "out\u2028dir")
        assert main(["replay", str(manifest)]) == EXIT_OK
        assert "bit-identical" in capsys.readouterr().out

    def test_replay_of_a_replay_is_a_data_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"argv = {json.dumps(['replay', str(manifest)])}\n",
                            encoding="utf-8")
        assert main(["replay", str(manifest)]) == EXIT_DATA
        assert "argv record is itself a replay" in capsys.readouterr().err

    def test_hash_without_output_entry_is_a_data_error(self, tmp_path, capsys):
        manifest = synth_manifest(tmp_path)
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write("sha256.ghost.tsv = 00\n")
        assert main(["replay", str(manifest)]) == EXIT_DATA
        assert "no output.ghost.tsv entry" in capsys.readouterr().err

    def test_manifest_records_numpy_blas_and_thread_settings(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        entries = cli.read_manifest(synth_manifest(tmp_path))
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert entries["numpy_version"] == np.__version__
        assert (entries["blas_name"], entries["blas_version"]) == (blas["name"],
                                                                   blas["version"])
        assert entries["env.OMP_NUM_THREADS"] == '"2"'
        assert entries["env.OPENBLAS_NUM_THREADS"] == "unset"
        assert {f"env.{var}" for var in cli.BLAS_ENV_VARS} <= set(entries)
        assert "env.OPENBLAS_CORETYPE" in entries

    def test_replay_does_not_compare_the_recorded_setup(self, tmp_path, capsys):
        manifest = synth_manifest(tmp_path)
        text = manifest.read_text(encoding="utf-8")
        text = re.sub(r"(?m)^(numpy_version|blas_name|blas_version) = .*$", r"\1 = 0.0", text)
        text = re.sub(r"(?m)^(env\.\w+) = .*$", r'\1 = "64"', text)
        manifest.write_text(text, encoding="utf-8")
        assert main(["replay", str(manifest)]) == EXIT_OK
        assert "bit-identical" in capsys.readouterr().out

    def test_manifest_without_the_setup_records_replays(self, tmp_path, capsys):
        # The layout written before manifests recorded numpy, BLAS and threads.
        manifest = synth_manifest(tmp_path)
        lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
        manifest.write_text("".join(line for line in lines if not line.startswith(
            ("numpy_version", "blas_", "env."))), encoding="utf-8")
        assert main(["replay", str(manifest)]) == EXIT_OK
        assert "bit-identical" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["synth", "train", "refine"])
    def test_replay_leaves_its_manifest_byte_identical(self, tmp_path, command, capsys):
        manifest = command_manifest(tmp_path, command)
        recorded = manifest.read_bytes()
        assert main(["replay", str(manifest)]) == EXIT_OK
        assert manifest.read_bytes() == recorded

    def test_replay_of_a_read_only_manifest_copy(self, tmp_path, monkeypatch, capsys):
        # The replay writes the recorded output path's manifest, not this
        # copy, so the copy is only read. A read-only directory does not stop
        # root from writing, so writing the copy is refused outright as well.
        kept = tmp_path / "kept"
        kept.mkdir()
        manifest = shutil.copy(synth_manifest(tmp_path), kept / "manifest.txt")
        recorded = Path(manifest).read_bytes()

        def refuse(path):
            raise PermissionError(f"read-only: {path}")

        monkeypatch.setattr(cli, "_atomic_open", refuse)
        kept.chmod(0o555)
        try:
            assert main(["replay", str(manifest)]) == EXIT_OK
        finally:
            kept.chmod(0o755)
        assert "bit-identical" in capsys.readouterr().out
        assert Path(manifest).read_bytes() == recorded

    @pytest.mark.parametrize("command", ["synth", "train", "refine"])
    def test_failed_replay_keeps_its_evidence(self, tmp_path, command, capsys):
        # The replayed command rewrites the manifest with the new hashes;
        # the recorded (here corrupted) hash must survive, so a second replay
        # fails as the first did.
        manifest = command_manifest(tmp_path, command)
        text = manifest.read_text(encoding="utf-8")
        key, value = re.search(r"(?m)^(sha256\.\S+) = (\w+)$", text).groups()
        flipped = ("1" if value[0] == "0" else "0") + value[1:]
        manifest.write_text(text.replace(f"{key} = {value}", f"{key} = {flipped}"),
                            encoding="utf-8")
        corrupted = manifest.read_bytes()
        for _ in range(2):
            assert main(["replay", str(manifest)]) == EXIT_DATA
            assert "replay mismatch" in capsys.readouterr().err
            assert manifest.read_bytes() == corrupted

    def test_failed_replay_names_the_setup_that_differs(self, tmp_path, capsys):
        manifest = command_manifest(tmp_path, "synth")
        other = "SkylakeX" if cli.blas_kernel() == "Haswell" else "Haswell"
        text = manifest.read_text(encoding="utf-8")
        key, value = re.search(r"(?m)^(sha256\.\S+) = (\w+)$", text).groups()
        flipped = ("1" if value[0] == "0" else "0") + value[1:]
        text = text.replace(f"{key} = {value}", f"{key} = {flipped}")
        text = re.sub(r"(?m)^blas_kernel = .*$", f"blas_kernel = {other}", text)
        manifest.write_text(text, encoding="utf-8")
        assert main(["replay", str(manifest)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"setup differs: blas_kernel recorded {other}, now {cli.blas_kernel()}" in err
        assert err.count("setup differs") == 1

    @pytest.mark.parametrize("argv", ["[not json", "5", '["synth", 3]'])
    def test_malformed_argv_record_is_a_data_error(self, tmp_path, argv):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"argv = {argv}\n", encoding="utf-8")
        assert main(["replay", str(manifest)]) == EXIT_DATA


class TestBlasKernel:
    def test_manifest_records_the_kernel(self, tmp_path):
        entries = cli.read_manifest(synth_manifest(tmp_path))
        assert entries["blas_kernel"] == cli.blas_kernel() != ""

    def test_a_failed_lookup_records_unknown(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise OSError("no such library")

        monkeypatch.setattr(cli.ctypes, "CDLL", fail)
        assert cli.blas_kernel() == "unknown"
        assert cli.read_manifest(synth_manifest(tmp_path))["blas_kernel"] == "unknown"


class TestRunRecord:
    """Each command's manifest lists exactly the files it wrote, with the
    SHA-256 of each hashed one, and every input flag it was given."""

    CASES = {
        "synth": ["synth", "--out", "{run}", "--n", "30"],
        "train": ["train", "--kg", "{d}/kg.tsv", "--bg", "{d}/bg.tsv", "--config", "{cfg}",
                  "--nh", "4", "--epochs", "1", "--out", "{run}/m.bem"],
        "refine": ["refine", "--kg", "{d}/kg.tsv", "--bg", "{d}/bg.tsv", "--model", "{model}",
                   "--out", "{run}"],
        "sweep": ["sweep", "--param", "lambda1", "--values", "1", "0.5", "--kg", "{d}/kg.tsv",
                  "--bg", "{d}/bg.tsv", "--config", "{cfg}", "--nh", "4", "--epochs", "1",
                  "--out", "{run}"],
        "eval-histogram": ["eval", "--table", "{d}/kg.tsv", "--task", "histogram",
                           "--n-pairs", "200", "--out", "{run}"],
        "eval-classify": ["eval", "--table", "{d}/kg.tsv", "--labels", "{d}/labels.tsv",
                          "--task", "classify", "--out", "{run}"],
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_outputs_are_the_files_written(self, tmp_path, case, capsys):
        command_manifest(tmp_path, "train")  # synth/ and the model m.bem
        data = tmp_path / "synth"
        cfg = tmp_path / "train.cfg"
        cfg.write_text("nB = 10\n", encoding="utf-8")
        run = tmp_path / "run"
        argv = [a.format(d=data, cfg=cfg, model=tmp_path / "m.bem", run=run)
                for a in self.CASES[case]]
        assert main(argv) == EXIT_OK
        written = {p.name for p in run.iterdir()}
        [manifest] = [name for name in written if name.endswith("manifest.txt")]
        entries = cli.read_manifest(run / manifest)
        outputs = {key[len("output."):]: Path(value) for key, value in entries.items()
                   if key.startswith("output.")}
        assert set(outputs) == written - {manifest}
        hashed = {name for name in outputs if f"sha256.{name}" in entries}
        assert set(outputs) - hashed == ({"m.bem.steplog.tsv"} if case == "train" else set())
        for name in hashed:
            digest = hashlib.sha256(outputs[name].read_bytes()).hexdigest()
            assert entries[f"sha256.{name}"] == digest
        assert entries.get("input.config") == (str(cfg) if "--config" in argv else None)


class TestAnotherCommandsRecord:
    """An output place whose manifest records another command is refused
    before anything is read, and its files stay as they were."""

    @pytest.mark.parametrize("argv", [
        ["eval", "--table", "{s}/kg.tsv", "--task", "histogram", "--out", "{s}"],
        ["refine", "--kg", "{s}/kg.tsv", "--bg", "{s}/bg.tsv", "--model", "{model}",
         "--out", "{s}"],
    ], ids=["eval", "refine"])
    def test_is_a_usage_error_that_leaves_the_record(self, tmp_path, capsys, argv):
        command_manifest(tmp_path, "train")  # the model m.bem
        s = tmp_path / "s"
        assert main(["synth", "--out", str(s), "--n", "60", "--clusters", "3"]) == EXIT_OK
        before = {p.name: p.read_bytes() for p in s.iterdir()}
        capsys.readouterr()
        assert main([a.format(s=s, model=tmp_path / "m.bem") for a in argv]) == EXIT_USAGE
        assert "would overwrite the record of a synth run" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in s.iterdir()} == before

    def test_the_same_command_writes_again(self, tmp_path, capsys):
        data = synth_manifest(tmp_path).parent
        argv = ["eval", "--table", str(data / "kg.tsv"), "--task", "histogram",
                "--n-pairs", "200", "--out", str(tmp_path / "e")]
        assert main(argv) == EXIT_OK
        assert main(argv) == EXIT_OK
        assert cli.read_manifest(tmp_path / "e" / "manifest.txt")["command"] == "eval"

    def test_synth_force_is_refused_too(self, tmp_path, capsys):
        # --force replaces a directory's files, not another command's record.
        data = synth_manifest(tmp_path).parent
        e = tmp_path / "e"
        assert main(["eval", "--table", str(data / "kg.tsv"), "--task", "histogram",
                     "--n-pairs", "200", "--out", str(e)]) == EXIT_OK
        before = {p.name: p.read_bytes() for p in e.iterdir()}
        capsys.readouterr()
        assert main(["synth", "--out", str(e), "--force", "--n", "30"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "would overwrite the record of" in err and "eval run" in err
        assert {p.name: p.read_bytes() for p in e.iterdir()} == before


class TestUnrecordedOutputs:
    """A rerun of the same command is refused before anything is read when
    the record at its manifest path lists an existing file that the rerun
    does not write, and every file stays as it was."""

    def argvs(self, tmp_path, case):
        data = synth_manifest(tmp_path).parent
        out = str(tmp_path / "out")
        if case == "eval":
            first = ["eval", "--table", str(data / "kg.tsv"), "--task", "histogram",
                     "--n-pairs", "200", "--out", out]
            second = ["eval", "--table", str(data / "kg.tsv"), "--labels",
                      str(data / "labels.tsv"), "--task", "classify", "--out", out]
            return first, second
        sweep = ["sweep", "--param", "nh", "--kg", str(data / "kg.tsv"), "--bg",
                 str(data / "bg.tsv"), "--nB", "4", "--epochs", "1", "--out", out, "--values"]
        return sweep + ["3", "4"], sweep + ["5", "6"]

    @pytest.mark.parametrize("case, stale", [("eval", "histogram.tsv"),
                                             ("sweep", "model_nh_3.bem")])
    def test_is_a_usage_error_that_leaves_every_file(self, tmp_path, capsys, case, stale):
        first, second = self.argvs(tmp_path, case)
        assert main(first) == EXIT_OK
        out = tmp_path / "out"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(second) == EXIT_USAGE
        assert f"would leave {out / stale} unrecorded" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_an_identical_sweep_rerun_writes(self, tmp_path):
        # test_the_same_command_writes_again covers eval.
        first, _ = self.argvs(tmp_path, "sweep")
        assert main(first) == EXIT_OK
        before = cli.read_manifest(tmp_path / "out" / "manifest.txt")
        assert main(first) == EXIT_OK
        after = cli.read_manifest(tmp_path / "out" / "manifest.txt")
        assert {k: v for k, v in after.items() if k.startswith(("output.", "sha256."))} == {
            k: v for k, v in before.items() if k.startswith(("output.", "sha256."))}

    def test_a_rerun_after_the_stale_file_is_removed_writes(self, tmp_path):
        first, second = self.argvs(tmp_path, "eval")
        assert main(first) == EXIT_OK
        (tmp_path / "out" / "histogram.tsv").unlink()
        assert main(second) == EXIT_OK
        entries = cli.read_manifest(tmp_path / "out" / "manifest.txt")
        assert entries["cfg.task"] == "classify"


class TestRunDirectory:
    """A record's relative paths start in the directory its run was made in,
    and a replay runs only from there."""

    def make_runs(self, tmp_path, monkeypatch):
        # In a/: a synth, then a histogram eval of its KG table, by relative
        # paths; the test then goes on from a/'s parent.
        a = tmp_path / "a"
        a.mkdir()
        monkeypatch.chdir(a)
        assert main(["synth", "--out", "s", "--n", "60"]) == EXIT_OK
        assert main(["eval", "--table", "s/kg.tsv", "--task", "histogram",
                     "--n-pairs", "200", "--out", "e"]) == EXIT_OK
        monkeypatch.chdir(tmp_path)
        return a.resolve()

    @staticmethod
    def tree(root):
        return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}

    def test_an_eval_from_another_directory_leaves_every_file(self, tmp_path, monkeypatch,
                                                              capsys):
        a = self.make_runs(tmp_path, monkeypatch)
        before = self.tree(tmp_path)
        capsys.readouterr()
        assert main(["eval", "--table", "a/s/kg.tsv", "--labels", "a/s/labels.tsv",
                     "--task", "classify", "--out", "a/e"]) == EXIT_USAGE
        assert f"would leave {a / 'e' / 'histogram.tsv'} unrecorded" in capsys.readouterr().err
        assert self.tree(tmp_path) == before

    def test_replay_from_another_directory_is_refused_and_creates_nothing(
            self, tmp_path, monkeypatch, capsys):
        a = self.make_runs(tmp_path, monkeypatch)
        before = self.tree(tmp_path)
        capsys.readouterr()
        assert main(["replay", "a/s/manifest.txt"]) == EXIT_USAGE
        assert f"replay from {a}, where the run was made" in capsys.readouterr().err
        assert self.tree(tmp_path) == before

    @pytest.mark.parametrize("record", ["s/manifest.txt", "e/manifest.txt"])
    def test_replay_from_the_run_directory_verifies(self, tmp_path, monkeypatch, capsys,
                                                    record):
        a = self.make_runs(tmp_path, monkeypatch)
        monkeypatch.chdir(a)
        assert main(["replay", record]) == EXIT_OK
        assert "bit-identical" in capsys.readouterr().out

    def test_a_run_directory_with_a_line_break_replays(self, tmp_path, monkeypatch, capsys):
        # The manifest sits outside the run's directory, so run_dir holds its name.
        run = tmp_path / "x\ny"
        run.mkdir()
        monkeypatch.chdir(run)
        assert main(["synth", "--out", "../s", "--n", "30"]) == EXIT_OK
        assert main(["replay", "../s/manifest.txt"]) == EXIT_OK
        assert "bit-identical" in capsys.readouterr().out

    @pytest.mark.parametrize("run_dir", ["..", "5", "[not json"])
    def test_a_run_dir_record_that_is_not_a_json_string_is_a_data_error(
            self, tmp_path, monkeypatch, capsys, run_dir):
        a = self.make_runs(tmp_path, monkeypatch)
        manifest = a / "s" / "manifest.txt"
        text = manifest.read_text(encoding="utf-8")
        manifest.write_text(re.sub(r"(?m)^run_dir = .*$", f"run_dir = {run_dir}", text),
                            encoding="utf-8")
        monkeypatch.chdir(a)
        assert main(["replay", "s/manifest.txt"]) == EXIT_DATA
        assert "run_dir record is not a JSON string" in capsys.readouterr().err

    def test_a_moved_tree_replays_from_its_new_place(self, tmp_path, monkeypatch, capsys):
        a = self.make_runs(tmp_path, monkeypatch)
        moved = tmp_path / "moved" / "b"
        moved.parent.mkdir()
        a.rename(moved)
        monkeypatch.chdir(moved)
        assert main(["replay", "s/manifest.txt"]) == EXIT_OK
        assert "bit-identical" in capsys.readouterr().out


class TestModelInput:
    def test_tensor_dims_past_int64_exit_with_data_code(self, tmp_path, capsys):
        # A valid CRC over a tensor header of (2**32 - 1) x (2**32 - 1) values.
        data = synth_manifest(tmp_path).parent
        model = tmp_path / "m.bem"
        assert main(["train", "--kg", str(data / "kg.tsv"), "--bg", str(data / "bg.tsv"),
                     "--nB", "4", "--nh", "3", "--epochs", "0.2",
                     "--out", str(model)]) == EXIT_OK
        payload = model.read_bytes()[:-4]
        hlen = struct.unpack("<I", payload[8:12])[0]
        payload = payload[:12 + hlen] + struct.pack("<BII", 2, 2**32 - 1, 2**32 - 1)
        model.write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
        assert main(["refine", "--kg", str(data / "kg.tsv"), "--bg", str(data / "bg.tsv"),
                     "--model", str(model), "--out", str(tmp_path / "r")]) == EXIT_DATA
        assert f"{model}: the tensors do not match the header" in capsys.readouterr().err

    def test_non_finite_weight_exits_with_data_code_naming_the_file(self, tmp_path, capsys):
        # A valid CRC over a NaN in the projection net's W1: the file's fault.
        data = synth_manifest(tmp_path).parent
        model = tmp_path / "m.bem"
        assert main(["train", "--kg", str(data / "kg.tsv"), "--bg", str(data / "bg.tsv"),
                     "--nB", "4", "--nh", "3", "--epochs", "0.2",
                     "--out", str(model)]) == EXIT_OK
        payload = model.read_bytes()[:-4]
        at = 12 + struct.unpack("<I", payload[8:12])[0] + 1 + 2 * 4  # W1's first value
        payload = payload[:at] + struct.pack("<d", float("nan")) + payload[at + 8:]
        model.write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
        out = tmp_path / "r"
        assert main(["refine", "--kg", str(data / "kg.tsv"), "--bg", str(data / "bg.tsv"),
                     "--model", str(model), "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{model}: " in err and "non-finite values in W1" in err
        assert not out.exists()

    @pytest.mark.parametrize("change", [
        {"normalize_inputs": "false"}, {"n_batch": "x"}, {"n_batch": True},
        {"epochs": -1}, {"learning_rate": "0.1"}, {"epochs": float("inf")},
        {"lambda2": float("inf")}])
    def test_mistyped_header_config_exits_with_data_code(self, tmp_path, capsys, change):
        data = synth_manifest(tmp_path).parent
        model = tmp_path / "m.bem"
        assert main(["train", "--kg", str(data / "kg.tsv"), "--bg", str(data / "bg.tsv"),
                     "--nB", "4", "--nh", "3", "--epochs", "0.2",
                     "--out", str(model)]) == EXIT_OK
        payload = model.read_bytes()[:-4]
        hlen = struct.unpack("<I", payload[8:12])[0]
        header = json.loads(payload[12:12 + hlen])
        header["config"].update(change)
        text = json.dumps(header, sort_keys=True).encode()
        payload = payload[:8] + struct.pack("<I", len(text)) + text + payload[12 + hlen:]
        model.write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
        out = tmp_path / "r"
        assert main(["refine", "--kg", str(data / "kg.tsv"), "--bg", str(data / "bg.tsv"),
                     "--model", str(model), "--out", str(out)]) == EXIT_DATA
        assert "bad header" in capsys.readouterr().err
        assert not out.exists()


class TestTrainUsage:
    @pytest.mark.parametrize("flag", ["--epochs", "--lambda1", "--lambda2", "--lr"])
    def test_infinite_setting_exits_with_data_code(self, tmp_path, capsys, flag):
        data = synth_manifest(tmp_path).parent
        model = tmp_path / "m.bem"
        assert main(["train", "--kg", str(data / "kg.tsv"), "--bg", str(data / "bg.tsv"),
                     "--nB", "4", "--nh", "3", flag, "inf", "--out", str(model)]) == EXIT_DATA
        assert "finite" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("log", ["m.bem", "{tmp}/m.bem", "sub/../m.bem", "m.bem.manifest.txt"])
    def test_log_naming_the_model_or_its_manifest_is_a_usage_error(
            self, tmp_path, capsys, monkeypatch, log):
        # The step log would replace the model (or its manifest) after it is written.
        data = synth_manifest(tmp_path).parent
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--kg", str(data / "kg.tsv"), "--bg", str(data / "bg.tsv"),
                     "--nB", "4", "--nh", "3", "--out", "m.bem",
                     "--log", log.format(tmp=tmp_path)]) == EXIT_USAGE
        assert "would overwrite the model or its manifest" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["synth"]

    @pytest.mark.parametrize("flag, value, message", [
        # A learning rate near the float limit overflows the first update.
        ("--lr", "1e308", "non-finite parameter after update in "),
        # A shift prior variance near the float floor overflows the KL terms.
        ("--lambda1", "1e-308", "non-finite gradient in "),
    ], ids=["lr", "lambda1"])
    def test_overflowing_update_exits_with_numeric_code_and_no_warning(
            self, tmp_path, capsys, flag, value, message):
        # adam_step's own error names the tensor, and numpy's warnings stay quiet.
        data = synth_manifest(tmp_path).parent
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--kg", str(data / "kg.tsv"), "--bg", str(data / "bg.tsv"),
                         "--nB", "10", "--nh", "4", "--epochs", "1", flag, value,
                         "--out", str(tmp_path / "m.bem")])
        assert code == EXIT_NUMERIC
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert message in err and "RuntimeWarning" not in err


class TestSeedRange:
    """Seeds outside [0, 2**64) would share another seed's stream: refused
    before anything is written."""

    def test_negative_train_seed_exits_with_data_code(self, tmp_path, capsys):
        data = synth_manifest(tmp_path).parent
        assert main(["train", "--kg", str(data / "kg.tsv"), "--bg", str(data / "bg.tsv"),
                     "--nB", "4", "--nh", "3", "--seed", "-1",
                     "--out", str(tmp_path / "m.bem")]) == EXIT_DATA
        assert "seed must be in [0, 2**64)" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["synth"]

    def test_synth_seed_past_64_bits_exits_with_data_code(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["synth", "--out", str(out), "--n", "30",
                     "--seed", str(2 ** 64)]) == EXIT_DATA
        assert "seed must be in [0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_is_accepted(self, tmp_path):
        out = tmp_path / "s"
        assert main(["synth", "--out", str(out), "--n", "30",
                     "--seed", str(2 ** 64 - 1)]) == EXIT_OK


class TestSynthScales:
    """Scales must be finite and non-negative, signal_std finite and positive,
    and the data they give finite: a bad one (one that overflows) is named
    before anything is written."""

    @pytest.mark.parametrize("flag, value, field", [
        ("--signal-std", "inf", "signal_std"),
        ("--signal-std", "nan", "signal_std"),
        ("--signal-std", "0", "signal_std"),
        ("--signal-std", "1e-320", "signal_std"),
        ("--delta-scale", "inf", "delta_scale"),
        ("--jitter", "inf", "jitter_scale"),
        ("--noise-scale", "nan", "noise_scale"),
        ("--noise-scale", "-1", "noise_scale"),
        ("--signal-std", "1e308", "signal_std"),
        ("--delta-scale", "1e308", "delta_scale"),
        ("--jitter", "1e308", "jitter_scale"),
        ("--noise-scale", "1e308", "noise_scale"),
    ])
    def test_bad_scale_exits_with_data_code(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "s"
        assert main(["synth", "--out", str(out), "--n", "50", flag, value]) == EXIT_DATA
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("signal_std", [1e13, 1e300])
    def test_large_finite_signal_std_sets_the_entry_std(self, tmp_path, signal_std):
        # Past 1e12 times the raw net's std the standardization used to be skipped.
        out = tmp_path / "s"
        assert main(["synth", "--out", str(out), "--n", "200",
                     "--signal-std", repr(signal_std)]) == EXIT_OK
        clean = load_table(out / "truth.tsv").matrix / signal_std
        assert abs(clean.mean()) < 1e-12 and clean.std() == pytest.approx(1.0, rel=1e-9)


class TestNonUtf8Input:
    @pytest.mark.parametrize("target", ["table", "labels", "truth", "manifest", "config"])
    def test_exit_code_is_data(self, tmp_path, capsys, target):
        manifest = synth_manifest(tmp_path)
        data = manifest.parent
        bad = data / f"{target}.bad"
        bad.write_bytes(b"e00000\t\xe9\n")
        argv = {
            "table": ["eval", "--table", str(bad), "--task", "histogram"],
            "labels": ["eval", "--table", str(data / "bg.tsv"), "--labels", str(bad),
                       "--task", "classify"],
            "truth": ["sweep", "--param", "lr", "--values", "0.1", "0.2",
                      "--metric", "oracle-error", "--truth", str(bad),
                      "--kg", str(data / "kg.tsv"), "--bg", str(data / "bg.tsv"),
                      "--out", str(tmp_path / "sweep")],
            "manifest": ["replay", str(bad)],
            "config": ["train", "--kg", str(data / "kg.tsv"), "--bg", str(data / "bg.tsv"),
                       "--config", str(bad), "--out", str(tmp_path / "m.bem")],
        }[target]
        assert main(argv) == EXIT_DATA
        assert f"{bad}:1: not UTF-8" in capsys.readouterr().err


class TestLineBreaks:
    """Manifest and config lines end at \\n, \\r\\n and \\r only."""

    @pytest.mark.parametrize("brk", ["\n", "\r"])
    def test_argument_with_a_line_break_is_a_usage_error(self, tmp_path, capsys, brk):
        # Its manifest record would split into two lines that replay cannot read.
        assert main(["synth", "--out", str(tmp_path / f"a{brk}b"), "--n", "50"]) == EXIT_USAGE
        assert "line breaks" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"])
    def test_other_separators_stay_in_the_line(self, tmp_path, sep):
        path = tmp_path / "f.txt"
        path.write_text(f"a = 1{sep}b = 2\rc = 3\r\nd = 4\n", encoding="utf-8")
        want = {"a": f"1{sep}b = 2", "c": "3", "d": "4"}
        assert cli.read_manifest(path) == want
        assert cli.read_config_file(path, {"a", "c", "d"}) == {
            key: (lineno, want[key]) for lineno, key in enumerate("acd", 1)}


class TestEvalUsage:
    def test_classifier_flag_defaults_are_the_signature_defaults(self):
        args = build_parser().parse_args(["eval", "--table", "t", "--task", "classify"])
        for flag, function, name in [("train_frac", make_split, "train_fraction"),
                                     ("reg", train_classifier, "reg"),
                                     ("epochs", train_classifier, "epochs"),
                                     ("lr", train_classifier, "lr")]:
            default = inspect.signature(function).parameters[name].default
            assert getattr(args, flag) == default
            assert type(getattr(args, flag)) is type(default)

    @pytest.mark.parametrize("task", ["classify", "cluster-ratio", "recall"])
    def test_task_without_labels_is_a_usage_error(self, tmp_path, capsys, task):
        data = synth_manifest(tmp_path).parent
        assert main(["eval", "--table", str(data / "kg.tsv"), "--task", task]) == EXIT_USAGE
        assert f"--task {task} needs --labels" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--splits", "0"], ["--splits", "-1"],
                                       ["--project-dim", "4", "--n-proj", "0"]])
    def test_non_positive_counts_are_usage_errors(self, tmp_path, capsys, flags):
        data = synth_manifest(tmp_path).parent
        assert main(["eval", "--table", str(data / "kg.tsv"), "--labels",
                     str(data / "labels.tsv"), "--task", "classify", *flags]) == EXIT_USAGE
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("n_users", ["0", "-3"])
    def test_non_positive_user_count_is_a_usage_error(self, tmp_path, capsys, n_users):
        data = synth_manifest(tmp_path).parent
        assert main(["eval", "--table", str(data / "kg.tsv"), "--labels",
                     str(data / "labels.tsv"), "--task", "recall",
                     "--n-users", n_users]) == EXIT_USAGE
        assert "must be positive" in capsys.readouterr().err

    def test_overflowing_classifier_step_is_refused_without_warning(self, tmp_path, capsys):
        # The first steps at this rate overflow; the classifier refuses them.
        data = synth_manifest(tmp_path).parent
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["eval", "--table", str(data / "kg.tsv"), "--labels",
                         str(data / "labels.tsv"), "--task", "classify", "--lr", "1e308"])
        assert code == EXIT_OK
        assert [str(w.message) for w in caught] == []
        assert "RuntimeWarning" not in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--epochs", "-1"], ["--epochs", "0"], ["--lr", "-1"],
                                       ["--reg", "-1"], ["--reg", "inf"], ["--lr", "inf"]])
    def test_meaningless_classifier_settings_exit_with_data_code(self, tmp_path, capsys,
                                                                 flags):
        data = synth_manifest(tmp_path).parent
        assert main(["eval", "--table", str(data / "kg.tsv"), "--labels",
                     str(data / "labels.tsv"), "--task", "classify", *flags]) == EXIT_DATA
        assert "classifier needs" in capsys.readouterr().err


def read_report(out_dir):
    lines = (out_dir / "report.txt").read_text(encoding="utf-8").splitlines()
    return dict(line.split(" = ", 1) for line in lines)


def read_strict_summary(out_dir):
    """summary.json, refusing the bare NaN and Infinity tokens that RFC 8259
    readers reject."""
    def refuse(token):
        raise ValueError(f"bare {token} in summary.json")
    return json.loads((out_dir / "summary.json").read_text(encoding="utf-8"),
                      parse_constant=refuse)


class TestEvalTasks:
    @pytest.mark.parametrize("task, flags, keys", [
        ("recall", [], ["k", "n_users", "recall", "hits", "retrieved", "skipped_triggers"]),
        ("cluster-ratio", [], ["cluster_ratio", "max_within", "min_between", "n_classes"]),
        ("classify", ["--splits", "2", "--project-dim", "4", "--n-proj", "3"],
         ["n_labeled", "splits", "accuracy_mean", "accuracy_sd", "accuracy.split0",
          "accuracy.split1", "project_dim", "n_proj", "proj_accuracy_mean",
          "proj_accuracy_stderr"]),
    ], ids=["recall", "cluster-ratio", "classify-projected"])
    def test_report_summary_and_replay(self, tmp_path, capsys, task, flags, keys):
        data, out = synth_manifest(tmp_path).parent, tmp_path / "e"
        assert main(["eval", "--table", str(data / "kg.tsv"), "--labels",
                     str(data / "labels.tsv"), "--task", task, *flags,
                     "--out", str(out)]) == EXIT_OK
        report = read_report(out)
        assert report["task"] == task and set(report) == {"task", *keys}
        assert {k: str(v) for k, v in read_strict_summary(out).items()} == report
        capsys.readouterr()
        assert main(["replay", str(out / "manifest.txt")]) == EXIT_OK
        assert "bit-identical" in capsys.readouterr().out

    def test_infinite_cluster_ratio_is_a_string_in_summary(self, tmp_path):
        # a1 and b0 coincide: the between-class gap is 0, the ratio infinite.
        table, labels, out = tmp_path / "t.tsv", tmp_path / "labels.tsv", tmp_path / "e"
        table.write_text("a0\t0\t0\na1\t1\t0\nb0\t1\t0\nb1\t2\t1\n", encoding="utf-8")
        labels.write_text("a0\tA\na1\tA\nb0\tB\nb1\tB\n", encoding="utf-8")
        with pytest.warns(UserWarning, match="cluster ratio is infinite"):
            assert main(["eval", "--table", str(table), "--labels", str(labels),
                         "--task", "cluster-ratio", "--out", str(out)]) == EXIT_OK
        summary = read_strict_summary(out)
        assert summary["cluster_ratio"] == "inf" and summary["min_between"] == 0.0
        assert read_report(out)["cluster_ratio"] == "inf"


class TestRefineTables:
    def test_bg_table_of_another_width_names_both_tables(self, tmp_path, capsys):
        model = command_manifest(tmp_path, "train").parent / "m.bem"
        narrow = tmp_path / "narrow"
        assert main(["synth", "--out", str(narrow), "--n", "30", "--seed", "4",
                     "--bg-dim", "8"]) == EXIT_OK
        kg, bg, out = tmp_path / "synth" / "kg.tsv", narrow / "bg.tsv", tmp_path / "r"
        capsys.readouterr()
        assert main(["refine", "--kg", str(kg), "--bg", str(bg), "--model", str(model),
                     "--out", str(out)]) == EXIT_DATA
        assert f"model does not fit tables {kg} / {bg}" in capsys.readouterr().err
        assert not out.exists()


class TestOutOfMemory:
    # A real huge allocation fails at once or later depending on the host's
    # overcommit setting, so the task raises the error numpy would.
    @pytest.mark.parametrize("task, function", [("histogram", "similarity_histogram"),
                                                ("classify", "random_project")])
    def test_failed_allocation_exits_with_data_code(self, tmp_path, capsys, monkeypatch,
                                                    task, function):
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB for an array with shape "
                              "(1099511627776,) and data type float64")

        monkeypatch.setattr(cli, function, fail)
        data = synth_manifest(tmp_path).parent
        out = tmp_path / "eval"
        assert main(["eval", "--table", str(data / "kg.tsv"), "--labels",
                     str(data / "labels.tsv"), "--task", task, "--project-dim", "4",
                     "--out", str(out)]) == EXIT_DATA
        assert "error: out of memory (Unable to allocate" in capsys.readouterr().err
        assert not out.exists()


class TestSweepOracleError:
    N = 300

    def sweep(self, tmp_path, truth_path, name):
        data = tmp_path / "synth"
        out = tmp_path / name
        code = main(["sweep", "--param", "lr", "--values", "0.001", "0.002",
                     "--metric", "oracle-error", "--truth", str(truth_path),
                     "--kg", str(data / "kg.tsv"), "--bg", str(data / "bg.tsv"),
                     "--nB", "50", "--nh", "32", "--epochs", "1", "--out", str(out)])
        return code, out

    def truth_lines(self, tmp_path):
        data = tmp_path / "synth"
        assert main(["synth", "--out", str(data), "--n", str(self.N), "--seed", "6"]) == EXIT_OK
        header, *rows = (data / "truth.tsv").read_text(encoding="utf-8").splitlines()
        return header, rows

    def test_reordered_truth_gives_the_same_metric(self, tmp_path):
        header, rows = self.truth_lines(tmp_path)
        reversed_path = tmp_path / "truth_reversed.tsv"
        reversed_path.write_text("\n".join([header, *rows[::-1]]) + "\n", encoding="utf-8")
        code, straight = self.sweep(tmp_path, tmp_path / "synth" / "truth.tsv", "straight")
        assert code == EXIT_OK
        code, flipped = self.sweep(tmp_path, reversed_path, "flipped")
        assert code == EXIT_OK
        assert load_sweep(straight) == load_sweep(flipped)

    def test_metric_is_the_refine_output_in_input_scale(self, tmp_path):
        # The nets see unit rows; the metric multiplies the refined BG rows by
        # the input BG row norms before comparing with the truth.
        self.truth_lines(tmp_path)
        data = tmp_path / "synth"
        code, out = self.sweep(tmp_path, data / "truth.tsv", "sweep")
        assert code == EXIT_OK
        norms = np.linalg.norm(load_table(data / "bg.tsv").matrix, axis=1, keepdims=True)
        truth = load_table(data / "truth.tsv")
        for row in load_sweep(out).splitlines()[1:]:
            _, value, _, metric, _ = row.split("\t")
            refined = tmp_path / f"refined_{value}"
            assert main(["refine", "--kg", str(data / "kg.tsv"), "--bg", str(data / "bg.tsv"),
                         "--model", str(out / f"model_lr_{value}.bem"),
                         "--out", str(refined)]) == EXIT_OK
            bg_refined = load_table(refined / "bg_refined.tsv")
            rescaled = EmbeddingTable(ids=bg_refined.ids, matrix=bg_refined.matrix * norms)
            assert float(metric) == oracle_error(rescaled, truth)

    def test_missing_truth_flag_is_a_usage_error_before_reading(self, tmp_path, capsys):
        # The tables share no id, so reading them first would exit 3.
        self.truth_lines(tmp_path)
        data = tmp_path / "synth"
        lines = (data / "kg.tsv").read_text(encoding="utf-8").splitlines()
        kg = tmp_path / "kg_other_ids.tsv"
        kg.write_text("\n".join([lines[0], *("x" + line for line in lines[1:])]) + "\n",
                      encoding="utf-8")
        out = tmp_path / "sweep"
        assert main(["sweep", "--param", "lr", "--values", "0.001", "0.002",
                     "--metric", "oracle-error", "--kg", str(kg), "--bg", str(data / "bg.tsv"),
                     "--out", str(out)]) == EXIT_USAGE
        assert "--metric oracle-error needs --truth" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_truth_rows_exit_with_data_code(self, tmp_path, capsys):
        header, rows = self.truth_lines(tmp_path)
        partial = tmp_path / "truth_partial.tsv"
        partial.write_text("\n".join([header, *rows[5:]]) + "\n", encoding="utf-8")
        code, out = self.sweep(tmp_path, partial, "partial")
        assert code == EXIT_DATA
        assert "5 refined ids have no truth row" in capsys.readouterr().err
        assert not (out / "sweep.tsv").exists()


class TestSweepChecksEveryValueFirst:
    def test_a_value_past_the_entity_count_writes_nothing(self, tmp_path, capsys):
        data = tmp_path / "synth"
        assert main(["synth", "--out", str(data), "--n", "60", "--seed", "2"]) == EXIT_OK
        out = tmp_path / "sweep"
        assert main(["sweep", "--param", "nB", "--values", "10", "100",
                     "--kg", str(data / "kg.tsv"), "--bg", str(data / "bg.tsv"),
                     "--nh", "4", "--epochs", "1", "--out", str(out)]) == EXIT_DATA
        assert "n_batch 100 exceeds entity count 60" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("param, values", [("nh", ["8", "8"]), ("epochs", ["1", "1.0"])])
    def test_a_repeated_value_writes_nothing(self, tmp_path, capsys, param, values):
        # Both runs would write one model file, and sweep.tsv would repeat its row.
        data = synth_manifest(tmp_path).parent
        out = tmp_path / "sweep"
        assert main(["sweep", "--param", param, "--values", *values,
                     "--kg", str(data / "kg.tsv"), "--bg", str(data / "bg.tsv"),
                     "--nB", "4", "--nh", "3", "--epochs", "1", "--out", str(out)]) == EXIT_USAGE
        assert "would overwrite the model for another --values entry" in capsys.readouterr().err
        assert not out.exists()


class TestOutputOverInput:
    """An output that resolves to an input is refused before anything is read:
    exit 2, a message naming both flags, and the input's bytes unchanged.
    Each case copies a fixture file to the name of the output it would meet."""

    TABLES = ["--kg", "{d}/kg.tsv", "--bg", "{d}/bg.tsv"]
    TRAIN = ["--nB", "4", "--nh", "3", "--epochs", "1"]
    CASES = {
        "train-out-kg": ({}, ["train", *TABLES, *TRAIN, "--out", "{d}/kg.tsv"],
                         "kg.tsv", "--out", "--kg"),
        "train-log-bg": ({}, ["train", *TABLES, *TRAIN, "--out", "{d}/m2.bem",
                              "--log", "{d}/bg.tsv"], "bg.tsv", "--log", "--bg"),
        "train-manifest-config": (
            {"m2.bem.manifest.txt": "cfg.txt"},
            ["train", *TABLES, "--config", "{d}/m2.bem.manifest.txt", "--out", "{d}/m2.bem"],
            "m2.bem.manifest.txt", "--out", "--config"),
        "refine-kg": ({"kg_refined.tsv": "kg.tsv"},
                      ["refine", "--kg", "{d}/kg_refined.tsv", "--bg", "{d}/bg.tsv",
                       "--model", "{d}/m.bem", "--out", "{d}"], "kg_refined.tsv", "--out", "--kg"),
        "refine-manifest-model": ({"manifest.txt": "m.bem"},
                                  ["refine", *TABLES, "--model", "{d}/manifest.txt",
                                   "--out", "{d}/sub/.."], "manifest.txt", "--out", "--model"),
        "sweep-model-bg": ({"model_nh_3.bem": "bg.tsv"},
                           ["sweep", "--param", "nh", "--values", "3", "4", "--kg", "{d}/kg.tsv",
                            "--bg", "{d}/model_nh_3.bem", *TRAIN, "--out", "{d}"],
                           "model_nh_3.bem", "--out", "--bg"),
        "sweep-table-truth": ({"sweep.tsv": "bg.tsv"},
                              ["sweep", "--param", "nh", "--values", "3", "4", *TABLES, *TRAIN,
                               "--metric", "oracle-error", "--truth", "{d}/sweep.tsv",
                               "--out", "{d}"], "sweep.tsv", "--out", "--truth"),
        "eval-report-table": ({"report.txt": "kg.tsv"},
                              ["eval", "--table", "{d}/report.txt", "--task", "histogram",
                               "--out", "{d}"], "report.txt", "--out", "--table"),
        "eval-summary-labels": ({"summary.json": "labels.tsv"},
                                ["eval", "--table", "{d}/kg.tsv", "--labels", "{d}/summary.json",
                                 "--task", "classify", "--out", "{d}"],
                                "summary.json", "--out", "--labels"),
        "eval-histogram-table2": ({"histogram.tsv": "bg.tsv"},
                                  ["eval", "--table", "{d}/kg.tsv", "--table2",
                                   "{d}/histogram.tsv", "--task", "histogram", "--out", "{d}"],
                                  "histogram.tsv", "--out", "--table2"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_is_a_usage_error_that_leaves_the_input(self, tmp_path, capsys, case):
        copies, argv, victim, out_flag, in_flag = self.CASES[case]
        command_manifest(tmp_path, "train")  # synth/ and the model m.bem
        data = tmp_path / "synth"
        work = tmp_path / "work"
        work.mkdir()
        for name in ("kg.tsv", "bg.tsv", "labels.tsv"):
            shutil.copy(data / name, work / name)
        shutil.copy(tmp_path / "m.bem", work / "m.bem")
        (work / "cfg.txt").write_text("nh = 3\n", encoding="utf-8")
        for name, source in copies.items():
            shutil.copy(work / source, work / name)
        before = {p.name: p.read_bytes() for p in work.iterdir()}
        capsys.readouterr()
        assert main([a.format(d=work) for a in argv]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{out_flag} " in err and f"({in_flag})" in err and "would overwrite" in err
        assert {p.name: p.read_bytes() for p in work.iterdir()} == before
        assert victim in before


def load_sweep(out_dir):
    return (out_dir / "sweep.tsv").read_text(encoding="utf-8")


# Flag / config key -> (TrainConfig field, default, config-file value, flag value).
TRAIN_KEYS = {
    "nB": ("n_batch", 500, 7, 9),
    "epochs": ("epochs", 20.0, 2.5, 3.0),
    "lambda1": ("lambda1", 1.0, 0.5, 0.25),
    "lambda2": ("lambda2", 1.0, 2.0, 4.0),
    "lr": ("learning_rate", 0.001, 0.01, 0.02),
    "nh": ("hidden_dim", 500, 8, 6),
    "n_iter": ("n_iter", 1, 2, 3),
    "seed": ("seed", 0, 11, 12),
}


def resolve(tmp_path, flags=(), config=None):
    argv = ["train", "--kg", "kg.tsv", "--bg", "bg.tsv", "--out", "m.bem", *flags]
    if config is not None:
        path = tmp_path / "train.cfg"
        path.write_text(config, encoding="utf-8")
        argv += ["--config", str(path)]
    return resolve_train_options(build_parser().parse_args(argv))


class TestTrainOptionPrecedence:
    """Flags beat the config file, which beats the built-in defaults."""

    @pytest.mark.parametrize("key", sorted(TRAIN_KEYS))
    def test_train_key(self, tmp_path, key):
        field, default, in_file, in_flag = TRAIN_KEYS[key]
        flag = "--" + key.replace("_", "-")
        cases = [((), None, default), ((), f"{key} = {in_file}\n", in_file),
                 ((flag, str(in_flag)), f"{key} = {in_file}\n", in_flag)]
        for flags, config, expected in cases:
            value = getattr(resolve(tmp_path, flags, config)[0], field)
            assert value == expected and type(value) is type(default)

    @pytest.mark.parametrize("flags, config, expected", [
        ((), None, True),
        ((), "normalize = false\n", False),
        (("--normalize",), "normalize = off\n", True),
        (("--no-normalize",), "normalize = yes\n", False),
    ], ids=["default", "config", "flag-on", "flag-off"])
    def test_normalize(self, tmp_path, flags, config, expected):
        assert resolve(tmp_path, flags, config)[0].normalize_inputs is expected

    @pytest.mark.parametrize("flags, config, expected", [
        ((), None, Edge.TRANSLATION),
        ((), "edge = inner\n", Edge.INNER_PRODUCT),
        ((), "mode = i\n", Edge.IDENTITY),
        (("--edge", "identity"), "edge = inner\n", Edge.IDENTITY),
        (("--mode", "p"), "mode = i\nedge = inner\n", Edge.INNER_PRODUCT),
        (("--mode", "i"), "edge = identity\n", Edge.IDENTITY),
    ], ids=["default", "config-edge", "config-mode", "flag-edge", "flag-mode", "mode-i"])
    def test_mode_and_edge(self, tmp_path, flags, config, expected):
        assert resolve(tmp_path, flags, config)[0].edge is expected

    @pytest.mark.parametrize("flags, config, expected", [
        ((), None, "intersect"),
        ((), "align = strict\n", "strict"),
        (("--align", "intersect"), "align = strict\n", "intersect"),
    ], ids=["default", "config", "flag"])
    def test_align(self, tmp_path, flags, config, expected):
        assert resolve(tmp_path, flags, config)[1] == expected

    @pytest.mark.parametrize("flags, config", [
        ((), "mode = x\n"),
        ((), "align = sideways\n"),
        (("--mode", "i"), "edge = inner\n"),
    ], ids=["mode", "align", "mode-i-edge"])
    def test_bad_choices_are_usage_errors(self, tmp_path, flags, config):
        with pytest.raises(UsageError):
            resolve(tmp_path, flags, config)

    def test_unknown_edge_in_config_exits_with_usage_code(self, tmp_path, capsys):
        config = tmp_path / "train.cfg"
        config.write_text("edge = bogus\n", encoding="utf-8")
        assert main(["train", "--kg", "kg.tsv", "--bg", "bg.tsv", "--out", "m.bem",
                     "--config", str(config)]) == EXIT_USAGE
        assert "unknown edge 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("line, code, message", [
        ("normalize = maybe", EXIT_DATA, "bad config value for normalize: not a boolean: 'maybe'"),
        ("nB = 1.5", EXIT_DATA, "bad config value for nB: invalid literal for int()"),
        ("edge = bogus", EXIT_USAGE, "unknown edge 'bogus'"),
        ("mode = x", EXIT_USAGE, "unknown mode 'x'"),
        ("align = sideways", EXIT_USAGE, "unknown alignment policy 'sideways'"),
        ("nB = 1", EXIT_DATA, "n_batch must be at least 2"),
    ], ids=["normalize", "nB", "edge", "mode", "align", "nB-invalid"])
    def test_bad_config_value_names_its_line(self, tmp_path, capsys, line, code, message):
        config = tmp_path / "train.cfg"
        config.write_text(f"# a comment\nlr = 0.5\n{line}\n", encoding="utf-8")
        assert main(["train", "--kg", "kg.tsv", "--bg", "bg.tsv", "--out", "m.bem",
                     "--config", str(config)]) == code
        assert f"{config}:3: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, lines", [
        ((), "mode = i\nedge = inner"),
        (("--mode", "i"), "nh = 4\nedge = inner"),
        (("--edge", "inner"), "nh = 4\nmode = i"),
    ], ids=["both-in-file", "edge-in-file", "mode-in-file"])
    def test_mode_i_with_another_edge_names_the_file_line(self, tmp_path, capsys, flags,
                                                          lines):
        # The edge's line when the file sets it, else the mode's.
        config = tmp_path / "train.cfg"
        config.write_text(f"# a comment\n{lines}\n", encoding="utf-8")
        assert main(["train", "--kg", "kg.tsv", "--bg", "bg.tsv", "--out", "m.bem",
                     "--config", str(config), *flags]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            f"usage error: {config}:3: --mode i fixes the identity edge")

    @pytest.mark.parametrize("flags, code, err", [
        (("--nB", "1"), EXIT_DATA, "error: n_batch must be at least 2\n"),
        (("--mode", "i", "--edge", "inner"), EXIT_USAGE,
         "usage error: --mode i fixes the identity edge; drop --edge or use identity\n"),
    ], ids=["nB", "mode-i-edge"])
    def test_bad_flag_values_name_no_config_line(self, tmp_path, capsys, flags, code, err):
        config = tmp_path / "train.cfg"
        config.write_text("nB = 7\nedge = identity\n", encoding="utf-8")
        assert main(["train", "--kg", "kg.tsv", "--bg", "bg.tsv", "--out", "m.bem",
                     "--config", str(config), *flags]) == code
        assert capsys.readouterr().err == err

    def test_pair_block_is_a_constant_not_a_knob(self, tmp_path, capsys):
        # trainer.PAIR_BLOCK moves the trained bits, so only a re-pin changes
        # it: no TrainConfig field, train or sweep flag, or config key sets it.
        assert not [f for f in dataclasses.fields(TrainConfig) if "block" in f.name.lower()]
        subs = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
        for command in ("train", "sweep"):
            options = [o for a in subs.choices[command]._actions for o in a.option_strings]
            assert not [o for o in options if "block" in o.lower()], command
        with pytest.raises(ConfigError, match="exactly the keys"):
            TrainConfig.from_dict({**TrainConfig().to_dict(), "pair_block": 3})
        config = tmp_path / "train.cfg"
        for key in ("pair_block", "PAIR_BLOCK", "block"):
            config.write_text(f"{key} = 3\n", encoding="utf-8")
            assert main(["train", "--kg", "kg.tsv", "--bg", "bg.tsv", "--out", "m.bem",
                         "--config", str(config)]) == EXIT_DATA
            assert f"{config}:1: unknown config key {key!r}" in capsys.readouterr().err

    def test_retired_bootstrap_flag_is_a_usage_error(self):
        assert main(["train", "--kg", "kg.tsv", "--bg", "bg.tsv", "--out", "m.bem",
                     "--bootstrap", "4"]) == EXIT_USAGE

    def test_repeated_config_key_names_both_lines(self, tmp_path, capsys):
        data = synth_manifest(tmp_path).parent
        config = tmp_path / "train.cfg"
        config.write_text("lambda1 = 1\n# a comment\nnh = 4\nlambda1 = 0.1\n",
                          encoding="utf-8")
        out = tmp_path / "m.bem"
        assert main(["train", "--kg", str(data / "kg.tsv"), "--bg", str(data / "bg.tsv"),
                     "--out", str(out), "--config", str(config)]) == EXIT_DATA
        assert (f"{config}:4: duplicate config key 'lambda1' (first set on line 1)"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_retired_bootstrap_config_key_is_unknown(self, tmp_path, capsys):
        config = tmp_path / "train.cfg"
        config.write_text("bootstrap = 4\n", encoding="utf-8")
        assert main(["train", "--kg", "kg.tsv", "--bg", "bg.tsv", "--out", "m.bem",
                     "--config", str(config)]) == EXIT_DATA
        assert "unknown config key 'bootstrap'" in capsys.readouterr().err


def fake_train(kg, bg, cfg):
    """Nets of the right shapes without training: manifests record the config."""
    rng = np.random.default_rng(0)
    edge_dim = edge_output_dim(cfg.edge, bg.dim)
    proj = DiffNet.random(kg.dim, cfg.hidden_dim, bg.dim, rng)
    infer = DiffNet.random(kg.dim + bg.dim, cfg.hidden_dim, 2 * kg.dim + 2 * edge_dim, rng)
    return proj, infer, TrainReport(records=[StepRecord(1, 0.0, 0.0, 0.0, 0.0)])


def cfg_lines(manifest):
    return [line for line in manifest.read_text(encoding="utf-8").splitlines()
            if line.startswith("cfg.")]


class TestManifestConfig:
    def test_train_defaults(self, tmp_path, monkeypatch):
        data = synth_manifest(tmp_path).parent
        monkeypatch.setattr(cli, "train", fake_train)
        out = tmp_path / "m.bem"
        assert main(["train", "--kg", str(data / "kg.tsv"), "--bg", str(data / "bg.tsv"),
                     "--out", str(out)]) == EXIT_OK
        assert cfg_lines(tmp_path / "m.bem.manifest.txt") == [
            "cfg.edge = translation", "cfg.epochs = 20.0", "cfg.hidden_dim = 500",
            "cfg.lambda1 = 1.0", "cfg.lambda2 = 1.0", "cfg.learning_rate = 0.001",
            "cfg.n_batch = 500", "cfg.n_iter = 1",
            "cfg.normalize_inputs = True", "cfg.seed = 0"]

    def test_train_flags_and_config(self, tmp_path, monkeypatch):
        data = synth_manifest(tmp_path).parent
        config = tmp_path / "train.cfg"
        config.write_text("lr = 0.5\nnh = 7\nnormalize = no\nedge = inner\n",
                          encoding="utf-8")
        monkeypatch.setattr(cli, "train", fake_train)
        assert main(["train", "--kg", str(data / "kg.tsv"), "--bg", str(data / "bg.tsv"),
                     "--out", str(tmp_path / "m.bem"), "--config", str(config),
                     "--nB", "12", "--epochs", "3", "--lambda1", "2", "--lambda2", "0.5",
                     "--nh", "9", "--n-iter", "2",
                     "--seed", "8"]) == EXIT_OK
        assert cfg_lines(tmp_path / "m.bem.manifest.txt") == [
            "cfg.edge = inner", "cfg.epochs = 3.0", "cfg.hidden_dim = 9",
            "cfg.lambda1 = 2.0", "cfg.lambda2 = 0.5", "cfg.learning_rate = 0.5",
            "cfg.n_batch = 12", "cfg.n_iter = 2",
            "cfg.normalize_inputs = False", "cfg.seed = 8"]

    def test_synth_defaults(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--out", str(out)]) == EXIT_OK
        assert cfg_lines(out / "manifest.txt") == [
            "cfg.bg_dim = 32", "cfg.delta_scale = 0.1", "cfg.jitter_scale = 0.1",
            "cfg.kg_dim = 16", "cfg.n_clusters = 10", "cfg.n_entities = 2000",
            "cfg.noise_scale = 0.3", "cfg.seed = 0", "cfg.signal_std = 0.4",
            "cfg.true_hidden = 24"]

    def test_synth_flags(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--out", str(out), "--n", "40", "--kg-dim", "3",
                     "--bg-dim", "5", "--clusters", "4", "--delta-scale", "1",
                     "--noise-scale", "0.2", "--true-hidden", "6", "--jitter", "0.3",
                     "--signal-std", "2", "--seed", "9"]) == EXIT_OK
        assert cfg_lines(out / "manifest.txt") == [
            "cfg.bg_dim = 5", "cfg.delta_scale = 1.0", "cfg.jitter_scale = 0.3",
            "cfg.kg_dim = 3", "cfg.n_clusters = 4", "cfg.n_entities = 40",
            "cfg.noise_scale = 0.2", "cfg.seed = 9", "cfg.signal_std = 2.0",
            "cfg.true_hidden = 6"]


TRAIN_FLAGS = ["--kg", "--bg", "--mode", "--edge", "--nB", "--epochs", "--lambda1",
               "--lambda2", "--lr", "--nh", "--n-iter", "--seed",
               "--normalize", "--no-normalize", "--align", "--config"]
TRAIN_CHOICES = ["p,i", "strict,intersect", "translation,inner,identity"]


class TestHelp:
    """Each --help lists the same flags, in order, and the same choices."""

    @pytest.mark.parametrize("command, flags, choices", [
        ("", ["--version", "--help"], ["synth,train,refine,eval,sweep,replay"]),
        ("synth", ["--out", "--n", "--kg-dim", "--bg-dim", "--clusters", "--delta-scale",
                   "--noise-scale", "--true-hidden", "--jitter", "--signal-std", "--seed",
                   "--force", "--help"], []),
        ("train", TRAIN_FLAGS + ["--out", "--log", "--help"], TRAIN_CHOICES),
        ("refine", ["--kg", "--bg", "--model", "--out", "--help"], []),
        ("eval", ["--table", "--table2", "--labels", "--task", "--seed", "--out",
                  "--train-frac", "--splits", "--reg", "--epochs", "--lr", "--project-dim",
                  "--n-proj", "--n-pairs", "--bins", "--k", "--n-users", "--help"],
         ["classify,histogram,cluster-ratio,recall"]),
        ("sweep", ["--param", "--values", "--metric", "--truth"] + TRAIN_FLAGS
         + ["--out", "--help"],
         ["elbo,oracle-error", "lambda1,lambda2,lr,nB,nh,epochs"] + TRAIN_CHOICES),
        ("replay", ["--help"], []),
    ], ids=["bem", "synth", "train", "refine", "eval", "sweep", "replay"])
    def test_flags_and_choices(self, capsys, monkeypatch, command, flags, choices):
        monkeypatch.setenv("COLUMNS", "80")
        assert main([command, "--help"] if command else ["--help"]) == EXIT_OK
        text = capsys.readouterr().out
        listed = list(dict.fromkeys(re.findall(r"--[A-Za-z][\w-]*", text)))
        assert listed == flags
        assert sorted(set(re.findall(r"\{([^}]*)\}", text))) == sorted(choices)
