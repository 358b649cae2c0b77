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
from bem.evalkit import make_split, train_classifier
from bem.nets import DiffNet
from bem.synthgen import oracle_error
from bem.trainer import StepRecord, TrainReport


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
        assert {f"env.{var}" for var in cli.BLAS_THREAD_VARS} <= set(entries)

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

    @pytest.mark.parametrize("argv", ["[not json", "5", '["synth", 3]'])
    def test_malformed_argv_record_is_a_data_error(self, tmp_path, argv):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"argv = {argv}\n", encoding="utf-8")
        assert main(["replay", str(manifest)]) == EXIT_DATA


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
        assert "model file ends prematurely" in capsys.readouterr().err

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
        assert cli.read_config_file(path, {"a", "c", "d"}) == want


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
