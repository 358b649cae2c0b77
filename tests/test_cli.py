import pytest

from bem.cli import EXIT_DATA, EXIT_OK, main


def synth_manifest(tmp_path):
    out = tmp_path / "synth"
    assert main(["synth", "--out", str(out), "--n", "30", "--seed", "4"]) == EXIT_OK
    return out / "manifest.txt"


class TestReplay:
    def test_replay_verifies_synth_outputs(self, tmp_path, capsys):
        manifest = synth_manifest(tmp_path)
        assert main(["replay", str(manifest)]) == EXIT_OK
        assert "bit-identical" in capsys.readouterr().out

    def test_hash_without_output_entry_is_a_data_error(self, tmp_path, capsys):
        manifest = synth_manifest(tmp_path)
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write("sha256.ghost.tsv = 00\n")
        assert main(["replay", str(manifest)]) == EXIT_DATA
        assert "no output.ghost.tsv entry" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", ["[not json", "5", '["synth", 3]'])
    def test_malformed_argv_record_is_a_data_error(self, tmp_path, argv):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"argv = {argv}\n", encoding="utf-8")
        assert main(["replay", str(manifest)]) == EXIT_DATA


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

    def test_missing_truth_rows_exit_with_data_code(self, tmp_path, capsys):
        header, rows = self.truth_lines(tmp_path)
        partial = tmp_path / "truth_partial.tsv"
        partial.write_text("\n".join([header, *rows[5:]]) + "\n", encoding="utf-8")
        code, out = self.sweep(tmp_path, partial, "partial")
        assert code == EXIT_DATA
        assert "5 refined ids have no truth row" in capsys.readouterr().err
        assert not (out / "sweep.tsv").exists()


def load_sweep(out_dir):
    return (out_dir / "sweep.tsv").read_text(encoding="utf-8")
