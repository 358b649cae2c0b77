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
