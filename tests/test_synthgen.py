import numpy as np
import pytest

from bem.cli import EXIT_DATA, EXIT_OK, main
from bem.dataio import EmbeddingTable, load_labels, load_table, write_table
from bem.errors import DataError
from bem.synthgen import SynthSpec, generate, oracle_error


class TestLoadTruth:
    """``bem synth`` writes truth.tsv as a plain table (the cluster labels go
    to labels.tsv only); ``bem sweep --truth`` reads it with ``load_table``."""

    def synth(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--out", str(out), "--n", "30", "--seed", "2"]) == EXIT_OK
        return out, generate(SynthSpec(n_entities=30, seed=2))

    def sweep(self, tmp_path, truth_bytes: bytes) -> int:
        truth = generate(SynthSpec(n_entities=20, seed=1))
        write_table(truth.kg, tmp_path / "kg.tsv")
        write_table(truth.bg, tmp_path / "bg.tsv")
        (tmp_path / "truth.tsv").write_bytes(truth_bytes)
        return main(["sweep", "--param", "lr", "--values", "0.1", "0.2",
                     "--metric", "oracle-error", "--truth", str(tmp_path / "truth.tsv"),
                     "--kg", str(tmp_path / "kg.tsv"), "--bg", str(tmp_path / "bg.tsv"),
                     "--out", str(tmp_path / "sweep")])

    def test_round_trip(self, tmp_path):
        out, truth = self.synth(tmp_path)
        table = load_table(out / "truth.tsv")
        assert table.ids == truth.clean_bg.ids
        assert np.array_equal(table.matrix, truth.clean_bg.matrix)
        labels = load_labels(out / "labels.tsv")
        assert labels == {eid: (c,) for eid, c in truth.attributes.items()}

    def test_bytes_match_per_value_format(self, tmp_path):
        out, truth = self.synth(tmp_path)
        lines = [f"#dim={truth.clean_bg.dim}"]
        for eid, row in zip(truth.clean_bg.ids, truth.clean_bg.matrix):
            lines.append(eid + "\t" + "\t".join(format(v, ".17g") for v in row))
        assert (out / "truth.tsv").read_bytes() == ("\n".join(lines) + "\n").encode()
        write_table(truth.clean_bg, tmp_path / "clean.tsv")
        assert (out / "truth.tsv").read_bytes() == (tmp_path / "clean.tsv").read_bytes()

    @pytest.mark.parametrize("text, line", [
        ("e0\t1.0\n\t2.0\n", 2),
        ("e0\t1.0\ne1\t2.0\ne0\t3.0\n", 3),
        ("#dim=1\ne0\t1.0\ne1\tnan\n", 3),
        ("e0\t1.0\ne1\t2.0\xe9\n", 2),
    ], ids=["empty-id", "duplicate-id", "non-finite", "non-utf8"])
    def test_row_errors_name_the_line(self, tmp_path, capsys, text, line):
        assert self.sweep(tmp_path, text.encode("latin-1")) == EXIT_DATA
        assert f"truth.tsv:{line}:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "#dim=two\ne0\t1.0\t2.0\n",
        "#dim=0\ne0\t1.0\n",
        "#dim=2\ne0\t1.0\tabc\n",
        "e0\t1.0\t2.0\ne1\t1.0\n",
        "#dim=2\ne0\t1.0\n",
    ], ids=["bad-header", "zero-header", "non-numeric", "ragged-no-header",
            "header-mismatch"])
    def test_malformed_file_raises_data_error(self, tmp_path, capsys, text):
        assert self.sweep(tmp_path, text.encode("utf-8")) == EXIT_DATA
        assert "truth.tsv" in capsys.readouterr().err
        assert not (tmp_path / "sweep" / "sweep.tsv").exists()

    def test_sweep_exits_with_data_code_on_bad_truth(self, tmp_path, capsys):
        assert self.sweep(tmp_path, b"#dim=x\n") == EXIT_DATA
        assert "bad #dim header" in capsys.readouterr().err


class TestGenerate:
    @pytest.mark.parametrize("delta_scale", [1e160, 1e200])
    def test_shift_past_the_squares_limit_is_standardized(self, delta_scale):
        # The net outputs' squares overflow: their std is taken at unit scale.
        spec = SynthSpec(n_entities=200, delta_scale=delta_scale)
        truth = generate(spec)
        assert truth.clean_bg.matrix.std() == pytest.approx(spec.signal_std, rel=1e-12)

    def test_tables_share_one_ids_tuple(self):
        truth = generate(SynthSpec(n_entities=30, seed=2))
        assert truth.clean_bg.ids is truth.kg.ids and truth.bg.ids is truth.kg.ids


class TestOracleError:
    def test_truth_rows_are_matched_by_id(self):
        truth = generate(SynthSpec(n_entities=40, seed=3))
        refined = EmbeddingTable(ids=truth.bg.ids, matrix=truth.bg.matrix)
        clean = truth.clean_bg
        shuffled = clean.subset(np.random.default_rng(0).permutation(len(clean)))
        expected = float(np.mean((truth.bg.matrix - clean.matrix) ** 2))
        assert oracle_error(refined, truth) == expected
        assert oracle_error(refined, shuffled) == expected

    def test_missing_truth_rows_are_a_data_error(self):
        truth = generate(SynthSpec(n_entities=40, seed=3))
        partial = truth.clean_bg.subset(range(35))
        with pytest.raises(DataError, match="5 refined ids have no truth row"):
            oracle_error(truth.bg, partial)
