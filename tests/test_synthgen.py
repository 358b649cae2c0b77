import numpy as np
import pytest

from bem.cli import EXIT_DATA, main
from bem.dataio import EmbeddingTable, write_table
from bem.errors import DataError
from bem.synthgen import (SynthSpec, generate, load_truth, oracle_error,
                          write_truth)


class TestLoadTruth:
    def test_round_trip(self, tmp_path):
        truth = generate(SynthSpec(n_entities=30, seed=2))
        write_truth(truth, tmp_path / "truth.tsv")
        table, attrs = load_truth(tmp_path / "truth.tsv")
        assert table.ids == truth.clean_bg.ids
        assert np.array_equal(table.matrix, truth.clean_bg.matrix)
        assert attrs == truth.attributes

    def test_bytes_match_per_value_format(self, tmp_path):
        truth = generate(SynthSpec(n_entities=30, seed=2))
        write_truth(truth, tmp_path / "truth.tsv")
        lines = [f"#dim={truth.clean_bg.dim}"]
        for eid, row in zip(truth.clean_bg.ids, truth.clean_bg.matrix):
            lines.append(eid + "\t" + truth.attributes[eid] + "\t"
                         + "\t".join(format(v, ".17g") for v in row))
        assert (tmp_path / "truth.tsv").read_bytes() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("text, line", [
        ("e0\tc0\t1.0\n\tc1\t2.0\n", 2),
        ("e0\tc0\t1.0\ne1\tc1\t2.0\ne0\tc2\t3.0\n", 3),
        ("#dim=1\ne0\tc0\t1.0\ne1\tc1\tnan\n", 3),
        ("e0\tc0\t1.0\ne1\tc\xe9\t2.0\n", 2),
    ], ids=["empty-id", "duplicate-id", "non-finite", "non-utf8"])
    def test_row_errors_name_the_line(self, tmp_path, text, line):
        path = tmp_path / "truth.tsv"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(DataError, match=f":{line}:"):
            load_truth(path)

    @pytest.mark.parametrize("text", [
        "#dim=two\ne0\tc0\t1.0\t2.0\n",
        "#dim=0\ne0\tc0\t1.0\n",
        "#dim=2\ne0\tc0\t1.0\tabc\n",
        "e0\tc0\t1.0\t2.0\ne1\tc0\t1.0\n",
        "#dim=2\ne0\tc0\t1.0\n",
    ], ids=["bad-header", "zero-header", "non-numeric", "ragged-no-header",
            "header-mismatch"])
    def test_malformed_file_raises_data_error(self, tmp_path, text):
        path = tmp_path / "truth.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError):
            load_truth(path)

    def test_sweep_exits_with_data_code_on_bad_truth(self, tmp_path, capsys):
        truth = generate(SynthSpec(n_entities=20, seed=1))
        write_table(truth.kg, tmp_path / "kg.tsv")
        write_table(truth.bg, tmp_path / "bg.tsv")
        (tmp_path / "truth.tsv").write_text("#dim=x\n", encoding="utf-8")
        code = main(["sweep", "--param", "lr", "--values", "0.1", "0.2",
                     "--metric", "oracle-error", "--truth", str(tmp_path / "truth.tsv"),
                     "--kg", str(tmp_path / "kg.tsv"), "--bg", str(tmp_path / "bg.tsv"),
                     "--out", str(tmp_path / "sweep")])
        assert code == EXIT_DATA
        assert "bad #dim header" in capsys.readouterr().err


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
