import numpy as np
import pytest

from bem.cli import EXIT_DATA, main
from bem.dataio import write_table
from bem.errors import DataError
from bem.synthgen import SynthSpec, generate, load_truth, write_truth


class TestLoadTruth:
    def test_round_trip(self, tmp_path):
        truth = generate(SynthSpec(n_entities=30, seed=2))
        write_truth(truth, tmp_path / "truth.tsv")
        table, attrs = load_truth(tmp_path / "truth.tsv")
        assert table.ids == truth.clean_bg.ids
        assert np.array_equal(table.matrix, truth.clean_bg.matrix)
        assert attrs == truth.attributes

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
