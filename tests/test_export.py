"""Unit tests for the CSV exporter of experiment tables."""

from repro.experiments.base import ExperimentResult
from repro.experiments.export import result_to_csv, write_csv


class TestCsvExport:
    def make_result(self):
        return ExperimentResult(experiment_id="x", title="T",
                                headers=["a", "b"],
                                rows=[[1.5, "u"], [2.5, "v"]])

    def test_round_trip(self):
        text = result_to_csv(self.make_result())
        lines = text.strip().split("\n")
        assert lines[0] == "a,b"
        assert lines[1] == "1.5,u"
        assert lines[2] == "2.5,v"

    def test_write(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(self.make_result(), str(path))
        assert path.read_text().startswith("a,b")
