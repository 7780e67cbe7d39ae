"""End-to-end tests of the repro-experiments CLI."""

import os

import pytest

from repro.experiments.runner import main


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "table1" in output
        assert "fig11" in output
        assert "ext_bus" in output

    def test_run_single_experiment(self, capsys):
        assert main(["run", "fig2"]) == 0
        output = capsys.readouterr().out
        assert "fig2" in output
        assert "underdamped" in output

    def test_run_with_fast_override(self, capsys):
        assert main(["run", "fig5", "--fast"]) == 0
        output = capsys.readouterr().out
        assert "h ratio" in output

    def test_run_writes_report_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        assert main(["run", "fig2", "--out", str(out_file)]) == 0
        capsys.readouterr()
        content = out_file.read_text()
        assert "fig2" in content

    def test_out_overwrites_by_default(self, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        assert main(["run", "fig2", "--out", str(out_file)]) == 0
        assert main(["run", "fig2", "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert out_file.read_text().count("== fig2:") == 1

    def test_out_appends_with_flag(self, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        assert main(["run", "fig2", "--out", str(out_file)]) == 0
        assert main(["run", "fig2", "--out", str(out_file),
                     "--append"]) == 0
        capsys.readouterr()
        assert out_file.read_text().count("== fig2:") == 2

    def test_run_with_worker_pool(self, capsys):
        assert main(["run", "fig2", "table1", "--fast", "--jobs", "2"]) == 0
        output = capsys.readouterr().out
        assert "== fig2:" in output
        assert "== table1:" in output
        assert output.index("fig2") < output.index("table1")
        assert "2 total, 2 ok, 0 failed (2 workers)" in output

    def test_run_with_cache_replays(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        args = ["run", "fig2", "--cache", "--cache-dir", str(cache_dir)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "[cached]" in second
        assert first.split("[")[0] == second.split("[")[0]

    def test_run_writes_csv(self, tmp_path, capsys):
        csv_dir = tmp_path / "csv"
        assert main(["run", "fig2", "table1", "--csv-dir",
                     str(csv_dir)]) == 0
        capsys.readouterr()
        assert sorted(os.listdir(csv_dir)) == ["fig2.csv", "table1.csv"]
        assert "regime" in (csv_dir / "fig2.csv").read_text()

    def test_unknown_id_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_zero_jobs_is_refused_before_any_experiment_runs(self, capsys):
        with pytest.raises(SystemExit, match="--jobs must be >= 1, got 0"):
            main(["run", "fig2", "--jobs", "0"])
        assert "fig2" not in capsys.readouterr().out

    def test_dedup_and_order_preserved(self, capsys):
        assert main(["run", "fig2", "fig2", "table1"]) == 0
        output = capsys.readouterr().out
        assert output.count("== fig2:") == 1
        assert output.index("fig2") < output.index("table1")
