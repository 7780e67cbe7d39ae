"""End-to-end tests of the repro-batch CLI."""

import json

import pytest

from repro.engine.cli import main
from repro.experiments.runner import main as experiments_main
from repro.serve.cli import main as serve_main


@pytest.fixture()
def manifest(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(
        [{"kind": "optimize", "node": "100nm", "l_nh_per_mm": l}
         for l in (0.0, 0.5, 1.0)]))
    return path


@pytest.fixture()
def cache_dir(tmp_path):
    return tmp_path / "cache"


class TestRun:
    def test_run_prints_table_and_metrics(self, manifest, cache_dir,
                                          capsys):
        assert main(["run", str(manifest), "--cache-dir",
                     str(cache_dir)]) == 0
        output = capsys.readouterr().out
        assert "optimize" in output
        assert "jobs: 3 total, 3 ok, 0 failed" in output
        assert "cache: 0 hits / 3 misses" in output

    def test_second_run_hits_cache_and_matches(self, manifest, cache_dir,
                                               tmp_path, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["run", str(manifest), "--cache-dir", str(cache_dir),
                     "--out", str(out_a)]) == 0
        capsys.readouterr()
        assert main(["run", str(manifest), "--cache-dir", str(cache_dir),
                     "--out", str(out_b)]) == 0
        assert "cache: 3 hits / 0 misses (100.0% hit rate)" \
            in capsys.readouterr().out
        assert out_a.read_text() == out_b.read_text()

    def test_no_cache_flag(self, manifest, cache_dir, capsys):
        assert main(["run", str(manifest), "--cache-dir", str(cache_dir),
                     "--no-cache"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir",
                     str(cache_dir)]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_failed_job_sets_exit_code(self, tmp_path, cache_dir, capsys):
        path = tmp_path / "poison.json"
        path.write_text(json.dumps([
            {"kind": "optimize", "node": "100nm", "l_nh_per_mm": 0.5},
            {"kind": "optimize", "node": "100nm", "l_nh_per_mm": 2.0,
             "method": "newton", "max_iterations": 1,
             "initial": [1e-4, 5.0], "retry_reseed": False},
        ]))
        assert main(["run", str(path), "--cache-dir",
                     str(cache_dir)]) == 1
        output = capsys.readouterr().out
        assert "FAILED" in output
        assert "1 failed" in output
        assert output.count("ok") >= 1

    def test_out_payload_is_deterministic_json(self, manifest, cache_dir,
                                               tmp_path, capsys):
        out = tmp_path / "results.json"
        assert main(["run", str(manifest), "--cache-dir", str(cache_dir),
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 3
        assert all(p["status"] == "ok" for p in payload)
        assert all("wall_time" not in p for p in payload)
        assert payload[0]["result"]["h_opt"] > 0.0

    def test_bad_manifest_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["run", str(path)]) == 2
        assert "repro-batch" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text, field", [
        ("nan.json", '[{"kind": "delay", "node": "100nm", '
                     '"l_nh_per_mm": NaN, "h": 0.01, "k": 100}]',
         "l_nh_per_mm"),
        ("inf.json", '[{"kind": "optimize", "node": "100nm"}, '
                     '{"kind": "optimize", "node": "100nm", '
                     '"tol": Infinity}]',
         "tol"),
        ("nan.csv", "kind,node,l_nh_per_mm\noptimize,100nm,NaN\n",
         "l_nh_per_mm"),
    ], ids=["json-nan", "json-infinity", "csv-nan"])
    def test_nonfinite_entry_is_refused_before_any_job_runs(
            self, tmp_path, cache_dir, capsys, name, text, field):
        """``json.loads`` takes NaN/Infinity tokens and a CSV cell
        ``NaN`` parses to nan; such an entry fails the whole manifest
        the way a malformed one does, before a row is evaluated."""
        path = tmp_path / name
        path.write_text(text)
        out = tmp_path / "out.json"
        assert main(["run", str(path), "--cache-dir", str(cache_dir),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"field {field!r} is not a finite number" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()
        assert main(["cache", "stats", "--cache-dir",
                     str(cache_dir)]) == 0
        assert "0 entries" in capsys.readouterr().out

    @pytest.mark.parametrize("text, message", [
        ("[1]", "invalid manifest entry #0: expected an object, got 1"),
        ('{"defaults": [1], "jobs": [{"kind": "delay"}]}',
         "manifest 'defaults' must be an object, got [1]"),
    ], ids=["entry", "defaults"])
    def test_non_object_entry_is_refused_before_any_job_runs(
            self, tmp_path, cache_dir, capsys, text, message):
        """An entry or ``defaults`` that is not an object fails the whole
        manifest with exit code 2, not a ``TypeError`` traceback."""
        path = tmp_path / "manifest.json"
        path.write_text(text)
        out = tmp_path / "out.json"
        assert main(["run", str(path), "--cache-dir", str(cache_dir),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()


class TestCacheCommands:
    def test_stats_and_clear(self, manifest, cache_dir, capsys):
        main(["run", str(manifest), "--cache-dir", str(cache_dir)])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir",
                     str(cache_dir)]) == 0
        assert "3 entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir",
                     str(cache_dir)]) == 0
        assert "removed 3 cached results" in capsys.readouterr().out
        main(["cache", "stats", "--cache-dir", str(cache_dir)])
        assert "0 entries" in capsys.readouterr().out


class TestStoreOption:
    def test_tiered_cold_then_warm_pass_replays_identically(
            self, tmp_path, cache_dir, capsys):
        """``--store tiered`` the way a repeated batch pass uses it: a
        cold pass deduplicates the repeated row, a warm pass (a fresh
        memory tier over the same disk) hits every row, and both write
        the same ``--out`` bytes."""
        path = tmp_path / "m.json"
        rows = [{"kind": "optimize", "node": "100nm", "l_nh_per_mm": l}
                for l in (0.0, 0.5, 1.0, 0.5)]
        path.write_text(json.dumps(rows))
        outs, footers = [], []
        for name in ("cold.json", "warm.json"):
            out = tmp_path / name
            assert main(["run", str(path), "--store", "tiered",
                         "--cache-dir", str(cache_dir),
                         "--out", str(out)]) == 0
            footers.append(capsys.readouterr().out)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert "cache: 0 hits / 4 misses" in footers[0]
        assert "1 deduplicated" in footers[0]
        assert "cache: 4 hits / 0 misses (100.0% hit rate)" in footers[1]
        assert "deduplicated" not in footers[1]

    @pytest.mark.parametrize("cli, argv", [
        (serve_main, ["serve", "--store", "tiered"]),
        (experiments_main, ["run", "fig2", "--store", "disk"]),
        (main, ["cache", "stats", "--store", "tiered"]),
    ], ids=["serve", "experiments", "batch-cache"])
    def test_store_is_only_a_batch_run_option(self, cli, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "unrecognized arguments: --store" in err
