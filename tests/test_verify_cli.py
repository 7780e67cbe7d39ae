"""End-to-end tests of the ``repro-verify`` command line."""

import json

import pytest

from repro.verify import case_for_regime, dump_case_matrix
from repro.verify.cli import main

#: Cheap oracle subset so CLI tests stay fast.
ORACLES = "two_pole,elmore,kahng_muddu,talbot"


@pytest.fixture
def matrix_file(tmp_path):
    cases = [case_for_regime("250nm", regime, f)
             for regime in ("overdamped", "underdamped")
             for f in (0.2, 0.5)]
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(dump_case_matrix(cases)), encoding="utf-8")
    return str(path)


class TestRun:
    def test_clean_run_exits_zero(self, matrix_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["run", "--matrix", matrix_file, "--oracles", ORACLES,
                     "--out", str(out)])
        assert code == 0
        assert "0 violations" in capsys.readouterr().out
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["schema"] == "repro-verify-report/1"
        assert report["passed"] is True

    def test_run_deterministic_across_workers(self, matrix_file, tmp_path):
        outs = []
        for jobs, name in ((1, "serial.json"), (2, "pool.json")):
            out = tmp_path / name
            assert main(["run", "--matrix", matrix_file,
                         "--oracles", ORACLES, "--jobs", str(jobs),
                         "--out", str(out)]) == 0
            outs.append(out.read_text(encoding="utf-8"))
        assert outs[0] == outs[1]

    def test_unknown_oracle_exits_two(self, matrix_file, capsys):
        code = main(["run", "--matrix", matrix_file, "--oracles", "spice"])
        assert code == 2
        assert "unknown oracle" in capsys.readouterr().err

    def test_bad_jobs_exits_two(self, matrix_file):
        assert main(["run", "--matrix", matrix_file, "--jobs", "0"]) == 2


class TestBlessAndDiff:
    def test_bless_then_diff_clean(self, matrix_file, tmp_path, capsys):
        golden = tmp_path / "golden.json"
        assert main(["bless", "--matrix", matrix_file, "--oracles", ORACLES,
                     "--golden", str(golden)]) == 0
        assert golden.exists()
        assert main(["diff", "--matrix", matrix_file, "--oracles", ORACLES,
                     "--golden", str(golden)]) == 0
        assert "all observations match" in capsys.readouterr().out

    def test_diff_against_empty_store_exits_one(self, matrix_file, tmp_path,
                                                capsys):
        code = main(["diff", "--matrix", matrix_file, "--oracles", ORACLES,
                     "--golden", str(tmp_path / "absent.json")])
        assert code == 1
        assert "golden missing" in capsys.readouterr().out

    def test_diff_detects_tampered_fixture(self, matrix_file, tmp_path,
                                           capsys):
        golden = tmp_path / "golden.json"
        main(["bless", "--matrix", matrix_file, "--oracles", "two_pole",
              "--golden", str(golden)])
        data = json.loads(golden.read_text(encoding="utf-8"))
        key = next(iter(data["entries"]))
        data["entries"][key]["observation"]["tau"] *= 1.001
        golden.write_text(json.dumps(data), encoding="utf-8")
        code = main(["diff", "--matrix", matrix_file, "--oracles", "two_pole",
                     "--golden", str(golden)])
        assert code == 1
        assert "golden changed" in capsys.readouterr().out


class TestNoCache:
    def test_run_writes_nothing_to_the_cache_dir(self, matrix_file,
                                                 tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        assert main(["run", "--matrix", matrix_file,
                     "--oracles", "two_pole"]) == 0
        assert list(cache_dir.iterdir()) == []

    @pytest.mark.parametrize("option", [["--cache-dir", "d"],
                                        ["--store", "tiered"]],
                             ids=["cache-dir", "store"])
    def test_cache_options_are_usage_errors(self, matrix_file, option,
                                            capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--matrix", matrix_file, *option])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"unrecognized arguments: {' '.join(option)}" in err
