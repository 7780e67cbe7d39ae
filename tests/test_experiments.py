"""Tests for the experiment framework and the analytic experiments."""

import pytest

from repro.experiments import (DESCRIPTIONS, REGISTRY, ExperimentResult,
                               all_experiment_ids, run_experiment)
from repro.experiments.runner import FAST_OVERRIDES, build_parser, resolve_ids


class TestFramework:
    def test_all_paper_artifacts_registered(self):
        paper = {"table1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8",
                 "fig9_10", "fig11", "fig12"}
        extensions = {"ext_crosstalk", "ext_miller", "ext_skin", "ext_power",
                      "ext_sensitivity", "ext_bus", "ext_robust",
                      "ext_refit"}
        assert set(all_experiment_ids()) == paper | extensions
        assert set(DESCRIPTIONS) == paper | extensions

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99")

    def test_result_formatting(self):
        result = ExperimentResult(experiment_id="x", title="T",
                                  headers=["a", "bb"],
                                  rows=[[1.0, "y"], [2.5, "zz"],
                                        [3.0, None]],
                                  notes=["hello"])
        table = result.format_table()
        assert "a" in table and "bb" in table and "zz" in table
        assert table.splitlines()[-1].split() == ["3", "—"]
        report = result.format_report()
        assert "== x: T ==" in report
        assert "note: hello" in report

    def test_duplicate_registration_rejected(self):
        from repro.experiments.base import experiment
        with pytest.raises(ValueError):
            experiment("table1", "duplicate")(lambda: None)

    def test_runner_resolve_ids(self):
        assert resolve_ids(["table1", "fig2", "table1"]) == ["table1", "fig2"]
        assert resolve_ids(["all"]) == all_experiment_ids()
        with pytest.raises(SystemExit):
            resolve_ids(["nope"])

    def test_runner_parser(self):
        args = build_parser().parse_args(["run", "fig7", "--fast"])
        assert args.command == "run"
        assert args.fast
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_fast_overrides_reference_real_kwargs(self):
        """Every fast override must be accepted by its experiment runner."""
        import inspect
        for experiment_id, overrides in FAST_OVERRIDES.items():
            signature = inspect.signature(REGISTRY[experiment_id])
            for key in overrides:
                assert key in signature.parameters, (experiment_id, key)


class TestThroughEngine:
    """Every experiment as an ``ExperimentJob`` — the CLI's only path.

    Overrides keep each run small; the ring experiments' short period
    budget leaves fig9_10 and fig11 with no measurable period, so their
    undefined cells take the engine's non-finite screen too.
    """

    TINY = {"segments": 2, "period_budget": 3.0, "steps_per_period": 100}
    OVERRIDES = {
        "table1": {"simulate": False},
        "fig2": {"samples": 50},
        "fig4": {"points": 3},
        "fig5": {"points": 3},
        "fig6": {"points": 3},
        "fig7": {"points": 3, "include_control": False},
        "fig8": {"points": 3},
        "fig9_10": {**TINY, "l_values": (1.8,)},
        "fig11": {**TINY, "l_values": (1.0, 3.0)},
        "fig12": {**TINY, "l_values": (0.5,)},
        "ext_bus": {"inductive_couplings": (0.0, 0.3), "segments": 2},
        "ext_robust": {"grid_points": 2},
        "ext_crosstalk": {"segments": 2, "l_values": (0.0, 1.0)},
        "ext_miller": {"miller_factors": (0.0, 1.0)},
        "ext_skin": {"frequencies": (1e9, 1e10)},
        "ext_power": {"budget_fractions": (1.0, 0.8)},
        "ext_sensitivity": {},
        "ext_refit": {"points": 4},
    }

    def test_every_experiment_succeeds_through_the_engine(self):
        from repro.engine.executor import BatchExecutor
        from repro.engine.jobs import ExperimentJob

        ids = all_experiment_ids()
        assert set(self.OVERRIDES) == set(ids)
        jobs = [ExperimentJob.create(i, **self.OVERRIDES[i]) for i in ids]
        with BatchExecutor(jobs=1) as executor:
            batch = executor.run(jobs)
        failed = {i: outcome.error for i, outcome in zip(ids, batch)
                  if not outcome.ok}
        assert failed == {}
        by_id = dict(zip(ids, batch))
        assert by_id["fig6"].result["rows"][0][2] is None   # l = 0
        assert by_id["fig11"].result["data"]["periods"] == [None, None]
        assert by_id["fig9_10"].result["rows"][0][1] is None  # period

    def test_fig11_onset_treats_none_as_not_oscillating(self):
        from repro.experiments.fig11 import _collapse_onset

        assert _collapse_onset([1.0, 2.0, 3.0], [1e-10, None, 4e-11]) == 2.0
        assert _collapse_onset([1.0, 2.0], [None, 1e-10]) is None


class TestTable1:
    def test_reproduces_paper_columns(self):
        result = run_experiment("table1")
        rows = {row[0]: row for row in result.rows}
        assert rows["250nm"][1] == pytest.approx(14.4, abs=0.05)   # h (mm)
        assert rows["250nm"][2] == pytest.approx(578, abs=1)       # k
        assert rows["250nm"][3] == pytest.approx(305.17, abs=0.1)  # tau (ps)
        assert rows["100nm"][1] == pytest.approx(11.1, abs=0.05)
        assert rows["100nm"][2] == pytest.approx(528, abs=1)
        assert rows["100nm"][3] == pytest.approx(105.94, abs=0.1)

    def test_extraction_columns_close_to_table(self):
        result = run_experiment("table1")
        rows = {row[0]: row for row in result.rows}
        assert rows["250nm"][4] == pytest.approx(203.5, rel=0.10)
        assert rows["100nm"][4] == pytest.approx(123.33, rel=0.10)
        assert rows["250nm"][5] == pytest.approx(4.4, rel=0.01)


class TestFig2:
    def test_three_regimes(self):
        result = run_experiment("fig2")
        by_regime = {row[0]: row for row in result.rows}
        assert by_regime["underdamped"][2] > 0.0          # overshoot
        assert by_regime["overdamped"][2] == 0.0
        assert by_regime["critically damped"][2] == 0.0
        assert by_regime["overdamped"][5]                  # monotonic
        assert not by_regime["underdamped"][5]
        # Overdamped is the slowest to reach 50%.
        assert by_regime["overdamped"][4] > \
            by_regime["critically damped"][4] > by_regime["underdamped"][4]


class TestOptimizerFigures:
    POINTS = 6

    def test_fig4_lcrit_ordering(self):
        result = run_experiment("fig4", points=self.POINTS)
        sweeps = result.data["sweeps"]
        import numpy as np
        assert np.all(sweeps["100nm"].l_crit < sweeps["250nm"].l_crit)

    def test_fig5_ratio_shape(self):
        result = run_experiment("fig5", points=self.POINTS)
        for row in result.rows:
            l_nh, ratio_250, ratio_100 = row
            if l_nh == 0.0:
                assert 0.9 < ratio_250 < 1.0
            else:
                assert ratio_100 > ratio_250 > 0.9

    def test_fig6_k_decreases_toward_matching(self):
        result = run_experiment("fig6", points=self.POINTS)
        ratios_250 = [row[1] for row in result.rows]
        assert all(b < a for a, b in zip(ratios_250, ratios_250[1:]))
        # k stays above the matched size (the asymptote from above).
        for row in result.rows[1:]:
            assert row[1] > row[2]          # 250nm: ratio > matched ratio
            assert row[3] > row[4]          # 100nm

    def test_fig7_final_ratios_match_paper_shape(self):
        result = run_experiment("fig7", points=self.POINTS)
        final = result.data["final_ratios"]
        # Paper: ~2x at 250nm, ~3.5x at 100nm; accept the shape band.
        assert 1.7 < final["250nm"] < 2.4
        assert 2.5 < final["100nm"] < 3.8
        assert final["100nm"] > 1.3 * final["250nm"]

    def test_fig7_control_tracks_100nm(self):
        """The identical-c control overlays the 100nm curve (invariance of
        the normalized ratio to c under the two-pole model)."""
        result = run_experiment("fig7", points=self.POINTS)
        final = result.data["final_ratios"]
        assert final["100nm-eps3.3"] == pytest.approx(final["100nm"],
                                                      rel=1e-3)

    def test_fig8_worst_penalties_match_paper(self):
        result = run_experiment("fig8", points=self.POINTS)
        worst = result.data["worst_penalty"]
        # Paper: ~6% at 250nm, ~12% at 100nm.
        assert 1.03 < worst["250nm"] < 1.12
        assert 1.08 < worst["100nm"] < 1.18
        assert worst["100nm"] > worst["250nm"]
