"""Unit tests for the inductance sweep driving Figs. 4-8."""

import numpy as np
import pytest

from repro import sweep_inductance, units


@pytest.fixture(scope="module")
def sweep_100nm():
    from repro import NODE_100NM
    grid = np.array([0.0, 0.5, 1.0, 2.0, 4.0]) * units.NH_PER_MM
    return sweep_inductance(NODE_100NM.line, NODE_100NM.driver, grid)


class TestSweepStructure:
    def test_array_shapes(self, sweep_100nm):
        n = sweep_100nm.l_values.size
        for attribute in ("h_opt", "k_opt", "tau", "delay_per_length",
                          "l_crit", "rc_sized_delay_per_length"):
            assert getattr(sweep_100nm, attribute).shape == (n,)

    def test_rejects_empty_grid(self):
        from repro import NODE_100NM
        with pytest.raises(ValueError):
            sweep_inductance(NODE_100NM.line, NODE_100NM.driver, [])

    def test_threshold_recorded(self, sweep_100nm):
        assert sweep_100nm.threshold == 0.5


class TestSweepPhysics:
    def test_h_ratio_monotone_increasing(self, sweep_100nm):
        assert np.all(np.diff(sweep_100nm.h_ratio) > 0.0)

    def test_k_ratio_monotone_decreasing(self, sweep_100nm):
        assert np.all(np.diff(sweep_100nm.k_ratio) < 0.0)

    def test_delay_ratio_starts_at_one(self, sweep_100nm):
        assert sweep_100nm.delay_ratio_vs_rc[0] == pytest.approx(1.0)
        assert np.all(np.diff(sweep_100nm.delay_ratio_vs_rc) > 0.0)

    def test_mistuning_penalty_at_least_one(self, sweep_100nm):
        """The RC-sized stage can never beat the RLC optimum."""
        assert np.all(sweep_100nm.mistuning_penalty >= 1.0 - 1e-9)

    def test_damping_margin_crosses_one(self, sweep_100nm):
        """Low-l optima are overdamped, high-l optima underdamped."""
        margin = sweep_100nm.damping_margin
        assert margin[0] < 1.0      # l = 0
        assert margin[-1] > 1.0     # l = 4 nH/mm

    def test_warm_start_consistency_with_single_solves(self, sweep_100nm):
        """Sweep results must match independent single optimizations."""
        from repro import NODE_100NM, optimize_repeater
        index = 2  # l = 1 nH/mm
        line = NODE_100NM.line_with_inductance(
            float(sweep_100nm.l_values[index]))
        single = optimize_repeater(line, NODE_100NM.driver)
        assert sweep_100nm.h_opt[index] == pytest.approx(single.h_opt,
                                                         rel=1e-5)
        assert sweep_100nm.k_opt[index] == pytest.approx(single.k_opt,
                                                         rel=1e-5)

    def test_rc_reference_matches_closed_form(self, sweep_100nm):
        from repro import NODE_100NM, rc_optimum
        reference = rc_optimum(NODE_100NM.line, NODE_100NM.driver)
        assert sweep_100nm.rc_reference.h_opt == reference.h_opt
        assert sweep_100nm.rc_reference.k_opt == reference.k_opt


class TestFailureRecovery:
    def test_warm_start_failure_reseeds_from_rc_optimum(self, monkeypatch):
        """A failing warm start must fall back to the RC-optimum seed.

        The second sweep point's warm start (the first point's optimum) is
        poisoned; the sweep must still complete by re-seeding that point
        from the closed-form RC optimum, matching an unpoisoned sweep.
        """
        from repro import NODE_100NM, OptimizationError, rc_optimum
        from repro.engine import jobs as jobs_module

        rc_ref = rc_optimum(NODE_100NM.line, NODE_100NM.driver)
        rc_seed = (rc_ref.h_opt, rc_ref.k_opt)
        grid = np.array([0.0, 1.0]) * units.NH_PER_MM
        real_optimize = jobs_module.optimize_repeater
        real_many = jobs_module.optimize_repeater_many
        seen = []

        def flaky(line, driver, f=0.5, *, initial=None, **kwargs):
            seen.append(initial)
            if line.l > 0.0 and initial != rc_seed:
                raise OptimizationError("poisoned warm start")
            return real_optimize(line, driver, f, initial=initial, **kwargs)

        def reseed(lines, driver, f=0.5, *, initials=None, **kwargs):
            seen.extend(initials)
            return real_many(lines, driver, f, initials=initials, **kwargs)

        monkeypatch.setattr(jobs_module, "optimize_repeater", flaky)
        # The re-seed retry runs through the lockstep batch call.
        monkeypatch.setattr(jobs_module, "optimize_repeater_many", reseed)
        sweep = sweep_inductance(NODE_100NM.line, NODE_100NM.driver, grid)
        # Point 1 was tried with the warm start, then re-seeded.
        assert seen[1] != rc_seed
        assert seen[2] == rc_seed
        reference = sweep_inductance(NODE_100NM.line, NODE_100NM.driver,
                                     grid)
        assert sweep.h_opt[1] == pytest.approx(reference.h_opt[1],
                                               rel=1e-5)

    def test_unrecoverable_failure_propagates(self, monkeypatch):
        from repro import NODE_100NM, OptimizationError
        from repro.engine import jobs as jobs_module

        def always_fails(*args, **kwargs):
            raise OptimizationError("hopeless")

        monkeypatch.setattr(jobs_module, "optimize_repeater", always_fails)
        monkeypatch.setattr(jobs_module, "optimize_repeater_many",
                            always_fails)
        grid = np.array([0.0, 1.0]) * units.NH_PER_MM
        with pytest.raises(OptimizationError, match="sweep point 0"):
            sweep_inductance(NODE_100NM.line, NODE_100NM.driver, grid)
