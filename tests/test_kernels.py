"""Array-first kernel layer: batched pipeline vs the scalar reference.

The contract under test is *bitwise* agreement: the kernels and the
scalar path share one set of expression graphs (``moments_terms``,
``two_pole_values``, ``critical_inductance_terms``), so moments, poles,
response samples, critical inductance and — with the scalar shim now
delegating to the batch-of-1 kernel — threshold delays must match to the
last bit, not merely to a tolerance.
"""

import numpy as np
import pytest

from repro import (ParameterError, Stage, canonical_response,
                   compute_moments, compute_poles, critical_inductance,
                   threshold_delay, units)
from repro.core import brent_threshold_delay
from repro.core.kernels import (DAMPING_BY_CODE, ResponseBatch, StageBatch,
                                as_response_batch, classify_damping_v,
                                compute_moments_v, critical_inductance_v,
                                poles_v, response_v, threshold_delay_v)
from repro.core.response import StepResponse
from repro.core.sweep import sweep_inductance
from repro.engine import DelayJob
from repro.errors import DelaySolverError, OptimizationError
from repro.verify import unit_tolerance


@pytest.fixture
def mixed_batch(node, rc_opt):
    """A batch spanning all three damping regimes at one sizing."""
    l_crit = critical_inductance(Stage(line=node.line, driver=node.driver,
                                       h=rc_opt.h_opt, k=rc_opt.k_opt))
    stages = [Stage(line=node.line.with_inductance(factor * l_crit),
                    driver=node.driver, h=rc_opt.h_opt, k=rc_opt.k_opt)
              for factor in (0.0, 0.4, 1.0, 2.5, 6.0)]
    return stages, StageBatch.from_stages(stages)


class TestStageBatch:
    def test_from_arrays_broadcasts_scalars(self, generic_line,
                                            generic_driver):
        batch = StageBatch.from_arrays(
            r=generic_line.r, l=[0.0, 1e-7, 2e-7], c=generic_line.c,
            r_s=generic_driver.r_s, c_p=generic_driver.c_p,
            c_0=generic_driver.c_0, h=1e-3, k=50.0)
        assert len(batch) == 3
        assert batch.r.shape == (3,)
        assert np.all(batch.h == 1e-3)

    def test_round_trip_through_stage(self, stage_rlc):
        batch = StageBatch.from_stages([stage_rlc])
        assert batch.stage(0) == stage_rlc

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ParameterError, match="shape"):
            StageBatch(r=np.ones(2), l=np.zeros(3), c=np.ones(2),
                       r_s=np.ones(2), c_p=np.zeros(2), c_0=np.ones(2),
                       h=np.ones(2), k=np.ones(2))

    def test_empty_batch_rejected(self):
        with pytest.raises(ParameterError, match="at least one"):
            StageBatch.from_stages([])

    def test_invalid_value_names_lane(self, generic_line, generic_driver):
        with pytest.raises(ParameterError, match=r"lane 1: c_0"):
            StageBatch.from_arrays(
                r=generic_line.r, l=generic_line.l, c=generic_line.c,
                r_s=generic_driver.r_s, c_p=generic_driver.c_p,
                c_0=[1e-15, 0.0], h=1e-3, k=10.0)


class TestMomentsAndPolesBitwise:
    def test_moments_match_scalar(self, mixed_batch):
        stages, batch = mixed_batch
        moments = compute_moments_v(batch)
        for i, stage in enumerate(stages):
            assert moments.moments(i) == compute_moments(stage), i

    def test_poles_match_scalar(self, mixed_batch):
        stages, batch = mixed_batch
        poles = poles_v(compute_moments_v(batch))
        for i, stage in enumerate(stages):
            scalar = compute_poles(compute_moments(stage))
            assert complex(poles.s1[i]) == scalar.s1, i
            assert complex(poles.s2[i]) == scalar.s2, i
            assert DAMPING_BY_CODE[int(poles.damping[i])] \
                == scalar.damping, i

    def test_nonpositive_b2_rejected_with_lane(self, mixed_batch):
        _, batch = mixed_batch
        moments = compute_moments_v(batch)
        broken = type(moments)(
            b1=moments.b1, b2=moments.b2 * np.where(
                np.arange(len(moments)) == 2, -1.0, 1.0),
            db1_dh=moments.db1_dh, db1_dk=moments.db1_dk,
            db2_dh=moments.db2_dh, db2_dk=moments.db2_dk)
        with pytest.raises(ParameterError, match="lane 2"):
            poles_v(broken)

    def test_classify_damping_v_regimes(self):
        b1 = np.array([4.0, 2.0, 1.0])
        b2 = np.array([1.0, 1.0, 1.0])  # disc: +12, 0, -3
        assert [DAMPING_BY_CODE[c].value
                for c in classify_damping_v(b1, b2)] \
            == ["overdamped", "critically_damped", "underdamped"]


class TestResponseBitwise:
    def test_values_match_scalar_call(self, mixed_batch):
        stages, batch = mixed_batch
        resp = ResponseBatch.from_stages(batch)
        scalars = [StepResponse.from_moments(compute_moments(stage))
                   for stage in stages]
        t = np.linspace(0.0, 5.0 * max(-1.0 / s.s1.real for s in scalars),
                        64)
        grid = resp.values(t)
        assert grid.shape == (len(stages), t.size)
        for i, scalar in enumerate(scalars):
            expected = np.array([scalar(ti) for ti in t])
            assert np.array_equal(grid[i], expected), i

    def test_response_v_accepts_step_responses(self):
        responses = [canonical_response(zeta, 1e9)
                     for zeta in (0.5, 1.0, 3.0)]
        t = np.linspace(0.0, 20e-9, 32)
        grid = response_v(responses, t)
        for i, scalar in enumerate(responses):
            assert np.array_equal(
                grid[i], np.array([scalar(ti) for ti in t])), i

    def test_as_response_batch_rejects_junk(self):
        with pytest.raises(TypeError, match="expected"):
            as_response_batch(object())
        with pytest.raises(ParameterError, match="non-empty"):
            as_response_batch([])


class TestThresholdDelayBitwise:
    @pytest.mark.parametrize("f", [0.1, 0.5, 0.9])
    def test_batch_matches_scalar_shim(self, mixed_batch, f):
        stages, batch = mixed_batch
        solved = threshold_delay_v(batch, f)
        for i, stage in enumerate(stages):
            scalar = threshold_delay(stage, f, polish_with_newton=False)
            assert solved.tau[i] == scalar.tau, i
            assert solved.damping_values()[i] == scalar.damping, i

    def test_batch_agrees_with_brent_reference(self, mixed_batch):
        stages, batch = mixed_batch
        rtol = unit_tolerance("kernels.brent_vs_vector.rel")
        solved = threshold_delay_v(batch, 0.5)
        for i, stage in enumerate(stages):
            ref = brent_threshold_delay(stage, 0.5)
            assert solved.tau[i] == pytest.approx(ref.tau, rel=rtol), i

    def test_zero_threshold_lane_is_zero(self, mixed_batch):
        _, batch = mixed_batch
        f = np.full(len(batch), 0.5)
        f[1] = 0.0
        solved = threshold_delay_v(batch, f)
        assert solved.tau[1] == 0.0
        assert solved.newton_iterations[1] == 0
        assert np.all(solved.tau[f > 0.0] > 0.0)

    def test_per_lane_thresholds(self, mixed_batch):
        stages, batch = mixed_batch
        f = np.linspace(0.2, 0.8, len(batch))
        solved = threshold_delay_v(batch, f)
        for i, stage in enumerate(stages):
            scalar = threshold_delay(stage, f[i], polish_with_newton=False)
            assert solved.tau[i] == scalar.tau, i

    @pytest.mark.parametrize("bad", [1.0, -0.1, float("nan")])
    def test_invalid_threshold_names_lane(self, mixed_batch, bad):
        _, batch = mixed_batch
        f = np.full(len(batch), 0.5)
        f[2] = bad
        with pytest.raises(ParameterError,
                           match=r"must be in \[0, 1\).*lane 2"):
            threshold_delay_v(batch, f)

    def test_threshold_shape_mismatch_rejected(self, mixed_batch):
        _, batch = mixed_batch
        with pytest.raises(ParameterError, match="does not match"):
            threshold_delay_v(batch, np.array([0.5, 0.5]))

    def test_permutation_invariance(self, mixed_batch):
        stages, _ = mixed_batch
        order = np.arange(len(stages))[::-1]
        forward = threshold_delay_v(StageBatch.from_stages(stages), 0.5)
        shuffled = threshold_delay_v(
            StageBatch.from_stages([stages[i] for i in order]), 0.5)
        assert np.array_equal(forward.tau[order], shuffled.tau)

    def test_singleton_invariance(self, mixed_batch):
        stages, batch = mixed_batch
        full = threshold_delay_v(batch, 0.5)
        for i, stage in enumerate(stages):
            alone = threshold_delay_v(StageBatch.from_stages([stage]), 0.5)
            assert alone.tau[0] == full.tau[i], i


class TestCriticalInductance:
    def test_bitwise_vs_scalar(self, node, rc_opt):
        h = np.array([0.5, 1.0, 2.0]) * rc_opt.h_opt
        k = np.array([0.5, 1.0, 2.0]) * rc_opt.k_opt
        batch = StageBatch.from_arrays(
            r=node.line.r, l=0.0, c=node.line.c, r_s=node.driver.r_s,
            c_p=node.driver.c_p, c_0=node.driver.c_0, h=h, k=k)
        l_crit = critical_inductance_v(batch)
        for i in range(len(batch)):
            assert l_crit[i] == critical_inductance(batch.stage(i)), i


class TestRcSizedColumn:
    """``sweep_inductance``'s RC-sized delay column (Fig. 8) is one
    ``threshold_delay_v`` call whose lanes match per-point delay jobs."""

    def test_matches_per_point_delay_jobs(self, node, rc_opt):
        l_values = [0.0, 1e-7, 1.0 * units.NH_PER_MM]
        sweep = sweep_inductance(node.line, node.driver, l_values)
        for i, l in enumerate(l_values):
            scalar = DelayJob(line=node.line.with_inductance(l),
                              driver=node.driver, h=rc_opt.h_opt,
                              k=rc_opt.k_opt).run()
            assert sweep.rc_sized_delay_per_length[i] \
                == scalar["delay_per_length"], i

    def test_solver_failure_names_sweep_points(self, node, monkeypatch):
        import repro.core.sweep as sweep_mod

        def explode(batch, f):
            error = DelaySolverError("injected", iterations=7,
                                     residual=0.25)
            error.lanes = [1]
            raise error

        monkeypatch.setattr(sweep_mod, "threshold_delay_v", explode)
        with pytest.raises(OptimizationError,
                           match=r"point 1 \(l = 3e-07") as excinfo:
            sweep_inductance(node.line, node.driver, [0.0, 3e-7])
        assert (excinfo.value.iterations, excinfo.value.residual) \
            == (7, 0.25)
