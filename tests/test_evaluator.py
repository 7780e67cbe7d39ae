"""Tests for the kernel-backed optimizer stack (repro.core.evaluate).

The refactor's contract is *bitwise* reproduction of the scalar
optimizer: the golden table below was produced by the pre-refactor
scalar Newton loop and every (h_opt, k_opt, tau, iterations) tuple must
keep matching to the last bit.  The rest of the suite covers the
StageEvaluator memo, trace recording/serialization, the batch job, and
the accepted-worse backtracking diagnostics.
"""

import math

import numpy as np
import pytest

from repro import units
from repro.core.evaluate import (OptimizationTrace, ScalarSemantics,
                                 StageEvaluator, TraceStep,
                                 delay_per_length_grid,
                                 stationarity_residuals_v)
from repro.core.optimize import (OptimizerMethod, _fail, optimize_repeater,
                                 optimize_repeater_many,
                                 stationarity_residuals)
from repro.core.params import DriverParams, LineParams, Stage
from repro.core.delay import threshold_delay
from repro.core.sweep import sweep_inductance
from repro.engine import OptimizeJob
from repro.engine.jobs import _optimum_payload, canonical_json
from repro.errors import DelaySolverError, OptimizationError, ParameterError
from repro.tech.node import NODE_100NM, NODE_250NM

NODES = {"100nm": NODE_100NM, "250nm": NODE_250NM}

#: (node, l in nH/mm) -> (h_opt, k_opt, tau, iterations), recorded from
#: the pre-refactor scalar optimizer at default settings (f=0.5, AUTO).
GOLDEN_OPTIMA = [
    ("100nm", 0.0, 0.01054060690339285, 455.99497306587915,
     8.064759101887666e-11, 5),
    ("100nm", 0.5, 0.012460551268388794, 324.23337704734064,
     1.330068594853504e-10, 6),
    ("100nm", 1.0, 0.013637756910716088, 282.5833723659545,
     1.752867391695472e-10, 6),
    ("100nm", 2.0, 0.015161538516928785, 244.51910293249372,
     2.449314134416896e-10, 7),
    ("100nm", 5.0, 0.01769260295217451, 202.02013158203033,
     4.061259005863739e-10, 7),
    ("250nm", 0.0, 0.013685252811351793, 505.20625473760936,
     2.3080101131751585e-10, 5),
    ("250nm", 0.5, 0.01481829367086997, 425.2469149042504,
     2.8902161890686694e-10, 5),
    ("250nm", 1.0, 0.015762286520125277, 382.67083791284347,
     3.433837395714662e-10, 6),
    ("250nm", 2.0, 0.017173092550920015, 336.39445670577146,
     4.3898132566033567e-10, 6),
    ("250nm", 5.0, 0.019781140740072964, 279.0657528012805,
     6.699375984761573e-10, 7),
]


def _line_at(node, l_nh):
    return LineParams(r=node.line.r, l=l_nh * units.NH_PER_MM,
                      c=node.line.c)


class TestGoldenBitwise:
    @pytest.mark.parametrize("node_name,l_nh,h_g,k_g,tau_g,it_g",
                             GOLDEN_OPTIMA)
    def test_optimum_matches_scalar_golden(self, node_name, l_nh, h_g, k_g,
                                           tau_g, it_g):
        node = NODES[node_name]
        optimum = optimize_repeater(_line_at(node, l_nh), node.driver)
        assert float(optimum.h_opt) == h_g
        assert float(optimum.k_opt) == k_g
        assert float(optimum.tau) == tau_g
        assert optimum.iterations == it_g
        assert optimum.method is OptimizerMethod.NEWTON

    def test_residuals_match_scalar_reference(self):
        node = NODE_100NM
        line = _line_at(node, 1.0)
        h, k = 0.012, 300.0
        g1, g2, tau = stationarity_residuals(line, node.driver, h, k, 0.5)
        evaluator = StageEvaluator(line, node.driver, 0.5)
        g1_b, g2_b, tau_b, _ = evaluator.evaluate(h, k)
        assert g1_b == g1
        assert g2_b == g2
        assert tau_b == tau

    def test_delay_matches_threshold_delay(self):
        node = NODE_250NM
        line = _line_at(node, 2.0)
        evaluator = StageEvaluator(line, node.driver, 0.5)
        stage = Stage(line=line, driver=node.driver, h=0.015, k=350.0)
        scalar = threshold_delay(stage, 0.5, polish_with_newton=False).tau
        assert evaluator.delay(0.015, 350.0) == scalar

    def test_delay_per_length_grid_matches_scalar_loop(self):
        node = NODE_100NM
        grid = np.linspace(0.0, 5.0, 7) * units.NH_PER_MM
        h, k = 0.014, 280.0
        values = delay_per_length_grid(node.line, node.driver, grid, h, k)
        for i, l in enumerate(grid):
            stage = Stage(line=node.line.with_inductance(float(l)),
                          driver=node.driver, h=h, k=k)
            expected = threshold_delay(stage, 0.5,
                                       polish_with_newton=False).tau / h
            assert values[i] == expected, i


class TestStageEvaluator:
    def test_memoization_counts(self):
        node = NODE_100NM
        evaluator = StageEvaluator(_line_at(node, 1.0), node.driver, 0.5)
        first = evaluator.evaluate(0.012, 300.0)
        assert evaluator.lanes_evaluated == 1
        assert evaluator.batch_calls == 1
        assert evaluator.memo_hits == 0
        second = evaluator.evaluate(0.012, 300.0)
        assert second == first
        assert evaluator.lanes_evaluated == 1
        assert evaluator.memo_hits == 1

    def test_evaluate_many_dedups_within_call(self):
        node = NODE_100NM
        evaluator = StageEvaluator(_line_at(node, 1.0), node.driver, 0.5)
        results = evaluator.evaluate_many(
            [(0.012, 300.0), (0.013, 280.0), (0.012, 300.0)])
        assert results[0] == results[2]
        assert evaluator.lanes_evaluated == 2
        assert evaluator.batch_calls == 1
        assert len(evaluator) == 2

    def test_three_lane_batch_matches_scalar_lanes(self):
        node = NODE_250NM
        line = _line_at(node, 1.0)
        evaluator = StageEvaluator(line, node.driver, 0.5)
        h, k = 0.015, 380.0
        pairs = [(h, k), (h * (1 + 1e-6), k), (h, k * (1 + 1e-6))]
        batched = evaluator.evaluate_many(pairs)
        for (hp, kp), got in zip(pairs, batched):
            g1, g2, tau = stationarity_residuals(line, node.driver, hp, kp,
                                                 0.5)
            assert got[:3] == (g1, g2, tau)

    def test_invalid_lane_reports_lane_index(self):
        node = NODE_100NM
        evaluator = StageEvaluator(_line_at(node, 0.0), node.driver, 0.5)
        with pytest.raises(ParameterError, match="lane"):
            evaluator.evaluate_many([(0.012, 300.0), (-0.01, 300.0)])

    def test_semantics_split_memo_keys(self):
        sem_f = ScalarSemantics.for_values(
            LineParams(r=25e3, l=1e-6, c=1.5e-10),
            DriverParams(r_s=30e3, c_p=1e-14, c_0=1e-15),
            [0.01], [100.0])
        assert not sem_f.numpy_b1 and not sem_f.numpy_db2
        sem_h = ScalarSemantics.for_values(
            LineParams(r=25e3, l=1e-6, c=1.5e-10),
            DriverParams(r_s=30e3, c_p=1e-14, c_0=1e-15),
            [np.float64(0.01)], [100.0])
        assert sem_h.numpy_b1 and sem_h.numpy_db2
        sem_l = ScalarSemantics.for_values(
            LineParams(r=25e3, l=np.float64(1e-6), c=1.5e-10),
            DriverParams(r_s=30e3, c_p=1e-14, c_0=1e-15),
            [0.01], [100.0])
        assert not sem_l.numpy_b1 and sem_l.numpy_db2

    @pytest.mark.parametrize("tainted", [None, "r", "l", "c", "r_s", "c_p",
                                         "c_0", "h", "k"])
    def test_hoisted_taint_matches_for_values(self, tainted):
        values = {"r": 25e3, "l": 1e-6, "c": 1.5e-10, "r_s": 30e3,
                  "c_p": 1e-14, "c_0": 1e-15, "h": 0.01, "k": 100.0}
        if tainted is not None:
            values[tainted] = np.float64(values[tainted])
        line = LineParams(r=values["r"], l=values["l"], c=values["c"])
        driver = DriverParams(r_s=values["r_s"], c_p=values["c_p"],
                              c_0=values["c_0"])
        evaluator = StageEvaluator(line, driver, 0.5)
        pairs = [(0.012, 300.0), (values["h"], values["k"])]
        for chosen in (pairs, pairs[:1], pairs[1:]):
            assert evaluator.semantics_for(chosen) \
                == ScalarSemantics.for_values(
                    line, driver, [h for h, _ in chosen],
                    [k for _, k in chosen]), chosen

    def test_batched_residuals_lane_values(self):
        node = NODE_100NM
        line = _line_at(node, 1.0)
        sem = ScalarSemantics(numpy_b1=False, numpy_db2=False)
        g1, g2, tau, codes = stationarity_residuals_v(
            [line.r] * 2, [line.l] * 2, [line.c] * 2,
            [node.driver.r_s] * 2, [node.driver.c_p] * 2,
            [node.driver.c_0] * 2,
            [0.012, 0.014], [300.0, 260.0], 0.5, semantics=sem)
        for i, (h, k) in enumerate([(0.012, 300.0), (0.014, 260.0)]):
            g1_s, g2_s, tau_s = stationarity_residuals(line, node.driver,
                                                       h, k, 0.5)
            assert g1[i] == g1_s and g2[i] == g2_s and tau[i] == tau_s


class TestOptimizationTrace:
    def test_newton_trace_shape(self):
        node = NODE_100NM
        optimum = optimize_repeater(_line_at(node, 1.0), node.driver)
        trace = optimum.trace
        assert trace is not None
        # seed step + one step per Newton iteration
        assert len(trace.steps) == optimum.iterations + 1
        assert [s.iteration for s in trace.steps] == \
            list(range(optimum.iterations + 1))
        assert trace.steps[0].step_scale is None
        assert all(s.step_scale is not None for s in trace.steps[1:])
        assert not trace.fallback
        assert trace.lanes_evaluated > 0
        assert trace.batch_calls > 0
        assert trace.memo_hits >= optimum.iterations
        # residual norm matches the recorded residuals
        for step in trace.steps:
            assert step.residual_norm == math.hypot(step.g1, step.g2)
        # converged: last residual far below the first
        assert trace.steps[-1].residual_norm < trace.steps[0].residual_norm

    def test_payload_round_trip(self):
        node = NODE_250NM
        optimum = optimize_repeater(_line_at(node, 2.0), node.driver)
        payload = optimum.trace.to_payload()
        clone = OptimizationTrace.from_payload(payload)
        assert clone.to_payload() == payload
        assert len(clone.steps) == len(optimum.trace.steps)
        assert clone.lanes_evaluated == optimum.trace.lanes_evaluated
        assert clone.steps[1].h == float(optimum.trace.steps[1].h)
        summary = optimum.trace.summary()
        assert summary["steps"] == len(optimum.trace.steps)
        assert summary["fallback"] is False

    def test_direct_method_records_fallback_free_trace(self):
        node = NODE_100NM
        optimum = optimize_repeater(_line_at(node, 1.0), node.driver,
                                    method=OptimizerMethod.DIRECT)
        trace = optimum.trace
        assert optimum.method is OptimizerMethod.DIRECT
        assert not trace.fallback          # DIRECT by request, not fallback
        assert any(e.kind == "direct" for e in trace.events)
        assert optimum.iterations > 0      # satellite: nit read consistently

    def test_accepted_worse_surfaces_in_error(self):
        trace = OptimizationTrace()
        trace.record_step(TraceStep(
            iteration=0, h=0.01, k=100.0, g1=1.0, g2=1.0, tau=1e-10,
            residual_norm=math.hypot(1.0, 1.0), damping="overdamped",
            step_scale=None, backtracks=0, accepted_worse=False))
        trace.record_step(TraceStep(
            iteration=1, h=0.011, k=101.0, g1=2.0, g2=2.0, tau=1e-10,
            residual_norm=math.hypot(2.0, 2.0), damping="overdamped",
            step_scale=0.0005, backtracks=11, accepted_worse=True))
        assert trace.accepted_worse_total == 1
        error = _fail("Newton optimizer did not converge in 200 iterations",
                      iteration=1, norm=trace.steps[-1].residual_norm,
                      trace=trace)
        assert "accepted 1 worse iterate" in str(error)
        assert error.accepted_worse == 1
        assert error.trace is trace
        assert trace.events[-1].kind == "newton_error"


class TestSweepTraces:
    def test_sweep_aggregates_methods_and_traces(self):
        node = NODE_100NM
        l_values = np.linspace(0.0, 2.0, 3) * units.NH_PER_MM
        sweep = sweep_inductance(node.line, node.driver, l_values)
        assert sweep.methods == ("newton",) * 3
        assert len(sweep.traces) == 3
        assert all(t["steps"] for t in sweep.traces)
        assert sweep.fallback_points == []
        report = sweep.fallback_report()
        assert "all 3 points converged via newton" in report
        assert "total backtracking steps" in report


class TestEngineJobs:
    def test_optimize_job_serializes_trace(self, tmp_path):
        node = NODE_100NM
        job = OptimizeJob(line=_line_at(node, 1.0), driver=node.driver)
        result = job.run()
        trace = result["trace"]
        assert trace is not None
        assert len(trace["steps"]) == result["iterations"] + 1
        assert not any(e["kind"] == "fallback" for e in trace["events"])
        # payload survives the cache's JSON round-trip
        from repro.engine.store import DiskStore
        cache = DiskStore(tmp_path)
        cache.put(job, result)
        assert cache.get(job)["trace"] == \
            OptimizationTrace.from_payload(trace).to_payload()


class TestMetrics:
    def test_trace_counts_flow_into_batch_metrics(self):
        from repro.engine.metrics import BatchMetrics, JobMetrics, \
            trace_counts_of
        node = NODE_100NM
        result = OptimizeJob(line=_line_at(node, 1.0),
                             driver=node.driver).run()
        fallbacks, backtracks = trace_counts_of(result)
        assert fallbacks == 0
        assert backtracks >= 0
        metrics = BatchMetrics()
        metrics.record(JobMetrics(kind="optimize", wall_time=0.1,
                                  from_cache=False, failed=False,
                                  newton_iterations=6, retried=False,
                                  fallbacks=fallbacks,
                                  backtracks=backtracks))
        summary = metrics.format_summary()
        assert "direct fallbacks" in summary
        assert "backtracking steps" in summary


class TestLockstep:
    """optimize_repeater_many: pooled Newton, per-lane solo semantics."""

    def test_lockstep_matches_solo_bitwise_with_traces(self):
        node = NODE_100NM
        lines = [_line_at(node, l) for l in (0.0, 0.5, 1.0, 2.0, 5.0)]
        outcomes = optimize_repeater_many(lines, node.driver)
        for i, line in enumerate(lines):
            solo = optimize_repeater(line, node.driver)
            got = outcomes[i]
            # Optimum, every trace step and event, and the trace's
            # execution counters: a lane's payload is batch-size free.
            assert canonical_json(_optimum_payload(got, False)) \
                == canonical_json(_optimum_payload(solo, False))
            # Raw np iterates survive the lockstep path too (warm-start
            # chains depend on them ulp-for-ulp).
            assert type(got.h_opt) is type(solo.h_opt)

    def test_failed_pooled_batch_leaves_neighbour_counters_alone(
            self, monkeypatch):
        import repro.core.evaluate as evaluate_mod

        node = NODE_100NM
        healthy, marked = _line_at(node, 1.0), _line_at(node, 2.0)
        real = evaluate_mod.stationarity_residuals_v

        def poisoned(r, l, *args, **kwargs):
            if float(marked.l) in list(l):
                raise DelaySolverError("injected: marked line")
            return real(r, l, *args, **kwargs)

        monkeypatch.setattr(evaluate_mod, "stationarity_residuals_v",
                            poisoned)
        alone = optimize_repeater_many([healthy], node.driver)[0]
        outcomes = optimize_repeater_many([healthy, marked], node.driver)
        assert isinstance(outcomes[1], DelaySolverError)
        assert canonical_json(_optimum_payload(outcomes[0], False)) \
            == canonical_json(_optimum_payload(alone, False))

    def test_lockstep_pools_kernel_batches(self, monkeypatch):
        import repro.core.evaluate as evaluate_mod

        node = NODE_100NM
        lines = [_line_at(node, l) for l in (0.0, 1.0, 2.0, 5.0)]
        real = evaluate_mod.stationarity_residuals_v
        dispatches = []

        def counting(*args, **kwargs):
            dispatches.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluate_mod, "stationarity_residuals_v",
                            counting)
        optimize_repeater_many(lines, node.driver)
        pooled = len(dispatches)
        dispatches.clear()
        for line in lines:
            optimize_repeater(line, node.driver)
        solo = len(dispatches)
        # Same lanes of work, strictly fewer kernel dispatches: the
        # pooled batches replace most per-lane evaluate calls.
        assert 0 < pooled < solo

    def test_lockstep_isolates_per_lane_failures(self):
        node = NODE_100NM
        lines = [_line_at(node, 1.0), _line_at(node, 2.0)]
        outcomes = optimize_repeater_many(
            lines, node.driver, initials=[(-1.0, 100.0), None])
        assert isinstance(outcomes[0], ParameterError)
        assert "must be positive" in str(outcomes[0])
        solo = optimize_repeater(lines[1], node.driver)
        assert float(outcomes[1].h_opt) == float(solo.h_opt)

    def test_lockstep_bad_threshold_fails_every_lane(self):
        node = NODE_100NM
        outcomes = optimize_repeater_many(
            [_line_at(node, 1.0)] * 3, node.driver, f=1.5)
        assert len(outcomes) == 3
        assert all(isinstance(o, ParameterError) for o in outcomes)

    def test_lockstep_direct_method_runs_solo_lanes(self):
        node = NODE_100NM
        lines = [_line_at(node, 1.0), _line_at(node, 2.0)]
        outcomes = optimize_repeater_many(
            lines, node.driver, method=OptimizerMethod.DIRECT)
        for outcome, line in zip(outcomes, lines):
            solo = optimize_repeater(line, node.driver,
                                     method=OptimizerMethod.DIRECT)
            assert outcome.method is OptimizerMethod.DIRECT
            assert float(outcome.h_opt) == float(solo.h_opt)
            assert float(outcome.tau) == float(solo.tau)
