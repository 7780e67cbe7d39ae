"""Unit tests for the batch-engine job specifications."""

import json

import pytest

from repro import (NODE_100NM, OptimizationError, OptimizerMethod,
                   ParameterError, units)
from repro.engine import jobs as jobs_module
from repro.engine.jobs import (CriticalInductanceJob, DelayJob,
                               ExperimentJob, OptimizeJob, SweepJob,
                               TransientJob, canonical_json, job_from_dict,
                               job_to_dict, jsonify)


@pytest.fixture()
def line():
    return NODE_100NM.line_with_inductance(1.0 * units.NH_PER_MM)


@pytest.fixture()
def driver():
    return NODE_100NM.driver


class TestCanonicalForm:
    def test_jobs_are_hashable_and_equal_by_content(self, line, driver):
        a = OptimizeJob(line=line, driver=driver, f=0.5)
        b = OptimizeJob(line=line, driver=driver, f=0.5)
        assert a == b
        assert hash(a) == hash(b)
        assert a != OptimizeJob(line=line, driver=driver, f=0.6)

    def test_canonical_json_is_key_order_independent(self):
        assert (canonical_json({"b": 1, "a": [2.5, True]})
                == canonical_json({"a": [2.5, True], "b": 1}))

    def test_canonical_roundtrip_every_kind(self, line, driver):
        specs = [
            DelayJob(line=line, driver=driver, h=0.01, k=100.0),
            CriticalInductanceJob(line=line, driver=driver, h=0.01,
                                  k=100.0),
            OptimizeJob(line=line, driver=driver, initial=(0.01, 150.0),
                        method=OptimizerMethod.NEWTON),
            SweepJob(line_zero_l=line.with_inductance(0.0), driver=driver,
                     l_values=(0.0, 1e-6)),
            TransientJob(node_name="100nm", l_nh_per_mm=1.8),
            ExperimentJob.create("fig5", points=11),
        ]
        for job in specs:
            rebuilt = job_from_dict(job_to_dict(job))
            assert rebuilt == job
            assert canonical_json(rebuilt.canonical()) \
                == canonical_json(job.canonical())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            job_from_dict({"kind": "bogus"})

    def test_jsonify_handles_numpy(self):
        import numpy as np
        payload = jsonify({"a": np.float64(1.5), "b": np.arange(3),
                           "c": (1, 2), "d": OptimizerMethod.AUTO})
        assert payload == {"a": 1.5, "b": [0, 1, 2], "c": [1, 2],
                           "d": "auto"}
        json.dumps(payload)

    def test_jsonify_rejects_rich_objects(self, line):
        with pytest.raises(TypeError):
            jsonify(line)


class TestDelayJob:
    def test_matches_direct_threshold_delay(self, line, driver):
        from repro import Stage, threshold_delay
        job = DelayJob(line=line, driver=driver, h=0.01, k=150.0)
        result = job.run()
        direct = threshold_delay(
            Stage(line=line, driver=driver, h=0.01, k=150.0), 0.5,
            polish_with_newton=False)
        assert result["tau"] == direct.tau
        assert result["damping"] == direct.damping.value
        assert result["delay_per_length"] == direct.tau / 0.01


class TestCriticalInductanceJob:
    def test_matches_direct_critical_inductance(self, line, driver):
        from repro import Stage, critical_inductance
        job = CriticalInductanceJob(line=line, driver=driver, h=0.01,
                                    k=150.0)
        result = job.run()
        l_crit = critical_inductance(
            Stage(line=line, driver=driver, h=0.01, k=150.0))
        assert result["l_crit"] == l_crit
        assert result["l"] == line.l
        assert result["damping_margin"] == line.l / l_crit
        json.dumps(result)

    def test_margin_is_none_when_l_crit_not_positive(self, line, driver,
                                                     monkeypatch):
        """``l_crit <= 0`` cannot arise from physical parameters (RC
        poles at l = 0 are real), but the defensive branch must report a
        strict-JSON ``None`` margin rather than ``inf``."""
        monkeypatch.setattr(jobs_module, "critical_inductance",
                            lambda stage: -1e-7)
        job = CriticalInductanceJob(line=line, driver=driver, h=0.01,
                                    k=150.0)
        result = job.run()
        assert result["l_crit"] == -1e-7
        assert result["damping_margin"] is None
        assert "inf" in job.summary(result)
        json.dumps(result)


class TestOptimizeJob:
    def test_matches_direct_optimizer(self, line, driver):
        from repro import optimize_repeater
        result = OptimizeJob(line=line, driver=driver).run()
        direct = optimize_repeater(line, driver)
        assert result["h_opt"] == direct.h_opt
        assert result["k_opt"] == direct.k_opt
        assert result["iterations"] == direct.iterations
        assert result["retried"] is False

    def test_reseeds_from_rc_optimum_when_warm_start_fails(
            self, line, driver, monkeypatch):
        """Failure-recovery path: bad warm start -> RC-optimum re-seed."""
        from repro import rc_optimum
        rc_ref = rc_optimum(line, driver)
        rc_seed = (rc_ref.h_opt, rc_ref.k_opt)
        real_optimize = jobs_module.optimize_repeater
        real_many = jobs_module.optimize_repeater_many
        calls = []

        def flaky(line_, driver_, f=0.5, *, initial=None, **kwargs):
            calls.append(initial)
            if initial != rc_seed:
                raise OptimizationError("poisoned warm start")
            return real_optimize(line_, driver_, f, initial=initial,
                                 **kwargs)

        def reseed(lines, driver_, f=0.5, *, initials=None, **kwargs):
            calls.extend(initials)
            return real_many(lines, driver_, f, initials=initials,
                             **kwargs)

        monkeypatch.setattr(jobs_module, "optimize_repeater", flaky)
        # The re-seed retry runs through the lockstep batch call.
        monkeypatch.setattr(jobs_module, "optimize_repeater_many", reseed)
        result = OptimizeJob(line=line, driver=driver,
                             initial=(1e-4, 5.0)).run()
        assert result["retried"] is True
        assert calls == [(1e-4, 5.0), rc_seed]
        assert result["h_opt"] == pytest.approx(
            real_optimize(line, driver).h_opt, rel=1e-6)

    def test_no_reseed_without_warm_start(self, line, driver, monkeypatch):
        """With no explicit initial there is nothing to re-seed from."""
        def always_fails(*args, **kwargs):
            raise OptimizationError("nope")

        monkeypatch.setattr(jobs_module, "optimize_repeater", always_fails)
        with pytest.raises(OptimizationError):
            OptimizeJob(line=line, driver=driver).run()

    def test_reseed_can_be_disabled(self, line, driver, monkeypatch):
        def always_fails(*args, **kwargs):
            raise OptimizationError("nope")

        monkeypatch.setattr(jobs_module, "optimize_repeater", always_fails)
        with pytest.raises(OptimizationError):
            OptimizeJob(line=line, driver=driver, initial=(0.01, 100.0),
                        retry_reseed=False).run()


class TestSweepJob:
    def test_matches_sweep_inductance(self, driver):
        from repro import sweep_inductance
        line0 = NODE_100NM.line
        grid = (0.0, 0.5 * units.NH_PER_MM)
        result = SweepJob(line_zero_l=line0, driver=driver,
                          l_values=grid).run()
        direct = sweep_inductance(line0, driver, grid)
        assert result["h_opt"] == list(direct.h_opt)
        assert result["rc_reference"]["h_opt"] == direct.rc_reference.h_opt
        json.dumps(result)


class TestTransientJob:
    def test_runs_reduced_ring(self):
        """Tiny-budget ring run: exercises the sim + null-period branch."""
        result = TransientJob(node_name="100nm", l_nh_per_mm=1.8,
                              period_budget=6.0, steps_per_period=300,
                              segments=4).run()
        assert result["input_max"] > 1.0
        assert result["oscillates"] == (result["period"] is not None)
        json.dumps(result)

    @pytest.mark.parametrize("probe_stage", [7, 5, -1])
    def test_probe_stage_outside_the_ring_is_rejected(self, probe_stage,
                                                      monkeypatch):
        """Rejected before any ring is built or simulated."""
        from repro.experiments import ring

        def forbidden(*args, **kwargs):
            raise AssertionError("a ring was built")

        monkeypatch.setattr(ring, "build_ring_oscillator", forbidden)
        job = TransientJob(node_name="100nm", l_nh_per_mm=1.0,
                           probe_stage=probe_stage)
        with pytest.raises(ParameterError, match="probe_stage"):
            job.run()

    def test_probe_stage_error_through_the_executor(self):
        from repro.engine.executor import BatchExecutor
        report = BatchExecutor(jobs=1).run(
            [TransientJob(node_name="100nm", l_nh_per_mm=1.0,
                          probe_stage=7)])
        [outcome] = report
        assert outcome.error_type == "ParameterError"
        assert "probe_stage" in outcome.error


class TestExperimentJob:
    def test_create_canonicalizes_options(self):
        a = ExperimentJob.create("fig5", points=11, node="100nm")
        b = ExperimentJob.create("fig5", node="100nm", points=11)
        assert a == b
        assert a.options == {"points": 11, "node": "100nm"}

    def test_runs_registered_experiment(self):
        result = ExperimentJob.create("fig2").run()
        assert result["experiment_id"] == "fig2"
        assert result["rows"]
        json.dumps(result)
