"""Round-trip property tests for engine job-spec serialization.

The cache contract is: spec -> canonical dict -> spec yields an identical
object and therefore an identical content-addressed cache key.  Any
asymmetry between ``canonical()`` and ``from_dict`` (a dropped field, a
default mismatch, a float-through-string detour) silently fragments the
cache or — worse — serves a stale result for a different configuration.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimize import OptimizerMethod
from repro.engine import (JOB_TYPES, DelayJob, OptimizeJob, SweepJob,
                          TransientJob, job_from_dict, job_to_dict,
                          register_job_type)
from repro.engine.jobs import ExperimentJob
from repro.engine.store import DiskStore
from repro.verify import VerifyJob
from tests.strategies import drivers, lines, segment_lengths, \
    repeater_sizes, thresholds, verify_cases

delay_jobs = st.builds(
    DelayJob, line=lines, driver=drivers, h=segment_lengths,
    k=repeater_sizes, f=thresholds, polish_with_newton=st.booleans())

optimize_jobs = st.builds(
    OptimizeJob, line=lines, driver=drivers, f=thresholds,
    method=st.sampled_from(OptimizerMethod),
    initial=st.one_of(st.none(), st.tuples(segment_lengths, repeater_sizes)),
    tol=st.sampled_from([1e-9, 1e-12]),
    max_iterations=st.integers(min_value=10, max_value=500),
    retry_reseed=st.booleans())

sweep_jobs = st.builds(
    SweepJob, line_zero_l=lines, driver=drivers,
    l_values=st.lists(st.floats(min_value=0.0, max_value=1e-5),
                      min_size=1, max_size=5).map(tuple),
    f=thresholds, method=st.sampled_from(OptimizerMethod))

transient_jobs = st.builds(
    TransientJob, node_name=st.sampled_from(["250nm", "100nm"]),
    l_nh_per_mm=st.floats(min_value=0.0, max_value=10.0))

verify_jobs = st.builds(
    VerifyJob, case=verify_cases,
    oracle=st.sampled_from(["two_pole", "elmore", "talbot"]))

any_job = st.one_of(delay_jobs, optimize_jobs, sweep_jobs, transient_jobs,
                    verify_jobs)


class TestSpecRoundTrip:
    @given(job=any_job)
    @settings(max_examples=200, deadline=None)
    def test_dict_round_trip_is_identity(self, job):
        assert job_from_dict(job_to_dict(job)) == job

    @given(job=any_job)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_preserves_cache_key(self, job, tmp_path_factory):
        cache = DiskStore(tmp_path_factory.mktemp("cache"))
        assert cache.key(job_from_dict(job_to_dict(job))) == cache.key(job)

    @given(job=delay_jobs)
    @settings(max_examples=50, deadline=None)
    def test_distinct_specs_get_distinct_keys(self, job, tmp_path_factory):
        cache = DiskStore(tmp_path_factory.mktemp("cache"))
        tweaked = DelayJob(line=job.line, driver=job.driver, h=job.h,
                           k=job.k, f=job.f,
                           polish_with_newton=not job.polish_with_newton)
        assert cache.key(tweaked) != cache.key(job)


class TestRegistry:
    def test_all_kinds_registered(self):
        assert set(JOB_TYPES) == {"delay", "batch_delay",
                                  "critical_inductance", "optimize",
                                  "batch_optimize", "sweep", "transient",
                                  "experiment", "verify"}
        assert JOB_TYPES["verify"] is VerifyJob

    def test_unknown_kind_error_lists_known(self):
        with pytest.raises(ValueError, match="delay"):
            job_from_dict({"kind": "nonexistent"})

    def test_register_rejects_missing_kind(self):
        with pytest.raises(TypeError, match="kind"):
            @register_job_type
            class NoKind:
                @classmethod
                def from_dict(cls, data):
                    return cls()

    def test_register_rejects_missing_from_dict(self):
        with pytest.raises(TypeError, match="from_dict"):
            @register_job_type
            class NoParser:
                kind = "no-parser"

    def test_experiment_job_round_trip(self):
        job = ExperimentJob.create("fig4", points=5)
        assert job_from_dict(job_to_dict(job)) == job
