"""Store-key property tests for engine job specs.

The cache contract has two halves.  A served request document parsed by
its kind's ``from_dict`` (the parser ``parse_request`` uses) must rebuild
the identical spec, and therefore the identical content-addressed store
key; a float-through-string detour or a default mismatch would silently
fragment the cache.  And every field of every job kind must reach
``canonical()``: a dropped field lets two different computations share
one store key, so the store would serve one's result for the other.
"""

import dataclasses
import enum
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NODE_100NM, units
from repro.core.optimize import OptimizerMethod
from repro.engine.jobs import (CriticalInductanceJob, DelayJob,
                               ExperimentJob, OptimizeJob, SweepJob,
                               TransientJob, canonical_json, job_to_dict)
from repro.engine.store import DiskStore
from repro.serve.protocol import REQUEST_JOB_TYPES
from repro.verify import VerifyCase, VerifyJob
from tests.strategies import drivers, lines, segment_lengths, \
    repeater_sizes, thresholds

delay_jobs = st.builds(
    DelayJob, line=lines, driver=drivers, h=segment_lengths,
    k=repeater_sizes, f=thresholds, polish_with_newton=st.booleans())

critical_jobs = st.builds(
    CriticalInductanceJob, line=lines, driver=drivers, h=segment_lengths,
    k=repeater_sizes)

optimize_jobs = st.builds(
    OptimizeJob, line=lines, driver=drivers, f=thresholds,
    method=st.sampled_from(OptimizerMethod),
    initial=st.one_of(st.none(), st.tuples(segment_lengths, repeater_sizes)),
    tol=st.sampled_from([1e-9, 1e-12]),
    max_iterations=st.integers(min_value=10, max_value=500),
    retry_reseed=st.booleans())

served_job = st.one_of(delay_jobs, critical_jobs, optimize_jobs)


def _parsed(job):
    """``job`` through the wire: canonical dict, JSON, served parser."""
    data = json.loads(canonical_json(job_to_dict(job)))
    return REQUEST_JOB_TYPES[data["kind"]].from_dict(data)


def _line():
    return NODE_100NM.line_with_inductance(1.0 * units.NH_PER_MM)


#: One job of every kind, each field set away from its default.
BASE_JOBS = (
    DelayJob(line=_line(), driver=NODE_100NM.driver, h=0.01, k=150.0,
             f=0.4, polish_with_newton=False),
    CriticalInductanceJob(line=_line(), driver=NODE_100NM.driver, h=0.01,
                          k=150.0),
    OptimizeJob(line=_line(), driver=NODE_100NM.driver, f=0.4,
                method=OptimizerMethod.NEWTON, initial=(0.01, 150.0),
                tol=1e-10, max_iterations=50, retry_reseed=False),
    SweepJob(line_zero_l=NODE_100NM.line, driver=NODE_100NM.driver,
             l_values=(0.0, 1e-6), f=0.4, method=OptimizerMethod.NEWTON),
    TransientJob(node_name="100nm", l_nh_per_mm=1.8, n_stages=3,
                 segments=4, style="behavioral", probe_stage=1,
                 period_budget=6.0, steps_per_period=200),
    ExperimentJob.create("fig5", points=5),
    VerifyJob(case=VerifyCase(case_id="c", line=_line(),
                              driver=NODE_100NM.driver, h=0.01, k=150.0,
                              f=0.4, regime="underdamped", node="100nm"),
              oracle="two_pole"),
)


def _other(value):
    """A value of the same type as ``value`` that differs from it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, enum.Enum):
        return next(member for member in type(value) if member != value)
    if isinstance(value, int):
        return value * 2 + 1
    if isinstance(value, float):    # stays a valid threshold if it was one
        return value / 2 + 0.25
    if isinstance(value, tuple):
        return tuple(_other(item) for item in value)
    if isinstance(value, str):
        if value.startswith("{"):   # ExperimentJob.options_json
            return canonical_json({"points": 7})
        return value + "x"
    raise TypeError(f"no variant for {value!r}")


def _variants(spec):
    """(field path, copy of ``spec`` differing in that one leaf field)."""
    for field in dataclasses.fields(spec):
        value = getattr(spec, field.name)
        if dataclasses.is_dataclass(value):
            for path, inner in _variants(value):
                yield (f"{field.name}.{path}",
                       dataclasses.replace(spec, **{field.name: inner}))
        else:
            yield field.name, dataclasses.replace(
                spec, **{field.name: _other(value)})


class TestSpecRoundTrip:
    @given(job=served_job)
    @settings(max_examples=200, deadline=None)
    def test_dict_round_trip_is_identity(self, job):
        assert _parsed(job) == job

    @given(job=served_job)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_preserves_cache_key(self, job, tmp_path_factory):
        cache = DiskStore(tmp_path_factory.mktemp("cache"))
        assert cache.key(_parsed(job)) == cache.key(job)

    def test_distinct_specs_get_distinct_keys(self, tmp_path):
        cache = DiskStore(tmp_path)
        checked = []
        for job in BASE_JOBS:
            for path, variant in _variants(job):
                assert variant != job, (job.kind, path)
                assert cache.key(variant) != cache.key(job), \
                    f"{job.kind}.{path} does not reach the store key"
                checked.append(f"{job.kind}.{path}")
        # Nested line/driver/case fields are varied leaf by leaf.
        assert {"delay.line.c", "sweep.driver.c_0",
                "verify.case.line.r"} <= set(checked)
