"""Tests for the fault-plan core: rules, determinism, serialization.

The plan layer carries the whole replay contract — a plan string plus
the same traffic must produce the same event sequence — so these tests
pin serialization round-trips, per-site PRNG stream independence,
invocation-counted rule modes and per-thread suspension.
"""

import json
import threading

import pytest

from repro.faults import FAULT_POINTS, FaultPlan, FaultRule, hooks
from repro.errors import OptimizationError


class TestFaultRule:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule(site="cache.get.no_such_site")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            FaultRule(site="cache.get.os_error", mode="sometimes")

    def test_unknown_exception_rejected(self):
        with pytest.raises(ValueError, match="unknown exception"):
            FaultRule(site="cache.get.os_error", exc="KeyboardInterrupt")

    def test_action_defaults_to_site_default(self):
        rule = FaultRule(site="cache.get.torn_record")
        assert rule.resolved_action == "truncate"
        assert FaultRule(site="cache.get.os_error").resolved_action \
            == "raise"

    @pytest.mark.parametrize("mode,n,hits", [
        ("always", 1, [1, 2, 3, 4]),
        ("first", 2, [1, 2]),
        ("nth", 3, [3]),
    ])
    def test_counted_modes(self, mode, n, hits):
        import random

        rule = FaultRule(site="executor.job.error", mode=mode, n=n)
        rng = random.Random(0)
        fired = [hit for hit in range(1, 5) if rule.matches(hit, rng)]
        assert fired == hits


class TestPlanSerialization:
    def test_round_trip(self):
        plan = FaultPlan(seed=7, rules=[
            FaultRule(site="cache.get.torn_record", mode="nth", n=2,
                      fraction=0.25),
            FaultRule(site="executor.job.error", mode="prob", p=0.5,
                      exc="OptimizationError"),
        ])
        text = plan.to_string()
        clone = FaultPlan.from_string(text)
        assert clone.seed == 7
        assert clone.to_string() == text
        assert [rule.to_dict() for rule in clone.rules] \
            == [rule.to_dict() for rule in plan.rules]

    def test_plan_string_is_compact_sorted_json(self):
        plan = FaultPlan(seed=3,
                         rules=[FaultRule(site="cache.put.os_error")])
        data = json.loads(plan.to_string())
        assert data == {"seed": 3, "rules": [
            {"site": "cache.put.os_error", "mode": "nth", "n": 1}]}

    def test_malformed_plan_string_rejected(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_string("{nope")
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_string("[1,2]")


class TestDeterminism:
    def test_prob_stream_is_per_site_and_replayable(self):
        def draw_sequence(interleave):
            plan = FaultPlan(seed=99, rules=[
                FaultRule(site="cache.get.os_error", mode="prob", p=0.5),
                FaultRule(site="executor.job.error", mode="prob", p=0.5),
            ])
            for site in interleave:
                plan.trigger(site)
            return [(event.site, event.hit) for event in plan.events]

        a = ["cache.get.os_error"] * 6 + ["executor.job.error"] * 6
        b = [site for pair in zip(["cache.get.os_error"] * 6,
                                  ["executor.job.error"] * 6)
             for site in pair]
        # Same per-site traffic, different interleaving: each site's
        # decisions must be identical (per-site PRNG streams).
        fired_a = draw_sequence(a)
        fired_b = draw_sequence(b)
        assert {s for s, _ in fired_a} <= {"cache.get.os_error",
                                           "executor.job.error"}
        for site in ("cache.get.os_error", "executor.job.error"):
            assert [h for s, h in fired_a if s == site] \
                == [h for s, h in fired_b if s == site]

    def test_event_log_sequence_numbers_are_global(self):
        plan = FaultPlan(seed=0, rules=[
            FaultRule(site="cache.get.os_error", mode="always"),
            FaultRule(site="executor.job.error", mode="always")])
        plan.trigger("cache.get.os_error")
        plan.trigger("executor.job.error")
        plan.trigger("cache.get.os_error")
        assert [event.seq for event in plan.events] == [1, 2, 3]
        log = plan.event_log()
        assert log[0].startswith("#1 cache.get.os_error hit=1")
        assert log[2].startswith("#3 cache.get.os_error hit=2")

    def test_unregistered_site_trigger_raises(self):
        plan = FaultPlan()
        with pytest.raises(ValueError, match="unregistered fault site"):
            plan.trigger("made.up.site")


class TestSuspension:
    def test_suspended_consumes_no_hits_or_draws(self):
        plan = FaultPlan(seed=1, rules=[
            FaultRule(site="cache.get.os_error", mode="nth", n=2)])
        plan.trigger("cache.get.os_error")
        with plan.suspended():
            for _ in range(10):
                assert plan.trigger("cache.get.os_error") is None
        assert plan.hit_count("cache.get.os_error") == 1
        # The 2nd *unsuspended* invocation still fires.
        assert plan.trigger("cache.get.os_error") is not None

    def test_suspension_is_per_thread(self):
        plan = FaultPlan(seed=1, rules=[
            FaultRule(site="cache.get.os_error", mode="always")])
        fired_on_worker = []

        def worker():
            fired_on_worker.append(
                plan.trigger("cache.get.os_error") is not None)

        with plan.suspended():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert plan.trigger("cache.get.os_error") is None
        assert fired_on_worker == [True]


class TestHooks:
    def test_inactive_helpers_are_passthrough(self):
        assert hooks.ACTIVE is None
        hooks.fire("cache.get.os_error")  # no-op, nothing raised
        assert hooks.should("cache.put.stale_tmp") is False
        assert hooks.delay_duration("executor.job.hang") == 0.0
        assert hooks.mutate("cache.get.torn_record", "abcd") == "abcd"
        assert hooks.pick_lane("serve.optimize.lane_error", 4) is None

    def test_active_context_installs_and_restores(self):
        plan = FaultPlan(seed=5, rules=[
            FaultRule(site="cache.get.os_error", mode="always")])
        with hooks.active(plan) as installed:
            assert hooks.ACTIVE is installed is plan
            with pytest.raises(OSError, match="injected fault at "
                                              "cache.get.os_error"):
                hooks.fire("cache.get.os_error")
        assert hooks.ACTIVE is None

    def test_fire_uses_configured_exception(self):
        plan = FaultPlan(rules=[FaultRule(site="executor.job.error",
                                          mode="always",
                                          exc="OptimizationError")])
        with hooks.active(plan):
            with pytest.raises(OptimizationError):
                hooks.fire("executor.job.error")

    def test_mutate_truncates_and_drops(self):
        plan = FaultPlan(seed=2, rules=[
            FaultRule(site="cache.get.torn_record", mode="always",
                      fraction=0.5),
            FaultRule(site="batcher.envelope.malformed", mode="always")])
        with hooks.active(plan):
            assert hooks.mutate("cache.get.torn_record", "abcdef") \
                == "abc"
            dropped = hooks.mutate("batcher.envelope.malformed",
                                   [1, 2, 3, 4])
            assert len(dropped) == 3

    def test_env_round_trip(self):
        from repro.faults.hooks import FAULTS_ENV, _install_from_env
        import os

        plan = FaultPlan(seed=9, rules=[
            FaultRule(site="cache.put.os_error", mode="nth", n=1)])
        os.environ[FAULTS_ENV] = plan.to_string()
        try:
            _install_from_env()
            assert hooks.ACTIVE is not None
            assert hooks.ACTIVE.to_string() == plan.to_string()
        finally:
            del os.environ[FAULTS_ENV]
            hooks.uninstall()

    def test_nan_lanes_poisons_one_seeded_lane(self):
        import numpy as np

        plan = FaultPlan(seed=4, rules=[
            FaultRule(site="kernels.threshold_delay.nan_lane",
                      mode="always")])
        tau = np.linspace(1.0, 2.0, 8)
        with hooks.active(plan):
            poisoned = hooks.nan_lanes(
                "kernels.threshold_delay.nan_lane", tau)
        assert np.isnan(poisoned).sum() == 1
        assert np.all(np.isfinite(tau))  # input untouched (copy)


def test_registry_sites_have_scenarios_and_descriptions():
    assert len(FAULT_POINTS) == 19
    for name, point in FAULT_POINTS.items():
        assert point.name == name
        assert point.scenario in ("cache", "engine", "serve", "backend",
                                  "store")
        assert point.description
