"""Tests for the ``repro-faults`` CLI and the campaign harness.

The acceptance contract of the fault plane is exercised end to end
here: ``replay`` of one plan string twice produces the identical event
sequence, and the (slow-marked) campaign fires every registered fault
site at least once with all invariants held.
"""

import json

import pytest

from repro.faults import FAULT_POINTS, FaultPlan
from repro.faults.cli import main
from repro.faults.harness import (SITE_RULES, run_campaign, run_plan,
                                  scenario_plan, site_plan)


class TestPlanCommand:
    def test_list_sites(self, capsys):
        assert main(["plan", "--list-sites"]) == 0
        out = capsys.readouterr().out
        for name in FAULT_POINTS:
            assert name in out

    def test_rule_spec_round_trips(self, capsys):
        assert main(["plan", "--rule", "cache.get.torn_record:nth:2",
                     "--rule", "server.read.drop",
                     "--seed", "7"]) == 0
        plan = FaultPlan.from_string(capsys.readouterr().out.strip())
        assert plan.seed == 7
        assert [(rule.site, rule.mode, rule.n) for rule in plan.rules] \
            == [("cache.get.torn_record", "nth", 2),
                ("server.read.drop", "nth", 1)]

    def test_prob_rule_spec(self, capsys):
        assert main(["plan", "--rule",
                     "batcher.evaluate.error:prob:0.25"]) == 0
        plan = FaultPlan.from_string(capsys.readouterr().out.strip())
        assert plan.rules[0].mode == "prob"
        assert plan.rules[0].p == 0.25

    def test_unknown_site_fails(self, capsys):
        assert main(["plan", "--rule", "no.such.site"]) == 2
        assert "unknown fault site" in capsys.readouterr().err

    def test_no_rule_fails(self, capsys):
        assert main(["plan"]) == 2

    def test_scenario_plan(self, capsys):
        assert main(["plan", "--scenario", "cache", "--seed", "3"]) == 0
        plan = FaultPlan.from_string(capsys.readouterr().out.strip())
        assert {rule.site for rule in plan.rules} \
            == {name for name, point in FAULT_POINTS.items()
                if point.scenario == "cache"}

    def test_unknown_scenario_fails(self, capsys):
        assert main(["plan", "--scenario", "bogus"]) == 2


#: Mixed plans arming a backend-plane site beside a site that fails
#: lanes (NaN lane) or beside a ``prob`` backend rule that may fail
#: every run.  Every lane is still answered or rejected, so each
#: replay holds every invariant.
MIXED_BACKEND_PLANS = {
    "nan-lane+queue-full":
        '{"rules":[{"mode":"nth","n":2,'
        '"site":"kernels.threshold_delay.nan_lane"},'
        '{"mode":"first","n":3,"site":"backend.dispatch.queue_full"}],'
        '"seed":20260810}',
    "prob-queue-full+nan-lane":
        '{"rules":[{"mode":"prob","p":0.7507730258526315,'
        '"site":"backend.dispatch.queue_full"},'
        '{"mode":"nth","n":1,"site":"kernels.threshold_delay.nan_lane"}],'
        '"seed":6}',
    "store+hang+prob-nan-lane":
        '{"rules":[{"mode":"first","n":1,"site":"cache.put.os_error"},'
        '{"mode":"first","n":2,"site":"store.memory.evict_race"},'
        '{"delay":0.01,"mode":"first","n":2,'
        '"site":"backend.worker.hang"},'
        '{"mode":"prob","p":0.2562682245175638,'
        '"site":"kernels.threshold_delay.nan_lane"}],"seed":9}',
}

#: Plans that run two store-writing drivers (engine and serve), with a
#: ``cache.put.stale_tmp`` event in only one of them.  Each driver must
#: count only the stale temp files its own store was given.
STALE_TMP_TWO_DRIVER_PLANS = {
    "evict-race+stale-tmp":
        '{"rules":[{"mode":"prob","p":0.689675815472019,'
        '"site":"store.memory.evict_race"},'
        '{"mode":"nth","n":1,"site":"cache.put.stale_tmp"}],"seed":12}',
    "stale-tmp+engine+serve":
        '{"rules":[{"mode":"first","n":1,"site":"cache.put.stale_tmp"},'
        '{"mode":"nth","n":2,"site":"serve.optimize.lane_error"},'
        '{"mode":"first","n":2,"site":"executor.job.error"},'
        '{"mode":"first","n":1,"site":"server.read.drop"}],"seed":19}',
}


class TestReplayCommand:
    def test_inert_plan_holds_all_invariants(self, capsys):
        assert main(["replay", '{"rules":[],"seed":0}']) == 0
        out = capsys.readouterr().out
        assert "invariants: all held" in out
        assert "events: none fired" in out

    def test_malformed_plan_fails_cleanly(self, capsys):
        assert main(["replay", "{broken"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_plan_from_file(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text('{"rules":[],"seed":1}')
        assert main(["replay", f"@{plan_file}"]) == 0

    @pytest.mark.parametrize("plan_string",
                             list(MIXED_BACKEND_PLANS.values()),
                             ids=list(MIXED_BACKEND_PLANS))
    def test_mixed_backend_plan_holds_every_invariant(self, plan_string,
                                                      capsys):
        assert main(["replay", plan_string]) == 0
        assert "invariants: all held" in capsys.readouterr().out

    @pytest.mark.parametrize("plan_string",
                             list(STALE_TMP_TWO_DRIVER_PLANS.values()),
                             ids=list(STALE_TMP_TWO_DRIVER_PLANS))
    def test_stale_tmp_is_counted_per_driver(self, plan_string, capsys):
        assert main(["replay", plan_string]) == 0
        out = capsys.readouterr().out
        assert "invariants: all held" in out
        assert "cache.put.stale_tmp hit=" in out  # the event fired

    def test_replay_twice_is_identical(self, capsys):
        """The determinism acceptance: same plan, same event sequence."""
        plan = FaultPlan.from_string(
            '{"rules":['
            '{"mode":"nth","n":2,"site":"cache.get.os_error"},'
            '{"fraction":0.5,"mode":"nth","n":1,'
            '"site":"cache.get.torn_record"},'
            '{"mode":"nth","n":1,"site":"cache.put.stale_tmp"},'
            '{"mode":"nth","n":2,"site":"server.read.drop"}],"seed":42}')
        outputs = []
        for _ in range(2):
            assert main(["replay", plan.to_string()]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "#1 " in outputs[0]  # events actually fired


class TestCampaignPresets:
    def test_every_site_has_a_preset(self):
        assert set(SITE_RULES) == set(FAULT_POINTS)

    def test_site_plan_arms_exactly_one_site(self):
        plan = site_plan("batcher.evaluate.error", seed=5)
        assert [rule.site for rule in plan.rules] \
            == ["batcher.evaluate.error"]
        with pytest.raises(ValueError, match="unknown fault site"):
            site_plan("no.such.site")

    def test_scenario_all_covers_registry(self):
        plan = scenario_plan("all")
        assert {rule.site for rule in plan.rules} == set(FAULT_POINTS)


class TestStoreScenario:
    def test_store_scenario_holds_invariants(self):
        report = run_plan(scenario_plan("store"))
        assert report.ok, report.format_summary()
        for site in ("store.memory.evict_race",
                     "store.disk.shard_unwritable"):
            assert report.fired.get(site), f"{site} never fired"


@pytest.mark.slow
class TestFullCampaign:
    def test_campaign_covers_every_site_with_invariants_held(self,
                                                             tmp_path,
                                                             capsys):
        artifact = tmp_path / "failing-plans.jsonl"
        code = main(["campaign", "--seed", "20260809",
                     "--randomized-rounds", "3",
                     "--artifact", str(artifact)])
        out = capsys.readouterr().out
        assert code == 0, f"campaign failed:\n{out}"
        assert "UNCOVERED" not in out
        assert not artifact.exists()  # no failing plans -> no artifact

    def test_campaign_api_coverage_summary(self):
        campaign = run_campaign(seed=1)
        assert campaign.ok, campaign.format_summary()
        assert campaign.uncovered() == []
        for name in FAULT_POINTS:
            assert campaign.coverage[name] >= 1


def test_campaign_artifact_written_for_failing_plans(tmp_path, capsys,
                                                     monkeypatch):
    """A red campaign leaves its failing plans behind for replay."""
    from repro.faults import cli as faults_cli
    from repro.faults.harness import CampaignReport, RunReport, Violation

    def fake_campaign(*, seed, randomized_rounds):
        run = RunReport(plan_string='{"rules":[],"seed":0}')
        run.violations.append(Violation("answered", "synthetic"))
        report = CampaignReport(runs=[run])
        report.coverage = {name: 1 for name in FAULT_POINTS}
        return report

    monkeypatch.setattr("repro.faults.harness.run_campaign",
                        fake_campaign)
    artifact = tmp_path / "failing.jsonl"
    assert faults_cli.main(["campaign", "--artifact",
                            str(artifact)]) == 1
    lines = artifact.read_text().strip().splitlines()
    assert len(lines) == 1
    entry = json.loads(lines[0])
    assert entry["plan"] == '{"rules":[],"seed":0}'
    assert entry["violations"] == ["[answered] synthetic"]
