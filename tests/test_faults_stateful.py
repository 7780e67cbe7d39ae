"""Stateful invariant harness: Hypothesis drives a live faulted server.

A :class:`~hypothesis.stateful.RuleBasedStateMachine` runs a real
``ServerThread`` (sockets, asyncio loop, executor threads) backed by an
on-disk result cache, arms fault rules *while the server is live*, and
fires request traffic at it.  After every step the machine holds the
stack to its contract:

* every admitted request is answered or explicitly rejected — a client
  timeout (a silently dropped lane) fails the test;
* every successful response is bitwise identical to the request's own
  solo ``job.run()`` ground truth (precomputed before any plan exists);
* the cache never serves a torn record, and its orphaned ``.tmp`` files
  are exactly the injected ``cache.put.stale_tmp`` events;
* lane-scoped faults fail lanes, not bursts — with no rules armed,
  nothing fails at all;
* ``/metrics`` reconciles: ``requests_total`` equals the recorded
  outcomes (excluding pre-parse ``unknown`` outcomes).

Example count is ``REPRO_FAULTS_EXAMPLES`` (default 25 for local runs;
CI pins 200 with a fixed ``--hypothesis-seed``).
"""

import http.client
import os
import shutil
import socket
import tempfile

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 rule)

from repro.engine.jobs import canonical_json, job_to_dict
from repro.engine.store import DiskStore
from repro.faults import FaultPlan, FaultRule, hooks
from repro.faults.harness import OPTIMIZE_FAULT_SITES, _workload_jobs
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.server import ServerThread
from repro.serve.service import ReproService

#: Sites the live-server machine may arm (serve + cache scenarios; the
#: engine sites are exercised by the executor fault tests instead).
ARMABLE_SITES = (
    "cache.get.os_error", "cache.get.torn_record", "cache.put.os_error",
    "cache.put.stale_tmp", "kernels.threshold_delay.nan_lane",
    "serve.optimize.lane_error", "batcher.dispatch.delay",
    "batcher.evaluate.error", "batcher.envelope.malformed",
    "server.read.drop", "server.write.truncate",
)

MAX_EXAMPLES = int(os.environ.get("REPRO_FAULTS_EXAMPLES", "25"))

#: Ground truths: kind -> [canonical solo result per workload job].
#: Computed once, with no fault plan installed.
_WORKLOAD = None
_TRUTHS = None


def _workload_and_truths():
    global _WORKLOAD, _TRUTHS
    if _WORKLOAD is None:
        assert hooks.ACTIVE is None
        _WORKLOAD = _workload_jobs()
        _TRUTHS = {kind: [canonical_json(job.run()) for job in jobs]
                   for kind, jobs in _WORKLOAD.items()}
    return _WORKLOAD, _TRUTHS


class FaultedServerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.workload, self.truths = _workload_and_truths()
        self.tmpdir = tempfile.mkdtemp(prefix="repro-faults-state-")
        self.cache = DiskStore(self.tmpdir)
        self.service = ReproService(cache=self.cache, max_batch_size=8,
                                    max_linger=0.02, default_timeout=10.0)
        self.plan = None
        self.handle = None
        self.client = None
        self.armed_sites = set()

    # -- lifecycle -----------------------------------------------------
    @initialize(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def start_server(self, seed):
        self.plan = hooks.install(FaultPlan(seed=seed))
        self.handle = ServerThread(self.service).start()
        self.client = ServeClient.from_url(self.handle.url, timeout=15.0)

    def teardown(self):
        try:
            if self.client is not None:
                self.client.close()
            if self.handle is not None:
                self.handle.stop()
                self._check_cache()
                self._check_metrics(self.service.metrics.to_payload())
        finally:
            hooks.uninstall()
            shutil.rmtree(self.tmpdir, ignore_errors=True)

    # -- fault dial ----------------------------------------------------
    @rule(site=st.sampled_from(ARMABLE_SITES),
          mode=st.sampled_from(["nth", "first", "prob"]),
          n=st.integers(min_value=1, max_value=3),
          p=st.floats(min_value=0.1, max_value=0.9))
    def arm_fault(self, site, mode, n, p):
        kwargs = {"delay": 0.01} if site == "batcher.dispatch.delay" \
            else {}
        self.plan.arm(FaultRule(site=site, mode=mode, n=n, p=p, **kwargs))
        self.armed_sites.add(site)

    # -- traffic -------------------------------------------------------
    def _check_response(self, kind, index, response):
        assert isinstance(response, dict), \
            f"{kind}[{index}] non-object response: {response!r}"
        if response.get("ok"):
            if kind == "optimize" \
                    and self.armed_sites & OPTIMIZE_FAULT_SITES:
                return  # re-seeded lanes legitimately differ bitwise
            assert canonical_json(response["result"]) \
                == self.truths[kind][index], \
                f"{kind}[{index}] served result differs from solo run"
        else:
            error = response.get("error")
            assert isinstance(error, dict) and error.get("code") \
                and error.get("message"), \
                f"{kind}[{index}] failure lacks structured error"
            assert self.armed_sites, \
                f"{kind}[{index}] failed with no fault armed: {error}"

    @rule(kind=st.sampled_from(["delay", "critical_inductance",
                                "optimize"]),
          count=st.integers(min_value=2, max_value=5))
    def send_burst(self, kind, count):
        jobs = self.workload[kind][:count]
        documents = [job_to_dict(job) for job in jobs]
        try:
            responses = self.client.evaluate_many(documents)
        except socket.timeout:
            raise AssertionError(
                f"{kind} burst timed out — an admitted lane was "
                f"never answered")
        except (ServeClientError, http.client.HTTPException,
                OSError) as exc:
            # An explicit failure is an answer; only valid with faults.
            assert self.armed_sites, \
                f"{kind} burst failed with no fault armed: {exc}"
            return
        assert len(responses) == len(documents), \
            f"{kind} burst: {len(documents)} in, {len(responses)} out"
        for index, response in enumerate(responses):
            self._check_response(kind, index, response)

    @rule(index=st.integers(min_value=0, max_value=5))
    def send_single(self, index):
        job = self.workload["delay"][index]
        try:
            response = self.client.evaluate(job_to_dict(job))
        except socket.timeout:
            raise AssertionError(
                "single request timed out — admitted but never answered")
        except ServeClientError as exc:
            assert self.armed_sites, \
                f"single failed with no fault armed: {exc}"
            return
        except (http.client.HTTPException, OSError) as exc:
            assert self.armed_sites, \
                f"single transport error with no fault armed: {exc}"
            return
        self._check_response("delay", index, response)

    @rule()
    def scrape_metrics(self):
        try:
            payload = self.client.metrics()
        except (ServeClientError, http.client.HTTPException,
                OSError) as exc:
            assert self.armed_sites, \
                f"metrics scrape failed with no fault armed: {exc}"
            return
        self._check_metrics(payload)

    # -- invariants ----------------------------------------------------
    def _check_metrics(self, payload):
        recorded = sum(count for key, count in payload["outcomes"].items()
                       if not key.startswith("unknown:"))
        assert payload["requests_total"] == recorded, \
            f"metrics do not reconcile: requests_total=" \
            f"{payload['requests_total']} vs outcomes {payload['outcomes']}"

    def _check_cache(self):
        import json

        stale = self.plan.fired_sites().get("cache.put.stale_tmp", 0) \
            if self.plan is not None else 0
        tmp_files = self.cache.tmp_files()
        assert len(tmp_files) == stale, \
            f"{len(tmp_files)} orphaned .tmp files, expected {stale} " \
            f"(injected cache.put.stale_tmp events)"
        for path in self.cache._record_paths():
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)  # torn record -> ValueError
            assert "result" in record, f"record {path.name} incomplete"

    @invariant()
    def server_thread_alive(self):
        if self.handle is not None:
            assert self.handle._thread.is_alive(), \
                "the server thread died mid-example"


FaultedServerMachine.TestCase.settings = settings(
    max_examples=MAX_EXAMPLES,
    stateful_step_count=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large,
                           HealthCheck.filter_too_much],
)

TestFaultedServer = FaultedServerMachine.TestCase


def test_nan_probe_in_served_optimize_trace():
    """A run the machine found, driven by hand: stateful machines take
    no ``@example``.  One optimize lane's trace records a NaN probe;
    the lane must still be answered and cached, so the connection
    handler survives and ``/metrics`` reconciles."""
    machine = FaultedServerMachine()
    try:
        machine.start_server(seed=0)
        machine.arm_fault(site="kernels.threshold_delay.nan_lane",
                          mode="nth", n=1, p=0.5)
        machine.send_burst(kind="optimize", count=2)
        machine.scrape_metrics()
        machine.server_thread_alive()
    finally:
        machine.teardown()
