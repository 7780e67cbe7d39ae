"""End-to-end tests: HTTP server + blocking client over real sockets.

A :class:`ServerThread` runs the asyncio server on its own event-loop
thread while the test talks to it synchronously through
:class:`ServeClient` — exactly how the CLI and an external caller would.
"""

import threading
import time
from concurrent.futures import Future

import pytest

from repro import NODE_100NM, units
from repro.engine.backends import Backend
from repro.engine.jobs import DelayJob, canonical_json, job_to_dict, run_jobs
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.server import ServerThread
from repro.serve.service import ReproService

NH = units.NH_PER_MM


def delay_job(l_nh=1.0):
    return DelayJob(line=NODE_100NM.line.with_inductance(l_nh * NH),
                    driver=NODE_100NM.driver, h=0.01, k=150.0)


class ScriptedBackend(Backend):
    """A backend whose dispatches run a scripted evaluator, each on its
    own thread (off the event loop, as a pool backend's would)."""

    def __init__(self, evaluate):
        super().__init__()
        self.evaluate = evaluate

    def submit(self, jobs):
        future = Future()

        def run():
            try:
                future.set_result(self.evaluate(list(jobs)))
            except Exception as exc:  # noqa: BLE001 — the dispatch fails
                future.set_exception(exc)

        threading.Thread(target=run, daemon=True).start()
        return future


@pytest.fixture()
def server():
    with ServerThread(ReproService(cache=None, max_linger=0.05)) as handle:
        with ServeClient.from_url(handle.url) as client:
            yield handle, client


class TestEndpoints:
    def test_healthz(self, server):
        _handle, client = server
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["queue_depth"] == 0

    def test_evaluate_matches_solo_run(self, server):
        _handle, client = server
        job = delay_job()
        body = client.evaluate(job_to_dict(job))
        assert body["ok"] is True
        assert body["kind"] == "delay"
        assert canonical_json(body["result"]) == canonical_json(job.run())

    def test_json_lines_body_coalesces(self, server):
        handle, client = server
        jobs = [delay_job(l) for l in (0.0, 0.5, 1.0, 1.5)]
        bodies = client.evaluate_many([job_to_dict(job) for job in jobs])
        assert len(bodies) == len(jobs)
        for job, body in zip(jobs, bodies):
            assert body["ok"], body
            assert canonical_json(body["result"]) \
                == canonical_json(job.run())
        # The concurrent NDJSON evaluation really formed a multi-lane
        # batch (the whole point of the protocol shape).
        assert any(body["batch_size"] >= 2 for body in bodies)
        histogram = client.metrics()["batch_size_histogram"]
        assert any(int(key.split(":")[1]) >= 2 for key in histogram)

    def test_metrics_counts_requests(self, server):
        _handle, client = server
        client.evaluate(job_to_dict(delay_job()))
        payload = client.metrics()
        assert payload["requests_total"] >= 1
        assert payload["requests"].get("delay", 0) >= 1
        assert "queue_depth" in payload

    def test_unknown_route_is_404(self, server):
        _handle, client = server
        with pytest.raises(ServeClientError) as err:
            client._request_json("GET", "/nope")
        assert err.value.status == 404
        assert err.value.code == "not_found"

    def test_bad_json_body_is_400(self, server):
        _handle, client = server
        status, payload = client._request("POST", "/v1/evaluate",
                                          b"{not json")
        assert status == 400
        assert b"bad_request" in payload

    def test_bad_request_document_is_400(self, server):
        _handle, client = server
        with pytest.raises(ServeClientError) as err:
            client.evaluate({"kind": "transmogrify"})
        assert err.value.status == 400
        assert err.value.code == "bad_request"

    def test_get_on_evaluate_is_405(self, server):
        _handle, client = server
        status, _payload = client._request("GET", "/v1/evaluate")
        assert status == 405


class TestGracefulShutdown:
    def test_in_flight_request_completes_through_shutdown(self):
        """Stopping the server never drops an accepted request."""
        started = threading.Event()

        def slow_delay_batch(jobs):
            started.set()
            time.sleep(0.3)
            return run_jobs(jobs)

        service = ReproService(cache=None, max_linger=0.0,
                               backend=ScriptedBackend(slow_delay_batch))
        handle = ServerThread(service).start()
        job = delay_job()
        outcome = {}

        def request():
            with ServeClient.from_url(handle.url) as client:
                try:
                    outcome["body"] = client.evaluate(job_to_dict(job))
                except Exception as exc:  # noqa: BLE001 — assert below
                    outcome["error"] = exc

        requester = threading.Thread(target=request)
        requester.start()
        # Shut down while the request is inside the slow evaluator.
        assert started.wait(timeout=10.0)
        handle.stop()
        requester.join(timeout=10.0)
        assert not requester.is_alive()
        assert "error" not in outcome, outcome
        assert outcome["body"]["ok"] is True
        assert canonical_json(outcome["body"]["result"]) \
            == canonical_json(job.run())

    def test_requests_after_shutdown_are_refused(self):
        handle = ServerThread(ReproService(cache=None)).start()
        url = handle.url
        handle.stop()
        with ServeClient.from_url(url, timeout=2.0) as client:
            with pytest.raises((ServeClientError, ConnectionError, OSError)):
                client.evaluate(job_to_dict(delay_job()))
