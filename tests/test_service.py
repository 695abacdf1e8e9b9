"""The synthesis service: protocol, budgets, job engine, HTTP server.

Each server under test runs in-process: a background thread owns the
asyncio loop, the test talks real HTTP over a loopback socket, and the
graceful-shutdown path tears everything down.  This exercises the whole
stack -- request parsing, routing, the job queue, token buckets, the
thread/process executors and event streaming -- without subprocesses.
"""

import http.client
import json
import os
import threading
import time

import pytest

from repro.cli import main
from repro.service import JobManager, ServiceServer
from repro.service.jobs import Job, TokenBucket
from repro.service.protocol import ProtocolError, parse_submit

pytestmark = pytest.mark.smoke

DATA = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "repro", "bench", "data",
)

with open(os.path.join(DATA, "delement.g"), encoding="utf-8") as _handle:
    DELEMENT = _handle.read()

TERMINAL = ("done", "failed", "inconclusive")


# ----------------------------------------------------------------------
# In-process server harness
# ----------------------------------------------------------------------
class ServiceUnderTest:
    """One server on a loopback socket, loop on a background thread."""

    def __init__(self, **manager_kwargs):
        self._kwargs = manager_kwargs
        self._ready = threading.Event()
        self._error = None
        self.manager = None
        self.port = None
        self._thread = threading.Thread(target=self._thread_main, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30) or self._error:
            raise RuntimeError(f"server failed to start: {self._error!r}")

    def _thread_main(self):
        import asyncio

        async def _amain():
            try:
                self.manager = JobManager(**self._kwargs)
                server = ServiceServer(self.manager, host="127.0.0.1", port=0)
                await server.start()
                self.port = server.port
            except Exception as exc:  # surface startup failures to the test
                self._error = exc
                self._ready.set()
                return
            self._ready.set()
            await server.serve_until_shutdown()
            # let the /v1/shutdown handler flush its response
            await asyncio.sleep(0.05)

        asyncio.run(_amain())

    # -- HTTP client ---------------------------------------------------
    def request(self, method, path, body=None, headers=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            if isinstance(body, dict):
                body = json.dumps(body)
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def stream_lines(self, path):
        """GET an event stream, return its decoded lines after close."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.read().decode("utf-8").splitlines()
        finally:
            conn.close()

    def submit(self, document, headers=None):
        status, doc = self.request("POST", "/v1/jobs", document, headers)
        assert status == 202, (status, doc)
        return doc["id"]

    def wait(self, job_id, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, doc = self.request("GET", f"/v1/jobs/{job_id}")
            assert status == 200
            if doc["status"] in TERMINAL:
                return doc
            time.sleep(0.01)
        raise AssertionError(f"job {job_id} did not finish in {timeout}s")

    def result(self, job_id):
        status, doc = self.request("GET", f"/v1/jobs/{job_id}/result")
        assert status == 200, (status, doc)
        return doc

    def shutdown(self):
        status, report = self.request("POST", "/v1/shutdown")
        assert status == 200
        self._thread.join(timeout=30)
        assert not self._thread.is_alive()
        return report


@pytest.fixture()
def service():
    """A default thread-mode server (no store, fresh memo)."""
    handle = ServiceUnderTest()
    yield handle
    if handle._thread.is_alive():
        handle.shutdown()


# ----------------------------------------------------------------------
# TokenBucket semantics (deterministic via a fake clock)
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_starts_full_and_drains(self):
        now = [0.0]
        bucket = TokenBucket(100, 10, clock=lambda: now[0])
        assert bucket.available() == 100
        bucket.drain(60)
        assert bucket.available() == 40

    def test_refills_at_rate_up_to_capacity(self):
        now = [0.0]
        bucket = TokenBucket(100, 10, clock=lambda: now[0])
        bucket.drain(100)
        now[0] = 3.0
        assert bucket.available() == pytest.approx(30)
        now[0] = 1000.0
        assert bucket.available() == 100  # capped at capacity

    def test_overdraft_is_a_debt_repaid_by_refill(self):
        now = [0.0]
        bucket = TokenBucket(50, 10, clock=lambda: now[0])
        bucket.drain(80)  # a job overshot its snapshot
        assert bucket.available() == -30
        now[0] = 4.0
        assert bucket.available() == pytest.approx(10)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(0, 10)
        with pytest.raises(ValueError):
            TokenBucket(10, -1)


# ----------------------------------------------------------------------
# Submit-body validation (HTTP 400 surface)
# ----------------------------------------------------------------------
class TestParseSubmit:
    def test_minimal_synth_body_gets_defaults(self):
        kind, tenant, params = parse_submit(
            json.dumps({"kind": "synth", "spec": DELEMENT}).encode()
        )
        assert (kind, tenant) == ("synth", "default")
        assert params["style"] == "C"
        assert params["max_states"] == 200_000
        assert params["verify"] is True

    def test_verify_kind_forces_model_checking(self):
        _, _, params = parse_submit(
            json.dumps(
                {
                    "kind": "verify",
                    "spec": DELEMENT,
                    "options": {"verify": False},
                }
            ).encode()
        )
        assert params["verify"] is True

    def test_tenant_header_default_and_body_override(self):
        _, tenant, _ = parse_submit(
            json.dumps({"kind": "synth", "spec": DELEMENT}).encode(),
            default_tenant="team-a",
        )
        assert tenant == "team-a"
        _, tenant, _ = parse_submit(
            json.dumps(
                {"kind": "synth", "spec": DELEMENT, "tenant": "team-b"}
            ).encode(),
            default_tenant="team-a",
        )
        assert tenant == "team-b"

    @pytest.mark.parametrize(
        "body",
        [
            b"{not json",
            b"[1, 2]",
            json.dumps({"kind": "zap"}).encode(),
            json.dumps({"kind": "synth"}).encode(),  # missing spec
            json.dumps({"kind": "synth", "spec": "  "}).encode(),
            json.dumps(
                {"kind": "synth", "spec": "x", "bogus": 1}
            ).encode(),
            json.dumps(
                {"kind": "synth", "spec": "x", "options": {"zap": 1}}
            ).encode(),
            json.dumps(
                {"kind": "synth", "spec": "x", "options": {"style": "NAND"}}
            ).encode(),
            json.dumps(
                {"kind": "synth", "spec": "x", "options": {"max_states": 0}}
            ).encode(),
            json.dumps(
                {"kind": "synth", "spec": "x",
                 "options": {"max_states": True}}
            ).encode(),
            json.dumps(
                {"kind": "synth", "spec": "x",
                 "options": {"backend": "quantum"}}
            ).encode(),
            json.dumps({"kind": "synth", "spec": "x", "tenant": ""}).encode(),
            json.dumps(
                {"kind": "table1", "options": {"designs": ["no-such"]}}
            ).encode(),
            json.dumps(
                {"kind": "table1", "options": {"designs": []}}
            ).encode(),
            json.dumps({"kind": "diff", "options": {"count": 10**6}}).encode(),
            json.dumps(
                {"kind": "synth", "spec": "x",
                 "options": {"backend": "bitengine"}}
            ).encode(),
            json.dumps({"kind": "table1", "options": {"jobs": 2}}).encode(),
        ],
    )
    def test_malformed_bodies_are_rejected(self, body):
        with pytest.raises(ProtocolError):
            parse_submit(body)


# ----------------------------------------------------------------------
# Job lifecycle over real HTTP (thread mode)
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_synth_job_runs_to_done(self, service):
        status, doc = service.request(
            "POST",
            "/v1/jobs",
            {"kind": "synth", "spec": DELEMENT, "name": "delement"},
        )
        assert status == 202
        assert doc["schema"] == "repro-service-job/1"
        assert doc["status"] == "queued"
        assert doc["kind"] == "synth" and doc["name"] == "delement"

        done = service.wait(doc["id"])
        assert done["status"] == "done"
        assert done["charged_states"] > 0
        assert done["seconds"] is not None
        assert done["result_ready"] is True

        result = service.result(doc["id"])
        payload = result["result"]
        assert payload["schema"] == "repro-service-synth/1"
        assert payload["hazard"]["hazard_free"] is True
        assert payload["netlist"]["gates"]
        assert payload["equations"]

    def test_verify_job_reports_verdict(self, service):
        job_id = service.submit({"kind": "verify", "spec": DELEMENT})
        assert service.wait(job_id)["status"] == "done"
        payload = service.result(job_id)["result"]
        assert payload["schema"] == "repro-service-verify/1"
        assert payload["verdict"] == "hazard-free"
        assert payload["exit_code"] == 0

    def test_bad_specification_fails_cleanly(self, service):
        job_id = service.submit(
            {"kind": "synth", "spec": ".model empty\n.inputs a\n.end\n"}
        )
        doc = service.wait(job_id)
        assert doc["status"] == "failed"
        assert doc["detail"]
        status, _ = service.request("GET", f"/v1/jobs/{job_id}/result")
        assert status == 200  # failed is terminal: result doc served

    def test_tiny_state_budget_is_inconclusive(self, service):
        job_id = service.submit(
            {
                "kind": "synth",
                "spec": DELEMENT,
                "options": {"max_states": 5},
            }
        )
        doc = service.wait(job_id)
        assert doc["status"] == "inconclusive"

    def test_event_stream_covers_every_stage(self, service):
        job_id = service.submit({"kind": "synth", "spec": DELEMENT})
        service.wait(job_id)
        events = [
            json.loads(line)
            for line in service.stream_lines(f"/v1/jobs/{job_id}/events")
        ]
        kinds = [event["event"] for event in events]
        assert kinds[0] == "status" and kinds[-1] == "status"
        assert events[-1]["status"] == "done"
        stages = [e["stage"] for e in events if e["event"] == "stage"]
        assert stages == ["reach", "regions", "mc", "covers", "netlist"]
        assert any(e["event"] == "phase" for e in events)

    def test_event_stream_sse_framing(self, service):
        job_id = service.submit({"kind": "synth", "spec": DELEMENT})
        service.wait(job_id)
        lines = service.stream_lines(f"/v1/jobs/{job_id}/events?format=sse")
        assert any(line.startswith("event: status") for line in lines)
        assert any(line.startswith("data: {") for line in lines)

    def test_result_before_terminal_is_conflict(self, service):
        # white-box: park a queued job that no worker will ever claim
        job = Job(id="j-parked", kind="synth", tenant="t", params={})
        service.manager._jobs[job.id] = job
        status, doc = service.request("GET", "/v1/jobs/j-parked/result")
        assert status == 409
        assert "not ready" in doc["error"]

    def test_unknown_job_and_path_are_404(self, service):
        assert service.request("GET", "/v1/jobs/j999999")[0] == 404
        assert service.request("GET", "/v1/nope")[0] == 404

    def test_wrong_method_is_405(self, service):
        assert service.request("PUT", "/v1/jobs")[0] == 405
        assert service.request("POST", "/healthz")[0] == 405

    def test_malformed_body_is_400_over_http(self, service):
        status, doc = service.request("POST", "/v1/jobs", "{not json")
        assert status == 400 and "error" in doc
        status, doc = service.request("POST", "/v1/jobs", {"kind": "zap"})
        assert status == 400

    def test_healthz_and_job_listing(self, service):
        status, doc = service.request("GET", "/healthz")
        assert status == 200 and doc["status"] == "ok"
        job_id = service.submit({"kind": "synth", "spec": DELEMENT})
        service.wait(job_id)
        status, doc = service.request("GET", "/v1/jobs")
        assert status == 200
        assert job_id in [job["id"] for job in doc["jobs"]]


# ----------------------------------------------------------------------
# The resident cache: concurrent submissions share one warm world
# ----------------------------------------------------------------------
class TestWarmSharing:
    def test_repeat_submission_hits_shared_memo(self, service):
        first = service.submit({"kind": "synth", "spec": DELEMENT})
        second = service.submit({"kind": "synth", "spec": DELEMENT})
        cold = service.wait(first)
        warm = service.wait(second)
        assert cold["cache"]["misses"] > 0
        assert warm["cache"]["hits"] > 0
        assert warm["cache"]["misses"] == 0
        # both jobs produced the identical artifact
        assert (
            service.result(first)["result"]
            == service.result(second)["result"]
        )

    def test_stats_expose_the_resident_world(self, service):
        job_id = service.submit({"kind": "synth", "spec": DELEMENT})
        service.wait(job_id)
        status, stats = service.request("GET", "/v1/stats")
        assert status == 200
        assert stats["schema"] == "repro-service-stats/1"
        assert stats["mode"] == "thread" and stats["workers"] == 1
        assert stats["memo_entries"] > 0
        assert stats["cache"]["misses"] > 0
        assert stats["jobs"]["done"] == 1

    def test_process_mode_shares_warmth_through_store(self, tmp_path):
        handle = ServiceUnderTest(store=str(tmp_path / "store"), workers=2)
        try:
            ids = [
                handle.submit({"kind": "synth", "spec": DELEMENT})
                for _ in range(3)
            ]
            docs = [handle.wait(job_id) for job_id in ids]
            assert all(doc["status"] == "done" for doc in docs)
            # later jobs read artifacts an earlier worker persisted
            assert any(doc["cache"].get("store_hit", 0) > 0 for doc in docs)
            results = [handle.result(job_id)["result"] for job_id in ids]
            assert results[0] == results[1] == results[2]
        finally:
            report = handle.shutdown()
        assert report["pending"] == 0

    def test_stats_report_the_store(self, tmp_path):
        handle = ServiceUnderTest(store=str(tmp_path / "store"))
        try:
            doc = handle.wait(
                handle.submit({"kind": "synth", "spec": DELEMENT})
            )
            assert doc["status"] == "done"
            status, stats = handle.request("GET", "/v1/stats")
            assert status == 200
            assert sorted(stats["store"]) == ["root", "traffic"]
            assert stats["store"]["traffic"]["put"] >= 1
        finally:
            handle.shutdown()


class TestShardedService:
    """Process-mode services over one flat store, one after the other."""

    def test_process_mode_shares_warmth_through_shards(self, tmp_path):
        root = str(tmp_path / "store")
        first = ServiceUnderTest(store=root, workers=2)
        try:
            cold = first.wait(first.submit({"kind": "synth", "spec": DELEMENT}))
            assert cold["status"] == "done"
            cold_result = first.result(cold["id"])["result"]
        finally:
            first.shutdown()
        # a fresh service has an empty memo: its workers warm from disk
        second = ServiceUnderTest(store=root, workers=2)
        try:
            warm = second.wait(
                second.submit({"kind": "synth", "spec": DELEMENT})
            )
            assert warm["status"] == "done"
            assert warm["cache"].get("store_hit", 0) > 0
            assert second.result(warm["id"])["result"] == cold_result
        finally:
            second.shutdown()


# ----------------------------------------------------------------------
# Tenant token buckets -> the inconclusive verdict
# ----------------------------------------------------------------------
class TestTenantBudget:
    def test_exhaustion_is_inconclusive_and_per_tenant(self):
        # capacity 40 with no refill: delement charges ~35 state tokens,
        # so the first job nearly drains the bucket.  Later jobs must use
        # *different* designs -- a repeat of delement is served from the
        # shared memo and cached work charges nothing.
        with open(os.path.join(DATA, "nak-pa.g"), encoding="utf-8") as fh:
            nak_pa = fh.read()
        with open(
            os.path.join(DATA, "mp-forward-pkt.g"), encoding="utf-8"
        ) as fh:
            forward = fh.read()
        handle = ServiceUnderTest(tenant_tokens=40, tenant_refill=0.0)
        try:
            first = handle.submit({"kind": "synth", "spec": DELEMENT})
            assert handle.wait(first)["status"] == "done"

            # cached repeats stay free: the same spec again still succeeds
            again = handle.submit({"kind": "synth", "spec": DELEMENT})
            assert handle.wait(again)["status"] == "done"

            # fresh work only has ~5 tokens left: budget trips mid-run
            second = handle.submit({"kind": "synth", "spec": nak_pa})
            starved = handle.wait(second)
            assert starved["status"] == "inconclusive"
            assert starved["detail"]

            # an empty bucket never even starts the job
            handle.manager.bucket("default").drain(40)
            third = handle.submit({"kind": "synth", "spec": forward})
            empty = handle.wait(third)
            assert empty["status"] == "inconclusive"
            assert "budget exhausted" in empty["detail"]

            # a different tenant has its own untouched bucket
            other = handle.submit(
                {"kind": "synth", "spec": DELEMENT},
                headers={"X-Tenant": "team-b"},
            )
            assert handle.wait(other)["status"] == "done"

            _, stats = handle.request("GET", "/v1/stats")
            assert set(stats["tenants"]) == {"default", "team-b"}
            assert stats["tenants"]["default"] < 1.0
        finally:
            handle.shutdown()


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------
class TestShutdown:
    def test_drain_finishes_in_flight_jobs(self):
        handle = ServiceUnderTest()
        ids = [
            handle.submit({"kind": "synth", "spec": DELEMENT})
            for _ in range(3)
        ]
        report = handle.shutdown()
        assert report["drained"] is True
        assert report["pending"] == 0 and report["pending_ids"] == []
        assert report["jobs"] == {"done": 3}
        assert len(ids) == 3
        # the listener is gone: new connections are refused
        with pytest.raises(OSError):
            handle.request("GET", "/healthz")

    def test_submissions_after_drain_are_rejected(self):
        handle = ServiceUnderTest()
        import asyncio

        asyncio.run_coroutine_threadsafe(
            _set_draining(handle.manager), _manager_loop(handle.manager)
        ).result(timeout=10)
        status, doc = handle.request(
            "POST", "/v1/jobs", {"kind": "synth", "spec": DELEMENT}
        )
        assert status == 503
        assert "draining" in doc["error"]
        handle.shutdown()


async def _set_draining(manager):
    manager._draining = True


def _manager_loop(manager):
    return manager._loop


# ----------------------------------------------------------------------
# CLI --store validation (exit 2, no mid-run traceback)
# ----------------------------------------------------------------------
class TestStoreValidation:
    def test_batch_rejects_file_store_path(self, tmp_path, capsys):
        bogus = tmp_path / "not-a-dir"
        bogus.write_text("occupied")
        code = main(
            [
                "batch",
                os.path.join(DATA, "delement.g"),
                "--store",
                str(bogus),
            ]
        )
        assert code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_serve_rejects_file_store_path(self, tmp_path, capsys):
        bogus = tmp_path / "not-a-dir"
        bogus.write_text("occupied")
        code = main(["serve", "--store", str(bogus)])
        assert code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_serve_rejects_unwritable_store(self, tmp_path, capsys):
        if os.geteuid() == 0:
            pytest.skip("root ignores directory permissions")
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(0o500)
        try:
            code = main(["serve", "--store", str(locked / "store")])
        finally:
            locked.chmod(0o700)
        assert code == 2
        assert "store" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Bounded residency: the memo LRU and the finished-job retention window
# ----------------------------------------------------------------------
class TestLRUMemo:
    def test_evicts_least_recently_used(self):
        from repro.service.jobs import LRUMemo

        memo = LRUMemo(max_entries=2)
        memo["a"] = 1
        memo["b"] = 2
        assert memo["a"] == 1  # refresh 'a': 'b' is now the oldest
        memo["c"] = 3
        assert set(memo) == {"a", "c"}

    def test_rejects_non_positive_capacity(self):
        from repro.service.jobs import LRUMemo

        with pytest.raises(ValueError, match="max_entries"):
            LRUMemo(0)


class TestJobRetention:
    def test_oldest_terminal_jobs_are_pruned(self):
        manager = JobManager(keep_jobs=2)
        statuses = ["done", "failed", "running", "done", "queued", "done"]
        for n, status in enumerate(statuses):
            job = Job(id=f"j{n}", kind="synth", tenant="t", params={})
            job.status = status
            manager._jobs[job.id] = job
        manager._prune_jobs()
        # 4 terminal jobs -> the 2 oldest go; live jobs are untouchable
        assert sorted(manager._jobs) == ["j2", "j3", "j4", "j5"]

    def test_retention_must_keep_at_least_one(self):
        with pytest.raises(ValueError, match="keep_jobs"):
            JobManager(keep_jobs=0)


# ----------------------------------------------------------------------
# Shutdown is serialized: concurrent callers share one drain
# ----------------------------------------------------------------------
class TestShutdownRace:
    def test_concurrent_shutdowns_drain_once(self):
        import asyncio

        async def _main():
            manager = JobManager()
            server = ServiceServer(manager, port=0)
            await server.start()
            calls = []
            real_drain = manager.drain

            async def counting_drain():
                calls.append(1)
                return await real_drain()

            manager.drain = counting_drain
            reports = await asyncio.gather(
                server.shutdown(), server.shutdown()
            )
            assert calls == [1]
            assert reports[0] is reports[1]

        asyncio.run(_main())


# ----------------------------------------------------------------------
# Oversized request/header lines are client errors, not 500s
# ----------------------------------------------------------------------
class TestOversizedLines:
    def test_oversized_request_line_is_400(self, service):
        status, doc = service.request("GET", "/" + "x" * (80 * 1024))
        assert status == 400
        assert "too long" in doc["error"]

    def test_oversized_header_line_is_400(self, service):
        status, doc = service.request(
            "GET", "/healthz", headers={"X-Pad": "x" * (80 * 1024)}
        )
        assert status == 400
        assert "too long" in doc["error"]


# ----------------------------------------------------------------------
# Internal bugs are labeled as such, with the traceback preserved
# ----------------------------------------------------------------------
class TestInternalErrors:
    def test_internal_bug_is_labeled_and_traced(self, monkeypatch, capsys):
        from repro.pipeline.context import AnalysisContext
        from repro.service import jobs as jobs_mod

        def boom(params, context, emit):
            raise RuntimeError("kaboom")

        monkeypatch.setitem(jobs_mod._RUNNERS, "synth", boom)
        outcome = jobs_mod.run_job(
            "synth", {}, AnalysisContext(), lambda event: None
        )
        assert outcome["status"] == "failed"
        assert outcome["detail"] == "internal error: RuntimeError: kaboom"
        assert "kaboom" in capsys.readouterr().err


# ----------------------------------------------------------------------
# HTTP keep-alive: persistent connections, opt-out, HTTP/1.0
# ----------------------------------------------------------------------
class TestKeepAlive:
    def test_requests_reuse_one_socket(self, service):
        conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=60)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Connection") == "keep-alive"
            response.read()
            sock = conn.sock
            assert sock is not None
            for path in ("/v1/stats", "/v1/jobs", "/healthz"):
                conn.request("GET", path)
                response = conn.getresponse()
                assert response.status == 200
                assert response.getheader("Connection") == "keep-alive"
                response.read()
                assert conn.sock is sock  # same socket, no reconnect
        finally:
            conn.close()

    def test_connection_close_honoured(self, service):
        conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=60)
        try:
            conn.request("GET", "/healthz", headers={"Connection": "close"})
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Connection") == "close"
            response.read()
            # http.client drops the socket once the server closes
            assert conn.sock is None
        finally:
            conn.close()

    def test_http_10_defaults_to_close(self, service):
        import socket

        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=60
        ) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            payload = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break  # server closed: HTTP/1.0 is one-shot
                payload += chunk
        head = payload.split(b"\r\n\r\n", 1)[0].decode("latin-1").lower()
        assert "connection: close" in head

    def test_errors_on_kept_connection_do_not_kill_it(self, service):
        conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=60)
        try:
            conn.request("GET", "/no/such/path")
            response = conn.getresponse()
            assert response.status == 404
            assert response.getheader("Connection") == "keep-alive"
            response.read()
            sock = conn.sock
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            response.read()
            assert conn.sock is sock
        finally:
            conn.close()


# ----------------------------------------------------------------------
# Corpus sweep jobs
# ----------------------------------------------------------------------
CORPUS_DOC = {
    "schema": "repro-corpus-spec/1",
    "count": 3,
    "seed": 5,
    "name_prefix": "svc",
    "families": [
        {"family": "token_ring", "params": {"channels": [2, 3]}},
        {"family": "linear_pipeline", "params": {"stages": [2, 3]}},
    ],
}


class TestCorpusJobs:
    def test_parse_submit_defaults(self):
        kind, _, params = parse_submit(
            json.dumps({"kind": "corpus", "corpus": CORPUS_DOC}).encode()
        )
        assert kind == "corpus"
        assert params["corpus"]["count"] == 3
        assert params["corpus"]["seed"] == 5
        assert params["max_states"] == 20_000
        assert params["jobs"] is None

    def test_seed_option_overrides_spec(self):
        _, _, params = parse_submit(
            json.dumps(
                {
                    "kind": "corpus",
                    "corpus": CORPUS_DOC,
                    "options": {"seed": 99},
                }
            ).encode()
        )
        assert params["corpus"]["seed"] == 99

    @pytest.mark.parametrize(
        "body",
        [
            json.dumps({"kind": "corpus"}).encode(),  # no corpus doc
            json.dumps({"kind": "corpus", "corpus": 7}).encode(),
            json.dumps(
                {"kind": "corpus", "corpus": {"schema": "repro-corpus-spec/1"}}
            ).encode(),  # missing count
            json.dumps(
                {"kind": "corpus", "corpus": CORPUS_DOC, "spec": "x"}
            ).encode(),  # spec is for file-backed kinds
            json.dumps(
                {"kind": "synth", "spec": "x", "corpus": CORPUS_DOC}
            ).encode(),  # corpus doc on a non-corpus kind
            json.dumps(
                {"kind": "corpus", "corpus": dict(CORPUS_DOC, count=10**6)}
            ).encode(),  # above MAX_CORPUS_COUNT
            json.dumps(
                {"kind": "corpus", "corpus": CORPUS_DOC,
                 "options": {"seed": -1}}
            ).encode(),
            json.dumps(
                {"kind": "corpus", "corpus": CORPUS_DOC,
                 "options": {"style": "NAND"}}
            ).encode(),
        ],
    )
    def test_malformed_corpus_submissions_rejected(self, body):
        with pytest.raises(ProtocolError):
            parse_submit(body)

    def test_corpus_job_runs_to_done(self, service):
        job_id = service.submit({"kind": "corpus", "corpus": CORPUS_DOC})
        doc = service.wait(job_id)
        assert doc["status"] == "done", doc
        result = service.result(job_id)["result"]
        assert result["schema"] == "repro-service-corpus/1"
        assert result["seed"] == 5
        assert result["designs"] == 3
        assert result["statuses"] == {"hazard-free": 3}
        manifest = result["manifest"]
        assert len(manifest["designs"]) == 3
        for entry in manifest["designs"]:
            assert entry["spec"].startswith("corpus:svc-")

    def test_corpus_job_streams_design_events(self, service):
        job_id = service.submit({"kind": "corpus", "corpus": CORPUS_DOC})
        service.wait(job_id)
        lines = service.stream_lines(f"/v1/jobs/{job_id}/events")
        events = [json.loads(line) for line in lines if line.strip()]
        designs = [e["design"] for e in events if e.get("event") == "design"]
        assert len(designs) == 3
