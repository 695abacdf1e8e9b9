"""Load-test harness for the synthesis service (``repro-si serve``).

Boots the service **in-process** (the HTTP server on a background
event-loop thread, real sockets on loopback), then measures what a
resident analysis world buys over one-shot CLI invocations:

* **cold single-shot**: the first synthesis of a design on a fresh
  server -- empty store, empty memo -- timed from ``POST /v1/jobs`` to
  the terminal event, i.e. what a cold CLI run of the same design costs
  plus the full HTTP round trip;
* **warm latency distribution**: ``--requests`` submissions of the same
  design from ``--clients`` concurrent client threads against the now
  warm world, reported as p50/p99/mean and requests/second.

Every latency is event-driven (the client blocks on the job's NDJSON
event stream until the terminal status arrives), so no polling interval
pollutes the tail.

Results land in the ``service`` section of ``BENCH_pipeline.json``
(``--out`` redirects, e.g. to a scratch file in CI).  The companion
gate in ``check_regression.py`` fails when ``warm_speedup`` -- cold
single-shot over warm p50 -- drops below its floor (10x): the entire
point of the resident service is that the warm path amortises
reachability/insertion/synthesis across requests, and a speedup
collapse means the shared store/memo stopped serving.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py [--quick]
        [--design nowick] [--clients 6] [--requests 120] [--out PATH]
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import os
import statistics
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional

from repro.bench.suite import update_pipeline_json
from repro.service import JobManager, ServiceServer

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_JSON_PATH = os.path.join(_REPO_ROOT, "BENCH_pipeline.json")
_DATA = os.path.join(_REPO_ROOT, "src", "repro", "bench", "data")

#: the gate's floor: warm p50 must beat cold single-shot by this factor
WARM_SPEEDUP_FLOOR = 10.0


class ServerThread:
    """The service in-process: loop on a daemon thread, HTTP on loopback."""

    def __init__(self, **manager_kwargs):
        self._kwargs = manager_kwargs
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self.manager: Optional[JobManager] = None
        self.port: Optional[int] = None
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30) or self._error is not None:
            raise RuntimeError(f"service failed to start: {self._error!r}")

    def _main(self) -> None:
        async def _amain() -> None:
            try:
                self.manager = JobManager(**self._kwargs)
                server = ServiceServer(self.manager, host="127.0.0.1", port=0)
                await server.start()
                self.port = server.port
            except BaseException as exc:
                self._error = exc
                self._ready.set()
                return
            self._ready.set()
            await server.serve_until_shutdown()
            await asyncio.sleep(0.05)  # flush the shutdown response

        asyncio.run(_amain())

    def request(self, method: str, path: str, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=300)
        try:
            if isinstance(body, dict):
                body = json.dumps(body)
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def synth_round_trip(self, document: Dict) -> float:
        """Submit one job, block on its event stream -> wall seconds."""
        start = time.perf_counter()
        status, doc = self.request("POST", "/v1/jobs", document)
        if status != 202:
            raise RuntimeError(f"submit failed: {status} {doc}")
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=300)
        try:
            conn.request("GET", f"/v1/jobs/{doc['id']}/events")
            conn.getresponse().read()  # blocks until the terminal event
        finally:
            conn.close()
        elapsed = time.perf_counter() - start
        status, final = self.request("GET", f"/v1/jobs/{doc['id']}")
        if final["status"] != "done":
            raise RuntimeError(
                f"job {doc['id']} ended {final['status']}: {final['detail']}"
            )
        return elapsed

    def shutdown(self) -> Dict:
        _, report = self.request("POST", "/v1/shutdown")
        self._thread.join(timeout=60)
        return report


def percentile(samples: List[float], q: float) -> float:
    """The q-th percentile (nearest-rank) of a non-empty sample list."""
    ranked = sorted(samples)
    index = min(len(ranked) - 1, max(0, round(q / 100 * len(ranked)) - 1))
    return ranked[index]


def run_load(
    design: str,
    clients: int,
    requests: int,
    quick: bool = False,
) -> Dict:
    """One full measurement: fresh server, cold shot, concurrent warm load."""
    with open(
        os.path.join(_DATA, f"{design}.g"), encoding="utf-8"
    ) as handle:
        spec_text = handle.read()
    document = {"kind": "synth", "spec": spec_text, "name": design}

    with tempfile.TemporaryDirectory(prefix="bench-service-") as scratch:
        server = ServerThread(store=os.path.join(scratch, "store"))
        try:
            cold_s = server.synth_round_trip(document)

            latencies: List[float] = []
            errors: List[BaseException] = []
            lock = threading.Lock()
            share = [requests // clients] * clients
            for extra in range(requests % clients):
                share[extra] += 1

            def client(count: int) -> None:
                try:
                    for _ in range(count):
                        elapsed = server.synth_round_trip(document)
                        with lock:
                            latencies.append(elapsed)
                except BaseException as exc:
                    with lock:
                        errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(count,))
                for count in share if count
            ]
            wall_start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - wall_start
            if errors:
                raise RuntimeError(f"warm load failed: {errors[0]!r}")

            _, stats = server.request("GET", "/v1/stats")
        finally:
            report = server.shutdown()
        if report.get("pending"):
            raise RuntimeError(f"shutdown leaked jobs: {report}")

    warm_p50 = percentile(latencies, 50)
    return {
        "design": design,
        "mode": stats["mode"],
        "clients": len(threads),
        "requests": len(latencies),
        "quick": quick,
        "cold_ms": round(cold_s * 1000, 3),
        "warm_p50_ms": round(warm_p50 * 1000, 3),
        "warm_p99_ms": round(percentile(latencies, 99) * 1000, 3),
        "warm_mean_ms": round(statistics.fmean(latencies) * 1000, 3),
        "requests_per_second": round(len(latencies) / wall, 1),
        "warm_speedup": round(cold_s / warm_p50, 1),
        "cache": stats["cache"],
        "store_traffic": stats["store"]["traffic"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--design", default="nowick",
        help="Table-1 design to load-test (default: nowick, whose cold "
        "pipeline dominates the HTTP overhead)",
    )
    parser.add_argument(
        "--clients", type=int, default=6,
        help="concurrent client threads (default 6)",
    )
    parser.add_argument(
        "--requests", type=int, default=120,
        help="total warm requests across all clients (default 120)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI preset: 3 clients, 30 warm requests",
    )
    parser.add_argument(
        "--out", default=_JSON_PATH,
        help="BENCH_pipeline.json to update (default: repo root)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.clients, args.requests = 3, 30

    payload = run_load(
        args.design, args.clients, args.requests, quick=args.quick
    )
    path = update_pipeline_json("service", payload, path=args.out)
    print(
        f"service[{payload['design']}]: cold {payload['cold_ms']:.1f}ms, "
        f"warm p50 {payload['warm_p50_ms']:.1f}ms / "
        f"p99 {payload['warm_p99_ms']:.1f}ms, "
        f"{payload['requests_per_second']:.0f} req/s "
        f"({payload['clients']} clients x {payload['requests']} reqs) "
        f"-> warm speedup {payload['warm_speedup']:.1f}x"
    )
    print(f"service section written to {path}")
    if payload["warm_speedup"] < WARM_SPEEDUP_FLOOR:
        print(
            f"bench_service: warm speedup {payload['warm_speedup']:.1f}x "
            f"below the {WARM_SPEEDUP_FLOOR:.0f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
