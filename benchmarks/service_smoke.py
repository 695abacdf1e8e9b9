"""CI smoke test: a real ``repro-si serve`` process vs the CLI, bytewise.

Boots the service as a **subprocess** (the exact artifact CI ships:
``python -m repro.cli serve``), drives it over real HTTP, and asserts
that what the service returns is *the same bytes* the one-shot CLI
produces for the same inputs:

* ``synth``: the service's ``netlist`` payload against the file
  ``repro-si synth --save-netlist`` writes, canonical JSON to canonical
  JSON (the payload reuses :func:`repro.netlist.io.netlist_to_json`,
  so any drift is a wire-protocol bug);
* ``verify``: the service verdict/exit code against the CLI process's
  actual exit code for clean, hazardous-truncated and budget cases;
* ``table1``: the service rows against ``repro-si table1 --json`` rows,
  volatile keys (``elapsed_seconds``, ``profile``, ``reuse``) stripped
  from both, and the job's exit code against the CLI process's;
* ``diff``: a ``--count 3`` campaign's exit code against the CLI
  process's;
* ``corpus``: the service's corpus-sweep manifest against the one
  ``repro-si batch --corpus`` writes for the same spec + seed,
  canonical JSON to canonical JSON;
* keep-alive: several requests pumped through one
  ``http.client.HTTPConnection`` must reuse the same socket (asserted
  by identity), and a ``Connection: close`` request must end it.

Finally the smoke POSTs ``/v1/shutdown`` and fails unless the drain
reports zero pending jobs **and** the server process exits 0 -- the
non-clean-shutdown failure mode this script exists to catch.

Both processes run under ``PYTHONHASHSEED=0`` so iteration order can
never masquerade as nondeterminism.

Usage::

    PYTHONPATH=src python benchmarks/service_smoke.py
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import tempfile
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_DATA = os.path.join(_REPO_ROOT, "src", "repro", "bench", "data")

#: designs exercised bytewise (one clean, one needing state insertion)
SYNTH_DESIGNS = ("mp-forward-pkt", "delement")
#: fast Table-1 subset for the rows comparison
TABLE1_DESIGNS = ("delement", "nak-pa", "mp-forward-pkt")

_ENV = {
    **os.environ,
    "PYTHONPATH": os.path.join(_REPO_ROOT, "src"),
    "PYTHONHASHSEED": "0",
}


def canonical(document) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


class SmokeFailure(AssertionError):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


class Server:
    """One ``repro-si serve`` subprocess on an ephemeral port."""

    def __init__(self, scratch: str):
        port_file = os.path.join(scratch, "port")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0",
                "--store", os.path.join(scratch, "store"),
                "--port-file", port_file,
            ],
            env=_ENV,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = time.monotonic() + 30
        while not os.path.exists(port_file):
            if self.proc.poll() is not None:
                raise SmokeFailure(
                    f"server died on startup:\n{self.proc.stdout.read()}"
                )
            check(time.monotonic() < deadline, "server never published a port")
            time.sleep(0.05)
        with open(port_file, encoding="utf-8") as handle:
            self.port = int(handle.read())

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

    def run_job(self, document: dict) -> dict:
        status, doc = self.request("POST", "/v1/jobs", document)
        check(status == 202, f"submit rejected: {status} {doc}")
        job_id = doc["id"]
        deadline = time.monotonic() + 300
        while time.monotonic() < deadline:
            status, doc = self.request("GET", f"/v1/jobs/{job_id}")
            if doc["status"] in ("done", "failed", "inconclusive"):
                break
            time.sleep(0.02)
        status, result = self.request("GET", f"/v1/jobs/{job_id}/result")
        check(status == 200, f"result not served: {status} {result}")
        return result


def cli(args, expect_codes=(0,)) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=_ENV, capture_output=True, text=True, timeout=300,
    )
    check(
        proc.returncode in expect_codes,
        f"repro-si {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}",
    )
    return proc


def strip_volatile(row: dict) -> dict:
    # ``reuse`` records cache placement (hit vs miss), which depends on
    # what the resident server ran earlier -- the CLI process is always
    # cold, so it is as volatile as the timings.
    return {
        key: value
        for key, value in row.items()
        if key not in ("elapsed_seconds", "profile", "reuse")
    }


def smoke_synth(server: Server, scratch: str) -> None:
    for design in SYNTH_DESIGNS:
        spec_path = os.path.join(_DATA, f"{design}.g")
        with open(spec_path, encoding="utf-8") as handle:
            spec_text = handle.read()
        result = server.run_job(
            {"kind": "synth", "spec": spec_text, "name": design}
        )
        check(
            result["status"] == "done",
            f"synth {design}: {result['status']} ({result['detail']})",
        )

        netlist_path = os.path.join(scratch, f"{design}.netlist.json")
        cli(["synth", spec_path, "--save-netlist", netlist_path])
        with open(netlist_path, encoding="utf-8") as handle:
            cli_netlist = json.load(handle)

        service_bytes = canonical(result["result"]["netlist"])
        cli_bytes = canonical(cli_netlist)
        check(
            service_bytes == cli_bytes,
            f"synth {design}: service netlist differs from CLI artifact\n"
            f"service: {service_bytes[:400]}\ncli: {cli_bytes[:400]}",
        )
        print(
            f"  synth {design}: netlist JSON identical "
            f"({len(cli_bytes)} canonical bytes)"
        )


def smoke_verify(server: Server) -> None:
    for design, expected in (("delement", 0), ("mp-forward-pkt", 0)):
        spec_path = os.path.join(_DATA, f"{design}.g")
        with open(spec_path, encoding="utf-8") as handle:
            spec_text = handle.read()
        result = server.run_job({"kind": "verify", "spec": spec_text})
        service_code = result["result"]["exit_code"]
        proc = cli(["verify", spec_path], expect_codes=(0, 1, 3))
        check(
            service_code == proc.returncode == expected,
            f"verify {design}: service exit {service_code}, "
            f"CLI exit {proc.returncode}, expected {expected}",
        )
        print(f"  verify {design}: exit code {service_code} matches CLI")


def smoke_table1(server: Server, scratch: str) -> None:
    result = server.run_job(
        {"kind": "table1", "options": {"designs": list(TABLE1_DESIGNS)}}
    )
    check(result["status"] == "done", f"table1 job: {result['status']}")
    service_rows = [
        strip_volatile(row) for row in result["result"]["rows"]
    ]

    json_path = os.path.join(scratch, "table1.json")
    proc = cli(["table1", *TABLE1_DESIGNS, "--json", json_path])
    service_code = result["result"]["exit_code"]
    check(
        service_code == proc.returncode,
        f"table1: service exit {service_code}, CLI exit {proc.returncode}",
    )
    with open(json_path, encoding="utf-8") as handle:
        cli_rows = [
            strip_volatile(row) for row in json.load(handle)["table1"]
        ]

    by_name = sorted(service_rows, key=lambda row: row["name"])
    cli_by_name = sorted(cli_rows, key=lambda row: row["name"])
    check(
        canonical(by_name) == canonical(cli_by_name),
        "table1 rows differ from the CLI:\n"
        f"service: {canonical(by_name)}\ncli: {canonical(cli_by_name)}",
    )
    print(
        f"  table1 {','.join(TABLE1_DESIGNS)}: "
        f"{len(by_name)} rows identical after stripping timings, "
        f"exit code {service_code} matches CLI"
    )


def smoke_diff(server: Server) -> None:
    result = server.run_job({"kind": "diff", "options": {"count": 3}})
    service_code = result["result"]["exit_code"]
    proc = cli(["diff", "--count", "3"], expect_codes=(0, 1, 3))
    check(
        service_code == proc.returncode,
        f"diff --count 3: service exit {service_code}, "
        f"CLI exit {proc.returncode}",
    )
    print(f"  diff --count 3: exit code {service_code} matches CLI")


#: the corpus sweep both faces run (fast families, pinned seed)
CORPUS_SPEC = {
    "schema": "repro-corpus-spec/1",
    "count": 5,
    "seed": 2,
    "name_prefix": "smoke",
    "families": [
        {"family": "token_ring", "params": {"channels": [2, 4]}},
        {"family": "linear_pipeline", "params": {"stages": [2, 4]}},
        {"family": "arbiter", "params": {"clients": [2, 3]}},
    ],
}


def smoke_corpus(server: Server, scratch: str) -> None:
    result = server.run_job(
        {"kind": "corpus", "corpus": CORPUS_SPEC,
         "options": {"max_states": 20_000}}
    )
    check(result["status"] == "done", f"corpus job: {result['status']}")
    service_manifest = canonical(result["result"]["manifest"])

    spec_path = os.path.join(scratch, "corpus.json")
    manifest_path = os.path.join(scratch, "corpus-manifest.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(CORPUS_SPEC, handle)
    cli(["batch", "--corpus", spec_path, "--max-states", "20000",
         "--manifest", manifest_path])
    with open(manifest_path, encoding="utf-8") as handle:
        cli_manifest = handle.read()
    check(
        service_manifest == cli_manifest,
        "corpus manifest differs from the CLI:\n"
        f"service: {service_manifest[:400]}\ncli: {cli_manifest[:400]}",
    )
    print(
        f"  corpus: {result['result']['designs']} designs, manifest "
        f"identical to repro-si batch --corpus ({len(cli_manifest)} bytes)"
    )


def smoke_keepalive(server: Server) -> None:
    """Persistent connections: one socket, many requests."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        response.read()
        check(response.status == 200, f"healthz returned {response.status}")
        check(
            response.getheader("Connection") == "keep-alive",
            "first response not marked keep-alive: "
            f"{response.getheader('Connection')!r}",
        )
        sock = conn.sock
        check(sock is not None, "connection dropped after first response")
        for path in ("/v1/stats", "/v1/jobs", "/healthz"):
            conn.request("GET", path)
            response = conn.getresponse()
            response.read()
            check(response.status == 200, f"{path} returned {response.status}")
            check(
                conn.sock is sock,
                f"socket was not reused for {path} (new connection opened)",
            )
        conn.request("GET", "/healthz", headers={"Connection": "close"})
        response = conn.getresponse()
        response.read()
        check(
            response.getheader("Connection") == "close",
            "Connection: close request not honoured in the response",
        )
        check(
            conn.sock is None,
            "server kept the connection open after Connection: close",
        )
        print("  keep-alive: 4 requests on one socket, close opt-out honoured")
    finally:
        conn.close()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="service-smoke-") as scratch:
        server = Server(scratch)
        try:
            print(f"service-smoke: server up on port {server.port}")
            smoke_keepalive(server)
            smoke_synth(server, scratch)
            smoke_verify(server)
            smoke_table1(server, scratch)
            smoke_diff(server)
            smoke_corpus(server, scratch)

            status, report = server.request("POST", "/v1/shutdown")
            check(status == 200, f"shutdown returned {status}")
            check(
                report["drained"] is True and report["pending"] == 0,
                f"drain leaked jobs: {report}",
            )
            exit_code = server.proc.wait(timeout=60)
            output = server.proc.stdout.read()
            check(
                exit_code == 0,
                f"server exited {exit_code} (want 0):\n{output}",
            )
            check(
                "clean shutdown" in output,
                f"server never reported a clean shutdown:\n{output}",
            )
            print("service-smoke: clean shutdown, exit 0")
        except SmokeFailure as failure:
            print(f"service-smoke: FAIL: {failure}", file=sys.stderr)
            server.proc.kill()
            return 1
        finally:
            if server.proc.poll() is None:
                server.proc.kill()
                server.proc.wait(timeout=30)
    print("service-smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
