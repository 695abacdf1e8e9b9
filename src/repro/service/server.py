"""Stdlib-only asyncio HTTP server: synthesis as a resident service.

One process, one :class:`~repro.service.jobs.JobManager`, many
concurrent clients.  The HTTP layer is deliberately minimal --
``asyncio.start_server`` plus a hand-rolled HTTP/1.1 request parser
(request line, headers, ``Content-Length`` body) -- so the service
stays dependency-free like the rest of the repo.

Connections are persistent per HTTP/1.1 semantics: a client can pump
its whole submit/poll/result conversation through one socket.  A
``Connection: close`` request header opts out, HTTP/1.0 clients
default to one-shot, event streams close when the stream ends (their
length is unknown up front), and once a graceful shutdown has begun
every response carries ``Connection: close`` so draining is never
held up by idle keep-alive sockets.  Between requests an idle
keep-alive socket is dropped after :data:`KEEPALIVE_IDLE_SECONDS`.

Endpoints (all JSON; see :mod:`repro.service.protocol` for schemas)::

    GET  /healthz               liveness + identity
    GET  /v1/stats              resident-world stats (queue, caches,
                                store traffic, tenant buckets)
    POST /v1/jobs               submit (body: the submit document)
                                (``base_job`` + ``delta`` submits a
                                delta re-synthesis of a finished job)
    GET  /v1/jobs               all jobs, summary documents
    GET  /v1/jobs/<id>          one job's status document
    GET  /v1/jobs/<id>/result   terminal result (409 while running)
    GET  /v1/jobs/<id>/events   progress stream: NDJSON (default) or
                                SSE (``?format=sse``), live until the
                                job reaches a terminal status
    POST /v1/shutdown           graceful drain, then stop the server

Status codes: 400 malformed body (:class:`ProtocolError`), 404 unknown
job/path, 405 wrong method, 409 result not ready, 413 oversized body,
429 queue full, 503 draining.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.service import jobs as jobs_mod
from repro.service.jobs import Draining, JobManager, QueueFull
from repro.service.protocol import (
    MAX_BODY_BYTES,
    ProtocolError,
    encode_ndjson,
    encode_sse,
    error_to_json,
    job_to_json,
    parse_submit,
)

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: idle keep-alive sockets are dropped after this many seconds between
#: requests (generous: clients poll far more often than this)
KEEPALIVE_IDLE_SECONDS = 75.0


class HttpError(Exception):
    """Maps straight to one JSON error response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


async def _read_request(
    reader: asyncio.StreamReader, idle_timeout: Optional[float] = None
) -> Optional[Tuple[str, str, str, Dict[str, str], bytes]]:
    """Parse one request -> (method, target, version, headers, body) or None.

    ``idle_timeout`` bounds the wait for the *first byte* of a
    follow-up request on a kept-alive socket; an expiry reads as
    end-of-connection (None), not an error.
    """
    try:
        if idle_timeout is not None:
            line = await asyncio.wait_for(reader.readline(), idle_timeout)
        else:
            line = await reader.readline()
    except ValueError:
        # StreamReader's line-length limit (64 KiB) tripped
        raise HttpError(400, "request line too long") from None
    except (ConnectionError, asyncio.TimeoutError):
        return None
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError(400, "malformed request line")
    method, target, version = parts[0].upper(), parts[1], parts[2]
    headers: Dict[str, str] = {}
    while True:
        try:
            raw = await reader.readline()
        except ValueError:
            raise HttpError(400, "header line too long") from None
        if raw in (b"\r\n", b"\n", b""):
            break
        if len(headers) > 100:
            raise HttpError(400, "too many headers")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {raw!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "malformed Content-Length") from None
        if length < 0:
            raise HttpError(400, "malformed Content-Length")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, "request body too large")
        body = await reader.readexactly(length)
    return method, target, version, headers, body


def _wants_keep_alive(version: str, headers: Dict[str, str]) -> bool:
    """HTTP/1.1 defaults to persistent, HTTP/1.0 to one-shot."""
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.0":
        return connection == "keep-alive"
    return connection != "close"


def _response_head(
    status: int, content_type: str, length: Optional[int],
    close: bool = True,
) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        # a response without a Content-Length (event stream) is
        # delimited by the connection closing, so it must never be
        # marked persistent
        "Connection: close" if close or length is None else "Connection: keep-alive",
    ]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class ServiceServer:
    """The HTTP face of one :class:`JobManager`."""

    def __init__(
        self,
        manager: JobManager,
        host: str = "127.0.0.1",
        port: int = 8080,
    ):
        self.manager = manager
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped = asyncio.Event()
        #: serialises shutdown: POST /v1/shutdown and the signal
        #: handlers may race, and the manager must drain exactly once
        self._shutdown_lock = asyncio.Lock()
        self.shutdown_report: Optional[Dict] = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        await self.manager.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> Dict:
        """Block until a graceful shutdown completed; returns its report."""
        await self._stopped.wait()
        return self.shutdown_report or {"drained": False, "pending": -1}

    async def shutdown(self) -> Dict:
        """Drain the manager, close the listener, release the waiters.

        Idempotent and race-free: concurrent callers (a second POST, a
        SIGINT during a POST) queue on the lock and get the first
        drain's report instead of draining twice.
        """
        async with self._shutdown_lock:
            if self.shutdown_report is None:
                self.shutdown_report = await self.manager.drain()
                if self._server is not None:
                    self._server.close()
                    await self._server.wait_closed()
                self._stopped.set()
        return self.shutdown_report

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection: a loop of requests until it closes.

        ``keep`` is False while a request is still being parsed (a
        parse error leaves the stream position unreliable, so those
        responses always close) and is recomputed per request from the
        HTTP version and ``Connection`` header; a begun shutdown
        forces the connection shut after the in-flight response.
        """
        try:
            first = True
            while True:
                keep = False
                try:
                    request = await _read_request(
                        reader, None if first else KEEPALIVE_IDLE_SECONDS
                    )
                    if request is None:
                        return
                    first = False
                    method, target, version, headers, body = request
                    keep = (
                        _wants_keep_alive(version, headers)
                        and self.shutdown_report is None
                    )
                    streamed = await self._route(
                        writer, method, target, headers, body, keep
                    )
                    if streamed or not keep or self.shutdown_report is not None:
                        return
                except HttpError as error:
                    await self._send_json(
                        writer, error.status, error_to_json(error.message),
                        keep=keep,
                    )
                    if not keep:
                        return
                except (ConnectionError, asyncio.IncompleteReadError):
                    return
                except Exception as error:  # never kill the accept loop
                    print(f"repro-si serve: error: {error!r}", file=sys.stderr)
                    try:
                        await self._send_json(
                            writer, 500, error_to_json("internal server error")
                        )
                    except (ConnectionError, OSError):
                        pass
                    return
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, document: Dict,
        keep: bool = False,
    ) -> None:
        payload = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
        writer.write(
            _response_head(
                status, "application/json", len(payload), close=not keep
            )
            + payload
        )
        await writer.drain()

    # ------------------------------------------------------------------
    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        target: str,
        headers: Dict[str, str],
        body: bytes,
        keep: bool,
    ) -> bool:
        """Dispatch one request; returns True when the response was a
        stream (the connection is already committed to closing)."""
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        if path == "/healthz":
            self._expect(method, "GET")
            await self._send_json(
                writer,
                200,
                {
                    "status": "ok",
                    "service": "repro-si",
                    "mode": self.manager.mode,
                },
                keep=keep,
            )
        elif path == "/v1/stats":
            self._expect(method, "GET")
            await self._send_json(writer, 200, self.manager.stats(), keep=keep)
        elif path == "/v1/jobs":
            if method == "POST":
                await self._submit(writer, headers, body, keep)
            elif method == "GET":
                await self._send_json(
                    writer,
                    200,
                    {
                        "jobs": [
                            job_to_json(job) for job in self.manager.jobs()
                        ]
                    },
                    keep=keep,
                )
            else:
                raise HttpError(405, "use GET or POST")
        elif path == "/v1/shutdown":
            self._expect(method, "POST")
            report = await self.shutdown()
            await self._send_json(writer, 200, report)
        elif path.startswith("/v1/jobs/"):
            return await self._job_route(writer, method, path, query, keep)
        else:
            raise HttpError(404, f"no such path: {path}")
        return False

    @staticmethod
    def _expect(method: str, expected: str) -> None:
        if method != expected:
            raise HttpError(405, f"use {expected}")

    async def _submit(
        self, writer: asyncio.StreamWriter, headers: Dict[str, str],
        body: bytes, keep: bool = False,
    ) -> None:
        try:
            kind, tenant, params = parse_submit(
                body, default_tenant=headers.get("x-tenant", "default")
            )
        except ProtocolError as error:
            raise HttpError(400, str(error)) from error
        if params.get("base_job"):
            params = self._resolve_base(kind, params)
        try:
            job = self.manager.submit(kind, tenant, params)
        except Draining as error:
            raise HttpError(503, str(error)) from error
        except QueueFull as error:
            raise HttpError(429, str(error)) from error
        await self._send_json(writer, 202, job_to_json(job), keep=keep)

    def _resolve_base(self, kind: str, params: Dict) -> Dict:
        """Expand a ``base_job`` + ``delta`` submit against the registry.

        The new job inherits the base job's specification text and
        options; explicitly supplied options (and name) override.  A
        base that itself was a delta job chains: its edit ops are
        prepended so the combined delta applies to the original
        specification.  Resolution happens before queueing, so a bad
        base id is HTTP 400, never a queued-then-failed job.
        """
        base = self.manager.get(params["base_job"])
        if base is None:
            raise HttpError(400, f"base_job {params['base_job']!r} not found")
        if base.kind not in ("synth", "verify"):
            raise HttpError(
                400,
                f"base_job {base.id} is a {base.kind} job; delta "
                "re-synthesis needs a synth or verify base",
            )
        merged = dict(base.params)
        for key in params.get("_explicit_options") or ():
            merged[key] = params[key]
        if params.get("_explicit_name"):
            merged["name"] = params["name"]
        else:
            merged["name"] = f"{base.params.get('name', 'job')}+edit"
        if kind == "verify":
            merged["verify"] = True
        base_delta = base.params.get("delta")
        if base_delta:
            merged["delta"] = {
                "ops": list(base_delta["ops"]) + list(params["delta"]["ops"])
            }
        else:
            merged["delta"] = params["delta"]
        merged["base_job"] = params["base_job"]
        merged.pop("_explicit_options", None)
        merged.pop("_explicit_name", None)
        return merged

    async def _job_route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: Dict,
        keep: bool,
    ) -> bool:
        parts = path.split("/")  # ['', 'v1', 'jobs', '<id>', ...]
        job = self.manager.get(parts[3])
        if job is None:
            raise HttpError(404, f"no such job: {parts[3]}")
        tail = parts[4:]
        if not tail:
            self._expect(method, "GET")
            await self._send_json(writer, 200, job_to_json(job), keep=keep)
        elif tail == ["result"]:
            self._expect(method, "GET")
            if not job.terminal:
                raise HttpError(
                    409, f"job {job.id} is {job.status}; result not ready"
                )
            await self._send_json(
                writer,
                200,
                {
                    "id": job.id,
                    "status": job.status,
                    "detail": job.detail,
                    "result": job.result,
                },
                keep=keep,
            )
        elif tail == ["events"]:
            self._expect(method, "GET")
            await self._stream_events(writer, job, query)
            return True
        else:
            raise HttpError(404, f"no such path: {path}")
        return False

    async def _stream_events(
        self, writer: asyncio.StreamWriter, job, query: Dict
    ) -> None:
        sse = query.get("format", ["ndjson"])[0] == "sse"
        encode = encode_sse if sse else encode_ndjson
        content_type = (
            "text/event-stream" if sse else "application/x-ndjson"
        )
        writer.write(_response_head(200, content_type, None))
        await writer.drain()
        cursor = 0
        while True:
            batch = await self.manager.next_events(job, cursor)
            for event in batch:
                writer.write(encode(event))
            await writer.drain()
            cursor += len(batch)
            if job.terminal and len(job.events) <= cursor:
                return


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    store: Optional[str] = None,
    workers: int = 1,
    tenant_tokens: float = jobs_mod.DEFAULT_TENANT_TOKENS,
    tenant_refill: float = jobs_mod.DEFAULT_TENANT_REFILL,
    job_max_states: int = jobs_mod.DEFAULT_JOB_STATES,
    job_max_seconds: Optional[float] = None,
    max_queued: int = 256,
    memo_entries: int = jobs_mod.DEFAULT_MEMO_ENTRIES,
    keep_jobs: int = jobs_mod.DEFAULT_KEEP_JOBS,
    port_file: Optional[str] = None,
) -> int:
    """Run the server until a graceful shutdown; the CLI entry point.

    Returns the process exit code: 0 for a clean drain (no pending
    jobs), 1 when jobs leaked past the drain.  ``port 0`` binds an
    ephemeral port; ``port_file`` publishes the bound port for scripts.
    SIGINT/SIGTERM trigger the same graceful drain as ``POST
    /v1/shutdown``.
    """

    async def _amain() -> int:
        manager = JobManager(
            store=store,
            workers=workers,
            tenant_tokens=tenant_tokens,
            tenant_refill=tenant_refill,
            job_max_states=job_max_states,
            job_max_seconds=job_max_seconds,
            max_queued=max_queued,
            memo_entries=memo_entries,
            keep_jobs=keep_jobs,
        )
        server = ServiceServer(manager, host=host, port=port)
        await server.start()
        print(
            f"repro-si serve: listening on http://{host}:{server.port} "
            f"({manager.mode} executor, "
            f"store {store or 'none'})",
            flush=True,
        )
        if port_file:
            with open(port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{server.port}\n")
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum,
                    lambda: asyncio.ensure_future(server.shutdown()),
                )
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix event loops
        report = await server.serve_until_shutdown()
        pending = report.get("pending", 0)
        print(
            "repro-si serve: "
            + (
                f"clean shutdown ({sum(report['jobs'].values())} job(s), "
                "0 pending)"
                if not pending
                else f"shutdown with {pending} pending job(s)"
            ),
            flush=True,
        )
        return 0 if not pending else 1

    return asyncio.run(_amain())


__all__ = ["HttpError", "ServiceServer", "serve"]
