"""Wire protocol of the synthesis service: request validation + codecs.

Every byte that crosses the HTTP boundary is defined here, so the
server (:mod:`repro.service.server`), the job engine
(:mod:`repro.service.jobs`), the load-test harness
(``benchmarks/bench_service.py``) and the CI smoke script agree on one
schema.  Result payloads reuse the repo-wide JSON codecs from
:mod:`repro.pipeline.serialize` (netlists through
:mod:`repro.netlist.io`, hazard verdicts through the detached hazard
codec, Table-1 rows through :func:`pipeline_result_to_json`), so a
service response is byte-comparable to the matching CLI artifact.

Submit request (``POST /v1/jobs``)::

    {"kind": "synth" | "verify" | "table1" | "diff" | "corpus",
     "spec": "<.g text>",            # synth/verify only
     "corpus": {...},                # corpus only: repro-corpus-spec/1
     "name": "design",               # optional label
     "tenant": "team-a",             # optional (or X-Tenant header)
     "options": {...}}               # per-kind knobs, all optional

Corpus sweep jobs carry an inline ``repro-corpus-spec/1`` document
(see docs/FORMATS.md): the admitted design stream runs through the
batch machinery and the result is the deterministic batch manifest
plus the generation stats.  ``options.seed`` re-seeds the spec,
``options.max_states`` / ``options.timeout_seconds`` bound each design
separately; the admitted-design count is capped per job.

Delta re-synthesis (synth/verify only): replace ``spec`` with a
``base_job`` id plus a ``delta`` -- edit text lines (``"add a+ b-"``,
``"drop a+ b-"``, ``"retype x internal"``, ``"marking p1 p2"``), a list
of such lines, or the ``{"ops": [...]}`` JSON form of
:class:`repro.pipeline.delta.SpecDelta`.  The job inherits the base
job's specification and options (explicit options override) and runs
incrementally against the resident caches; the result is byte-identical
to synthesising the edited specification from scratch.

Any malformed body -- not JSON, not an object, unknown kind, unknown
option, wrong type -- raises :class:`ProtocolError`, which the server
maps to HTTP 400 with ``{"error": ...}``.  Validation happens entirely
at submit time so a queued job can no longer fail on its parameters.

Event streams (``GET /v1/jobs/<id>/events``) are NDJSON by default
(one JSON object per line) or SSE (``?format=sse``); each event carries
an ``"event"`` discriminator (``status`` / ``stage`` / ``phase`` /
``design`` / ``profile``).
"""

from __future__ import annotations

import json
from typing import Dict, Tuple

#: job kinds the service accepts, mapping 1:1 onto library entry points
#: (synth/verify -> ``Pipeline.run``, table1 -> ``run_table1``,
#: diff -> ``differential_campaign``, corpus -> ``run_batch(corpus=...)``)
KINDS = ("synth", "verify", "table1", "diff", "corpus")

#: largest admitted-design count one corpus job may request
MAX_CORPUS_COUNT = 5000

#: netlist styles, mirroring the CLI ``--style`` vocabulary
STYLES = ("C", "RS", "RS-NOR", "C-INV")

#: largest accepted request body (a fuzz-scale ``.g`` is a few KB)
MAX_BODY_BYTES = 8 * 1024 * 1024

_SHARE_VALUES = (False, True, "optimal")


class ProtocolError(ValueError):
    """A malformed request: reported as HTTP 400, never queued."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _check_int(value, name: str, minimum: int = 1) -> int:
    _require(
        isinstance(value, int) and not isinstance(value, bool)
        and value >= minimum,
        f"{name} must be an integer >= {minimum}",
    )
    return value


def _check_number(value, name: str) -> float:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and value > 0,
        f"{name} must be a positive number",
    )
    return float(value)


def _check_options(options, allowed) -> Dict:
    if options is None:
        return {}
    _require(isinstance(options, dict), "options must be an object")
    unknown = sorted(set(options) - set(allowed))
    _require(
        not unknown,
        f"unknown option(s): {', '.join(unknown)}; "
        f"allowed: {', '.join(sorted(allowed))}",
    )
    return options


def _check_delta(value) -> Dict:
    from repro.pipeline.delta import DeltaError, SpecDelta

    try:
        if isinstance(value, dict):
            delta = SpecDelta.from_json(value)
        elif isinstance(value, str) or (
            isinstance(value, list)
            and all(isinstance(item, str) for item in value)
        ):
            delta = SpecDelta.parse(value)
        else:
            raise ProtocolError(
                "delta must be edit text, a list of edit lines or an "
                "{'ops': [...]} object"
            )
    except DeltaError as exc:
        raise ProtocolError(f"bad delta: {exc}") from exc
    _require(bool(delta.ops), "delta must contain at least one edit")
    return delta.to_json()


def _synth_params(body: Dict, kind: str) -> Dict:
    spec = body.get("spec")
    base_job = body.get("base_job")
    delta = body.get("delta")
    if base_job is not None or delta is not None:
        _require(
            base_job is not None and delta is not None,
            "delta re-synthesis needs both 'base_job' and 'delta'",
        )
        _require(
            isinstance(base_job, str) and 0 < len(base_job) <= 120,
            "base_job must be a job id string",
        )
        _require(
            spec is None,
            "'spec' and 'base_job' are mutually exclusive "
            "(the specification comes from the base job)",
        )
        delta = _check_delta(delta)
    else:
        _require(
            isinstance(spec, str) and spec.strip(),
            "synth/verify jobs need a non-empty 'spec' (.g text)",
        )
    options = _check_options(
        body.get("options"),
        (
            "style", "share_gates", "verify", "max_models", "max_states",
            "budget_seconds", "verify_max_states",
        ),
    )
    params = {
        "spec_text": spec,
        "name": _job_name(body),
        "style": options.get("style", "C"),
        "share_gates": options.get("share_gates", False),
        # verify jobs always model-check; synth jobs may opt out
        "verify": bool(options.get("verify", True)) or kind == "verify",
        "max_models": _check_int(options.get("max_models", 400), "max_models"),
        "max_states": _check_int(
            options.get("max_states", 200_000), "max_states"
        ),
        "verify_max_states": _check_int(
            options.get("verify_max_states", 500_000), "verify_max_states"
        ),
        "budget_seconds": (
            None
            if options.get("budget_seconds") is None
            else _check_number(options["budget_seconds"], "budget_seconds")
        ),
    }
    _require(params["style"] in STYLES, f"style must be one of {STYLES}")
    _require(
        params["share_gates"] in _SHARE_VALUES,
        "share_gates must be false, true or 'optimal'",
    )
    if base_job is not None:
        params["base_job"] = base_job
        params["delta"] = delta
        # the server overlays these explicit fields onto the base job's
        # params before queueing (underscore keys are dropped there)
        params["_explicit_options"] = sorted(options)
        params["_explicit_name"] = "name" in body
    return params


def _table1_params(body: Dict, kind: str) -> Dict:
    from repro.bench.suite import unknown_designs_error

    options = _check_options(body.get("options"), ("designs", "verify"))
    designs = options.get("designs")
    if designs is not None:
        _require(
            isinstance(designs, list)
            and all(isinstance(name, str) for name in designs)
            and designs,
            "designs must be a non-empty list of benchmark names",
        )
        error = unknown_designs_error(designs)
        _require(error is None, error)
    return {
        "name": _job_name(body, default="table1"),
        "designs": designs,
        "verify": bool(options.get("verify", True)),
    }


def _diff_params(body: Dict, kind: str) -> Dict:
    options = _check_options(
        body.get("options"),
        ("count", "seed", "max_states", "max_seconds_each"),
    )
    count = _check_int(options.get("count", 50), "count")
    _require(count <= 5000, "count must be <= 5000 per job")
    seed = options.get("seed", 0)
    _require(
        isinstance(seed, int) and not isinstance(seed, bool),
        "seed must be an integer",
    )
    return {
        "name": _job_name(body, default="diff"),
        "count": count,
        "seed": seed,
        "max_states": _check_int(
            options.get("max_states", 20_000), "max_states"
        ),
        "max_seconds_each": _check_number(
            options.get("max_seconds_each", 30.0), "max_seconds_each"
        ),
    }


def _corpus_params(body: Dict, kind: str) -> Dict:
    """A corpus sweep: an inline repro-corpus-spec/1 + batch knobs.

    The spec document is validated (and normalized) at submit time via
    :meth:`repro.corpus.CorpusSpec.from_json`, so a queued corpus job
    can no longer fail on its recipe; the per-job design count is
    capped at :data:`MAX_CORPUS_COUNT`.
    """
    from repro.corpus import CorpusSpec, CorpusSpecError

    document = body.get("corpus")
    _require(
        isinstance(document, dict),
        "corpus jobs need a 'corpus' object (repro-corpus-spec/1)",
    )
    try:
        spec = CorpusSpec.from_json(document)
    except CorpusSpecError as exc:
        raise ProtocolError(f"bad corpus spec: {exc}") from exc
    _require(
        spec.count <= MAX_CORPUS_COUNT,
        f"corpus count must be <= {MAX_CORPUS_COUNT} per job",
    )
    options = _check_options(
        body.get("options"),
        (
            "seed", "style", "verify", "max_states",
            "timeout_seconds", "jobs",
        ),
    )
    seed = options.get("seed")
    if seed is not None:
        _require(
            isinstance(seed, int) and not isinstance(seed, bool)
            and seed >= 0,
            "seed must be a non-negative integer",
        )
        spec = spec.with_seed(seed)
    style = options.get("style", "C")
    _require(style in STYLES, f"style must be one of {STYLES}")
    return {
        "name": _job_name(body, default="corpus"),
        "corpus": spec.to_json(),
        "style": style,
        "verify": bool(options.get("verify", True)),
        "max_states": _check_int(
            options.get("max_states", 20_000), "max_states"
        ),
        "timeout_seconds": (
            None
            if options.get("timeout_seconds") is None
            else _check_number(options["timeout_seconds"], "timeout_seconds")
        ),
        "jobs": (
            None
            if options.get("jobs") is None
            else _check_int(options["jobs"], "jobs")
        ),
    }


def _job_name(body: Dict, default: str = "job") -> str:
    name = body.get("name", default)
    _require(
        isinstance(name, str) and 0 < len(name) <= 120,
        "name must be a short non-empty string",
    )
    return name


_PARSERS = {
    "synth": _synth_params,
    "verify": _synth_params,
    "table1": _table1_params,
    "diff": _diff_params,
    "corpus": _corpus_params,
}

_TOP_LEVEL_KEYS = {
    "kind", "spec", "corpus", "name", "tenant", "options", "base_job", "delta",
}


def parse_submit(
    body: bytes, default_tenant: str = "default"
) -> Tuple[str, str, Dict]:
    """Validate one submit body -> ``(kind, tenant, normalized params)``.

    Raises :class:`ProtocolError` on any defect; a returned triple is
    fully normalized (defaults applied, types checked) and safe to
    queue.
    """
    _require(len(body) <= MAX_BODY_BYTES, "request body too large")
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"body is not valid JSON: {exc}") from exc
    _require(isinstance(document, dict), "body must be a JSON object")
    unknown = sorted(set(document) - _TOP_LEVEL_KEYS)
    _require(not unknown, f"unknown field(s): {', '.join(unknown)}")
    kind = document.get("kind")
    _require(kind in KINDS, f"kind must be one of {', '.join(KINDS)}")
    if kind not in ("synth", "verify"):
        _require(
            "base_job" not in document and "delta" not in document,
            "base_job/delta apply only to synth/verify jobs",
        )
    if kind != "corpus":
        _require(
            "corpus" not in document, "'corpus' applies only to corpus jobs"
        )
    else:
        _require(
            "spec" not in document,
            "corpus jobs take a 'corpus' object, not a 'spec'",
        )
    tenant = document.get("tenant", default_tenant)
    _require(
        isinstance(tenant, str) and 0 < len(tenant) <= 120,
        "tenant must be a short non-empty string",
    )
    return kind, tenant, _PARSERS[kind](document, kind)


# ----------------------------------------------------------------------
# Response documents
# ----------------------------------------------------------------------
def job_to_json(job) -> Dict:
    """The job status document (``GET /v1/jobs/<id>``)."""
    return {
        "schema": "repro-service-job/1",
        "id": job.id,
        "kind": job.kind,
        "name": job.params.get("name", ""),
        "tenant": job.tenant,
        "status": job.status,
        "detail": job.detail,
        "events": len(job.events),
        "cache": dict(job.cache),
        "charged_states": job.charged_states,
        "seconds": None if job.seconds is None else round(job.seconds, 6),
        "result_ready": job.result is not None,
    }


def error_to_json(message: str) -> Dict:
    return {"error": message}


def encode_ndjson(event: Dict) -> bytes:
    """One NDJSON line (the default event-stream framing)."""
    return (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")


def encode_sse(event: Dict) -> bytes:
    """One Server-Sent-Events frame (``?format=sse``)."""
    return (
        f"event: {event.get('event', 'message')}\n"
        f"data: {json.dumps(event, sort_keys=True)}\n\n"
    ).encode("utf-8")


def dumps_canonical(document: Dict) -> str:
    """Canonical JSON text (sorted keys) -- what CI byte-compares."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


__all__ = [
    "KINDS",
    "MAX_BODY_BYTES",
    "MAX_CORPUS_COUNT",
    "ProtocolError",
    "STYLES",
    "dumps_canonical",
    "encode_ndjson",
    "encode_sse",
    "error_to_json",
    "job_to_json",
    "parse_submit",
]
