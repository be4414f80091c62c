"""Wire protocol for the analysis server: requests and NDJSON framing.

A run request is a JSON document::

    {"scenario": "heat-diffusion",
     "config": {"quick": true, "n_ranks": 2},      # RunConfig.from_json
     "stream": true,                               # progress events?
     "stream_every": 4,                            # every Nth iteration
     "no_cache": false,                            # force a fresh run
     "inject": "kill:rank=0,iter=40"}              # kill the WORKER

and the response is NDJSON — one JSON object per line, flushed as the
run advances::

    {"event": "accepted", "scenario": ..., "cache_key": ..., "cached": false}
    {"event": "progress", "iteration": 3, "terminated": false, "analyses": [...]}
    ...
    {"event": "result", "cached": false, "seconds": ..., "report": {...}}

The ``report`` value of the result line is spliced in as the **raw
canonical bytes** the worker produced (and the cache stored), so a
cache hit replays the stored run bit-for-bit — :func:`split_result_line`
recovers those bytes exactly, which is what the byte-identity tests
compare.

``inject`` is a fault-plan spec string (see
:mod:`repro.engine.faults`) whose rank-0 kill clause is aimed at the
*serving worker process itself* — the pool's supervision path — not at
the simulation's ranks.  Injected requests always bypass the cache.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.engine.faults import as_fault_plan
from repro.errors import ServeError
from repro.scenarios import RunConfig

#: Top-level keys a ``/run`` request body may carry.
REQUEST_KEYS = frozenset(
    {"scenario", "config", "stream", "stream_every", "no_cache", "inject"}
)


@dataclass(frozen=True)
class ServeRequest:
    """One parsed ``/run`` request."""

    scenario: str
    config: RunConfig
    stream: bool = True
    stream_every: int = 1
    no_cache: bool = False
    inject: Optional[str] = None

    @property
    def cacheable(self) -> bool:
        """May this request be answered from / stored into the cache?

        Three opt-outs compose: the caller's ``no_cache``, a config
        whose fault plan makes the run an exercise rather than an
        answer (``RunConfig.cacheable``), and worker-kill injection
        (``inject``), which tests the pool, not the scenario.
        """
        return self.config.cacheable and not self.no_cache and self.inject is None


def parse_run_request(body: bytes) -> ServeRequest:
    """Parse and validate a ``/run`` request body.

    Raises :class:`ServeError` (→ HTTP 400) on malformed JSON, unknown
    keys, a missing/unknown-field config, a non-boolean ``stream`` or
    ``no_cache``, a ``stream_every`` that is not a positive integer (a
    bool is not one), or a bad ``inject`` spec — the same
    eager-validation posture as :class:`RunConfig` itself.
    """
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(f"run request is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ServeError(
            f"run request must be a JSON object, got {type(data).__name__}"
        )
    unknown = sorted(set(data) - REQUEST_KEYS)
    if unknown:
        raise ServeError(
            f"run request has unknown key(s) {unknown}; "
            f"accepted: {sorted(REQUEST_KEYS)}"
        )
    scenario = data.get("scenario")
    if not isinstance(scenario, str) or not scenario:
        raise ServeError("run request needs a non-empty 'scenario' name")
    raw_config = data.get("config", {})
    if not isinstance(raw_config, dict):
        raise ServeError(
            f"'config' must be a JSON object of RunConfig fields, "
            f"got {type(raw_config).__name__}"
        )
    try:
        config = RunConfig.from_json(raw_config)
    except Exception as exc:
        raise ServeError(f"bad run config: {exc}") from exc
    stream = data.get("stream", True)
    no_cache = data.get("no_cache", False)
    for key, value in (("stream", stream), ("no_cache", no_cache)):
        if not isinstance(value, bool):
            raise ServeError(f"{key} must be a JSON boolean, got {value!r}")
    stream_every = data.get("stream_every", 1)
    if type(stream_every) is not int or stream_every <= 0:
        raise ServeError(
            f"stream_every must be a positive integer, got {stream_every!r}"
        )
    inject = data.get("inject")
    if inject is not None:
        if not isinstance(inject, str):
            raise ServeError(f"inject must be a fault spec string, got {inject!r}")
        try:
            plan = as_fault_plan(inject)
        except Exception as exc:
            raise ServeError(f"bad inject spec: {exc}") from exc
        if plan is None or plan.kill_for(0) is None:
            raise ServeError(
                "inject spec must contain a kill clause for rank 0 "
                "(the serving worker), e.g. 'kill:rank=0,iter=40'"
            )
    return ServeRequest(
        scenario=scenario,
        config=config,
        stream=stream,
        stream_every=stream_every,
        no_cache=no_cache,
        inject=inject,
    )


# --------------------------------------------------------------------------
# NDJSON framing
# --------------------------------------------------------------------------

def canonical_report_bytes(report: Dict[str, object]) -> bytes:
    """Serialize a ``ScenarioRun.to_json()`` report canonically.

    Sorted keys, no whitespace: two identical runs produce identical
    bytes, which makes the cache's byte-identity guarantee checkable
    with ``==``.
    """
    return json.dumps(
        report, sort_keys=True, separators=(",", ":"), default=str
    ).encode("utf-8")


def event_line(event: str, **fields: object) -> bytes:
    """One NDJSON event line (``event`` key first, newline-terminated)."""
    payload = {"event": event, **fields}
    return json.dumps(payload, separators=(",", ":"), default=str).encode(
        "utf-8"
    ) + b"\n"


#: Marker preceding the spliced report bytes in a result line.
_REPORT_MARKER = b',"report":'


def result_line(report_bytes: bytes, *, cached: bool, seconds: float) -> bytes:
    """The terminal NDJSON line, splicing ``report_bytes`` in verbatim.

    The report is the exact canonical byte string the worker produced
    (and the cache stored) — never re-parsed and re-serialized by the
    server — so cached and fresh responses are comparable byte-for-byte.
    """
    head = json.dumps(
        {"event": "result", "cached": bool(cached), "seconds": round(seconds, 6)},
        separators=(",", ":"),
    ).encode("utf-8")
    return head[:-1] + _REPORT_MARKER + report_bytes + b"}\n"


def split_result_line(line: bytes) -> Tuple[Dict[str, object], bytes]:
    """Invert :func:`result_line`: (parsed envelope, raw report bytes).

    The raw bytes are exactly what :func:`result_line` spliced in — the
    client-side half of the byte-identity guarantee.
    """
    line = line.rstrip(b"\n")
    at = line.find(_REPORT_MARKER)
    if not line.endswith(b"}") or at < 0:
        raise ServeError(f"not a result line: {line[:80]!r}")
    raw = line[at + len(_REPORT_MARKER):-1]
    envelope = json.loads(line[:at] + b"}")
    envelope["report"] = json.loads(raw)
    return envelope, raw


def iter_ndjson(blob: bytes) -> Iterable[Dict[str, object]]:
    """Parse an NDJSON response body into event dicts, in order."""
    for line in blob.splitlines():
        if line.strip():
            yield json.loads(line)
