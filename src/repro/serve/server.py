"""Analysis-as-a-service: asyncio HTTP server over the warm worker pool.

``repro serve --port P --workers N`` turns the scenario runner into a
long-lived service: clients POST a :class:`RunConfig`-shaped request to
``/run`` and read back an NDJSON stream of incremental analysis state —
fitted coefficients, early-stop status, wavefront position — one line
per completed iteration, then the final :class:`ScenarioRun` report.

Stdlib only (``asyncio`` + ``http``-free hand-rolled request parsing,
HTTP/1.1 with ``Connection: close``): nothing to install, one socket
read loop per connection, and each response is a dedicated stream so
concurrent runs can never interleave lines.

Endpoints:

========  =======  ====================================================
path      method   meaning
========  =======  ====================================================
/healthz  GET      liveness + pool readiness
/stats    GET      cache hits/misses/bytes, pool jobs/restarts, uptime
/scenarios GET     registered scenarios, as ``repro list --json``
/run      POST     run (or answer from cache) one scenario request
========  =======  ====================================================

Caching: cacheable requests (see :attr:`ServeRequest.cacheable`) are
answered from a content-addressed :class:`ResultCache` keyed by
:meth:`RunConfig.cache_key` — a repeat of an identical request skips
the pool entirely and replays the stored canonical report bytes
bit-for-bit, typically in microseconds.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, Optional, Set, Tuple

from repro.errors import ReproError, ServeError
from repro.scenarios import specs
from repro.serve.cache import DEFAULT_CACHE_BYTES, ResultCache
from repro.serve.pool import WorkerPool
from repro.serve.protocol import (
    ServeRequest,
    event_line,
    parse_run_request,
    result_line,
)

#: Refuse request bodies beyond this (a RunConfig is tiny).
MAX_BODY_BYTES = 1 << 20

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}


def _response(status: int, body: bytes, content_type: str = "application/json") -> bytes:
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


def _json_response(status: int, payload: Dict[str, object]) -> bytes:
    return _response(status, json.dumps(payload, indent=2).encode("utf-8") + b"\n")


async def _read_request(reader: asyncio.StreamReader) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse one HTTP/1.1 request: (method, path, headers, body)."""
    request_line = await reader.readline()
    if not request_line.strip():
        raise ServeError("empty request")
    try:
        method, target, _version = request_line.decode("ascii").split(None, 2)
    except ValueError:
        raise ServeError(f"malformed request line: {request_line[:80]!r}")
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY_BYTES:
        raise ServeError(f"request body of {length} bytes exceeds {MAX_BODY_BYTES}")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target.split("?", 1)[0], headers, body


class AnalysisServer:
    """The serving core: routes requests over one pool and one cache."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
    ):
        self.host = host
        self.port = port
        self.pool = WorkerPool(size=workers)
        self.cache = ResultCache(max_bytes=cache_bytes)
        self._server: Optional[asyncio.AbstractServer] = None
        self._inflight: Set[asyncio.Task] = set()
        self._started_at = 0.0
        self._requests = 0
        self._streamed_events = 0
        self._draining = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Warm the pool, then start accepting connections."""
        await self.pool.start()
        self._server = await asyncio.start_server(
            self._on_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()

    async def close(self) -> None:
        """Graceful shutdown: stop accepting, drain in-flight, retire pool.

        Every accepted request runs to completion and flushes its final
        NDJSON line before the pool goes away — a client mid-stream
        never sees a truncated response.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._inflight:
            await asyncio.gather(*tuple(self._inflight), return_exceptions=True)
        await self.pool.close()

    # -- connection handling ----------------------------------------------

    def _on_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.ensure_future(self._handle(reader, writer))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, _headers, body = await _read_request(reader)
            except (ServeError, asyncio.IncompleteReadError, UnicodeDecodeError) as exc:
                writer.write(_json_response(400, {"error": str(exc)}))
                return
            self._requests += 1
            if path == "/run":
                if method != "POST":
                    writer.write(_json_response(405, {"error": "POST /run"}))
                elif self._draining:
                    writer.write(_json_response(503, {"error": "server is draining"}))
                else:
                    await self._handle_run(body, writer)
            elif path == "/healthz":
                writer.write(_json_response(200, {
                    "ok": True,
                    "workers": self.pool.size,
                    "draining": self._draining,
                }))
            elif path == "/stats":
                writer.write(_json_response(200, self._stats()))
            elif path == "/scenarios":
                writer.write(_json_response(200, {
                    "scenarios": [spec.describe() for spec in specs()]
                }))
            else:
                writer.write(_json_response(404, {"error": f"no route {path!r}"}))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client hung up; nothing to flush
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # -- /run --------------------------------------------------------------

    async def _handle_run(self, body: bytes, writer: asyncio.StreamWriter) -> None:
        try:
            request = parse_run_request(body)
            # Resolved once, for every request: an unknown name or a
            # param that fails its schema is a 400 before any worker
            # sees it, faulted or not.
            _, params = request.config.resolve(request.scenario)
            key = (
                request.config.cache_key(request.scenario, params)
                if request.config.cacheable
                else None
            )
        except ReproError as exc:
            writer.write(_json_response(400, {"error": str(exc)}))
            return

        # NDJSON from here on: headers first, then one line per event.
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )

        cached = None
        if request.cacheable:
            cached = self.cache.get(key)

        started = time.monotonic()
        writer.write(event_line(
            "accepted",
            scenario=request.scenario,
            cache_key=key,
            cached=cached is not None,
        ))
        await writer.drain()

        if cached is not None:
            writer.write(result_line(
                cached, cached=True, seconds=time.monotonic() - started
            ))
            return

        async def forward(snapshot: dict) -> None:
            if request.stream:
                self._streamed_events += 1
                writer.write(event_line("progress", **snapshot))
                await writer.drain()

        job = {
            "scenario": request.scenario,
            "config": request.config.to_json(),
            "stream": request.stream,
            "stream_every": request.stream_every,
            "inject": request.inject,
        }
        try:
            payload = await self.pool.submit(job, on_progress=forward)
        except ServeError as exc:
            writer.write(event_line("error", message=str(exc)))
            return
        if request.cacheable:
            self.cache.put(key, payload)
        writer.write(result_line(
            payload, cached=False, seconds=time.monotonic() - started
        ))

    # -- introspection -----------------------------------------------------

    def _stats(self) -> Dict[str, object]:
        return {
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "requests": self._requests,
            "streamed_events": self._streamed_events,
            "inflight": len(self._inflight),
            "cache": self.cache.stats(),
            "pool": self.pool.stats(),
        }


def _say(message: str) -> None:
    # Shutdown must not depend on stdout: a daemonized server whose pipe
    # reader died would otherwise raise BrokenPipeError here, skip the
    # pool drain, and hang at exit joining workers still waiting for a
    # job.
    try:
        print(message, flush=True)
    except OSError:
        pass


def serve(
    host: str = "127.0.0.1",
    port: int = 8752,
    workers: int = 2,
    cache_bytes: int = DEFAULT_CACHE_BYTES,
) -> None:
    """Blocking entry point for ``repro serve`` — runs until interrupted."""

    async def _main() -> None:
        server = AnalysisServer(
            host=host, port=port, workers=workers, cache_bytes=cache_bytes
        )
        await server.start()
        _say(
            f"repro serve: listening on http://{server.host}:{server.port} "
            f"({workers} warm workers, "
            f"{cache_bytes // (1024 * 1024)} MiB cache)"
        )
        try:
            await asyncio.Event().wait()  # park until cancelled
        except asyncio.CancelledError:
            pass
        finally:
            _say("repro serve: draining...")
            await server.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
