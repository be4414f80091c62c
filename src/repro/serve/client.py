"""Synchronous client + in-process server harness for the serve API.

:class:`ServeClient` is a tiny blocking HTTP/1.1 client (stdlib
``socket`` only) that speaks the server's NDJSON dialect — tests and
benchmarks use it instead of pulling in an HTTP library.

:class:`ServerThread` runs a full :class:`AnalysisServer` (real pool,
real sockets, port 0) on a background event-loop thread, so tests and
``benchmarks/perf.py serve`` exercise the exact production code path
without managing a subprocess.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ServeError
from repro.scenarios import RunConfig
from repro.serve.protocol import split_result_line
from repro.serve.server import AnalysisServer


@dataclass
class RunResponse:
    """One parsed ``/run`` response: events in arrival order + report."""

    status: int
    events: List[Dict[str, object]] = field(default_factory=list)
    report: Optional[Dict[str, object]] = None
    #: Exact bytes the server spliced into the result line — compare
    #: these across requests to check the cache's bit-identity claim.
    raw_report: Optional[bytes] = None
    error: Optional[str] = None

    @property
    def cached(self) -> bool:
        return bool(self.result and self.result.get("cached"))

    @property
    def result(self) -> Optional[Dict[str, object]]:
        for event in self.events:
            if event.get("event") == "result":
                return event
        return None

    @property
    def progress(self) -> List[Dict[str, object]]:
        return [e for e in self.events if e.get("event") == "progress"]


class ServeClient:
    """Blocking HTTP client for one :class:`AnalysisServer`."""

    def __init__(self, host: str, port: int, timeout: float = 120.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- raw HTTP ----------------------------------------------------------

    def _request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("ascii")
        with socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        ) as sock:
            sock.sendall(head + body)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        blob = b"".join(chunks)
        header, _, payload = blob.partition(b"\r\n\r\n")
        status_line = header.split(b"\r\n", 1)[0].decode("ascii", "replace")
        try:
            status = int(status_line.split()[1])
        except (IndexError, ValueError):
            raise ServeError(f"malformed response: {status_line!r}")
        return status, payload

    def get(self, path: str) -> Dict[str, object]:
        """GET a JSON endpoint (``/healthz``, ``/stats``, ``/scenarios``)."""
        status, payload = self._request("GET", path)
        data = json.loads(payload)
        if status != 200:
            raise ServeError(f"GET {path} -> {status}: {data.get('error')}")
        return data

    # -- /run --------------------------------------------------------------

    def run(
        self,
        scenario: str,
        config: Optional[RunConfig] = None,
        *,
        stream: bool = True,
        stream_every: int = 1,
        no_cache: bool = False,
        inject: Optional[str] = None,
    ) -> RunResponse:
        """POST one run request and consume its whole NDJSON stream."""
        body = json.dumps({
            "scenario": scenario,
            "config": (config or RunConfig()).to_json(),
            "stream": stream,
            "stream_every": stream_every,
            "no_cache": no_cache,
            "inject": inject,
        }).encode("utf-8")
        status, payload = self._request("POST", "/run", body)
        response = RunResponse(status=status)
        if status != 200:
            try:
                response.error = json.loads(payload).get("error")
            except json.JSONDecodeError:
                response.error = payload.decode("utf-8", "replace")
            return response
        for line in payload.splitlines():
            if not line.strip():
                continue
            event = json.loads(line)
            if event.get("event") == "result":
                envelope, raw = split_result_line(line)
                response.report = envelope["report"]
                response.raw_report = raw
                response.events.append(envelope)
            else:
                response.events.append(event)
                if event.get("event") == "error":
                    response.error = event.get("message")
        return response


class ServerThread:
    """A live :class:`AnalysisServer` on a daemon event-loop thread.

    Context manager::

        with ServerThread(workers=2) as harness:
            harness.client().run("heat-diffusion", RunConfig(quick=True))

    ``stop()`` performs the server's graceful drain (in-flight streams
    finish before the pool retires) and joins the thread.
    """

    def __init__(self, workers: int = 2, cache_bytes: int = 64 * 1024 * 1024):
        self._server = AnalysisServer(
            host="127.0.0.1", port=0, workers=workers, cache_bytes=cache_bytes
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self._server.host

    @property
    def port(self) -> int:
        return self._server.port

    def client(self, timeout: float = 120.0) -> ServeClient:
        return ServeClient(self.host, self.port, timeout=timeout)

    def start(self) -> "ServerThread":
        self._loop = asyncio.new_event_loop()

        def _run() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self._server.start())
            except BaseException as exc:  # surface pool/bind failures
                self._startup_error = exc
                self._ready.set()
                return
            self._ready.set()
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=_run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=120)
        if self._startup_error is not None:
            self._thread.join(timeout=120)
            self._loop.close()
            self._loop = self._thread = None
            raise ServeError(f"server failed to start: {self._startup_error}")
        if not self._ready.is_set():
            raise ServeError("server did not start within 120s")
        return self

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self._server.close(), self._loop
        )
        future.result(timeout=120)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=120)
        self._loop.close()
        self._loop = None
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
