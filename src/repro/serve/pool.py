"""Warm worker pool: pre-imported processes that run scenarios on demand.

Cold-starting a scenario run from the CLI pays interpreter boot, numpy
import and registry construction before the first iteration steps — a
large constant against the quick scenarios' sub-second runtimes.  The
pool pays that once per worker at server startup; afterwards a request
costs only pickling a small job dict over a pipe.

Protocol (one pipe per worker, strictly request/response framed):

* worker → parent ``("ready", info)`` once imports are warm;
* parent → worker a job dict (``scenario`` / ``config`` /
  ``stream`` / ``stream_every`` / ``inject``), or ``None`` to retire;
* worker → parent zero or more ``("progress", snapshot)`` messages,
  then exactly one ``("result", report_bytes)`` or ``("error", msg)``.

The parent reads every pipe on its event loop, with no thread per pipe
or message: an asyncio read-pipe transport buffers what each wake-up
reads, and the request takes every complete message from the buffer.
A large report builds up across wake-ups while other streams move on.

Supervision: a worker that dies mid-run (crash, OOM kill, or a
deliberate ``inject`` spec — the same :class:`~repro.engine.faults`
plans the distributed engine uses, aimed here at the worker process
itself) surfaces as :class:`ServeError` on that one request, and the
pool replaces the corpse with a fresh warm worker before accepting the
next job, as it does for a request whose client hangs up mid-run.
The pool never loses capacity to a death.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import pickle
import struct
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, List, Optional

from repro.errors import ServeError

#: Progress callback the server threads through to its NDJSON stream.
ProgressSink = Callable[[dict], Awaitable[None]]


def _worker_main(conn) -> None:
    """Worker process body: warm the imports, then serve jobs forever."""
    # Everything a run touches is imported ONCE here — this is the
    # "warm" in warm pool.  Scenario registration happens on import.
    from repro.engine.faults import KILL_EXIT_CODE, as_fault_plan
    from repro.scenarios import RunConfig, run_scenario
    from repro.serve.protocol import canonical_report_bytes

    conn.send(("ready", {"pid": os.getpid()}))
    while True:
        try:
            job = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break  # parent is gone; don't linger
        if job is None:
            break
        try:
            config = RunConfig.from_json(job.get("config") or {})
            stream = bool(job.get("stream", True))
            every = int(job.get("stream_every") or 1)
            kill = None
            if job.get("inject"):
                plan = as_fault_plan(job["inject"])
                kill = plan.kill_for(0) if plan is not None else None

            sent = 0

            def hook(snapshot: dict) -> None:
                nonlocal sent
                if kill is not None and snapshot["iteration"] >= kill.iteration:
                    # Simulated worker crash: same exit code the fault
                    # harness uses for killed ranks, so supervision
                    # tests can assert on it.
                    os._exit(KILL_EXIT_CODE)
                sent += 1
                if stream and (sent % every == 0 or snapshot["terminated"]):
                    conn.send(("progress", snapshot))

            if not stream and kill is None:  # nothing reads a snapshot
                hook = None

            run = run_scenario(job["scenario"], config=config, progress=hook)
            conn.send(("result", canonical_report_bytes(run.to_json())))
        except Exception as exc:  # keep the worker alive across bad jobs
            try:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            except (BrokenPipeError, OSError):
                break
    conn.close()


async def _reap(process: multiprocessing.process.BaseProcess) -> None:
    """Join ``process`` off the event loop, terminating it if it lingers.

    A worker takes up to a few hundred milliseconds to exit, and a join
    on the loop would hold every other stream that long.
    """
    await asyncio.to_thread(process.join, 5)
    if process.is_alive():
        process.terminate()
        await asyncio.to_thread(process.join, 5)


@dataclass
class _Worker:
    index: int
    process: multiprocessing.process.BaseProcess
    conn: object
    reader: asyncio.StreamReader
    transport: asyncio.ReadTransport
    pid: int = 0
    jobs: int = 0
    generation: int = 0

    def alive(self) -> bool:
        return self.process.is_alive()


class WorkerPool:
    """Fixed-size pool of warm scenario-runner processes.

    ``await start()`` before submitting; ``await close()`` retires the
    workers (it is safe to call with jobs finished — the server drains
    in-flight requests first).  Workers are non-daemonic because a job
    may itself fan out multiprocessing shard workers.
    """

    def __init__(self, size: int = 2):
        if size <= 0:
            raise ServeError(f"pool size must be positive, got {size}")
        self.size = int(size)
        # Spawn, not fork: a replacement worker is forked while the
        # server holds live client sockets, and a forked child would
        # inherit those fds and keep streams from ever reaching EOF.
        # Spawn starts clean — its import cost is exactly what the
        # warm pool exists to amortize.
        self._ctx = multiprocessing.get_context("spawn")
        self._workers: List[_Worker] = []
        self._free: Optional[asyncio.Queue] = None
        self._busy = 0
        self._jobs = 0
        self._restarts = 0
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    async def _spawn(self, index: int, generation: int = 0) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"repro-serve-worker-{index}",
            daemon=False,
        )
        process.start()
        child_conn.close()
        reader = asyncio.StreamReader()
        transport, _ = await asyncio.get_running_loop().connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), parent_conn
        )
        # The transport made the pipe non-blocking, but a job larger than
        # its buffer must not stop halfway; a read the loop found ready
        # does not block either way.
        os.set_blocking(parent_conn.fileno(), True)
        return _Worker(
            index, process, parent_conn, reader, transport, generation=generation
        )

    async def _recv(self, worker: _Worker):
        """The next ``Connection.send`` frame: length (4 bytes), pickle."""
        try:
            size = struct.unpack("!i", await worker.reader.readexactly(4))[0]
            return pickle.loads(await worker.reader.readexactly(size))
        except ConnectionResetError:  # it died with input unread
            raise EOFError from None

    async def _wait_ready(self, worker: _Worker) -> None:
        kind, info = await self._recv(worker)
        if kind != "ready":
            raise ServeError(
                f"worker {worker.index} sent {kind!r} before 'ready'"
            )
        worker.pid = int(info["pid"])

    async def start(self) -> None:
        """Spawn and warm every worker; returns once all are ready.

        Every worker reports ready or dies before a failed start cleans
        up, so no read outlives it; the :class:`ServeError` it raises
        names each worker that failed, with its exit code.
        """
        self._free = asyncio.Queue()
        try:
            for index in range(self.size):
                self._workers.append(await self._spawn(index))
            results = await asyncio.gather(
                *(self._wait_ready(w) for w in self._workers),
                return_exceptions=True,
            )
            failed = [
                (worker, result)
                for worker, result in zip(self._workers, results)
                if result is not None
            ]
            if failed:
                await self.close()  # joins every worker: exit codes are set
                raise ServeError(
                    "workers failed to start: "
                    + "; ".join(
                        f"worker {worker.index} exited with code "
                        f"{worker.process.exitcode} ({type(error).__name__}: "
                        f"{error})"
                        for worker, error in failed
                    )
                )
        except BaseException:
            await self.close()  # a failed start leaves no pipe to the GC
            raise
        for worker in self._workers:
            self._free.put_nowait(worker)

    async def _replace(self, dead: _Worker) -> _Worker:
        """Reap a dead worker and warm a replacement in its slot."""
        dead.transport.close()  # takes the pipe off the loop, closes it
        await _reap(dead.process)
        fresh = await self._spawn(dead.index, generation=dead.generation + 1)
        await self._wait_ready(fresh)
        self._workers[dead.index] = fresh
        self._restarts += 1
        return fresh

    async def close(self) -> None:
        """Retire all workers.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            await _reap(worker.process)
            worker.transport.close()
        self._workers = []
        await asyncio.sleep(0)  # let the transports close their pipes

    # -- jobs --------------------------------------------------------------

    async def submit(
        self, job: Dict[str, object], on_progress: Optional[ProgressSink] = None
    ) -> bytes:
        """Run ``job`` on a free worker; return the canonical report bytes.

        Blocks (asynchronously) until a worker frees up.  Progress
        messages are awaited through ``on_progress`` in iteration
        order.  A worker death mid-job raises :class:`ServeError` after
        a replacement worker is warm; an in-worker failure raises
        :class:`ServeError` with the worker's message.
        """
        if self._closed or self._free is None:
            raise ServeError("pool is not running (closed or never started)")
        worker = await self._free.get()
        self._busy += 1
        try:
            try:
                try:
                    worker.conn.send(job)
                except OSError:
                    pass  # a dead worker: its EOF is on the way
                while True:
                    kind, payload = await self._recv(worker)
                    if kind == "progress":
                        if on_progress is not None:
                            await on_progress(payload)
                    elif kind == "result":
                        worker.jobs += 1
                        self._jobs += 1
                        return payload
                    elif kind == "error":
                        worker.jobs += 1
                        self._jobs += 1
                        raise ServeError(payload)
                    else:
                        raise ServeError(
                            f"worker {worker.index} sent unknown "
                            f"message kind {kind!r}"
                        )
            except EOFError:
                await asyncio.to_thread(worker.process.join, 5)
                code = worker.process.exitcode
                worker = await self._replace(worker)
                raise ServeError(
                    f"worker died mid-run (exit code {code}); "
                    "a fresh worker has replaced it"
                ) from None
            except (asyncio.CancelledError, ConnectionResetError, BrokenPipeError):
                # The request vanished mid-run (client hung up, so
                # on_progress raised / server abort).  The worker is
                # still crunching and its pipe framing is now ambiguous
                # — replace it rather than risk pairing its late result
                # with the next job.
                worker.process.terminate()
                worker = await self._replace(worker)
                raise
        finally:
            self._busy -= 1
            if not self._closed:
                self._free.put_nowait(worker)

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "size": self.size,
            "busy": self._busy,
            "jobs": self._jobs,
            "restarts": self._restarts,
            "workers": [
                {
                    "index": w.index,
                    "pid": w.pid,
                    "jobs": w.jobs,
                    "generation": w.generation,
                    "alive": w.alive(),
                }
                for w in self._workers
            ],
        }
