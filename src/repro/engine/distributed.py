"""Distributed rank-parallel runtime: shard the engine over ranks.

The paper runs feature extraction *in situ on real MPI ranks*: every
rank samples the part of the domain it owns, the parts are reduced,
and status broadcasts keep all processes synchronized on the
threshold-detection and termination decisions.  This module is that
runtime for our substrate.  :class:`DistributedEngine` drives the same
analyses as the serial :class:`~repro.engine.scheduler.InSituEngine`,
but the collection plane is sharded:

* each collection group's spatial window is block-decomposed over
  ranks (:class:`~repro.parallel.decomposition.BlockDecomposition`);
* every rank samples its shard through shard-restricted provider views
  (:class:`~repro.core.providers.ShardView`) and keeps a ledger of its
  sampling seconds (on simcomm, a :class:`RankCollector`);
* per matching iteration the full-width row is reduced from the rank
  shards (an ``allreduce_array`` over the communicator, or a pipe
  gather from worker processes) and lands in the group's shared store,
  the one copy of each collected row, so training consumes exactly the
  rows a serial run would have seen — fit coefficients and stop
  iterations are bit-identical;
* the termination decision is collective: the scheduler's stop flag
  passes through an allreduce every iteration (``stop_reducer``), and
  status events still flow through the broadcast path.

At the end of a run each group's aggregate statistics
(``DistributedResult.collection_stats``) are folded once from its
store.

Two execution backends ship behind the
:class:`~repro.engine.driver.Executor` protocol:

``"simcomm"``
    Deterministic in-process backend.  All ranks share one live
    simulation; rank-local sampling runs serialized while every
    collective charges its modelled cost to the
    :class:`~repro.parallel.comm.SimComm` ledger.  This is the
    backend the equivalence tests and the scaling experiment use.

``"multiprocessing"``
    A real process pool for wall-clock speedup.  An app that can shard
    (:mod:`repro.engine.workload`) is stepped one block per rank, with
    halo cells swapped through rank 0 once per chunk, and rank 0's
    block holds every sampled location.  Otherwise worker ranks step
    their own deterministic replica of the simulation (``app_factory``
    must be picklable) and stream their shard rows back in chunks, one
    pickled payload per chunk over the control pipe
    (:mod:`repro.engine.transport`); the parent assembles rows, trains
    and decides termination.  Results match the serial engine because
    row assembly is a pure concatenation of shard gathers.  Row and
    halo bytes moved and serialization/transfer seconds land in
    ``DistributedResult.transport_stats``.

Both backends are elastic through one policy,
:class:`~repro.engine.elastic.ElasticLayout`: it records dead ranks,
decides when the shard layout may change (a death, or a due skew check
with ``rebalance=True``) and rewrites the plans' shards.  Each executor
only detects deaths, settles the layout where a change is safe, and
re-points its ranks at the new shards.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.ar_model import RunningStats
from repro.core.curve_fitting import Analysis
from repro.core.params import IterParam
from repro.core.providers import ShardView
from repro.engine.cadence import as_cadence_controller
from repro.engine.driver import (
    EngineResult,
    ExecutionDriver,
    Executor,
    GroupPlan,
    plan_groups,
)
from repro.engine.elastic import ElasticLayout
from repro.engine.faults import (
    KILL_EXIT_CODE,
    FaultPlan,
    RecoveryEvent,
    as_fault_plan,
)
from repro.engine.scheduler import (
    POLICY_ANY,
    AnalysisScheduler,
)
from repro.engine.transport import PickleRowReceiver, PickleRowSender
from repro.engine.workload import SimulationApp, as_simulation_app
from repro.errors import (
    CommunicatorError,
    ConfigurationError,
)
from repro.parallel.comm import SimComm
from repro.parallel.decomposition import BlockDecomposition

#: Execution backend names.
BACKEND_SIMCOMM = "simcomm"
BACKEND_MULTIPROCESSING = "multiprocessing"
BACKENDS = (BACKEND_SIMCOMM, BACKEND_MULTIPROCESSING)

__all__ = [
    "BACKENDS",
    "BACKEND_MULTIPROCESSING",
    "BACKEND_SIMCOMM",
    "DistributedEngine",
    "DistributedResult",
    "GroupPlan",
    "MultiprocessExecutor",
    "RankCollector",
    "SimCommExecutor",
    "plan_groups",
]


_EMPTY_SHARD = np.empty(0, dtype=np.float64)


class RankCollector:
    """One rank's collection state on simcomm: shard views and a ledger.

    Per group, a shard-restricted provider view, and the seconds the
    rank spent sampling through them.  The parts it samples are
    reduced into the group's store, which keeps the one copy of each
    row.  :meth:`reshard` re-points the views at a new shard layout
    mid-run (an elastic recovery or rebalance).
    """

    def __init__(self, rank: int, plans: Sequence[GroupPlan]) -> None:
        self.rank = rank
        self.sample_seconds = 0.0
        self.reshard(plans)

    def reshard(self, plans: Sequence[GroupPlan]) -> None:
        """Adopt the plans' current shard layout."""
        self.views = [
            ShardView(plan.provider, plan.shards[self.rank])
            for plan in plans
        ]

    def collect(self, domain: object, group: int) -> np.ndarray:
        """Gather this rank's shard of one group."""
        tick = time.perf_counter()
        part = self.views[group].sample(domain)
        self.sample_seconds += time.perf_counter() - tick
        return part


# ----------------------------------------------------------------------
# execution backends
# ----------------------------------------------------------------------


class SimCommExecutor:
    """Deterministic in-process backend over a :class:`SimComm`.

    All ranks observe the single live app; their shard gathers run
    serialized (timed per rank, so the scaling experiment can take the
    max over ranks as the parallel sampling time) and the row assembly
    is an ``allreduce_array`` of zero-padded shard contributions,
    charged byte-accurately to the communicator ledger.

    Elasticity on this backend is fully deterministic.  The layout
    policy is the shared :class:`~repro.engine.elastic.ElasticLayout`,
    settled before every iteration is sampled, so each row is assembled
    under exactly one layout: an injected kill re-shards the dead
    rank's window over the survivors *before* the kill iteration is
    sampled (all ranks share the one live app, so no row is ever lost
    and results stay bit-identical to serial; kills on one iteration
    share one reshard), an injected delay charges simulated seconds to
    the rank's sampling ledger without sleeping, and skew-triggered
    rebalancing migrates shard columns between epochs once the
    measured per-rank sample times diverge past the hysteresis
    threshold.
    """

    #: Sampled iterations between skew checks when rebalancing.
    REBALANCE_EVERY = 8

    def __init__(
        self,
        app: SimulationApp,
        plans: Sequence[GroupPlan],
        comm: SimComm,
        *,
        faults: Optional[FaultPlan] = None,
        rebalance: bool = False,
    ) -> None:
        self.app = app
        self.plans = list(plans)
        self.comm = comm
        self.n_ranks = comm.size
        self.ranks = [RankCollector(r, self.plans) for r in range(comm.size)]
        self.last_step_seconds = 0.0
        self.faults = faults
        self.layout = ElasticLayout(
            self.plans,
            self.n_ranks,
            rebalance=rebalance,
            every=self.REBALANCE_EVERY,
        )
        self.recovery_events = self.layout.recovery_events
        self._kills = faults.kills if faults else ()
        self._delays = (
            {d.rank: d for d in faults.delays} if faults else {}
        )
        self._refresh_offsets()

    def _refresh_offsets(self) -> None:
        # Column offset of each rank's shard inside the full window.
        self._offsets = [
            np.cumsum(
                [0]
                + [plan.shards[r].shape[0] for r in range(self.n_ranks)]
            )
            for plan in self.plans
        ]

    def start(self) -> None:
        pass

    def advance(
        self, iteration: int, active: Sequence[int]
    ) -> Dict[int, np.ndarray]:
        # Deaths and due rebalances settle BEFORE sampling, so every
        # row is assembled under exactly one layout.
        for kill in self._kills:
            if kill.iteration <= iteration:
                self.layout.mark_dead(
                    kill.rank, iteration, "injected kill fault"
                )
        if self.layout.settle(iteration, self.rank_sample_seconds()):
            for rank in self.ranks:
                rank.reshard(self.plans)
            self._refresh_offsets()
        tick = time.perf_counter()
        self.app.step()
        self.last_step_seconds = time.perf_counter() - tick
        domain = self.app.domain
        rows: Dict[int, np.ndarray] = {}
        sampled_counts = [0] * self.n_ranks
        for g in active:
            plan = self.plans[g]
            if not plan.temporal.matches(iteration):
                continue
            width = plan.width
            offsets = self._offsets[g]
            contributions = []
            for rank in self.ranks:
                part = rank.collect(domain, g)
                sampled_counts[rank.rank] += int(part.shape[0])
                self.layout.samples[rank.rank] += int(part.shape[0])
                padded = np.zeros(width, dtype=np.float64)
                padded[offsets[rank.rank]: offsets[rank.rank + 1]] = part
                contributions.append(padded)
            rows[g] = self.comm.allreduce_array(contributions, op="sum")
        if rows:
            for rank_id, delay in self._delays.items():
                if not self.layout.dead[rank_id]:
                    # Simulated slowness: charged to the ledger, never
                    # slept, so decisions stay deterministic.
                    self.ranks[rank_id].sample_seconds += delay.seconds_for(
                        sampled_counts[rank_id]
                    )
            self.layout.tick()
        return rows

    def rank_sample_seconds(self) -> np.ndarray:
        return np.array(
            [rank.sample_seconds for rank in self.ranks], dtype=np.float64
        )

    def transport_stats(self) -> None:
        """No wire: modelled communication lives in the comm ledger."""
        return None

    def close(self) -> None:
        pass


@dataclass(frozen=True)
class _WorkerGroupSpec:
    """Picklable description of one group shard a worker owns."""

    provider: object
    locations: np.ndarray
    temporal: IterParam


@dataclass(frozen=True)
class _WorkerTask:
    """Everything a worker rank needs to run its collection loop.

    Under fork, ``app`` is rank 0's built, not-yet-stepped app, which
    the worker inherits copy-on-write instead of calling
    ``app_factory``.  Under spawn it is None (the task is pickled, and
    a state-sized app would be pickled with it), so the worker builds
    its app from ``app_factory``.
    """

    rank: int
    app_factory: Callable[[], object]
    groups: List[_WorkerGroupSpec]
    max_iterations: int
    faults: Optional[FaultPlan] = None
    #: ``(lo, hi, ghost)`` under block stepping; None steps a replica.
    block: Optional[Tuple[int, int, int]] = None
    app: Optional[SimulationApp] = None


def _shard_worker(conn, task: _WorkerTask) -> None:
    """Worker-rank main loop: step a replica, stream shard rows back.

    The replica is ``task.app``, rank 0's unstepped app inherited under
    fork, or a fresh ``task.app_factory()`` under spawn.

    Protocol (parent -> worker): ``("advance", n, active, ghosts)``
    requests up to ``n`` more iterations sampling the groups in
    ``active`` (``ghosts`` is None outside block stepping);
    ``("reshard", locations_per_group)`` adopts a new shard layout (an
    elastic recovery or rebalance — no reply); ``("finish",)`` requests
    the worker's timing/byte counters and ends the loop.
    Replies: one ``("rows", pickled_payload, extra)`` acknowledgement
    per chunk, where ``extra`` carries the worker's cumulative
    sample-seconds ledger (which the parent's rebalancer reads) and the
    chunk's busy seconds (stepping plus sampling, which the parent's
    overlap/idle ledgers read), and a final ``("stats", {...})``.  An
    uncaught exception is shipped back as ``("error", traceback)``
    before the worker exits nonzero, so the parent's recovery event can
    say *why* the rank died.

    Block stepping (``task.block``): the replica steps its block plus
    ``ghost`` cells each side and samples nothing.  ``ghosts`` are the
    cells just outside the block, from rank 0's state; the ack carries
    no rows, and ``extra["edges"]`` the block's first and last
    ``ghost`` cells for rank 0 to write into its state.

    Injected faults (:class:`~repro.engine.faults.FaultPlan`): a kill
    fault ``os._exit``\\ s the process the moment the replica reaches
    the fault iteration (no ack, no cleanup — a reclaimed preemptible
    instance); a delay fault really sleeps inside the timed sampling
    section.
    """
    failed = False
    try:
        app = as_simulation_app(
            task.app_factory() if task.app is None else task.app
        )
        if task.block is not None:
            lo, hi, ghost = task.block
            app.shard(max(0, lo - ghost), min(len(app.state), hi + ghost))
        views = [
            ShardView(spec.provider, spec.locations) for spec in task.groups
        ]
        sender = PickleRowSender()
        kill = task.faults.kill_for(task.rank) if task.faults else None
        delay = task.faults.delay_for(task.rank) if task.faults else None
        sample_seconds = 0.0
        iteration = 0
        while True:
            message = conn.recv()
            command = message[0]
            if command == "advance":
                _, budget, active, ghosts = message
                busy_start = time.perf_counter()
                if ghosts is not None:
                    app.state[lo - len(ghosts[0]):lo] = ghosts[0]
                    app.state[hi:hi + len(ghosts[1])] = ghosts[1]
                payload = []
                for _ in range(budget):
                    if app.done or iteration >= task.max_iterations:
                        break
                    iteration += 1
                    if kill is not None and iteration >= kill.iteration:
                        # Injected death: vanish without a goodbye.
                        # os._exit skips every finally/atexit so no ack
                        # or error message ever leaves the process.
                        os._exit(KILL_EXIT_CODE)
                    app.step()
                    if ghosts is not None:
                        continue
                    parts: List[Optional[np.ndarray]] = []
                    sampled = 0
                    for g, (spec, view) in enumerate(
                        zip(task.groups, views)
                    ):
                        if g in active and spec.temporal.matches(iteration):
                            tick = time.perf_counter()
                            part = view.sample(app.domain)
                            sample_seconds += time.perf_counter() - tick
                            sampled += int(part.shape[0])
                            parts.append(part)
                        else:
                            parts.append(None)
                    if delay is not None and any(
                        part is not None for part in parts
                    ):
                        # Injected slowness: a real sleep inside the
                        # timed section, so the ledger the rebalancer
                        # reads reflects it.
                        tick = time.perf_counter()
                        time.sleep(delay.seconds_for(sampled))
                        sample_seconds += time.perf_counter() - tick
                    payload.append((iteration, parts))
                extra = {
                    "sample_seconds": sample_seconds,
                    "busy_seconds": time.perf_counter() - busy_start,
                }
                if ghosts is not None:
                    width = min(ghost, hi - lo)
                    extra["edges"] = (
                        app.state[lo:lo + width].copy(),
                        app.state[hi - width:hi].copy(),
                    )
                sender.send(conn, payload, extra)
            elif command == "reshard":
                views = [
                    ShardView(spec.provider, locations)
                    for spec, locations in zip(task.groups, message[1])
                ]
            elif command == "finish":
                conn.send(
                    (
                        "stats",
                        {
                            "sample_seconds": sample_seconds,
                            "serialize_seconds": sender.counters.seconds,
                            "bytes_moved": sender.counters.bytes_moved,
                            "records": sender.counters.records,
                        },
                    )
                )
                return
            else:  # pragma: no cover - protocol misuse
                raise CommunicatorError(
                    f"unknown worker command {message[0]!r}"
                )
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - parent died
        pass
    except Exception:
        failed = True
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - pipe already gone
            pass
    finally:
        conn.close()
    if failed:
        sys.exit(1)


class _WorkerDeath(CommunicatorError):
    """A worker process stopped participating.

    Subclasses :class:`CommunicatorError`; the executor catches it
    specifically and recovers, never mistaking a protocol desync for a
    recoverable death.
    """

    def __init__(
        self,
        index: int,
        message: str,
        worker_traceback: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.index = index
        self.rank = index + 1
        self.worker_traceback = worker_traceback


@dataclass
class _Speculation:
    """One chunk in flight (speculative, or block-stepped): its frozen
    active set, the workers it was posted to, and when."""

    frozen: tuple
    posted: List[int]
    post_time: float = field(default_factory=time.perf_counter)


class MultiprocessExecutor:
    """Process-pool backend: ranks step blocks, or sample replicas.

    **Block stepping** runs when the app can shard
    (:mod:`repro.engine.workload`), rank 0's block leaves cells for the
    workers, ``rebalance`` is off and no slow fault targets a worker
    (both act on worker-sampled shards; block stepping has none).
    Rank 0 owns cells ``[0, max(ceil(n / R), L))`` of the ``n``-cell
    state, ``L`` one past the largest sampled location; the workers
    split the rest evenly in rank order.  Each rank steps its block
    plus ``stencil_radius * chunk`` ghost cells a side.  At every chunk
    boundary each worker's ack brings rank 0 its block-edge cells;
    rank 0 writes them into its full-size state and posts the next
    chunk with each worker's ghost cells read from it, and both sides
    step that chunk at once.  Every sampled shard is rank 0's, so it
    gathers every row from its own live app as serial does: no rows
    move, nothing is speculated.  A worker found dead at a boundary
    gets its ``rank_death``; rank 0 replays a fresh ``app_factory()``
    replica to its iteration, copies its state, retires the surviving
    workers and steps the whole domain alone (one ``reshard`` event
    with the replay's seconds).  After a run ``app`` is exact only on
    rank 0's block; validators read sampled rows and closed forms.

    Otherwise workers step **replicas**.  Rank 0 is the parent: it
    steps the engine-visible app (so analyses
    can read the live domain), samples its own shard, and assembles
    full rows by concatenating the shard parts streamed back from
    worker ranks 1..R-1.  Worker requests are chunked (``chunk``
    iterations per round trip) to amortize IPC; the active group set is
    frozen per chunk, which only ever *over*-collects — the engine
    consumes rows by its own per-iteration active set, so results are
    unaffected.

    Each worker ships a chunk as one pickled payload over its control
    pipe (:mod:`repro.engine.transport`).

    **Pipelined chunk execution** (every multi-rank run): immediately
    after a chunk's rows land in the parent's buffer, the next chunk is
    speculatively requested with the same frozen active set (or the
    boundary's set, when the frozen set does not cover it), so worker
    stepping and sampling of chunk *k+1* overlaps rank-0 compute of
    chunk *k* — rank 0 steps its own app, samples its shard and trains
    — instead of alternating with it.  The speculative replies are
    received on the main thread at the next chunk boundary, and every
    speculated chunk is adopted: a group the active set dropped is
    over-collected, which is harmless, and a group it gained (an
    adaptive cadence snap-back) is backfilled by rank 0 for that chunk
    only, bit-identical because the replicas are deterministic.  Rank 0
    samples every shard it does not get from a worker — its own, a dead
    rank's, a backfilled group's — through one helper, :meth:`_sample`.

    **Elasticity** (the shared
    :class:`~repro.engine.elastic.ElasticLayout`): a worker death
    detected by the poll/liveness path never aborts the run.  Rank 0
    re-samples the dead rank's shard for the chunk in flight, and
    already-streamed rows stay merged.  Deaths and a due skew check
    (every :attr:`REBALANCE_EVERY` chunks with ``rebalance=True``;
    worker acks carry each rank's sample-seconds ledger) fence the
    pipeline: no new speculation, the in-flight chunk is consumed under
    the old layout, the layout settles at the next quiet boundary and
    reaches the live workers as a ``reshard`` message, and speculation
    resumes.  A worker that raised ships its traceback first; it lands
    in a ``worker_error`` event.

    **Start-up.**  Under the fork start method each worker inherits
    rank 0's built, not-yet-stepped app copy-on-write, so the app is
    built once per run.  Only spawned workers and the replay after a
    death call ``app_factory``; the factory must be picklable either
    way, so a run does not depend on the host's start method.
    """

    #: Worker chunks between skew checks when rebalancing.
    REBALANCE_EVERY = 2

    def __init__(
        self,
        app: SimulationApp,
        plans: Sequence[GroupPlan],
        *,
        n_ranks: int,
        app_factory: Callable[[], object],
        max_iterations: int,
        chunk: int = 8,
        faults: Optional[FaultPlan] = None,
        rebalance: bool = False,
    ) -> None:
        if chunk <= 0:
            raise ConfigurationError(f"chunk must be positive, got {chunk}")
        self.app = app
        self.plans = list(plans)
        self.n_ranks = n_ranks
        self.app_factory = app_factory
        self.max_iterations = max_iterations
        self.chunk = chunk
        self.last_step_seconds = 0.0
        self.faults = faults
        self.layout = ElasticLayout(
            self.plans,
            n_ranks,
            rebalance=rebalance,
            every=self.REBALANCE_EVERY,
        )
        self.recovery_events = self.layout.recovery_events
        # Rank 0's shard views, by (group, rank); dropped on a reshard.
        self._views: Dict[Tuple[int, int], ShardView] = {}
        self._rank0_seconds = 0.0
        self._buffer: deque = deque()
        self._chunk_active: tuple = ()
        self._processes: list = []
        self._conns: list = []
        self._receivers: List[PickleRowReceiver] = []
        self._worker_stats: Optional[List[Optional[dict]]] = None
        n_workers = max(0, n_ranks - 1)
        self._worker_seconds = [0.0] * n_workers
        self._last_iteration = 0
        self._delay0 = faults.delay_for(0) if faults else None
        # Pipelining state: at most one speculative chunk in flight.
        self._speculative: Optional[_Speculation] = None
        self._chunks_speculated = 0
        self._backfilled_rows = 0
        # Overlap/idle ledgers (wall-clock instrumentation only); each
        # worker's busy seconds for its latest chunk come in its ack.
        self._rank0_overlap = 0.0
        self._rank0_idle = 0.0
        self._worker_busy = [0.0] * n_workers
        self._worker_overlap = [0.0] * n_workers
        self._worker_idle = [0.0] * n_workers
        # Block stepping: each rank's (lo, hi), or None for replicas;
        # each worker's block edges from its latest ack, and the bytes
        # of every ghost and edge array swapped with it.
        self._blocks = self._plan_blocks(rebalance)
        self._edges = [(_EMPTY_SHARD, _EMPTY_SHARD)] * n_workers
        self._halo_bytes = [0] * n_workers
        if self._blocks is not None:
            self._ghost = self.app.stencil_radius * chunk
            for plan in self.plans:  # every sampled shard is rank 0's
                plan.decomposition = plan.decomposition.rebalance(
                    exclude=range(1, n_ranks)
                )
                plan.shards = [plan.locations] + [plan.locations[:0]] * (n_ranks - 1)

    def _plan_blocks(self, rebalance: bool) -> Optional[List[Tuple[int, int]]]:
        """Each rank's ``(lo, hi)`` block of the app's state, or None."""
        delays = self.faults.delays if self.faults else ()
        worker_slowed = any(delay.rank > 0 for delay in delays)
        if rebalance or worker_slowed or not hasattr(self.app, "shard"):
            return None
        n = len(self.app.state)
        sampled = [int(plan.locations.max()) + 1 for plan in self.plans]
        end0 = max([-(-n // self.n_ranks)] + sampled)
        if end0 >= n:
            return None
        rest = BlockDecomposition(n - end0, self.n_ranks - 1)
        return [(0, end0)] + [
            (end0 + part.start, end0 + part.stop)
            for part in map(rest.slice_for, range(self.n_ranks - 1))
        ]

    def start(self) -> None:
        import multiprocessing

        if self.n_ranks == 1:
            return
        method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        ctx = multiprocessing.get_context(method)
        tasks = [
            _WorkerTask(
                rank=rank,
                app_factory=self.app_factory,
                groups=[
                    _WorkerGroupSpec(
                        provider=plan.provider,
                        locations=plan.shards[rank],
                        temporal=plan.temporal,
                    )
                    for plan in self.plans
                ],
                max_iterations=self.max_iterations,
                faults=self.faults,
                block=self._blocks and (*self._blocks[rank], self._ghost),
            )
            for rank in range(1, self.n_ranks)
        ]
        for task in tasks:
            try:
                pickle.dumps(task)
            except Exception as exc:
                raise ConfigurationError(
                    "the multiprocessing backend ships the app factory "
                    "and providers to worker ranks, so both must be "
                    "picklable (module-level callables, functools."
                    "partial of classes); pickling rank "
                    f"{task.rank}'s task failed: {exc}"
                ) from exc
        if method == "fork":
            # Forked workers inherit rank 0's app, built and not yet
            # stepped, instead of rebuilding it; the check above pickled
            # each task without it, as spawn sends it.
            tasks = [replace(task, app=self.app) for task in tasks]
        for task in tasks:
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_shard_worker, args=(child_conn, task), daemon=True
            )
            process.start()
            child_conn.close()
            self._processes.append(process)
            self._conns.append(parent_conn)
            self._receivers.append(PickleRowReceiver())
        if self._blocks is not None:
            end = self._blocks[0][1] + self._ghost
            self.app.shard(0, min(len(self.app.state), end))

    def _died(
        self, index: int, worker_traceback: Optional[str] = None
    ) -> _WorkerDeath:
        process = self._processes[index]
        conn = self._conns[index]
        if worker_traceback is None:
            # Drain any last words: a worker that hit an exception
            # ships ("error", traceback) over the pipe before exiting.
            try:
                while conn.poll(0):
                    message = conn.recv()
                    if message and message[0] == "error":
                        worker_traceback = message[1]
            except (EOFError, OSError, ConnectionResetError):
                pass
        exitcode = process.exitcode
        detail = f"exit code {exitcode}"
        if exitcode == KILL_EXIT_CODE:
            detail += " (injected kill fault)"
        if worker_traceback:
            message = (
                f"worker rank {index + 1} died mid-run ({detail}); "
                f"worker traceback:\n{worker_traceback}"
            )
        else:
            message = (
                f"worker rank {index + 1} died mid-run ({detail}); its "
                "replica, a provider, or the process itself failed "
                "without delivering a traceback"
            )
        return _WorkerDeath(index, message, worker_traceback)

    def _post(self, index: int, message) -> None:
        try:
            self._conns[index].send(message)
        except (BrokenPipeError, OSError) as exc:
            raise self._died(index) from exc

    def _recv(self, index: int, expected: str):
        process = self._processes[index]
        conn = self._conns[index]
        try:
            # Poll so a killed worker surfaces as a clean error instead
            # of the parent blocking forever on a half-closed pipe.
            while not conn.poll(0.2):
                if not process.is_alive():
                    # One last poll: the worker may have replied and
                    # exited between the poll and the liveness check.
                    if conn.poll(0):
                        break
                    raise self._died(index)
            reply = conn.recv()
        except (EOFError, ConnectionResetError) as exc:
            raise self._died(index) from exc
        if reply[0] == "error":
            raise self._died(index, worker_traceback=reply[1])
        if reply[0] != expected:
            raise CommunicatorError(
                f"worker protocol desync: expected {expected!r}, "
                f"got {reply[0]!r}"
            )
        if expected == "rows":
            self._note_extra(index, reply[2])
        return reply

    def _note_extra(self, index: int, extra) -> None:
        self._worker_seconds[index] = float(extra["sample_seconds"])
        self._worker_busy[index] = float(extra["busy_seconds"])
        self._edges[index] = extra.get("edges")
        if self._edges[index] is not None:
            self._halo_bytes[index] += sum(e.nbytes for e in self._edges[index])

    def _on_worker_death(self, death: _WorkerDeath) -> None:
        self.layout.mark_dead(
            death.rank,
            self._last_iteration,
            str(death),
            death.worker_traceback,
        )

    def _settle(self) -> None:
        """Apply a due layout change at a quiet chunk boundary.

        Only legal with nothing buffered or in flight: every buffered
        entry was streamed under the old layout and must be consumed
        under it.
        """
        seconds = [self._rank0_seconds] + self._worker_seconds
        if not self.layout.settle(self._last_iteration, seconds):
            return
        self._views.clear()
        for index in range(len(self._conns)):
            if self.layout.dead[index + 1]:
                continue
            try:
                self._post(
                    index,
                    (
                        "reshard",
                        [plan.shards[index + 1] for plan in self.plans],
                    ),
                )
            except _WorkerDeath as death:
                # Its freshly-assigned shard will be resampled by rank
                # 0 until the next chunk boundary reshards again.
                self._on_worker_death(death)

    def _post_advance(self, frozen: tuple) -> List[int]:
        """Post one chunk request to every live worker."""
        posted = []
        for index in range(len(self._conns)):
            if self.layout.dead[index + 1]:
                continue
            try:
                self._post(index, ("advance", self.chunk, frozen, None))
                posted.append(index)
            except _WorkerDeath as death:
                self._on_worker_death(death)
        return posted

    def _ingest_payloads(self, payloads: Dict[int, list], frozen: tuple) -> None:
        """Validate decoded chunk payloads and fill the parent buffer."""
        if payloads:
            lengths = {len(p) for p in payloads.values()}
            if len(lengths) > 1:
                raise CommunicatorError(
                    f"worker replicas diverged: chunk lengths "
                    f"{sorted(lengths)}"
                )
            n_workers = len(self._conns)
            for step in range(lengths.pop()):
                entry_iteration = None
                parts_by_worker: List[Optional[list]] = [None] * n_workers
                for index, payload in payloads.items():
                    it, parts = payload[step]
                    if entry_iteration is None:
                        entry_iteration = it
                    elif it != entry_iteration:
                        raise CommunicatorError(
                            "worker replicas diverged: iterations "
                            f"{sorted({it, entry_iteration})}"
                        )
                    parts_by_worker[index] = parts
                    for part in parts:
                        if part is not None:
                            self.layout.samples[index + 1] += int(
                                part.shape[0]
                            )
                self._buffer.append((entry_iteration, parts_by_worker))
        self._chunk_active = frozen

    # -- pipelined speculation -----------------------------------------

    def _collect(self, posted: Sequence[int]) -> Dict[int, list]:
        """Receive and decode one chunk reply from every posted worker.

        A worker found dead is recorded for recovery; its slot stays
        empty, so rank 0 resamples its shard.  The whole wait counts as
        rank-0 idle time.
        """
        start = time.perf_counter()
        payloads: Dict[int, list] = {}
        for index in posted:
            try:
                reply = self._recv(index, "rows")
            except _WorkerDeath as death:
                self._on_worker_death(death)
                continue
            payloads[index] = self._receivers[index].decode(reply)
        self._rank0_idle += time.perf_counter() - start
        return payloads

    def _post_speculation(self, frozen: tuple) -> None:
        """Speculatively request the next chunk behind the buffered one.

        Fenced off when a reshard is pending (death or due rebalance
        check): the layout must change at a boundary with nothing in
        flight, so the fence leaves the next boundary synchronous and
        speculation resumes right after.
        """
        if (
            self._speculative is not None
            or self.layout.pending()
            or not self._buffer
        ):
            return
        posted = self._post_advance(frozen)
        if posted:
            self._speculative = _Speculation(frozen, posted)
            self._chunks_speculated += 1

    def _retire_speculation(self) -> Tuple[Optional[_Speculation], dict]:
        """Receive the in-flight speculative chunk, if any.

        Returns the speculation state and the decoded payloads, or
        ``(None, {})`` when nothing was in flight.  Updates the
        overlap/idle ledgers: the post-to-retire window is rank-0
        compute that overlapped worker stepping.  A worker's busy
        seconds (from its ack) inside that window overlapped; the rest
        of the window its finished chunk sat waiting for rank 0.
        """
        state = self._speculative
        if state is None:
            return None, {}
        self._speculative = None
        window = time.perf_counter() - state.post_time
        self._rank0_overlap += window
        payloads = self._collect(state.posted)
        for index in payloads:
            busy = self._worker_busy[index]
            self._worker_overlap[index] += min(busy, window)
            self._worker_idle[index] += max(0.0, window - busy)
        return state, payloads

    def _prefetch(self, active: Sequence[int]) -> None:
        frozen = tuple(sorted(active))
        state, payloads = self._retire_speculation()
        if state is None:
            self._settle()
            self._ingest_payloads(
                self._collect(self._post_advance(frozen)), frozen
            )
        else:
            # Every speculated chunk is adopted.  Its frozen set only
            # ever over-collects for a group the active set dropped; a
            # group it gained (an adaptive cadence snap-back) is
            # backfilled by rank 0 in advance().  The next chunk keeps
            # the adopted set while that covers the boundary's.
            self._ingest_payloads(payloads, state.frozen)
            if set(frozen) <= set(state.frozen):
                frozen = state.frozen
        self.layout.tick()
        self._post_speculation(frozen)

    def _sample(self, group: int, rank: int, domain: object) -> np.ndarray:
        """Rank 0 samples ``rank``'s shard of ``group`` from its live app.

        One path for rank 0's own shard, a dead rank's shard and a
        backfilled group's: all are bit-identical to what the rank would
        have sent, because the replicas are deterministic.
        """
        shard = self.plans[group].shards[rank]
        if not shard.shape[0]:
            return _EMPTY_SHARD
        view = self._views.get((group, rank))
        if view is None:
            view = ShardView(self.plans[group].provider, shard)
            self._views[(group, rank)] = view
        tick = time.perf_counter()
        part = view.sample(domain)
        self._rank0_seconds += time.perf_counter() - tick
        self.layout.samples[0] += int(part.shape[0])
        return part

    # -- block stepping ------------------------------------------------

    def _swap_halos(self) -> None:
        """Block stepping's chunk boundary: swap halos, post a chunk.

        The posted chunk rides speculation's in-flight slot (drained at
        shutdown alike) but is never counted as a speculation.
        """
        self._retire_speculation()
        state = self.app.state
        if not any(self.layout.dead):
            for (lo, hi), (left, right) in zip(self._blocks[1:], self._edges):
                state[lo:lo + len(left)] = left
                state[hi - len(right):hi] = right
            posted = []
            for index, (lo, hi) in enumerate(self._blocks[1:]):
                ghosts = (
                    state[max(0, lo - self._ghost):lo],
                    state[hi:hi + self._ghost],
                )
                try:
                    self._post(index, ("advance", self.chunk, (), ghosts))
                    posted.append(index)
                    self._halo_bytes[index] += ghosts[0].nbytes + ghosts[1].nbytes
                except _WorkerDeath as death:
                    self._on_worker_death(death)
            self._speculative = _Speculation((), posted)
        if any(self.layout.dead):
            self._replay()

    def _replay(self) -> None:
        """Rank 0 takes the whole domain after a worker death."""
        done = self._last_iteration
        tick = time.perf_counter()
        replica = as_simulation_app(self.app_factory())
        for _ in range(done):
            replica.step()
        self.app.state[:] = replica.state
        self.app.shard(0, len(self.app.state))
        seconds = time.perf_counter() - tick
        self._finish_workers()
        for conn in self._conns:
            conn.close()
        self._conns, self._blocks = [], None
        dead = [rank for rank, flag in enumerate(self.layout.dead) if flag]
        detail = (
            f"rank(s) {dead} dead; rank 0 replayed a fresh replica to "
            f"iteration {done} in {seconds:.3f} s and steps the whole domain"
        )
        self.recovery_events.append(RecoveryEvent("reshard", done, detail=detail))

    def advance(
        self, iteration: int, active: Sequence[int]
    ) -> Dict[int, np.ndarray]:
        if self._blocks is not None:
            if (iteration - 1) % self.chunk == 0:
                self._swap_halos()
        elif self._conns and not self._buffer:
            # With every worker dead this posts nothing; its settle hands
            # rank 0 the whole window, and rank 0 runs solo.
            self._prefetch(active)
        tick = time.perf_counter()
        self.app.step()
        self.last_step_seconds = time.perf_counter() - tick
        if self._buffer:
            buffered_iteration, worker_parts = self._buffer.popleft()
            if buffered_iteration != iteration:
                raise CommunicatorError(
                    f"rank 0 is at iteration {iteration} but workers "
                    f"delivered {buffered_iteration}"
                )
            chunk_active = self._chunk_active
        else:
            worker_parts = [None] * len(self._conns)
            chunk_active = tuple(sorted(active))
        domain = self.app.domain
        rows: Dict[int, np.ndarray] = {}
        resampled = False
        samples0 = self.layout.samples[0]
        for g in sorted(set(active).union(chunk_active)):
            if not self.plans[g].temporal.matches(iteration):
                continue
            # A group the chunk was frozen without is one an adaptive
            # cadence re-collects after the chunk was posted (a probe
            # stride landing between boundaries, or a snap-back): no
            # worker sampled it, so rank 0 assembles the whole row.
            backfill = g not in chunk_active
            self._backfilled_rows += backfill
            parts = [self._sample(g, 0, domain)]
            for rank, worker in enumerate(worker_parts, start=1):
                if worker is None or backfill:
                    # No worker part: a dead rank, or a backfilled
                    # group.
                    part = self._sample(g, rank, domain)
                    resampled |= (
                        worker is None and not backfill and part.size > 0
                    )
                elif worker[g] is None:
                    raise CommunicatorError(
                        f"worker replicas diverged: no shard row for group "
                        f"{g} at iteration {iteration}"
                    )
                else:
                    part = worker[g]
                parts.append(part)
            rows[g] = np.concatenate(parts)
        if self._delay0 is not None and rows:
            tick = time.perf_counter()
            time.sleep(
                self._delay0.seconds_for(self.layout.samples[0] - samples0)
            )
            self._rank0_seconds += time.perf_counter() - tick
        self.layout.resampled += resampled
        self._last_iteration = iteration
        return rows

    def _finish_workers(self) -> None:
        if self._worker_stats is not None or not self._conns:
            if self._worker_stats is None:
                self._worker_stats = []
            return
        # A mid-chunk stop can leave a speculative chunk in flight;
        # drain it (the workers have already produced it) and drop the
        # payloads: its iterations were never consumed.
        self._retire_speculation()
        stats: List[Optional[dict]] = [None] * len(self._conns)
        for index in range(len(self._conns)):
            if self.layout.dead[index + 1]:
                continue
            try:
                self._post(index, ("finish",))
                stats[index] = self._recv(index, "stats")[1]
            except _WorkerDeath as death:
                self._on_worker_death(death)
        self._worker_stats = stats
        for process in self._processes:
            process.join(timeout=10.0)

    def rank_sample_seconds(self) -> np.ndarray:
        self._finish_workers()
        seconds = [self._rank0_seconds]
        for index, stats in enumerate(self._worker_stats or []):
            if stats is None:
                # Died before handing over its ledger; the parent-side
                # running total is the best (under-)estimate we have,
                # but mark it NaN so nobody mistakes it for a
                # measurement of a full run.
                seconds.append(float("nan"))
            else:
                seconds.append(float(stats["sample_seconds"]))
        return np.array(seconds, dtype=np.float64)

    def transport_stats(self) -> Dict[str, object]:
        """Per-rank serialization/transfer seconds and bytes moved.

        Worker entries combine the worker-side counters (pickle time,
        bytes pushed) with the parent-side receiver counters (unpickle
        time for that worker's rows).  Rank 0 samples in-process and
        moves nothing.

        Every per-rank entry also carries the pipeline overlap ledgers:
        ``overlap_seconds`` — for rank 0, compute time spent while a
        speculative chunk was in flight (the overlap window); for a
        worker, time it spent producing a speculative chunk while rank
        0 was busy — and ``idle_seconds`` — for rank 0, time blocked
        waiting on worker rows; for a worker, time its finished chunk
        sat waiting for rank 0.  The ``pipeline`` block summarizes the
        speculation machinery: chunks speculated, and rows backfilled by
        rank 0 for groups the active set gained mid-chunk.

        ``bytes_moved`` counts row payloads only.  Under block stepping
        the halo cells travel beside them, in the chunk request and its
        ack: ``halo_bytes`` counts every ghost array posted to a worker
        and every edge array received from it (0 on the replica path).
        """
        self._finish_workers()
        per_rank = [
            {
                "rank": 0,
                "bytes_moved": 0,
                "halo_bytes": 0,
                "serialize_seconds": 0.0,
                "transfer_seconds": 0.0,
                "overlap_seconds": float(self._rank0_overlap),
                "idle_seconds": float(self._rank0_idle),
            }
        ]
        for index, stats in enumerate(self._worker_stats or []):
            receiver = self._receivers[index]
            if stats is None:
                # A dead worker's serializer counters died with it; the
                # receiver-side counters survive in the parent.
                per_rank.append(
                    {
                        "rank": index + 1,
                        "bytes_moved": int(receiver.counters.bytes_moved),
                        "halo_bytes": self._halo_bytes[index],
                        "serialize_seconds": 0.0,
                        "transfer_seconds": float(receiver.counters.seconds),
                        "overlap_seconds": float(self._worker_overlap[index]),
                        "idle_seconds": float(self._worker_idle[index]),
                        "died": True,
                    }
                )
                continue
            per_rank.append(
                {
                    "rank": index + 1,
                    "bytes_moved": int(stats["bytes_moved"]),
                    "halo_bytes": self._halo_bytes[index],
                    "serialize_seconds": float(stats["serialize_seconds"]),
                    "transfer_seconds": float(receiver.counters.seconds),
                    "overlap_seconds": float(self._worker_overlap[index]),
                    "idle_seconds": float(self._worker_idle[index]),
                }
            )
        return {
            "per_rank": per_rank,
            "total_bytes_moved": sum(r["bytes_moved"] for r in per_rank),
            "total_halo_bytes": sum(r["halo_bytes"] for r in per_rank),
            "pipeline": {
                "chunks_speculated": int(self._chunks_speculated),
                "backfilled_rows": int(self._backfilled_rows),
            },
        }

    def close(self) -> None:
        """Tear everything down; idempotent and safe mid-failure.

        Called by the driver's ``finally`` on every exit path, so a
        :class:`CommunicatorError` or any parent-side exception still
        terminates and joins every worker process — no orphaned
        daemons.
        """
        self._buffer.clear()
        self._speculative = None
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for process in self._processes:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - stuck in a syscall
                process.kill()
                process.join(timeout=10.0)
        self._processes = []
        self._conns = []
        self._receivers = []


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------


@dataclass
class DistributedResult(EngineResult):
    """Outcome of one :meth:`DistributedEngine.run`.

    Extends the serial :class:`EngineResult` with the rank dimension:
    the modelled communication time charged during the run, per-rank
    sampling seconds (their max is the parallel sampling wall time the
    scaling cross-check compares against the model), and one
    :class:`RunningStats` aggregate per collection group over every
    value its store collected.
    """

    n_ranks: int = 1
    backend: str = BACKEND_SIMCOMM
    comm_seconds: float = 0.0
    rank_sample_seconds: Optional[np.ndarray] = None
    collection_stats: List[RunningStats] = field(default_factory=list)
    group_locations: List[np.ndarray] = field(default_factory=list)

    @property
    def max_rank_sample_seconds(self) -> float:
        """Sampling wall time of the slowest rank (0.0 with no ranks).

        Ranks that died mid-run report NaN in ``rank_sample_seconds``
        (their ledger died with them); they are excluded here rather
        than poisoning the maximum.
        """
        if self.rank_sample_seconds is None or not self.rank_sample_seconds.size:
            return 0.0
        finite = self.rank_sample_seconds[
            np.isfinite(self.rank_sample_seconds)
        ]
        if not finite.size:
            return 0.0
        return float(finite.max())


class DistributedEngine:
    """Drives N in-situ analyses over one simulation, sharded over ranks.

    A thin façade over :class:`~repro.engine.driver.ExecutionDriver`:
    the main loop and base result assembly are shared with the serial
    engine; this class contributes backend validation, the shard-aware
    executors and the rank dimension of the result.

    Results are bit-identical to the serial
    :class:`~repro.engine.scheduler.InSituEngine` on the same scenario:
    the assembled full-width rows equal the serial provider sweeps, so
    every trainer consumes the same sample stream, and the collective
    stop latches at the same iteration on every rank.

    Parameters
    ----------
    app:
        The live simulation (or anything
        :func:`~repro.engine.workload.as_simulation_app` accepts).  May
        be omitted when ``app_factory`` is given.
    n_ranks:
        Communicator size.  Defaults to ``comm.size`` when a
        communicator is passed.
    backend:
        ``"simcomm"`` (deterministic, cost-ledger timing) or
        ``"multiprocessing"`` (real worker processes; needs a picklable
        ``app_factory`` and providers; a block-stepped app is exact
        after the run only on rank 0's block).
    comm:
        Optional :class:`SimComm`; built from ``n_ranks`` by default.
        Ignored by the multiprocessing backend (real processes do not
        share a simulated clock).
    app_factory:
        Zero-argument callable building a fresh deterministic replica
        of the simulation.  Required by the multiprocessing backend:
        spawned workers and the replay after a worker death build from
        it, while forked workers inherit rank 0's unstepped app.
    policy, quorum, record_timings, cadence, name:
        As for :class:`~repro.engine.scheduler.InSituEngine`.  Adaptive
        cadence runs on every backend: the multiprocessing backend
        freezes the active set per worker chunk (over-collection is
        harmless), and any group the cadence re-collects mid-chunk is
        backfilled by rank 0 from its live app — bit-identical, the
        worker replicas are deterministic.
    chunk:
        Multiprocessing only: iterations per worker round trip.
    faults:
        Optional :class:`~repro.engine.faults.FaultPlan` (or its spec
        string) of deterministic failures to inject — rank kills and
        per-rank slowdowns.  Validated against the rank count and
        backend at construction.  A rank death never aborts the run:
        the dead rank's shard is re-sharded over the survivors.
    rebalance:
        Enable skew-triggered rebalancing: every
        ``REBALANCE_EVERY`` iterations (simcomm) or worker chunks
        (multiprocessing), per-rank sample-seconds are compared and
        window slices migrate away from slow ranks when the max/mean
        skew exceeds
        :data:`~repro.engine.elastic.REBALANCE_THRESHOLD`.
    """

    def __init__(
        self,
        app: Optional[SimulationApp] = None,
        *,
        n_ranks: Optional[int] = None,
        backend: str = BACKEND_SIMCOMM,
        comm: Optional[SimComm] = None,
        app_factory: Optional[Callable[[], object]] = None,
        policy: str = POLICY_ANY,
        quorum: Optional[Union[int, float]] = None,
        record_timings: bool = False,
        cadence=None,
        chunk: int = 8,
        faults: Union[None, str, "FaultPlan"] = None,
        rebalance: bool = False,
        name: str = "distributed-engine",
    ) -> None:
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        self.backend = backend
        self.name = name
        self.record_timings = record_timings
        self.chunk = chunk
        self.faults = as_fault_plan(faults)
        self.rebalance = bool(rebalance)
        self.app_factory = app_factory
        if app is None:
            if app_factory is None:
                raise ConfigurationError(
                    "need an app or an app_factory to drive"
                )
            app = app_factory()
        self.app = as_simulation_app(app)
        if backend == BACKEND_SIMCOMM:
            if comm is None:
                comm = SimComm(1 if n_ranks is None else n_ranks)
            elif n_ranks is not None and comm.size != n_ranks:
                raise ConfigurationError(
                    f"n_ranks ({n_ranks}) disagrees with comm.size "
                    f"({comm.size})"
                )
            self.comm: Optional[SimComm] = comm
            self.n_ranks = comm.size
        else:
            if app_factory is None:
                raise ConfigurationError(
                    "the multiprocessing backend steps a replica per worker "
                    "rank and needs a picklable app_factory"
                )
            if comm is not None:
                raise ConfigurationError(
                    "the multiprocessing backend runs real processes; a "
                    "simulated communicator does not apply"
                )
            if n_ranks is None or n_ranks <= 0:
                raise ConfigurationError(
                    f"n_ranks must be a positive int, got {n_ranks}"
                )
            self.comm = None
            self.n_ranks = int(n_ranks)
        if self.faults is not None:
            self.faults.validate_for(self.n_ranks, self.backend)
        stop_reducer = None
        if self.comm is not None:
            comm_ref = self.comm

            def stop_reducer(flag: bool) -> bool:
                return comm_ref.allreduce(1.0 if flag else 0.0, "max") > 0.0

        self.scheduler = AnalysisScheduler(
            comm=self.comm,
            policy=policy,
            quorum=quorum,
            record_timings=record_timings,
            stop_reducer=stop_reducer,
        )
        self._ran = False
        self.driver = ExecutionDriver(
            self.app,
            self.scheduler,
            make_executor=self._make_executor,
            n_ranks=self.n_ranks,
            record_timings=record_timings,
            # The rank shards must span resumed runs, so plans are
            # built once and late analysis attachments are rejected by
            # the driver.
            replan_each_run=False,
            # The simcomm executor carries the elastic layout (dead
            # ranks, due rebalances) and the per-rank sampling ledgers,
            # which must span resumed runs; it is created once and
            # reused.  Multiprocessing executors are per-run (resume is
            # rejected in run()).
            reuse_executor=(backend == BACKEND_SIMCOMM),
            on_plans=self._wire_wavefront_ranks,
            cadence=as_cadence_controller(cadence),
            finalize_result=self._finalize_result,
        )

    def add_analysis(self, analysis: Analysis) -> Analysis:
        """Attach an analysis; returns it for chaining."""
        return self.scheduler.add_analysis(analysis)

    @property
    def analyses(self):
        return self.scheduler.analyses

    @property
    def broadcaster(self):
        return self.scheduler.broadcaster

    @property
    def stop_requested(self) -> bool:
        return self.scheduler.stop_requested

    @property
    def iteration(self) -> int:
        """Absolute iteration count across (possibly resumed) runs."""
        return self.driver.iteration

    @property
    def executor(self) -> Optional[Executor]:
        """The executor of the most recent run (simcomm keeps its layout)."""
        return self.driver.executor

    # ------------------------------------------------------------------

    def _wire_wavefront_ranks(self, plans: Sequence[GroupPlan]) -> None:
        """Point each analysis's wavefront-rank hook at its shard plan."""
        by_collector = {}
        for plan in plans:
            for collector in plan.group.collectors:
                by_collector[id(collector)] = plan
        for state in self.scheduler.states:
            collector = getattr(state.analysis, "collector", None)
            plan = by_collector.get(id(collector))
            if plan is not None:
                state.analysis.wavefront_rank_of = plan.owner_of_location

    def _make_executor(
        self, plans: Sequence[GroupPlan], limit: int
    ) -> Executor:
        if self.backend == BACKEND_SIMCOMM:
            return SimCommExecutor(
                self.app,
                plans,
                self.comm,
                faults=self.faults,
                rebalance=self.rebalance,
            )
        return MultiprocessExecutor(
            self.app,
            plans,
            n_ranks=self.n_ranks,
            app_factory=self.app_factory,
            max_iterations=limit,
            chunk=self.chunk,
            faults=self.faults,
            rebalance=self.rebalance,
        )

    def _finalize_result(self, base: dict, executor: Executor) -> "DistributedResult":
        """Extend the driver's base result with the rank dimension."""
        rank_seconds = executor.rank_sample_seconds()
        # rank_sample_seconds() drains the workers, which can surface a
        # late death; re-snapshot the events the driver captured earlier.
        base = dict(base)
        base["recovery_events"] = list(
            getattr(executor, "recovery_events", None) or []
        )
        # Every collected value once: one fold over each group's store.
        collection_stats = []
        for plan in self.driver.plans:
            stats = RunningStats(1)
            stats.update(plan.store.matrix().reshape(-1, 1))
            collection_stats.append(stats)
        return DistributedResult(
            **base,
            n_ranks=self.n_ranks,
            backend=self.backend,
            transport_stats=executor.transport_stats(),
            comm_seconds=(
                self.comm.charged_seconds if self.comm is not None else 0.0
            ),
            rank_sample_seconds=rank_seconds,
            collection_stats=collection_stats,
            group_locations=[
                plan.locations.copy() for plan in self.driver.plans
            ],
        )

    def run(
        self,
        *,
        max_iterations: Optional[int] = None,
        progress: Optional[Callable[[dict], None]] = None,
    ) -> DistributedResult:
        """Run until done / collective termination / the iteration limit.

        ``progress`` (optional) receives a
        :func:`~repro.engine.driver.progress_snapshot` after every
        dispatched iteration; the scheduler (and thus the snapshot
        state) lives in the driving process on every backend, so the
        hook works unchanged under multiprocessing.
        """
        if self.backend == BACKEND_MULTIPROCESSING and self._ran:
            raise ConfigurationError(
                "the multiprocessing backend cannot resume: worker replicas "
                "restart from iteration 0 and would diverge from the parent"
            )
        self._ran = True
        return self.driver.run(max_iterations=max_iterations, progress=progress)
