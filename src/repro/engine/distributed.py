"""Distributed rank-parallel runtime: shard the engine over ranks.

The paper runs feature extraction *in situ on real MPI ranks*: every
rank samples the part of the domain it owns, partial statistics are
reduced, and status broadcasts keep all processes synchronized on the
threshold-detection and termination decisions.  This module is that
runtime for our substrate.  :class:`DistributedEngine` drives the same
analyses as the serial :class:`~repro.engine.scheduler.InSituEngine`,
but the collection plane is sharded:

* each collection group's spatial window is block-decomposed over
  ranks (:class:`~repro.parallel.decomposition.BlockDecomposition`);
* every rank owns a :class:`RankCollector` — shard-restricted provider
  views (:class:`~repro.core.providers.ShardView`), a rank-local
  :class:`~repro.core.collector.SeriesStore` over its shard columns,
  and a Chan-mergeable :class:`~repro.core.ar_model.RunningStats`
  partial over its samples;
* per matching iteration the full-width row is reduced from the rank
  shards (an ``allreduce_array`` over the communicator, or a pipe
  gather from worker processes) and lands in the group's shared store,
  so training consumes exactly the rows a serial run would have seen —
  fit coefficients and stop iterations are bit-identical;
* the termination decision is collective: the scheduler's stop flag
  passes through an allreduce every iteration (``stop_reducer``), and
  status events still flow through the broadcast path.

Two execution backends ship behind the
:class:`~repro.engine.driver.Executor` protocol:

``"simcomm"``
    Deterministic in-process backend.  All ranks share one live
    simulation; rank-local sampling runs serialized while every
    collective charges its modelled cost to the
    :class:`~repro.parallel.comm.SimComm` ledger.  This is the
    backend the equivalence tests and the scaling experiment use.

``"multiprocessing"``
    A real process pool for wall-clock speedup on wide-spatial
    scenarios.  Worker ranks step their own deterministic replica of
    the simulation (``app_factory`` must be picklable) and stream
    their shard rows back in chunks, one pickled payload per chunk over
    the control pipe (:mod:`repro.engine.transport`); the parent
    assembles rows, trains and decides termination, then reduces the
    workers' partial statistics at shutdown.  Results match the serial
    engine because row assembly is a pure concatenation of shard
    gathers.  Bytes moved and serialization/transfer seconds land in
    ``DistributedResult.transport_stats``.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.ar_model import RunningStats
from repro.core.collector import SeriesStore
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

#: Execution backend names.
BACKEND_SIMCOMM = "simcomm"
BACKEND_MULTIPROCESSING = "multiprocessing"
BACKENDS = (BACKEND_SIMCOMM, BACKEND_MULTIPROCESSING)

#: Sample-time skew (max over mean) beyond which a rebalance migrates
#: window slices; enough hysteresis that balanced runs never churn.
REBALANCE_THRESHOLD = 1.75

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


def _plan_shard_counts(
    plans: Sequence[GroupPlan], n_ranks: int
) -> List[int]:
    """Total shard columns each rank owns, summed over all groups."""
    return [
        int(sum(plan.shards[rank].shape[0] for plan in plans))
        for rank in range(n_ranks)
    ]


def _rebalance_weights(
    counts: Sequence[int],
    samples: Sequence[float],
    seconds: Sequence[float],
    dead: Sequence[bool],
    threshold: float,
    min_window_seconds: float = 5e-3,
) -> Tuple[Optional[List[float]], float]:
    """Per-rank weights for a skew-triggered rebalance, or ``None`` to hold.

    ``samples``/``seconds`` are the per-rank work measured since the
    last layout change.  Speeds (samples per second) are estimated for
    every live rank that did measurable work; the projected time to
    sample each rank's current share (``counts``) at its measured speed
    gives the skew ``max / mean``, and only a skew beyond ``threshold``
    — with at least ``min_window_seconds`` of evidence on some rank —
    triggers a migration.  That hysteresis is what keeps balanced runs
    from churning on timer noise.  Ranks without a speed estimate are
    assigned the median measured speed (a neutral guess).
    """
    n_ranks = len(counts)
    speeds: Dict[int, float] = {}
    for rank in range(n_ranks):
        if dead[rank]:
            continue
        if (
            samples[rank] > 0
            and np.isfinite(seconds[rank])
            and seconds[rank] > 0.0
        ):
            speeds[rank] = float(samples[rank]) / float(seconds[rank])
    if len(speeds) < 2:
        return None, 0.0
    if max(seconds[rank] for rank in speeds) < min_window_seconds:
        return None, 0.0
    projected = {
        rank: counts[rank] / speeds[rank]
        for rank in speeds
        if counts[rank] > 0
    }
    if len(projected) < 2:
        return None, 0.0
    times = np.array(list(projected.values()), dtype=np.float64)
    skew = float(times.max() / times.mean())
    if skew <= threshold:
        return None, skew
    median = float(np.median(list(speeds.values())))
    weights = [0.0] * n_ranks
    for rank in range(n_ranks):
        if not dead[rank]:
            weights[rank] = speeds.get(rank, median)
    return weights, skew


class RankCollector:
    """One rank's collection state: shard views, stores and partials.

    This is the rank-local face of the shared-collection layer — what a
    :class:`~repro.engine.collection.SharedCollector` owns on a real
    MPI rank: per group, a shard-restricted provider view, a
    :class:`SeriesStore` covering only the shard's columns, and a
    width-1 :class:`RunningStats` partial folding every value the rank
    has sampled (the aggregate Chan-merged across ranks at shutdown).

    The collector is *elastic*: :meth:`reshard` adopts a new shard
    layout mid-run, archiving the current stores as a completed
    **epoch** (a span of iterations sampled under one layout) and
    opening fresh ones over the new columns.  Stats partials persist
    across epochs — they are value-level and column-agnostic.
    """

    def __init__(self, rank: int, plans: Sequence[GroupPlan]) -> None:
        self.rank = rank
        self.stats = [RunningStats(1) for _ in plans]
        self.sample_seconds = 0.0
        #: Per group: stores of completed epochs, in time order.
        self.archived: List[List[SeriesStore]] = [[] for _ in plans]
        self.views: List[ShardView] = []
        self.stores: List[SeriesStore] = []
        self._open_epoch(plans)

    def _open_epoch(self, plans: Sequence[GroupPlan]) -> None:
        self.views = [
            ShardView(plan.provider, plan.shards[self.rank])
            for plan in plans
        ]
        self.stores = [
            SeriesStore(plan.shards[self.rank], capacity=plan.temporal.count)
            for plan in plans
        ]

    def reshard(self, plans: Sequence[GroupPlan]) -> None:
        """Adopt the plans' new shard layout (archives the open epoch)."""
        for group, store in enumerate(self.stores):
            self.archived[group].append(store)
        self._open_epoch(plans)

    def collect(self, domain: object, iteration: int, group: int) -> np.ndarray:
        """Gather this rank's shard of one group at one iteration."""
        tick = time.perf_counter()
        part = self.views[group].sample(domain)
        self.sample_seconds += time.perf_counter() - tick
        self.stores[group].add_row(iteration, part)
        if part.size:
            self.stats[group].update(part.reshape(-1, 1))
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

    Elasticity on this backend is fully deterministic: an injected kill
    reshards the dead rank's window over the survivors *before* the
    kill iteration is sampled (all ranks share the one live app, so no
    row is ever lost and results stay bit-identical to serial), an
    injected delay charges simulated seconds to the rank's sampling
    ledger without sleeping, and skew-triggered rebalancing migrates
    shard columns between epochs once the measured per-rank sample
    times diverge past the hysteresis threshold.
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
        self.rebalance_enabled = rebalance
        self.recovery_events: List[RecoveryEvent] = []
        self._dead = [False] * self.n_ranks
        self._kills = (
            sorted(faults.kills, key=lambda k: k.iteration) if faults else []
        )
        self._delays = (
            {d.rank: d for d in faults.delays} if faults else {}
        )
        # Rebalance bookkeeping: cumulative samples per rank, plus the
        # snapshot taken at the last layout change (speeds are measured
        # over the window since then).
        self._rank_samples = [0] * self.n_ranks
        self._rb_samples = [0] * self.n_ranks
        self._rb_seconds = [0.0] * self.n_ranks
        self._sampled_since_check = 0
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

    # -- elasticity ------------------------------------------------------

    def _apply_layout(
        self,
        weights: Optional[Sequence[float]],
        kind: str,
        iteration: int,
        detail: str = "",
    ) -> bool:
        """Reshard every plan; archive epochs; record the event."""
        exclude = [r for r in range(self.n_ranks) if self._dead[r]]
        counts_before = _plan_shard_counts(self.plans, self.n_ranks)
        changed = False
        for plan in self.plans:
            new = plan.decomposition.rebalance(weights, exclude)
            if new.counts() != plan.decomposition.counts():
                changed = True
            plan.decomposition = new
            plan.shards = [
                plan.locations[new.slice_for(r)]
                for r in range(self.n_ranks)
            ]
        if kind == "rebalance" and not changed:
            return False
        for rank in self.ranks:
            rank.reshard(self.plans)
        self._refresh_offsets()
        self._rb_samples = list(self._rank_samples)
        self._rb_seconds = [rank.sample_seconds for rank in self.ranks]
        self.recovery_events.append(
            RecoveryEvent(
                kind=kind,
                iteration=iteration,
                detail=detail,
                counts_before=counts_before,
                counts_after=_plan_shard_counts(self.plans, self.n_ranks),
            )
        )
        return True

    def _inject_faults(self, iteration: int) -> None:
        for kill in self._kills:
            if kill.iteration > iteration or self._dead[kill.rank]:
                continue
            self._dead[kill.rank] = True
            self.recovery_events.append(
                RecoveryEvent(
                    kind="rank_death",
                    iteration=iteration,
                    rank=kill.rank,
                    detail="injected kill fault",
                )
            )
            self._apply_layout(
                None,
                "reshard",
                iteration,
                detail=(
                    f"rank {kill.rank} dead; window re-sharded over "
                    "survivors"
                ),
            )

    def _maybe_rebalance(self, iteration: int) -> None:
        counts = _plan_shard_counts(self.plans, self.n_ranks)
        seconds = [rank.sample_seconds for rank in self.ranks]
        weights, skew = _rebalance_weights(
            counts,
            [
                self._rank_samples[r] - self._rb_samples[r]
                for r in range(self.n_ranks)
            ],
            [seconds[r] - self._rb_seconds[r] for r in range(self.n_ranks)],
            self._dead,
            REBALANCE_THRESHOLD,
        )
        if weights is None:
            return
        self._apply_layout(
            weights,
            "rebalance",
            iteration,
            detail=f"sample-time skew {skew:.2f} > {REBALANCE_THRESHOLD:g}",
        )

    # -- the executor protocol -------------------------------------------

    def advance(
        self, iteration: int, active: Sequence[int]
    ) -> Dict[int, np.ndarray]:
        # Injected deaths and due rebalances apply BEFORE sampling, so
        # every collected row is assembled under exactly one layout.
        self._inject_faults(iteration)
        if (
            self.rebalance_enabled
            and self._sampled_since_check >= self.REBALANCE_EVERY
        ):
            self._sampled_since_check = 0
            self._maybe_rebalance(iteration)
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
                part = rank.collect(domain, iteration, g)
                sampled_counts[rank.rank] += int(part.shape[0])
                self._rank_samples[rank.rank] += int(part.shape[0])
                padded = np.zeros(width, dtype=np.float64)
                padded[offsets[rank.rank]: offsets[rank.rank + 1]] = part
                contributions.append(padded)
            rows[g] = self.comm.allreduce_array(contributions, op="sum")
        if rows:
            for rank_id, delay in self._delays.items():
                if not self._dead[rank_id]:
                    # Simulated slowness: charged to the ledger, never
                    # slept, so decisions stay deterministic.
                    self.ranks[rank_id].sample_seconds += delay.seconds_for(
                        sampled_counts[rank_id]
                    )
            self._sampled_since_check += 1
        return rows

    def shard_stores(self, group: int) -> List[SeriesStore]:
        """Current-epoch rank-local stores of one group, in rank order."""
        return [rank.stores[group] for rank in self.ranks]

    def merged_store(self, group: int) -> SeriesStore:
        """Reassemble the full store across ranks and reshard epochs.

        Each epoch (the span between two layout changes) merges exactly
        like a static run — shard columns concatenated in rank order —
        and the epochs then stack in time order.  Fault-free, balanced
        runs have a single epoch, where this reduces to one
        :meth:`SeriesStore.merge_shards` call.
        """
        epochs = [
            [rank.archived[group][e] for rank in self.ranks]
            for e in range(len(self.ranks[0].archived[group]))
        ]
        epochs.append([rank.stores[group] for rank in self.ranks])
        merged = [SeriesStore.merge_shards(stores) for stores in epochs]
        occupied = [store for store in merged if len(store)]
        if not occupied:
            return merged[-1]
        if len(occupied) == 1:
            return occupied[0]
        out = SeriesStore(
            self.plans[group].locations,
            capacity=max(1, sum(len(store) for store in occupied)),
        )
        for store in occupied:
            matrix = store.matrix()
            for index, it in enumerate(store.iterations):
                out.add_row(int(it), matrix[index])
        return out

    def reduce_stats(self) -> List[RunningStats]:
        merged = []
        for g in range(len(self.plans)):
            partials = self.comm.gather(
                [rank.stats[g] for rank in self.ranks]
            )
            stats = RunningStats.merged(partials)
            merged.append(self.comm.bcast_obj(stats))
        return merged

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
    """Everything a worker rank needs to run its collection loop."""

    rank: int
    app_factory: Callable[[], object]
    groups: List[_WorkerGroupSpec]
    max_iterations: int
    faults: Optional[FaultPlan] = None


def _shard_worker(conn, task: _WorkerTask) -> None:
    """Worker-rank main loop: step a replica, stream shard rows back.

    Protocol (parent -> worker): ``("advance", n, active)`` requests up
    to ``n`` more iterations sampling the groups in ``active``;
    ``("reshard", locations_per_group)`` adopts a new shard layout (an
    elastic recovery or rebalance — no reply); ``("resend",)`` replays
    the chunk retained by an injected drop fault; ``("finish",)``
    requests the worker's timing/byte counters and ends the loop.
    Replies: one ``("rows", pickled_payload, extra)`` acknowledgement
    per chunk, where ``extra`` carries the worker's cumulative
    sample-seconds ledger (which the parent's rebalancer reads) and the
    chunk's busy seconds (stepping plus sampling, which the parent's
    overlap/idle ledgers read), and a final ``("stats", {...})``.  An
    uncaught exception is shipped back as ``("error", traceback)``
    before the worker exits nonzero, so the parent's recovery event can
    say *why* the rank died.  Workers do *not* fold partial statistics
    — chunked prefetch may sample iterations the parent never consumes
    (a mid-chunk stop), so the parent folds each rank's partial from
    the shard parts it actually uses.

    Injected faults (:class:`~repro.engine.faults.FaultPlan`): a kill
    fault ``os._exit``\\ s the process the moment the replica reaches
    the fault iteration (no ack, no cleanup — a reclaimed preemptible
    instance); a delay fault really sleeps inside the timed sampling
    section; a drop fault withholds one chunk's payload once and serves
    it on the parent's resend request.
    """
    failed = False
    try:
        app = as_simulation_app(task.app_factory())
        views = [
            ShardView(spec.provider, spec.locations) for spec in task.groups
        ]
        sender = PickleRowSender()
        kill = task.faults.kill_for(task.rank) if task.faults else None
        delay = task.faults.delay_for(task.rank) if task.faults else None
        drop = task.faults.drop_for(task.rank) if task.faults else None
        sample_seconds = 0.0
        iteration = 0
        chunks_sent = 0
        dropped_once = False
        retained: Optional[tuple] = None
        while True:
            message = conn.recv()
            command = message[0]
            if command == "advance":
                _, budget, active = message
                busy_start = time.perf_counter()
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
                if (
                    drop is not None
                    and not dropped_once
                    and chunks_sent == drop.chunk
                ):
                    dropped_once = True
                    retained = (payload, extra)
                    conn.send(("dropped", extra))
                else:
                    sender.send(conn, payload, extra)
                    chunks_sent += 1
            elif command == "resend":
                sender.send(conn, *retained)
                retained = None
                chunks_sent += 1
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
    """One speculative chunk in flight: its frozen active set, the
    workers it was posted to, and when."""

    frozen: tuple
    posted: List[int]
    post_time: float = field(default_factory=time.perf_counter)


class MultiprocessExecutor:
    """Process-pool backend: worker ranks sample shards of replicas.

    Rank 0 is the parent: it steps the engine-visible app (so analyses
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
    speculatively requested with the same frozen active set, so worker
    stepping and sampling of chunk *k+1* overlaps rank-0 compute of
    chunk *k* — rank 0 steps its own app, samples its shard, folds
    stats and trains — instead of alternating with it.  The speculative
    replies are received on the main thread at the next chunk
    boundary.  The speculation is adopted when the needed groups are a
    subset of the speculated set (chunk freezing only ever
    over-collects); otherwise — the active set grew between chunks,
    e.g. an adaptive cadence snap-back — it is discarded and rank 0
    resamples that boundary chunk's rows from its live app (the worker
    replicas are already past those iterations and cannot rewind),
    which is bit-identical because the replicas are deterministic.
    Elastic events fence the pipeline: a death or pending rebalance
    stops new speculation, the in-flight chunk is consumed under the
    old layout, the reshard applies at a quiet boundary, and
    speculation resumes.

    **Elastic recovery**: a worker death detected by the poll/liveness
    path never aborts the run.  The chunk in flight is completed by
    rank 0 re-sampling the dead rank's shard columns from its own live
    app (bit-identical — the replicas are deterministic), and once the
    buffered chunk drains the dead rank's window is re-sharded over the
    survivors via :meth:`BlockDecomposition.rebalance` and pushed to
    the workers as a ``reshard`` message.  Every already-streamed
    complete-iteration row stays merged; only the dead rank's unacked
    iterations are re-sampled, and that count is the recovery overhead
    reported in ``recovery_events``.  A worker that raised ships its
    traceback first; it lands in a ``worker_error`` event.

    **Rebalancing** (``rebalance=True``): worker chunk acks carry each
    rank's cumulative sample-seconds ledger; every
    :attr:`REBALANCE_EVERY` chunks the parent compares measured
    per-rank speeds against current shard widths and — only past the
    :data:`REBALANCE_THRESHOLD` hysteresis — migrates columns toward
    fast ranks with the same reshard machinery.
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
        self.rebalance_enabled = rebalance
        self.recovery_events: List[RecoveryEvent] = []
        self._views0 = [
            ShardView(plan.provider, plan.shards[0]) for plan in self.plans
        ]
        self._rank0_seconds = 0.0
        # Per-rank partial statistics, folded by the parent from the
        # shard parts the engine actually consumes — chunked prefetch
        # over-collects past a mid-chunk stop, and those rows must not
        # leak into the reduced aggregates.
        self._rank_stats = [
            [RunningStats(1) for _ in self.plans] for _ in range(n_ranks)
        ]
        self._buffer: deque = deque()
        self._chunk_active: tuple = ()
        self._processes: list = []
        self._conns: list = []
        self._receivers: List[PickleRowReceiver] = []
        self._worker_stats: Optional[List[Optional[dict]]] = None
        # Elasticity state.
        n_workers = max(0, n_ranks - 1)
        self._worker_dead = [False] * n_workers
        self._reshard_needed = False
        self._adopt_views: Dict[tuple, ShardView] = {}
        self._rank_samples = [0] * n_ranks
        self._worker_seconds = [0.0] * n_workers
        self._rb_samples = [0] * n_ranks
        self._rb_seconds = [0.0] * n_ranks
        self._chunks_since_check = 0
        self._last_iteration = 0
        self._resampled_total = 0
        self._resampled_marked = 0
        self._delay0 = faults.delay_for(0) if faults else None
        # Pipelining state: at most one speculative chunk in flight.
        self._speculative: Optional[_Speculation] = None
        self._chunks_speculated = 0
        self._chunks_discarded = 0
        self._backfilled_rows = 0
        # Overlap/idle ledgers (wall-clock instrumentation only); each
        # worker's busy seconds for its latest chunk come in its ack.
        self._rank0_overlap = 0.0
        self._rank0_idle = 0.0
        self._worker_busy = [0.0] * n_workers
        self._worker_overlap = [0.0] * n_workers
        self._worker_idle = [0.0] * n_workers

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
        resent = False
        while True:
            try:
                # Poll so a killed worker surfaces as a clean error
                # instead of the parent blocking forever on a
                # half-closed pipe.
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
            if reply[0] == "dropped" and expected == "rows":
                # Injected transport loss: the worker withheld the
                # chunk; ask it to replay its retained payload.
                self._note_extra(index, reply[1])
                self.recovery_events.append(
                    RecoveryEvent(
                        kind="chunk_dropped",
                        iteration=self._last_iteration,
                        rank=index + 1,
                        detail=(
                            "transport chunk dropped once (injected); "
                            "resend requested"
                        ),
                    )
                )
                self._post(index, ("resend",))
                resent = True
                continue
            if reply[0] != expected:
                raise CommunicatorError(
                    f"worker protocol desync: expected {expected!r}, "
                    f"got {reply[0]!r}"
                )
            if expected == "rows":
                self._note_extra(index, reply[2])
            if resent:
                self.recovery_events.append(
                    RecoveryEvent(
                        kind="chunk_resent",
                        iteration=self._last_iteration,
                        rank=index + 1,
                        detail="dropped chunk replayed from the worker's "
                        "retained payload",
                    )
                )
            return reply

    def _note_extra(self, index: int, extra) -> None:
        self._worker_seconds[index] = float(extra["sample_seconds"])
        self._worker_busy[index] = float(extra["busy_seconds"])

    def _on_worker_death(self, death: _WorkerDeath) -> None:
        if self._worker_dead[death.index]:
            return
        self._worker_dead[death.index] = True
        self._reshard_needed = True
        self.recovery_events.append(
            RecoveryEvent(
                kind="rank_death",
                iteration=self._last_iteration,
                rank=death.rank,
                detail=str(death),
            )
        )
        if death.worker_traceback:
            self.recovery_events.append(
                RecoveryEvent(
                    kind="worker_error",
                    iteration=self._last_iteration,
                    rank=death.rank,
                    detail=death.worker_traceback,
                )
            )

    def _any_alive(self) -> bool:
        return any(not dead for dead in self._worker_dead)

    def _adopt_view(self, group: int, rank: int) -> ShardView:
        key = (group, rank)
        view = self._adopt_views.get(key)
        if view is None:
            plan = self.plans[group]
            view = ShardView(plan.provider, plan.shards[rank])
            self._adopt_views[key] = view
        return view

    def _apply_layout(
        self,
        weights: Optional[Sequence[float]],
        kind: str,
        detail: str = "",
    ) -> bool:
        """Reshard every plan over the live ranks; notify the workers.

        Only legal between chunks (the buffer must be drained): every
        buffered entry was streamed under the old layout and must be
        consumed under it.
        """
        exclude = [
            index + 1
            for index, dead in enumerate(self._worker_dead)
            if dead
        ]
        counts_before = _plan_shard_counts(self.plans, self.n_ranks)
        changed = False
        for plan in self.plans:
            new = plan.decomposition.rebalance(weights, exclude)
            if new.counts() != plan.decomposition.counts():
                changed = True
            plan.decomposition = new
            plan.shards = [
                plan.locations[new.slice_for(r)]
                for r in range(self.n_ranks)
            ]
        if kind == "rebalance" and not changed:
            return False
        self._views0 = [
            ShardView(plan.provider, plan.shards[0]) for plan in self.plans
        ]
        self._adopt_views.clear()
        for index in range(len(self._conns)):
            if self._worker_dead[index]:
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
        self._rb_samples = list(self._rank_samples)
        self._rb_seconds = [self._rank0_seconds] + list(
            self._worker_seconds
        )
        self.recovery_events.append(
            RecoveryEvent(
                kind=kind,
                iteration=self._last_iteration,
                detail=detail,
                counts_before=counts_before,
                counts_after=_plan_shard_counts(self.plans, self.n_ranks),
                resampled_iterations=(
                    self._resampled_total - self._resampled_marked
                ),
            )
        )
        self._resampled_marked = self._resampled_total
        return True

    def _maybe_rebalance(self) -> None:
        counts = _plan_shard_counts(self.plans, self.n_ranks)
        weights, skew = _rebalance_weights(
            counts,
            [
                self._rank_samples[r] - self._rb_samples[r]
                for r in range(self.n_ranks)
            ],
            [
                second - snapshot
                for second, snapshot in zip(
                    [self._rank0_seconds] + list(self._worker_seconds),
                    self._rb_seconds,
                )
            ],
            [False] + list(self._worker_dead),
            REBALANCE_THRESHOLD,
        )
        if weights is None:
            return
        self._apply_layout(
            weights,
            "rebalance",
            detail=f"sample-time skew {skew:.2f} > {REBALANCE_THRESHOLD:g}",
        )

    def _pre_chunk_reshard(self) -> None:
        """Apply deferred layout changes at a chunk boundary."""
        if self._reshard_needed:
            self._reshard_needed = False
            dead = [
                index + 1
                for index, flag in enumerate(self._worker_dead)
                if flag
            ]
            self._apply_layout(
                None,
                "reshard",
                detail=(
                    f"rank(s) {dead} dead; window re-sharded over "
                    "survivors"
                ),
            )
        elif self._rebalance_due():
            self._chunks_since_check = 0
            self._maybe_rebalance()

    def _rebalance_due(self) -> bool:
        return (
            self.rebalance_enabled
            and self._chunks_since_check >= self.REBALANCE_EVERY
        )

    def _post_advance(self, frozen: tuple) -> List[int]:
        """Post one chunk request to every live worker."""
        posted = []
        for index in range(len(self._conns)):
            if self._worker_dead[index]:
                continue
            try:
                self._post(index, ("advance", self.chunk, frozen))
                posted.append(index)
            except _WorkerDeath as death:
                self._on_worker_death(death)
        return posted

    def _ingest_payloads(
        self, payloads: Dict[int, list], frozen: tuple, adopt: bool = True
    ) -> None:
        """Validate decoded chunk payloads and fill the parent buffer.

        With ``adopt=False`` (a discarded speculative chunk) the worker
        parts are dropped and every buffered entry carries ``None`` in
        each worker slot, which routes the whole row through rank 0's
        deterministic-resample backfill in :meth:`advance` — the
        synchronous fallback for an active-set-drift boundary.
        """
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
                    if not adopt:
                        continue
                    parts_by_worker[index] = parts
                    for part in parts:
                        if part is not None:
                            self._rank_samples[index + 1] += int(
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

    def _post_speculation(self) -> None:
        """Speculatively request the next chunk behind the buffered one.

        Fenced off when a reshard is pending (death or due rebalance
        check): the layout must change at a boundary with nothing in
        flight, so the fence leaves the next boundary synchronous and
        speculation resumes right after.
        """
        if (
            self._speculative is not None
            or self._reshard_needed
            or self._rebalance_due()
            or not self._buffer
            or not self._any_alive()
        ):
            return
        frozen = self._chunk_active
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
            self._pre_chunk_reshard()
            self._ingest_payloads(
                self._collect(self._post_advance(frozen)), frozen
            )
        elif set(frozen) <= set(state.frozen):
            # Chunk freezing only ever over-collects: the engine
            # consumes rows by its per-iteration active set, so a
            # speculated superset is adopted as-is.
            self._ingest_payloads(payloads, state.frozen)
        else:
            # The active set grew between chunks (adaptive cadence
            # snap-back / re-widening): the speculated chunk lacks rows
            # for the new groups and the worker replicas are already
            # past these iterations, so the chunk cannot be re-collected
            # from them.  Drop the payloads and fall back to synchronous
            # for this boundary — rank 0 resamples every row from its
            # live app, bit-identical because the replicas are
            # deterministic.
            self._chunks_discarded += 1
            self._ingest_payloads(payloads, frozen, adopt=False)
        self._chunks_since_check += 1
        self._post_speculation()

    def advance(
        self, iteration: int, active: Sequence[int]
    ) -> Dict[int, np.ndarray]:
        if self._conns and not self._buffer:
            if self._any_alive() or self._speculative is not None:
                self._prefetch(active)
            else:
                # Every worker is gone: rank 0 adopts the whole window
                # (the reshard empties the dead shards) and runs solo.
                self._pre_chunk_reshard()
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
        consumed = set(active)
        resampled_here = False
        rank0_samples = 0
        for g in chunk_active:
            plan = self.plans[g]
            if not plan.temporal.matches(iteration):
                continue
            tick = time.perf_counter()
            part0 = self._views0[g].sample(domain)
            self._rank0_seconds += time.perf_counter() - tick
            rank0_samples += int(part0.shape[0])
            parts = [part0]
            for w, worker in enumerate(worker_parts):
                rank = w + 1
                if worker is None:
                    # Dead rank: its shard columns are re-sampled by
                    # rank 0 from the live app — bit-identical, the
                    # replicas are deterministic.
                    shard = plan.shards[rank]
                    if shard.shape[0]:
                        tick = time.perf_counter()
                        part = self._adopt_view(g, rank).sample(domain)
                        self._rank0_seconds += time.perf_counter() - tick
                        rank0_samples += int(part.shape[0])
                        resampled_here = True
                    else:
                        part = _EMPTY_SHARD
                    parts.append(part)
                    continue
                if worker[g] is None:
                    raise CommunicatorError(
                        f"worker replicas diverged: no shard row for group "
                        f"{g} at iteration {iteration}"
                    )
                parts.append(worker[g])
            rows[g] = np.concatenate(parts)
            if g in consumed:
                for rank, part in enumerate(parts):
                    if part.size:
                        self._rank_stats[rank][g].update(
                            part.reshape(-1, 1)
                        )
        for g in sorted(consumed):
            if g in rows or g in chunk_active:
                continue
            plan = self.plans[g]
            if not plan.temporal.matches(iteration):
                continue
            # The engine wants a group the chunk was frozen without —
            # an adaptive cadence re-collecting mid-chunk (probe stride
            # landing between boundaries, or a snap-back).  The workers
            # never sampled it, so rank 0 assembles the full row from
            # its live app; bit-identical, the replicas and shard
            # layout are deterministic.
            tick = time.perf_counter()
            parts = [self._views0[g].sample(domain)]
            for w in range(len(self._conns)):
                shard = plan.shards[w + 1]
                if shard.shape[0]:
                    parts.append(self._adopt_view(g, w + 1).sample(domain))
                else:
                    parts.append(_EMPTY_SHARD)
            self._rank0_seconds += time.perf_counter() - tick
            rank0_samples += sum(int(part.shape[0]) for part in parts)
            self._backfilled_rows += 1
            rows[g] = np.concatenate(parts)
            for rank, part in enumerate(parts):
                if part.size:
                    self._rank_stats[rank][g].update(part.reshape(-1, 1))
        if self._delay0 is not None and rows:
            tick = time.perf_counter()
            time.sleep(self._delay0.seconds_for(rank0_samples))
            self._rank0_seconds += time.perf_counter() - tick
        self._rank_samples[0] += rank0_samples
        if resampled_here:
            self._resampled_total += 1
        self._last_iteration = iteration
        return rows

    @property
    def resampled_iterations(self) -> int:
        """Iterations where rank 0 backfilled a dead rank's shard."""
        return self._resampled_total

    def _finish_workers(self) -> None:
        if self._worker_stats is not None or not self._conns:
            if self._worker_stats is None:
                self._worker_stats = []
            return
        # A mid-chunk stop can leave a speculative chunk in flight;
        # drain it (the workers have already produced it) and drop the
        # payloads — its iterations were never consumed, so nothing
        # leaks into stats.
        self._retire_speculation()
        stats: List[Optional[dict]] = [None] * len(self._conns)
        for index in range(len(self._conns)):
            if self._worker_dead[index]:
                continue
            try:
                self._post(index, ("finish",))
                stats[index] = self._recv(index, "stats")[1]
            except _WorkerDeath as death:
                self._on_worker_death(death)
        self._worker_stats = stats
        for process in self._processes:
            process.join(timeout=10.0)

    def reduce_stats(self) -> List[RunningStats]:
        self._finish_workers()
        return [
            RunningStats.merged(
                [self._rank_stats[rank][g] for rank in range(self.n_ranks)]
            )
            for g in range(len(self.plans))
        ]

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
        speculation machinery (chunks speculated/discarded, rows
        backfilled by rank 0 for mid-chunk cadence growth).
        """
        self._finish_workers()
        per_rank = [
            {
                "rank": 0,
                "bytes_moved": 0,
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
                    "serialize_seconds": float(stats["serialize_seconds"]),
                    "transfer_seconds": float(receiver.counters.seconds),
                    "overlap_seconds": float(self._worker_overlap[index]),
                    "idle_seconds": float(self._worker_idle[index]),
                }
            )
        return {
            "per_rank": per_rank,
            "total_bytes_moved": sum(r["bytes_moved"] for r in per_rank),
            "pipeline": {
                "chunks_speculated": int(self._chunks_speculated),
                "chunks_discarded": int(self._chunks_discarded),
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
    Chan-merged :class:`RunningStats` aggregate per collection group.
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
        ``app_factory`` and providers).
    comm:
        Optional :class:`SimComm`; built from ``n_ranks`` by default.
        Ignored by the multiprocessing backend (real processes do not
        share a simulated clock).
    app_factory:
        Zero-argument callable building a fresh deterministic replica
        of the simulation.  Required by the multiprocessing backend.
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
        string) of deterministic failures to inject — rank kills,
        per-rank slowdowns, one-shot transport drops.  Validated
        against the rank count and backend at construction.  A rank
        death never aborts the run: the dead rank's shard is re-sharded
        over the survivors.
    rebalance:
        Enable skew-triggered rebalancing: every
        ``REBALANCE_EVERY`` iterations (simcomm) or worker chunks
        (multiprocessing), per-rank sample-seconds are compared and
        window slices migrate away from slow ranks when the max/mean
        skew exceeds :data:`REBALANCE_THRESHOLD`.
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
            # The rank shards (and the simcomm executor's shard stores)
            # must span resumed runs, so plans are built once and late
            # analysis attachments are rejected by the driver.
            replan_each_run=False,
            # The simcomm executor carries the rank-local shard stores
            # and partials, which must span resumed runs; it is created
            # once and reused.  Multiprocessing executors are per-run
            # (resume is rejected in run()).
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
        """The executor of the most recent run (simcomm keeps shard state)."""
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
        collection_stats = executor.reduce_stats()
        rank_seconds = executor.rank_sample_seconds()
        # reduce_stats() drains the workers, which can surface a late
        # death; re-snapshot the events the driver captured earlier.
        base = dict(base)
        base["recovery_events"] = list(
            getattr(executor, "recovery_events", None) or []
        )
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
