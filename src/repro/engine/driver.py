"""Execution core: ONE main loop for every engine flavour.

Historically the serial :class:`~repro.engine.scheduler.InSituEngine`
and the rank-parallel :class:`~repro.engine.distributed.DistributedEngine`
each carried their own copy of the paper's instrumented main loop —
step the simulation, collect the declared data windows, dispatch every
active analysis, agree on termination, assemble the result.  The two
copies had already drifted (timing bookkeeping, finite checks, resume
semantics), and every cross-cutting feature would have had to land
twice.

:class:`ExecutionDriver` is the single copy.  The loop it runs is::

    step -> collect active windows -> (probe/skip under cadence)
         -> dispatch analyses -> collective stop -> repeat

and everything backend-specific hides behind the :class:`Executor`
seam: the serial engine plugs in the trivial one-rank
:class:`LocalExecutor`, the distributed engine plugs in its
``SimCommExecutor`` / ``MultiprocessExecutor`` unchanged.  The engines
survive as thin façades owning construction-time validation and the
result flavour (:class:`EngineResult` vs ``DistributedResult``); the
loop, the collection data path and the base result assembly live here
exactly once.

The optional *cadence* hook (see :mod:`repro.engine.cadence`) lets the
driver adapt the temporal sampling stride once analyses converge.  With
no cadence controller attached (the default) the driver collects every
matching iteration and results are bit-identical to the pre-driver
engines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
)

import numpy as np

from repro.core.collector import SeriesStore
from repro.core.features import ExtractionSummary
from repro.core.params import IterParam
from repro.core.providers import batch_sample
from repro.engine.collection import CollectionGroup, SharedCollector
from repro.errors import CollectionError, ConfigurationError
from repro.parallel.decomposition import BlockDecomposition


# ----------------------------------------------------------------------
# shard planning (shared by every executor, trivial for the local one)
# ----------------------------------------------------------------------


@dataclass
class GroupPlan:
    """Shard plan of one collection group across the communicator.

    ``shards[r]`` holds the domain location ids rank ``r`` owns — a
    contiguous block of the group's (ascending) spatial window, so the
    concatenation of the shard rows in rank order *is* the full-window
    row.  Ranks past the window width own empty shards.  A serial run
    is the one-rank special case: a single shard spanning the window.
    """

    index: int
    group: CollectionGroup
    decomposition: BlockDecomposition
    shards: List[np.ndarray]

    @property
    def locations(self) -> np.ndarray:
        return self.group.locations

    @property
    def temporal(self) -> IterParam:
        return self.group.temporal

    @property
    def provider(self):
        return self.group.provider

    @property
    def store(self) -> SeriesStore:
        return self.group.store

    @property
    def width(self) -> int:
        return int(self.group.locations.shape[0])

    def owner_of_location(self, location: int) -> int:
        """Rank owning ``location`` (clipped to the window's edge ranks).

        Locations outside the window map to the nearest window edge —
        the paper's wavefront-rank broadcasts need an owner even when
        the front has run past the collected window.
        """
        locs = self.group.locations
        position = int(np.searchsorted(locs, int(location)))
        position = min(max(position, 0), locs.shape[0] - 1)
        return self.decomposition.owner(position)


def plan_groups(shared: SharedCollector, n_ranks: int) -> List[GroupPlan]:
    """Block-decompose every collection group's window over ``n_ranks``."""
    if n_ranks <= 0:
        raise ConfigurationError(f"n_ranks must be positive, got {n_ranks}")
    plans = []
    for index, group in enumerate(shared.groups):
        locations = group.locations
        decomposition = BlockDecomposition(
            int(locations.shape[0]), n_ranks
        )
        shards = [
            locations[decomposition.slice_for(rank)]
            for rank in range(n_ranks)
        ]
        plans.append(GroupPlan(index, group, decomposition, shards))
    return plans


# ----------------------------------------------------------------------
# the executor seam
# ----------------------------------------------------------------------


class Executor(Protocol):
    """Protocol every execution backend implements.

    ``advance`` steps the engine-visible simulation by one iteration
    and returns the assembled full-width row of every group it sampled
    (a superset of what the engine will consume is allowed — the
    multiprocessing backend freezes the active set per chunk).
    """

    n_ranks: int
    last_step_seconds: float

    def start(self) -> None: ...

    def advance(
        self, iteration: int, active: Sequence[int]
    ) -> Dict[int, np.ndarray]: ...

    def rank_sample_seconds(self) -> np.ndarray: ...

    def close(self) -> None: ...


class LocalExecutor:
    """The trivial one-rank executor: full-window sweeps on the live app.

    This is what the serial engine plugs into the driver: step the
    application, then gather every active group's whole spatial window
    with one (batched, when the provider supports it) provider sweep.
    The sampled rows are exactly the rows the group's first-dispatched
    subscriber used to sample lazily inside ``DataCollector.observe``,
    so fits, stop iterations and summaries are unchanged — the sweep
    just happens in the driver's collection phase instead of inside the
    first analysis's dispatch.
    """

    n_ranks = 1

    def __init__(self, app, plans: Sequence[GroupPlan]) -> None:
        self.app = app
        self.plans = list(plans)
        self.last_step_seconds = 0.0
        self.sample_seconds = 0.0

    def start(self) -> None:
        pass

    def advance(
        self, iteration: int, active: Sequence[int]
    ) -> Dict[int, np.ndarray]:
        tick = time.perf_counter()
        self.app.step()
        self.last_step_seconds = time.perf_counter() - tick
        domain = self.app.domain
        rows: Dict[int, np.ndarray] = {}
        for g in active:
            plan = self.plans[g]
            if not plan.temporal.matches(iteration):
                continue
            tick = time.perf_counter()
            rows[g] = batch_sample(plan.provider, domain, plan.locations)
            self.sample_seconds += time.perf_counter() - tick
        return rows

    def rank_sample_seconds(self) -> np.ndarray:
        return np.array([self.sample_seconds], dtype=np.float64)

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# the result (shared by every engine flavour)
# ----------------------------------------------------------------------


@dataclass
class EngineResult:
    """Outcome of one engine run (serial base; distributed extends it).

    ``step_seconds`` holds **per-iteration** simulation-step durations
    (not a running sum): entry ``k`` is how long iteration ``k + 1``'s
    ``app.step()`` took.  Cumulative cost up to an iteration comes from
    :meth:`seconds_at`.

    ``transport_stats`` describes the shard-row data path when one
    exists: the multiprocessing backend's per-rank
    serialization/transfer seconds, bytes moved and pipeline ledgers.
    Serial and simcomm runs move rows in-process and leave it ``None``.

    ``recovery_events`` is the elasticity audit trail: one
    :class:`~repro.engine.faults.RecoveryEvent` per rank death,
    reshard, rebalance migration or transport drop/resend the run
    survived, in order.  Empty for fault-free, balanced runs.
    """

    iterations: int
    terminated_early: bool
    stopped_at: Dict[str, int] = field(default_factory=dict)
    summaries: Dict[str, ExtractionSummary] = field(default_factory=dict)
    seconds: float = 0.0
    step_seconds: Optional[np.ndarray] = None
    analysis_seconds: Dict[str, float] = field(default_factory=dict)
    cadence: Optional[Dict[str, object]] = None
    transport_stats: Optional[Dict[str, object]] = None
    recovery_events: List[object] = field(default_factory=list)

    def seconds_at(self, iteration: int) -> float:
        """Cumulative *simulation-step* wall time up to ``iteration``.

        Needs the engine to have run with ``record_timings=True``.
        """
        if self.step_seconds is None:
            raise ConfigurationError(
                "per-iteration timings were not recorded; construct the "
                "engine with record_timings=True"
            )
        if iteration <= 0 or self.step_seconds.size == 0:
            return 0.0
        index = min(int(iteration), self.step_seconds.size)
        return float(self.step_seconds[:index].sum())

    def solo_seconds(self, name: str) -> float:
        """Reconstructed cost of running ONE analysis to its stop point.

        Simulation-step time up to the analysis's stop iteration (the
        whole run, if it never stopped) plus that analysis's own
        accumulated dispatch time, including the seconds of the work
        its cohort shares, training included — an estimate of what an
        independent run with only this analysis attached would have
        cost, priced from a single shared run.  The shared provider
        sweep runs in the executor's collection phase (a few float
        reads per matching iteration), so per-analysis dispatch time
        excludes it; that is far below timer noise.  Needs
        ``record_timings=True``.
        """
        stop = self.stopped_at.get(name, self.iterations)
        if name not in self.analysis_seconds:
            raise ConfigurationError(
                f"no analysis named {name!r} in this run "
                f"(have {sorted(self.analysis_seconds)})"
            )
        return self.seconds_at(stop) + self.analysis_seconds[name]


# ----------------------------------------------------------------------
# incremental progress snapshots (the serving layer's streaming seam)
# ----------------------------------------------------------------------


def progress_snapshot(scheduler, iteration: int, terminated: bool) -> dict:
    """JSON-ready snapshot of the analysis state after one iteration.

    This is what the analysis service streams to subscribers while a
    run is still in flight: per-analysis fitted coefficients (once the
    model has trained), early-stop status and the newest wavefront
    position, keyed the same way the final
    :class:`~repro.scenarios.spec.ScenarioRun` report is.  Built only
    when a progress hook is attached — runs without one pay nothing.
    """
    analyses = []
    for state in scheduler.states:
        analysis = state.analysis
        entry: Dict[str, object] = {
            "name": analysis.name,
            "stopped_at": state.stopped_at,
            "converged": bool(analysis.converged),
        }
        model = getattr(analysis, "model", None)
        if model is not None and model.is_trained:
            entry["coefficients"] = model.coefficients.tolist()
            entry["intercept"] = float(model.intercept)
        trainer = getattr(analysis, "trainer", None)
        if trainer is not None:
            entry["updates"] = int(trainer.updates)
        last = getattr(analysis, "last_threshold_event", None)
        if last is not None:
            entry["wavefront"] = {
                "iteration": int(last.iteration),
                "location": int(last.location),
                "value": float(last.value),
                "rank": analysis.wavefront_rank(last.location),
            }
        analyses.append(entry)
    return {
        "iteration": int(iteration),
        "terminated": bool(terminated),
        "analyses": analyses,
    }


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------


class ExecutionDriver:
    """The unified main loop behind every engine façade.

    Parameters
    ----------
    app:
        The :class:`~repro.engine.workload.SimulationApp` to drive
        (already coerced by the façade).
    scheduler:
        The :class:`~repro.engine.scheduler.AnalysisScheduler` owning
        analysis registration, dispatch and the termination policy.
    make_executor:
        ``make_executor(plans, limit) -> Executor`` building the
        backend for a run.
    n_ranks:
        Communicator width the group windows are planned over.
    record_timings:
        Record per-iteration simulation-step durations and per-analysis
        dispatch time (enables :meth:`EngineResult.seconds_at` /
        :meth:`EngineResult.solo_seconds`).
    replan_each_run:
        Serial engines replan on every ``run()`` so analyses attached
        between runs join the collection plane; distributed engines
        plan once (rank shard state must span resumed runs) and reject
        late attachments.
    reuse_executor:
        Keep one executor across resumed runs (the simcomm backend's
        elastic layout and sampling ledgers must persist); otherwise a
        fresh executor is built per run.
    on_plans:
        Optional hook called once when plans are (re)built — the
        distributed engine wires wavefront-rank ownership here.
    cadence:
        Optional :class:`~repro.engine.cadence.CadenceController`.
        When attached, converged groups are sampled at a widened
        stride with forecast probes; detached (default), every
        matching iteration is collected and results are bit-identical
        to the pre-driver engines.
    finalize_result:
        ``finalize_result(base_kwargs, executor) -> EngineResult``
        assembling the engine-flavoured result from the driver's base
        fields; defaults to plain :class:`EngineResult`.
    """

    def __init__(
        self,
        app,
        scheduler,
        *,
        make_executor: Callable[[Sequence[GroupPlan], int], Executor],
        n_ranks: int = 1,
        record_timings: bool = False,
        replan_each_run: bool = False,
        reuse_executor: bool = False,
        on_plans: Optional[Callable[[Sequence[GroupPlan]], None]] = None,
        cadence=None,
        finalize_result: Optional[Callable[[dict, Executor], EngineResult]] = None,
    ) -> None:
        self.app = app
        self.scheduler = scheduler
        self.make_executor = make_executor
        self.n_ranks = n_ranks
        self.record_timings = record_timings
        self.replan_each_run = replan_each_run
        self.reuse_executor = reuse_executor
        self.on_plans = on_plans
        self.cadence = cadence
        self.finalize_result = finalize_result
        self.iteration = 0
        # Per-iteration step durations persist across run() calls so a
        # resumed run's EngineResult still indexes them by absolute
        # iteration number.
        self._step_timings: List[float] = []
        self._plans: Optional[List[GroupPlan]] = None
        self._last_executor: Optional[Executor] = None

    @property
    def plans(self) -> List[GroupPlan]:
        """Group plans of the most recent run (empty before the first)."""
        return list(self._plans or [])

    @property
    def executor(self) -> Optional[Executor]:
        """The executor of the most recent run."""
        return self._last_executor

    # ------------------------------------------------------------------

    def _ensure_plans(self) -> List[GroupPlan]:
        shared = self.scheduler.shared
        if self._plans is None or self.replan_each_run:
            self._plans = plan_groups(shared, self.n_ranks)
            if self.on_plans is not None:
                self.on_plans(self._plans)
        elif shared.n_groups != len(self._plans):
            # The rank shards were planned on the first run; a new
            # collection group would silently escape them.
            raise ConfigurationError(
                "analyses cannot be attached between distributed runs; "
                "attach everything before the first run() or build a "
                "fresh engine"
            )
        return self._plans

    def _ensure_executor(
        self, plans: Sequence[GroupPlan], limit: int
    ) -> Executor:
        if self.reuse_executor and self._last_executor is not None:
            return self._last_executor
        executor = self.make_executor(plans, limit)
        self._last_executor = executor
        return executor

    # ------------------------------------------------------------------

    def run(
        self,
        *,
        max_iterations: Optional[int] = None,
        progress: Optional[Callable[[dict], None]] = None,
    ) -> EngineResult:
        """Run until done / termination / the iteration limit.

        The loop mirrors the paper's instrumented main loop: advance
        the simulation one step, collect the declared data windows,
        then give every active analysis its in-situ look at the new
        state.

        ``progress`` is the streaming seam: when set, it is called with
        a :func:`progress_snapshot` after every dispatched iteration —
        incremental fitted coefficients, early-stop status and
        wavefront position while the run is still in flight.  Left
        ``None`` (the default) the loop builds no snapshots and is
        byte-for-byte the pre-hook loop.
        """
        # The loop body stays its own method: perfbench/layers.py wraps
        # ``_run`` as the ``driver.loop`` span.
        return self._run(max_iterations=max_iterations, progress=progress)

    def _run(
        self,
        *,
        max_iterations: Optional[int] = None,
        progress: Optional[Callable[[dict], None]] = None,
    ) -> EngineResult:
        app = self.app
        limit = app.max_iterations if max_iterations is None else max_iterations
        if limit < 0:
            raise ConfigurationError(
                f"max_iterations must be >= 0, got {limit}"
            )
        plans = self._ensure_plans()
        plan_states = [
            [
                state
                for state in self.scheduler.states
                if getattr(state.analysis, "collector", None)
                in plan.group.collectors
            ]
            for plan in plans
        ]
        executor = self._ensure_executor(plans, limit)
        cadence = self.cadence
        if cadence is not None:
            cadence.bind(plans, plan_states)
        # A latched stop from an earlier run() must not advance the
        # simulation any further.
        terminated = self.scheduler.stop_requested
        start = time.perf_counter()
        try:
            executor.start()
            while not terminated and not app.done and self.iteration < limit:
                self.iteration += 1
                active = [
                    plan.index
                    for plan, states in zip(plans, plan_states)
                    if any(state.active for state in states)
                ]
                if cadence is not None:
                    collect, probes = cadence.split(self.iteration, active)
                else:
                    collect, probes = active, []
                rows = executor.advance(self.iteration, collect)
                for g in collect:
                    row = rows.get(g)
                    if row is None:
                        continue
                    if not np.all(np.isfinite(row)):
                        raise CollectionError(
                            "non-finite sample collected at iteration "
                            f"{self.iteration}"
                        )
                    plans[g].store.add_row(self.iteration, row)
                if self.record_timings:
                    self._step_timings.append(executor.last_step_seconds)
                if probes:
                    cadence.run_probes(app.domain, self.iteration, probes)
                keep_going = self.scheduler.dispatch(
                    app.domain, self.iteration
                )
                if cadence is not None:
                    cadence.after_dispatch(self.iteration, active)
                if not keep_going:
                    terminated = True
                if progress is not None:
                    progress(
                        progress_snapshot(
                            self.scheduler, self.iteration, terminated
                        )
                    )
            base = dict(
                iterations=self.iteration,
                terminated_early=terminated,
                stopped_at=self.scheduler.stopped_at(),
                summaries=self.scheduler.summaries(),
                seconds=time.perf_counter() - start,
                step_seconds=(
                    np.asarray(self._step_timings, dtype=np.float64)
                    if self.record_timings
                    else None
                ),
                analysis_seconds=self.scheduler.analysis_seconds(),
                cadence=cadence.report() if cadence is not None else None,
                recovery_events=list(
                    getattr(executor, "recovery_events", None) or []
                ),
            )
            if self.finalize_result is not None:
                return self.finalize_result(base, executor)
            return EngineResult(**base)
        finally:
            executor.close()
