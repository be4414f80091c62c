"""Scheduling layer: drive many analyses over one simulation run.

:class:`AnalysisScheduler` owns the per-iteration dispatch that used to
live inside ``Region.end()``: it feeds each *active* analysis the
current domain state, publishes status broadcasts, records per-analysis
early-stop state, and decides — under a configurable termination policy
— when the simulation itself should stop:

``any``
    Stop as soon as one analysis requests termination (the original
    ``Region`` behaviour, and the paper's single-analysis semantics).
``all``
    Keep running until every analysis has requested termination; each
    analysis freezes at its own stop point.  This is what lets one
    simulation serve a whole threshold sweep.
``quorum``
    Stop once a given count (int) or fraction (float in (0, 1]) of the
    analyses have requested termination.

An analysis that requests termination is *completed*: it is never
dispatched again, so its model/trainer state is bit-identical to an
independent run that terminated the simulation at that iteration.

:class:`InSituEngine` couples a scheduler with a
:class:`~repro.engine.workload.SimulationApp`.  It is a thin façade
over the unified :class:`~repro.engine.driver.ExecutionDriver`: the
main loop, the collection data path and the result assembly live in
:mod:`repro.engine.driver`; this engine contributes the trivial
one-rank :class:`~repro.engine.driver.LocalExecutor` and the serial
defaults (replan per run, local stop decision).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.curve_fitting import Analysis
from repro.core.events import ACTION_TERMINATE, StatusBroadcaster
from repro.core.features import ExtractionSummary
from repro.engine.cadence import as_cadence_controller
from repro.engine.collection import SharedCollector
from repro.engine.driver import EngineResult, ExecutionDriver, LocalExecutor
from repro.engine.workload import SimulationApp, as_simulation_app
from repro.errors import ConfigurationError

__all__ = [
    "POLICIES",
    "POLICY_ALL",
    "POLICY_ANY",
    "POLICY_QUORUM",
    "AnalysisScheduler",
    "AnalysisState",
    "EngineResult",
    "InSituEngine",
]

#: Valid termination policies.
POLICY_ANY = "any"
POLICY_ALL = "all"
POLICY_QUORUM = "quorum"
POLICIES = (POLICY_ANY, POLICY_ALL, POLICY_QUORUM)


@dataclass
class AnalysisState:
    """Per-analysis scheduling record."""

    analysis: Analysis
    stopped_at: Optional[int] = None
    seconds: float = 0.0

    @property
    def active(self) -> bool:
        return self.stopped_at is None


class AnalysisScheduler:
    """Multi-analysis dispatch with shared collection and stop policies.

    Parameters
    ----------
    comm:
        Optional simulated communicator for status broadcasts.
    policy:
        ``"any"`` / ``"all"`` / ``"quorum"`` termination policy.
    quorum:
        Required with ``policy="quorum"``: an int (number of analyses)
        or a float fraction in (0, 1] of the attached analyses.
    shared:
        Optional :class:`SharedCollector` to register analyses with; a
        private one is created by default.
    record_timings:
        Accumulate per-analysis dispatch wall time (how long each
        analysis's ``on_iteration`` hooks cost this run).  An analysis
        stops accumulating once it completes, so its total approximates
        the analysis-side cost an independent run terminating at the
        same iteration would have paid — with one caveat: under shared
        collection the provider sweep runs inside whichever subscriber
        is dispatched first each iteration, so that subscriber carries
        the (small — one provider call per window location) sampling
        cost for the whole group.
    stop_reducer:
        Optional collective agreement hook for the termination
        decision.  When set, every dispatch passes its local
        "policy satisfied" flag through ``stop_reducer(flag) -> bool``
        and stops only on the reduced verdict — the distributed runtime
        plugs an allreduce over the communicator in here, so all ranks
        latch the stop at the same iteration and the per-iteration
        agreement cost lands on the comm ledger.  Serial engines leave
        it None (local decision, zero overhead).
    """

    def __init__(
        self,
        *,
        comm=None,
        policy: str = POLICY_ANY,
        quorum: Optional[Union[int, float]] = None,
        shared: Optional[SharedCollector] = None,
        record_timings: bool = False,
        stop_reducer: Optional[Callable[[bool], bool]] = None,
    ) -> None:
        if policy not in POLICIES:
            raise ConfigurationError(
                f"policy must be one of {POLICIES}, got {policy!r}"
            )
        if policy == POLICY_QUORUM:
            if quorum is None:
                raise ConfigurationError(
                    "policy 'quorum' needs a quorum (int count or float fraction)"
                )
            if isinstance(quorum, bool) or quorum <= 0:
                raise ConfigurationError(
                    f"quorum must be a positive count or fraction, got {quorum!r}"
                )
            if isinstance(quorum, float) and quorum > 1.0:
                raise ConfigurationError(
                    f"a fractional quorum must be in (0, 1], got {quorum}"
                )
        elif quorum is not None:
            raise ConfigurationError(
                f"quorum only applies to policy 'quorum', not {policy!r}"
            )
        self.policy = policy
        self.quorum = quorum
        self.record_timings = record_timings
        self.stop_reducer = stop_reducer
        self.broadcaster = StatusBroadcaster(comm)
        self.shared = shared if shared is not None else SharedCollector()
        self._states: List[AnalysisState] = []
        self._stop_requested = False

    # ------------------------------------------------------------------
    # registration / introspection
    # ------------------------------------------------------------------

    def add_analysis(self, analysis: Analysis) -> Analysis:
        """Attach an analysis (registering it for shared collection).

        Names must be unique: every per-analysis result channel
        (``stopped_at``, ``summaries``, ``analysis_seconds``) is keyed
        by name, and a silent collision would hand one analysis the
        other's numbers.
        """
        if not isinstance(analysis, Analysis):
            raise ConfigurationError(
                f"expected an Analysis, got {type(analysis).__name__}"
            )
        if any(s.analysis.name == analysis.name for s in self._states):
            raise ConfigurationError(
                f"an analysis named {analysis.name!r} is already attached; "
                "give each analysis a unique name= (results are keyed by it)"
            )
        self.shared.subscribe(analysis)
        self._states.append(AnalysisState(analysis))
        return analysis

    @property
    def analyses(self) -> Tuple[Analysis, ...]:
        """Attached analyses — a read-only snapshot.

        Mutating it has no effect on the scheduler; attach through
        :meth:`add_analysis` (which also registers shared collection).
        """
        return tuple(state.analysis for state in self._states)

    @property
    def states(self) -> List[AnalysisState]:
        return list(self._states)

    @property
    def stop_requested(self) -> bool:
        """True once the termination policy has been satisfied."""
        return self._stop_requested

    @property
    def n_active(self) -> int:
        return sum(1 for state in self._states if state.active)

    def stopped_at(self) -> Dict[str, int]:
        """Stop iteration per completed analysis, keyed by name."""
        return {
            state.analysis.name: state.stopped_at
            for state in self._states
            if state.stopped_at is not None
        }

    def analysis_seconds(self) -> Dict[str, float]:
        """Accumulated dispatch seconds per analysis, keyed by name."""
        return {s.analysis.name: s.seconds for s in self._states}

    def summaries(self) -> Dict[str, ExtractionSummary]:
        """Per-analysis extraction summaries, keyed by analysis name."""
        return {s.analysis.name: s.analysis.summary() for s in self._states}

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def dispatch(self, domain: object, iteration: int) -> bool:
        """Feed one completed iteration to every active analysis.

        Returns False once the termination policy is satisfied (and
        keeps returning False thereafter — the stop decision latches).
        """
        for state in self._states:
            if not state.active:
                continue
            if self.record_timings:
                tick = time.perf_counter()
                event = state.analysis.on_iteration(domain, iteration)
                state.seconds += time.perf_counter() - tick
            else:
                event = state.analysis.on_iteration(domain, iteration)
            if event is not None:
                self.broadcaster.publish(event)
                if event.action == ACTION_TERMINATE:
                    state.stopped_at = iteration
            if state.analysis.wants_stop and state.active:
                state.stopped_at = iteration
        satisfied = self._policy_satisfied()
        if self.stop_reducer is not None and not self._stop_requested:
            satisfied = bool(self.stop_reducer(satisfied))
        if satisfied:
            self._stop_requested = True
        return not self._stop_requested

    def _required_stops(self) -> int:
        n = len(self._states)
        if self.policy == POLICY_ANY:
            return 1
        if self.policy == POLICY_ALL:
            return n
        if isinstance(self.quorum, float):
            return min(n, max(1, math.ceil(self.quorum * n)))
        return min(n, int(self.quorum))

    def _policy_satisfied(self) -> bool:
        if not self._states:
            return False
        stopped = sum(1 for s in self._states if s.stopped_at is not None)
        return stopped >= self._required_stops()


class InSituEngine:
    """Drives N in-situ analyses over one simulation application.

    A thin façade over :class:`~repro.engine.driver.ExecutionDriver`
    with the one-rank :class:`~repro.engine.driver.LocalExecutor`
    plugged into the executor seam — the main loop and result assembly
    are shared with the distributed engine.

    Parameters
    ----------
    app:
        A :class:`~repro.engine.workload.SimulationApp` or a raw
        simulation object coercible by
        :func:`~repro.engine.workload.as_simulation_app`.
    comm, policy, quorum:
        Forwarded to :class:`AnalysisScheduler`.
    record_timings:
        Record per-iteration simulation-step durations and
        per-analysis dispatch time (enables
        :meth:`EngineResult.seconds_at` / :meth:`EngineResult.solo_seconds`).
    cadence:
        Optional :class:`~repro.engine.cadence.CadenceController`
        enabling adaptive collection cadence.  Off by default — without
        it results are bit-identical to full-cadence collection.
    name:
        Label for reports.
    """

    def __init__(
        self,
        app: SimulationApp,
        *,
        comm=None,
        policy: str = POLICY_ANY,
        quorum: Optional[Union[int, float]] = None,
        record_timings: bool = False,
        cadence=None,
        name: str = "engine",
    ) -> None:
        self.app = as_simulation_app(app)
        self.name = name
        self.record_timings = record_timings
        self.scheduler = AnalysisScheduler(
            comm=comm, policy=policy, quorum=quorum,
            record_timings=record_timings,
        )
        self.driver = ExecutionDriver(
            self.app,
            self.scheduler,
            make_executor=lambda plans, limit: LocalExecutor(self.app, plans),
            n_ranks=1,
            record_timings=record_timings,
            # Serial runs replan per run(), so analyses attached between
            # resumed runs join the collection plane (shard state does
            # not exist at one rank).
            replan_each_run=True,
            cadence=as_cadence_controller(cadence),
        )

    def add_analysis(self, analysis: Analysis) -> Analysis:
        """Attach an analysis; returns it for chaining."""
        return self.scheduler.add_analysis(analysis)

    @property
    def analyses(self) -> Tuple[Analysis, ...]:
        """Attached analyses (read-only snapshot; use :meth:`add_analysis`)."""
        return self.scheduler.analyses

    @property
    def broadcaster(self) -> StatusBroadcaster:
        return self.scheduler.broadcaster

    @property
    def stop_requested(self) -> bool:
        return self.scheduler.stop_requested

    @property
    def iteration(self) -> int:
        """Absolute iteration count across (possibly resumed) runs."""
        return self.driver.iteration

    def run(
        self,
        *,
        max_iterations: Optional[int] = None,
        progress: Optional[Callable[[dict], None]] = None,
    ) -> EngineResult:
        """Run the app until done / termination / the iteration limit.

        ``progress`` (optional) receives a
        :func:`~repro.engine.driver.progress_snapshot` after every
        dispatched iteration — the serving layer's streaming hook.
        """
        return self.driver.run(max_iterations=max_iterations, progress=progress)
