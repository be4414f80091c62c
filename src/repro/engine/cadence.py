"""Adaptive collection cadence: widen sampling once the fits converge.

The paper's central trade-off is in-situ analysis cost against
simulation progress — and the framework's collectors pay that cost at
full cadence forever, sampling every matching iteration even after the
auto-regressive fits stopped learning anything.  This module closes
that loop.  A :class:`CadenceController` attached to the
:class:`~repro.engine.driver.ExecutionDriver` watches each collection
group's subscribing analyses; once **every** subscriber reports
convergence (the early-stop monitor's verdict, via
``Analysis.converged``), the group switches from *collecting* to
*verifying*:

* the temporal sampling stride widens geometrically (``start_stride``,
  doubling after ``probes_per_level`` clean probes, capped at
  ``max_stride``);
* iterations the widened stride skips cost **nothing** — no provider
  sweep, no store row, no training;
* at probe iterations the window is swept once and compared against
  the converged models' own forward forecast (the paper's "replace
  V(l, t) by V(l, t+1)" recursion rolled along the collection grid) —
  if any subscriber's relative forecast residual exceeds
  ``drift_tolerance``, the group **snaps back** to full cadence and
  training resumes;
* probe rows are *sentinels*: they are never pushed into the shared
  store or the trainers, so the collected history stays uniformly
  spaced and every post-hoc evaluation path keeps working;
* once the simulation passes the window's end the subscribers'
  collectors are marked exhausted, so analyses still conclude (flush,
  early-stop decision) exactly as at the end of a fully collected
  window.

Off by default: an engine without a controller collects every matching
iteration and is bit-identical to the pre-cadence engines.  With a
controller attached the results are *approximate by construction* —
bounded by the drift tolerance, which the analytic scenarios validate
against closed-form ground truth.

Probe sweeps run centrally on the live domain (one full-window
``batch_sample`` outside the executor seam), so they are deliberately
NOT charged to the distributed cost model — neither the SimComm ledger
nor ``rank_sample_seconds`` sees them.  They are accounted where the
cadence trade-off is studied: the ``report()`` totals count every
probe, and ``tests/test_cadence.py`` counts them, with the collected
rows, against the full-cadence sweep count.  Routing probes through ``Executor.advance``
(sharded, ledger-charged) is the follow-up if a scaling experiment
ever needs adaptive comm costs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.ar_model import Forecast
from repro.core.providers import batch_sample
from repro.errors import CollectionError, ConfigurationError, NotTrainedError

#: Per-iteration decisions for one (group, iteration).
DECISION_COLLECT = "collect"
DECISION_PROBE = "probe"
DECISION_SKIP = "skip"


@dataclass(frozen=True)
class CadencePolicy:
    """Tuning knobs of the adaptive cadence state machine.

    Parameters
    ----------
    drift_tolerance:
        Relative forecast residual (mean |forecast - sample| over the
        window, normalised by the sample's mean magnitude) a probe may
        show before the group snaps back to full cadence.
    start_stride:
        Stride (in multiples of the window's temporal step) a group
        widens to when its subscribers first converge.
    growth:
        Geometric stride growth factor applied after
        ``probes_per_level`` consecutive clean probes.
    max_stride:
        Upper bound on the stride.
    probes_per_level:
        Clean probes required at a stride before widening further.
    rearm_rows:
        Rows that must be re-collected after a snap-back before the
        group may widen again (lets the trainers digest the new regime
        and rebuilds contiguous history for forecasting).
    warmup_rows:
        Rows that must be collected before the *first* widening, on
        top of the convergence signal.  Scenarios whose validation
        window needs a representative collected base (e.g. a front
        that should cross most of the window) set this per spec.
    """

    drift_tolerance: float = 0.05
    start_stride: int = 2
    growth: int = 2
    max_stride: int = 16
    probes_per_level: int = 2
    rearm_rows: int = 8
    warmup_rows: int = 0

    def __post_init__(self) -> None:
        if self.warmup_rows < 0:
            raise ConfigurationError(
                f"warmup_rows must be >= 0, got {self.warmup_rows}"
            )
        if self.drift_tolerance <= 0:
            raise ConfigurationError(
                f"drift_tolerance must be positive, got {self.drift_tolerance}"
            )
        if self.start_stride < 2:
            raise ConfigurationError(
                f"start_stride must be >= 2, got {self.start_stride}"
            )
        if self.growth < 2:
            raise ConfigurationError(f"growth must be >= 2, got {self.growth}")
        if self.max_stride < self.start_stride:
            raise ConfigurationError(
                f"max_stride ({self.max_stride}) must be >= start_stride "
                f"({self.start_stride})"
            )
        if self.probes_per_level <= 0:
            raise ConfigurationError(
                f"probes_per_level must be positive, got {self.probes_per_level}"
            )
        if self.rearm_rows < 0:
            raise ConfigurationError(
                f"rearm_rows must be >= 0, got {self.rearm_rows}"
            )


class _GroupCadence:
    """Cadence state machine of one collection group."""

    def __init__(self, plan, states, policy: CadencePolicy) -> None:
        self.plan = plan
        self.states = list(states)
        self.policy = policy
        self.stride = 1
        self.anchor: Optional[int] = None
        self.passes = 0
        self.widened_at: Optional[int] = None
        # counters (rows of full-window sweeps)
        self.matching = 0
        self.collected = 0
        self.probes = 0
        self.skips = 0
        self.snapbacks = 0
        #: Worst residual ANY probe observed (including drifted ones).
        self.max_probe_residual = 0.0
        #: Worst residual among probes that passed the drift bound —
        #: the accuracy the widened phases actually ran at.
        self.max_accepted_residual = 0.0
        self._forecasts: List[Forecast] = []
        self._rows_at_snapback: Optional[int] = None
        self._exhausted = False
        self._current: Tuple[Optional[int], str] = (None, DECISION_COLLECT)

    # -- the collector-side gate ---------------------------------------

    def gate(self, iteration: int) -> bool:
        """Installed as ``DataCollector.cadence_gate`` on subscribers."""
        current_iteration, decision = self._current
        if current_iteration != iteration:
            # Not an iteration this controller decided (e.g. a
            # standalone observe outside the driver): collect.
            return True
        return decision == DECISION_COLLECT

    # -- per-iteration decisions ---------------------------------------

    def mark_exhausted_if_past_end(self, iteration: int) -> None:
        """Mark the window over once ``iteration`` reaches its end.

        Runs *before* dispatch, so an analysis whose window ends on the
        run's very last iteration still finalizes and makes its
        early-stop decision within the run.  At full cadence this is a
        no-op in effect: the count-based ``DataCollector.done`` fires
        at the window's last collected row anyway.
        """
        if not self._exhausted and iteration >= self.plan.temporal.end:
            for collector in self.plan.group.collectors:
                collector.mark_window_exhausted()
            self._exhausted = True

    def decide(self, iteration: int) -> str:
        """Decision for one *matching* iteration of this group."""
        self.matching += 1
        if self.stride == 1:
            decision = DECISION_COLLECT
            self.collected += 1
        else:
            offset = (iteration - self.anchor) // self.plan.temporal.step
            if offset % self.stride == 0:
                decision = DECISION_PROBE
            else:
                decision = DECISION_SKIP
                self.skips += 1
        self._current = (iteration, decision)
        return decision

    def run_probe(self, domain: object, iteration: int) -> None:
        """Sweep the window once and verify the models' forecasts."""
        sampled = batch_sample(
            self.plan.provider, domain, self.plan.locations
        )
        if not np.all(np.isfinite(sampled)):
            # Same contract as the collection path: a diverged
            # simulation is an error, not a passed probe.
            raise CollectionError(
                f"non-finite sample collected at iteration {iteration}"
            )
        self.probes += 1
        worst = 0.0
        for forecast in self._forecasts:
            forecast.advance_to(iteration)
            worst = max(worst, forecast.residual(sampled))
        self.max_probe_residual = max(self.max_probe_residual, worst)
        if worst > self.policy.drift_tolerance:
            self._snap_back()
            return
        self.max_accepted_residual = max(self.max_accepted_residual, worst)
        self.passes += 1
        if (
            self.passes >= self.policy.probes_per_level
            and self.stride < self.policy.max_stride
        ):
            self.stride = min(
                self.stride * self.policy.growth, self.policy.max_stride
            )
            self.passes = 0

    def _snap_back(self) -> None:
        """Drift detected: resume full-cadence collection and training."""
        self.stride = 1
        self.passes = 0
        self.anchor = None
        self.snapbacks += 1
        self._forecasts = []
        self._rows_at_snapback = len(self.plan.store)

    # -- post-dispatch state updates -----------------------------------

    def after_dispatch(self, iteration: int) -> None:
        if self.stride > 1 or self._exhausted:
            return
        if not self._converged():
            return
        if len(self.plan.store) < self.policy.warmup_rows:
            return
        if (
            self._rows_at_snapback is not None
            and len(self.plan.store) - self._rows_at_snapback
            < self.policy.rearm_rows
        ):
            return
        anchor = self.plan.store.last_iteration
        if anchor is None:
            return
        try:
            forecasts = [s.analysis.forecaster() for s in self.states if s.active]
        except NotTrainedError:  # no contiguous seed yet: stay full
            return
        if not forecasts:
            return
        self.anchor = anchor
        self.stride = self.policy.start_stride
        self.widened_at = iteration
        self._forecasts = forecasts

    def _converged(self) -> bool:
        """Every active subscriber trained and declaring convergence."""
        active = [state for state in self.states if state.active]
        if not active:
            return False
        for state in active:
            analysis = state.analysis
            model = getattr(analysis, "model", None)
            if model is None or not model.is_trained:
                return False
            if not getattr(analysis, "converged", False):
                return False
        return True

    # -- reporting -----------------------------------------------------

    def report(self) -> Dict[str, object]:
        return {
            "group": self.plan.index,
            "width": self.plan.width,
            "stride": self.stride,
            "widened_at": self.widened_at,
            "matching_iterations": self.matching,
            "collected": self.collected,
            "probed": self.probes,
            "skipped": self.skips,
            "snapbacks": self.snapbacks,
            "max_probe_residual": self.max_probe_residual,
            "max_accepted_residual": self.max_accepted_residual,
        }


class CadenceController:
    """Drives per-group adaptive cadence inside the execution driver.

    Construct one per engine (``InSituEngine(..., cadence=...)`` or
    ``DistributedEngine(..., cadence=...)``); the driver binds it to
    the collection-group plans on the first run and consults it every
    iteration.  One controller must not be shared between engines.
    """

    def __init__(self, policy: Optional[CadencePolicy] = None) -> None:
        self.policy = policy if policy is not None else CadencePolicy()
        self._groups: Optional[List[_GroupCadence]] = None
        self._signature: Optional[tuple] = None

    @property
    def bound(self) -> bool:
        return self._groups is not None

    def bind(self, plans: Sequence, plan_states: Sequence) -> None:
        """Attach to the driver's group plans.

        Idempotent while the group membership is unchanged, so cadence
        state spans resumed runs.  A changed membership — a serial
        engine replans per run, and an analysis attached between runs
        may join an existing group — rebuilds the state machines from
        scratch (full cadence until everything, including the new
        subscriber, converges again: the safe direction) and installs
        the collector gate on every subscriber.
        """
        signature = (
            len(plans),
            tuple(len(plan.group.collectors) for plan in plans),
        )
        if self._groups is not None and signature == self._signature:
            return
        self._signature = signature
        self._groups = [
            _GroupCadence(plan, states, self.policy)
            for plan, states in zip(plans, plan_states)
        ]
        for group in self._groups:
            for collector in group.plan.group.collectors:
                collector.cadence_gate = group.gate

    def split(
        self, iteration: int, active: Sequence[int]
    ) -> Tuple[List[int], List[int]]:
        """Partition the active groups into (collect, probe) for this
        iteration; skipped groups appear in neither."""
        collect: List[int] = []
        probes: List[int] = []
        for g in active:
            group = self._groups[g]
            group.mark_exhausted_if_past_end(iteration)
            if not group.plan.temporal.matches(iteration):
                # Non-matching iterations cost nothing either way; the
                # executor's own window check skips them.
                collect.append(g)
                continue
            decision = group.decide(iteration)
            if decision == DECISION_COLLECT:
                collect.append(g)
            elif decision == DECISION_PROBE:
                probes.append(g)
        return collect, probes

    def run_probes(
        self, domain: object, iteration: int, probes: Sequence[int]
    ) -> None:
        for g in probes:
            self._groups[g].run_probe(domain, iteration)

    def after_dispatch(self, iteration: int, active: Sequence[int]) -> None:
        for g in active:
            self._groups[g].after_dispatch(iteration)

    def report(self) -> Dict[str, object]:
        """Cadence outcome attached to ``EngineResult.cadence``.

        ``sampling_reduction`` is the ratio of full-cadence sampling
        cost (every matching iteration swept, weighted by window
        width) to what was actually swept (collected + probe rows).
        """
        groups = [group.report() for group in (self._groups or [])]
        full_cost = sum(
            g["matching_iterations"] * g["width"] for g in groups
        )
        paid_cost = sum(
            (g["collected"] + g["probed"]) * g["width"] for g in groups
        )
        return {
            "enabled": True,
            "policy": asdict(self.policy),
            "groups": groups,
            "totals": {
                "matching_iterations": sum(
                    g["matching_iterations"] for g in groups
                ),
                "collected": sum(g["collected"] for g in groups),
                "probed": sum(g["probed"] for g in groups),
                "skipped": sum(g["skipped"] for g in groups),
                "snapbacks": sum(g["snapbacks"] for g in groups),
                "full_sample_cost": full_cost,
                "paid_sample_cost": paid_cost,
                "sampling_reduction": (
                    full_cost / paid_cost if paid_cost else 1.0
                ),
                "max_probe_residual": max(
                    (g["max_probe_residual"] for g in groups), default=0.0
                ),
                "max_accepted_residual": max(
                    (g["max_accepted_residual"] for g in groups), default=0.0
                ),
            },
        }


def as_cadence_controller(value) -> Optional[CadenceController]:
    """Coerce an engine's ``cadence=`` argument to a controller (or None).

    Accepts ``None`` (cadence off), a ready :class:`CadenceController`,
    a :class:`CadencePolicy`, or a mapping of policy overrides (the
    shape ``ScenarioSpec.cadence`` uses), so a misconfigured engine
    fails at construction instead of mid-run.
    """
    if value is None or isinstance(value, CadenceController):
        return value
    if isinstance(value, CadencePolicy):
        return CadenceController(value)
    if isinstance(value, Mapping):
        return CadenceController(CadencePolicy(**dict(value)))
    raise ConfigurationError(
        "cadence must be a CadenceController, a CadencePolicy, a mapping "
        f"of policy overrides, or None — got {type(value).__name__}"
    )
