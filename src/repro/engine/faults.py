"""Deterministic fault injection for the distributed runtime.

Testing recovery by sleeping and SIGKILLing a live worker is a race:
the kill lands at an unpredictable iteration, the parent may or may
not have an acked chunk in flight, and CI flakes.  A :class:`FaultPlan`
makes every failure deterministic by injecting it *inside* the engine
at an exact, named point:

* :class:`KillFault` — worker rank ``R`` exits (``os._exit``) the
  moment its replica reaches iteration ``K``, before sampling it; on
  the simcomm backend the simulated rank stops collecting at ``K``.
  This is the "preemptible instance reclaimed mid-run" case.
* :class:`DelayFault` — rank ``R`` is slowed by a fixed
  ``per_iteration`` delay and/or a ``per_sample`` delay proportional
  to its shard width (a heterogeneous, slower node).  Multiprocessing
  workers really sleep; simcomm charges the delay to the rank's
  sample-seconds ledger without sleeping, so rebalancing decisions
  stay bit-deterministic.

Plans parse from a compact CLI spec (``repro run --faults ...``)::

    kill:rank=2,iter=40
    slow:rank=1,per_iter=0.01
    slow:rank=3,per_sample=1e-4

with multiple clauses joined by ``;``.  Every injected fault and every
recovery action taken in response is recorded as a
:class:`RecoveryEvent` in ``EngineResult.recovery_events``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError

__all__ = [
    "DelayFault",
    "FaultPlan",
    "KillFault",
    "RecoveryEvent",
    "as_fault_plan",
]

#: Exit code a kill-fault worker dies with — distinctive on purpose, so
#: a recovery event names the injected kill rather than looking like a
#: genuine crash.
KILL_EXIT_CODE = 117


@dataclass(frozen=True)
class KillFault:
    """Kill rank ``rank`` when its replica reaches iteration ``iteration``."""

    rank: int
    iteration: int

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigurationError(
                f"kill fault rank must be >= 0, got {self.rank}"
            )
        if self.iteration <= 0:
            raise ConfigurationError(
                f"kill fault iteration must be positive, got {self.iteration}"
            )


@dataclass(frozen=True)
class DelayFault:
    """Slow rank ``rank`` by fixed and/or per-sample seconds."""

    rank: int
    per_iteration: float = 0.0
    per_sample: float = 0.0

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigurationError(
                f"delay fault rank must be >= 0, got {self.rank}"
            )
        if not all(
            math.isfinite(seconds) and seconds >= 0
            for seconds in (self.per_iteration, self.per_sample)
        ):
            raise ConfigurationError(
                "delay fault seconds must be finite and >= 0, got "
                f"per_iteration={self.per_iteration}, "
                f"per_sample={self.per_sample}"
            )
        if self.per_iteration == 0 and self.per_sample == 0:
            raise ConfigurationError(
                "delay fault needs per_iter and/or per_sample seconds > 0"
            )

    def seconds_for(self, n_samples: int) -> float:
        """Injected delay for one iteration sampling ``n_samples`` values."""
        return self.per_iteration + self.per_sample * int(n_samples)


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic set of faults to inject into one distributed run."""

    kills: Tuple[KillFault, ...] = ()
    delays: Tuple[DelayFault, ...] = ()

    def __post_init__(self) -> None:
        for label, faults in (("kill", self.kills), ("slow", self.delays)):
            seen = set()
            for fault in faults:
                if fault.rank in seen:
                    raise ConfigurationError(
                        f"duplicate {label} fault for rank {fault.rank}; "
                        "one per rank"
                    )
                seen.add(fault.rank)

    def __bool__(self) -> bool:
        return bool(self.kills or self.delays)

    # -- lookups ---------------------------------------------------------

    def kill_for(self, rank: int) -> Optional[KillFault]:
        for fault in self.kills:
            if fault.rank == rank:
                return fault
        return None

    def delay_for(self, rank: int) -> Optional[DelayFault]:
        for fault in self.delays:
            if fault.rank == rank:
                return fault
        return None

    def validate_for(self, n_ranks: int, backend: str) -> None:
        """Reject faults the run's shape cannot express.

        ``backend`` is ``"simcomm"`` or ``"multiprocessing"``.  Kill
        faults must leave at least one survivor; on multiprocessing,
        rank 0 is the parent process and cannot be killed.
        """
        for fault in (*self.kills, *self.delays):
            if fault.rank >= n_ranks:
                raise ConfigurationError(
                    f"fault names rank {fault.rank} but the run has "
                    f"{n_ranks} rank(s)"
                )
        if len(self.kills) >= n_ranks:
            raise ConfigurationError(
                f"fault plan kills all {n_ranks} rank(s); at least one "
                "rank must survive to adopt the dead shards"
            )
        if backend == "multiprocessing" and self.kill_for(0) is not None:
            raise ConfigurationError(
                "cannot kill rank 0 on the multiprocessing backend: "
                "it is the parent process driving the run (use the "
                "simcomm backend to simulate a rank-0 death)"
            )

    # -- parsing ---------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``--faults`` spec string into a plan.

        Clauses are ``;``-separated, each ``type:key=value,...``::

            kill:rank=2,iter=40;slow:rank=3,per_sample=1e-4
        """
        kills: List[KillFault] = []
        delays: List[DelayFault] = []
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            kind, sep, body = clause.partition(":")
            kind = kind.strip().lower()
            if not sep or not body.strip():
                raise ConfigurationError(
                    f"fault clause {clause!r} must look like "
                    "'type:key=value,...' (e.g. 'kill:rank=2,iter=40')"
                )
            fields = _parse_fields(clause, body)
            if kind == "kill":
                kills.append(
                    KillFault(
                        rank=_take_int(clause, fields, "rank"),
                        iteration=_take_int(clause, fields, "iter"),
                    )
                )
            elif kind == "slow":
                delays.append(
                    DelayFault(
                        rank=_take_int(clause, fields, "rank"),
                        per_iteration=_take_float(
                            clause, fields, "per_iter", default=0.0
                        ),
                        per_sample=_take_float(
                            clause, fields, "per_sample", default=0.0
                        ),
                    )
                )
            else:
                raise ConfigurationError(
                    f"unknown fault type {kind!r} in {clause!r}; expected "
                    "kill or slow"
                )
            if fields:
                raise ConfigurationError(
                    f"fault clause {clause!r} has unknown field(s) "
                    f"{sorted(fields)}"
                )
        return cls(kills=tuple(kills), delays=tuple(delays))

    def to_spec(self) -> str:
        """The plan re-rendered as a ``--faults`` spec string.

        Seconds render with ``repr``, the shortest string that parses
        back to the same float, so ``parse(plan.to_spec()) == plan``.
        """
        clauses = []
        for k in self.kills:
            clauses.append(f"kill:rank={k.rank},iter={k.iteration}")
        for d in self.delays:
            parts = [f"slow:rank={d.rank}"]
            if d.per_iteration:
                parts.append(f"per_iter={float(d.per_iteration)!r}")
            if d.per_sample:
                parts.append(f"per_sample={float(d.per_sample)!r}")
            clauses.append(",".join(parts))
        return ";".join(clauses)


def _parse_fields(clause: str, body: str) -> Dict[str, str]:
    fields: Dict[str, str] = {}
    for pair in body.split(","):
        key, sep, value = pair.partition("=")
        key = key.strip().lower()
        if not sep or not key or not value.strip():
            raise ConfigurationError(
                f"fault clause {clause!r}: field {pair!r} must be key=value"
            )
        if key in fields:
            raise ConfigurationError(
                f"fault clause {clause!r}: duplicate field {key!r}"
            )
        fields[key] = value.strip()
    return fields


def _take_int(clause: str, fields: Dict[str, str], key: str) -> int:
    if key not in fields:
        raise ConfigurationError(
            f"fault clause {clause!r} is missing required field {key!r}"
        )
    raw = fields.pop(key)
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"fault clause {clause!r}: {key}={raw!r} is not an integer"
        ) from None


def _take_float(
    clause: str, fields: Dict[str, str], key: str, *, default: float
) -> float:
    if key not in fields:
        return default
    raw = fields.pop(key)
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(
            f"fault clause {clause!r}: {key}={raw!r} is not a number"
        ) from None


def as_fault_plan(
    faults: Union[None, str, FaultPlan],
) -> Optional[FaultPlan]:
    """Coerce a ``faults=`` argument (spec string or plan) to a plan.

    ``None`` and empty plans normalise to ``None`` — "no faults" has
    one spelling, so the no-fault fast paths can test identity.
    """
    if faults is None:
        return None
    if isinstance(faults, str):
        faults = FaultPlan.parse(faults)
    if not isinstance(faults, FaultPlan):
        raise ConfigurationError(
            f"faults must be a FaultPlan or a spec string, got "
            f"{type(faults).__name__}"
        )
    return faults if faults else None


@dataclass
class RecoveryEvent:
    """One elasticity action taken (or fault observed) during a run.

    ``kind`` is one of ``"rank_death"`` (a rank stopped participating),
    ``"reshard"`` (dead shards redistributed over survivors),
    ``"rebalance"`` (skew-triggered weight migration), or
    ``"worker_error"`` (a propagated worker traceback).
    """

    kind: str
    iteration: int
    rank: Optional[int] = None
    detail: str = ""
    counts_before: Optional[List[int]] = None
    counts_after: Optional[List[int]] = None
    resampled_iterations: int = 0
    extra: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        payload = {k: v for k, v in asdict(self).items() if v not in (None, {}, "")}
        # Zero resampled iterations is meaningful only on reshards.
        if self.kind not in ("reshard",) and not self.resampled_iterations:
            payload.pop("resampled_iterations", None)
        return payload
