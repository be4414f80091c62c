"""One elastic shard layout for both distributed backends.

A distributed run can lose a rank or find one rank slower than the
rest.  :class:`ElasticLayout` is the one copy of what both executors in
:mod:`repro.engine.distributed` decide about that: which ranks are
dead, when the shard layout may change, and what it changes to.  A
change is one ``decomposition.rebalance(weights, exclude)`` per
collection group, so the live ranks keep contiguous ascending blocks
whose shard rows concatenate in rank order to the exact serial row.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.driver import GroupPlan
from repro.engine.faults import RecoveryEvent

__all__ = ["REBALANCE_THRESHOLD", "ElasticLayout"]

#: Sample-time skew (max over mean) beyond which a rebalance migrates
#: window slices; enough hysteresis that balanced runs never churn.
REBALANCE_THRESHOLD = 1.75


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


class ElasticLayout:
    """Dead ranks, the rebalance policy, and the shard layout they move.

    A layout change rewrites each of the executor's ``plans`` in place
    (``decomposition`` and ``shards``).  The executor reports deaths
    (:meth:`mark_dead`), per-rank values sampled (:attr:`samples`,
    cumulative), iterations where rank 0 sampled another rank's shard
    (:attr:`resampled`) and units of evidence (:meth:`tick`: a sampled
    iteration on simcomm, a worker chunk on multiprocessing), and calls
    :meth:`settle` wherever a change is safe.  Every change lands in
    :attr:`recovery_events`.
    """

    def __init__(
        self,
        plans: List[GroupPlan],
        n_ranks: int,
        *,
        rebalance: bool = False,
        every: int = 8,
    ) -> None:
        self.plans = plans
        self.n_ranks = n_ranks
        self.rebalance = rebalance
        self.every = every
        self.dead = [False] * n_ranks
        self.samples = [0] * n_ranks
        self.resampled = 0
        self.recovery_events: List[RecoveryEvent] = []
        # The layout-change snapshot speeds are measured against.
        self._base_samples = [0] * n_ranks
        self._base_seconds = [0.0] * n_ranks
        self._ticks = 0
        self._reshard = False

    def counts(self) -> List[int]:
        """Total shard columns each rank owns, summed over all groups."""
        return [
            sum(int(plan.shards[rank].shape[0]) for plan in self.plans)
            for rank in range(self.n_ranks)
        ]

    def mark_dead(
        self,
        rank: int,
        iteration: int,
        detail: str,
        traceback: Optional[str] = None,
    ) -> None:
        """Record ``rank``'s death once; the next settle re-shards it."""
        if self.dead[rank]:
            return
        self.dead[rank] = True
        self._reshard = True
        self.recovery_events.append(
            RecoveryEvent("rank_death", iteration, rank, detail)
        )
        if traceback:
            self.recovery_events.append(
                RecoveryEvent("worker_error", iteration, rank, traceback)
            )

    def tick(self) -> None:
        self._ticks += 1

    def pending(self) -> bool:
        """Whether the next :meth:`settle` may change the layout."""
        return self._reshard or (self.rebalance and self._ticks >= self.every)

    def settle(self, iteration: int, seconds: Sequence[float]) -> bool:
        """Apply a due layout change; True when the shards moved.

        Dead ranks' columns are re-sharded over the survivors first;
        otherwise a due skew check compares per-rank speeds since the
        last change (``seconds`` is each rank's cumulative
        sample-seconds ledger) and, past :data:`REBALANCE_THRESHOLD`,
        migrates columns toward faster ranks.
        """
        if self._reshard:
            self._reshard = False
            dead = [rank for rank, flag in enumerate(self.dead) if flag]
            return self._apply(
                None,
                "reshard",
                iteration,
                seconds,
                f"rank(s) {dead} dead; window re-sharded over survivors",
            )
        if not self.pending():
            return False
        self._ticks = 0
        weights, skew = _rebalance_weights(
            self.counts(),
            [now - base for now, base in zip(self.samples, self._base_samples)],
            [now - base for now, base in zip(seconds, self._base_seconds)],
            self.dead,
            REBALANCE_THRESHOLD,
        )
        if weights is None:
            return False
        return self._apply(
            weights,
            "rebalance",
            iteration,
            seconds,
            f"sample-time skew {skew:.2f} > {REBALANCE_THRESHOLD:g}",
        )

    def _apply(
        self,
        weights: Optional[Sequence[float]],
        kind: str,
        iteration: int,
        seconds: Sequence[float],
        detail: str,
    ) -> bool:
        exclude = [rank for rank, flag in enumerate(self.dead) if flag]
        counts_before = self.counts()
        changed = False
        for plan in self.plans:
            new = plan.decomposition.rebalance(weights, exclude)
            changed = changed or new.counts() != plan.decomposition.counts()
            plan.decomposition = new
            plan.shards = [
                plan.locations[new.slice_for(rank)]
                for rank in range(self.n_ranks)
            ]
        if kind == "rebalance" and not changed:
            return False
        self._base_samples = list(self.samples)
        self._base_seconds = list(seconds)
        self.recovery_events.append(
            RecoveryEvent(
                kind=kind,
                iteration=iteration,
                detail=detail,
                counts_before=counts_before,
                counts_after=self.counts(),
                resampled_iterations=self.resampled,
            )
        )
        self.resampled = 0
        return True
