"""Collection layer: sample each data window and train each model once.

Historically every analysis owned a private
:class:`~repro.core.collector.DataCollector`, so N analyses declared
over the same data window paid N provider sweeps per matching iteration
— a nine-threshold Table IV sweep sampled the same velocity field nine
times.  :class:`SharedCollector` removes that multiplier: analyses
whose collectors agree on ``(provider, spatial, temporal)`` are grouped
onto one :class:`~repro.core.collector.SeriesStore`, the first
collector dispatched in an iteration samples the simulation, and every
later one reuses the stored row.

Within a group, analyses whose training is also identical (same class,
pairing, batch and model hyperparameters, initial weights and early-stop
settings: :meth:`~repro.core.curve_fitting.Analysis.cohort_key`) are
twins.  A twin takes the first twin's collector, with its
:class:`~repro.core.minibatch.MiniBatchTrainer` and
:class:`~repro.core.ar_model.ARModel`, and its early-stop monitor when
it subscribes, so the scheduler steps all of them with one call per
iteration.  When one of them completes while others go on,
:meth:`SharedCollector.fork` gives it private copies frozen at its stop
iteration, and a copy of the rows collected so far.  Identical inputs
give identical updates, so fit results are bit-identical to independent
runs.

Grouping is by provider *identity*: two textually identical lambdas are
distinct providers and will not share.  Pass the same callable object
to every analysis that should read through one sweep (see
``repro.engine.workload.replay_provider`` for the replay case).
Wrappers carrying ``__wrapped__`` (``providers.checked``,
``providers.batched``) are unwrapped before grouping, so a checked and
a bare view of one provider still share a sweep.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.collector import DataCollector, SeriesStore
from repro.core.params import IterParam
from repro.core.providers import provider_key


def _window_key(param: IterParam) -> Tuple[int, int, int]:
    return (param.begin, param.end, param.step)


def _group_key(collector: DataCollector) -> tuple:
    return (
        provider_key(collector.provider),
        _window_key(collector.spatial),
        _window_key(collector.temporal),
    )


@dataclass
class CollectionGroup:
    """One shared sampling unit: a store plus the analyses subscribed to it.

    The distributed runtime shards groups, not collectors: every
    subscriber of a group reads the same ``(provider, spatial,
    temporal)`` window, so the group is the unit whose locations are
    block-decomposed over ranks and whose rows are reduced back.  The
    convenience accessors below expose the shared window facts the
    shard planner needs; they all delegate to the first subscriber's
    collector, which is also the collector a serial dispatch would have
    sampled through.
    """

    store: SeriesStore
    subscribers: List[object] = field(default_factory=list)

    @property
    def collectors(self) -> List[DataCollector]:
        """Each subscriber's collector, in subscription order (twins
        appear once per twin)."""
        return [subscriber.collector for subscriber in self.subscribers]

    @property
    def n_subscribers(self) -> int:
        return len(self.subscribers)

    @property
    def provider(self):
        """The provider the group samples through (first subscriber's)."""
        return self.subscribers[0].collector.provider

    @property
    def temporal(self) -> IterParam:
        """The temporal window shared by every subscriber."""
        return self.subscribers[0].collector.temporal

    @property
    def locations(self):
        """Location ids of the shared spatial window (int64 array)."""
        return self.store.locations


class SharedCollector:
    """Registry deduplicating data collection and training across analyses.

    ``subscribe`` inspects an analysis's collector and either starts a
    new group around its store or rebinds it onto an existing group's
    store; a twin of an earlier subscriber takes that subscriber's
    collector and monitor instead.  Analyses without a collector
    attribute (custom :class:`~repro.core.curve_fitting.Analysis`
    subclasses that manage their own data) are left untouched.
    """

    def __init__(self) -> None:
        self._groups: Dict[tuple, CollectionGroup] = {}

    def subscribe(self, analysis) -> bool:
        """Register an analysis for shared collection.

        Returns True when the analysis now reads through a shared
        group, False when it does not participate (no collector).  An
        analysis whose ``cohort_key`` is not None and equals an earlier
        subscriber's is that subscriber's twin: from here on it uses
        the subscriber's collector (store, trainer and model) and
        early-stop monitor.
        """
        collector = getattr(analysis, "collector", None)
        if not isinstance(collector, DataCollector):
            return False
        key = _group_key(collector)
        group = self._groups.get(key)
        if group is None:
            self._groups[key] = CollectionGroup(collector.store, [analysis])
            return True
        collector.rebind_store(group.store)
        # A subscriber without a cohort_key is nobody's twin.
        key = getattr(analysis, "cohort_key", lambda: None)()
        if key is not None:
            for other in group.subscribers:
                if getattr(other, "cohort_key", lambda: None)() == key:
                    analysis.collector = other.collector
                    analysis.monitor = other.monitor
                    break
        group.subscribers.append(analysis)
        return True

    def fork(self, analysis, active) -> bool:
        """Give a completed analysis private copies of what it shares.

        The scheduler calls this after dispatching the iteration in
        which ``analysis`` stopped.  If one of the ``active`` analyses
        still uses its collector, the analysis gets a copy of the
        collector with a deep copy of its trainer and model, and a deep
        copy of the monitor, frozen at this iteration; twins that stop
        together share no later update, so they need no copy.  If an
        active analysis still collects into its store, the analysis
        keeps a copy of the rows collected through this iteration, so
        its evaluations read the rows of the run it stands for.
        Returns True when the collector was copied.
        """
        collector = getattr(analysis, "collector", None)
        if not isinstance(collector, DataCollector):
            return False
        others = [
            other.collector
            for other in active
            if isinstance(getattr(other, "collector", None), DataCollector)
        ]
        forked = any(other is collector for other in others)
        if forked:
            collector = analysis.collector = copy.copy(collector)
            collector.trainer = copy.deepcopy(collector.trainer)
            analysis.monitor = copy.deepcopy(analysis.monitor)
        if any(other.store is collector.store for other in others):
            collector.store = SeriesStore.merge_shards([collector.store])
        return forked

    @property
    def groups(self) -> List[CollectionGroup]:
        return list(self._groups.values())

    @property
    def n_groups(self) -> int:
        return len(self._groups)

    @property
    def n_collectors(self) -> int:
        return sum(group.n_subscribers for group in self._groups.values())

    @property
    def shared_sweeps_saved(self) -> int:
        """Provider sweeps avoided per matching iteration by sharing."""
        return self.n_collectors - self.n_groups
