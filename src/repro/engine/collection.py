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

Within a group, subscribers whose training is also identical (same
pairing, batch and model hyperparameters, same initial weights) share
one :class:`~repro.core.minibatch.MiniBatchTrainer` and its
:class:`~repro.core.ar_model.ARModel`.  The scheduler steps such twins
of one class as a cohort: one call observes the iteration, trains and
feeds the loss to one early-stop monitor, and the members also keep
one collector tally (:meth:`SharedCollector.join`).  Twins stepped
apart (a subclass overriding ``on_iteration``, or twins of two
classes) take turns: the first one to observe an iteration runs the
update and the rest replay it.  When one of them completes while
others still train, :meth:`SharedCollector.fork` gives it private
copies frozen at its stop iteration.  Identical inputs give identical
updates, so fit results are bit-identical to independent runs.

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
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.ar_model import ARModel
from repro.core.collector import DataCollector, SeriesStore
from repro.core.minibatch import MiniBatchTrainer
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


def _training_key(collector: DataCollector) -> Optional[tuple]:
    """Everything one update reads, or None when training can't be shared.

    Only a fresh, exactly-typed ``MiniBatchTrainer`` over an
    ``ARModel`` qualifies: a subclass may train differently, and a
    trainer that has taken samples is no longer where a new subscriber
    would start.
    """
    trainer = collector.trainer
    model = trainer.model
    if type(trainer) is not MiniBatchTrainer or type(model) is not ARModel:
        return None
    if trainer.samples_seen or model.updates:
        return None
    return (
        collector.axis,
        collector.lag,
        collector.include_self,
        collector.order,
        trainer.batch.capacity,
        trainer.drain_partial,
        model.order,
        model.lag,
        model.learning_rate,
        model.epochs_per_batch,
        model.l2,
        model.clip,
        model.max_coefficient_sum,
        model._w.tobytes(),
        model._b,
    )


@dataclass
class CollectionGroup:
    """One shared sampling unit: a store plus its subscribed collectors.

    The distributed runtime shards groups, not collectors: every
    subscriber of a group reads the same ``(provider, spatial,
    temporal)`` window, so the group is the unit whose locations are
    block-decomposed over ranks and whose rows are reduced back.  The
    convenience accessors below expose the shared window facts the
    shard planner needs; they all delegate to the first subscriber,
    which is also the collector a serial dispatch would have sampled
    through.
    """

    store: SeriesStore
    collectors: List[DataCollector] = field(default_factory=list)

    @property
    def n_subscribers(self) -> int:
        return len(self.collectors)

    @property
    def provider(self):
        """The provider the group samples through (first subscriber's)."""
        return self.collectors[0].provider

    @property
    def temporal(self) -> IterParam:
        """The temporal window shared by every subscriber."""
        return self.collectors[0].temporal

    @property
    def locations(self):
        """Location ids of the shared spatial window (int64 array)."""
        return self.store.locations


class SharedCollector:
    """Registry deduplicating data collection and training across analyses.

    ``subscribe`` inspects an analysis's collector and either starts a
    new group around its store or rebinds it onto an existing group's
    store, and onto a subscriber's trainer when their training is
    identical.  Analyses without a collector attribute (custom
    :class:`~repro.core.curve_fitting.Analysis` subclasses that manage
    their own data) are left untouched.
    """

    def __init__(self) -> None:
        self._groups: Dict[tuple, CollectionGroup] = {}

    def subscribe(self, analysis) -> bool:
        """Register an analysis for shared collection.

        Returns True when the analysis now reads through a shared
        group, False when it does not participate (no collector).
        """
        collector = getattr(analysis, "collector", None)
        if not isinstance(collector, DataCollector):
            return False
        key = _group_key(collector)
        group = self._groups.get(key)
        if group is None:
            self._groups[key] = CollectionGroup(
                store=collector.store, collectors=[collector]
            )
            return True
        collector.rebind_store(group.store)
        training = _training_key(collector)
        if training is not None:
            for other in group.collectors:
                if _training_key(other) == training:
                    collector.rebind_trainer(other.trainer)
                    break
        group.collectors.append(collector)
        return True

    @staticmethod
    def join(analyses) -> None:
        """Let twins stepped in one call keep one tally and one monitor.

        The scheduler joins the members of a cohort, analyses whose
        ``cohort_key`` agrees (see
        :meth:`repro.core.curve_fitting.CurveFitting.step_cohort`): they
        already share a trainer, and their collector tallies and
        early-stop monitors are equal, so from here on they are the
        first member's.  :meth:`fork` undoes it for a member that stops.
        """
        first = analyses[0]
        for other in analyses[1:]:
            other.collector.tally = first.collector.tally
            other.monitor = first.monitor

    def fork(self, analysis, active) -> bool:
        """Give a completed analysis private copies of what it shares.

        The scheduler calls this after dispatching the iteration in
        which ``analysis`` stopped.  If one of the ``active`` analyses
        still trains through its trainer, the analysis gets a deep copy
        of trainer and model, frozen at this iteration; twins that stop
        together share no later update, so they need no copy.  The
        collector's tally and the monitor a cohort shared
        (:meth:`join`) are copied the same way.  Returns True when the
        trainer was copied.
        """
        collector = getattr(analysis, "collector", None)
        if not isinstance(collector, DataCollector):
            return False
        others = [
            other.collector
            for other in active
            if isinstance(getattr(other, "collector", None), DataCollector)
        ]
        if any(other.tally is collector.tally for other in others):
            collector.tally = replace(collector.tally)
        monitor = getattr(analysis, "monitor", None)
        if monitor is not None and any(
            getattr(other, "monitor", None) is monitor for other in active
        ):
            analysis.monitor = copy.deepcopy(monitor)
        if not any(other.trainer is collector.trainer for other in others):
            return False
        collector.trainer = copy.deepcopy(collector.trainer)
        return True

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
