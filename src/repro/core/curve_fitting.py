"""The 'Curve_Fitting' analysis: collection + streaming AR training.

This is the analysis method the paper's framework currently supports
(Section III-C: "the framework supports threshold-based feature
extraction, and methods of 'Curve_Fitting' for data analysis").  It
wires together the data collector, the mini-batch trainer over an
:class:`~repro.core.ar_model.ARModel`, the early-stop monitor and the
threshold detector, and exposes the post-collection evaluation used by
the paper's accuracy tables.
"""

from __future__ import annotations

import abc
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernels
from repro.core.ar_model import ARModel, Forecast
from repro.core.collector import DataCollector
from repro.core.early_stop import EarlyStopMonitor
from repro.core.events import (
    ACTION_CONTINUE,
    ACTION_TERMINATE,
    StatusBroadcast,
)
from repro.core.features import ExtractionSummary, ThresholdEvent
from repro.core.minibatch import MiniBatchTrainer
from repro.core.params import as_iter_param
from repro.core.providers import ProviderFn
from repro.core.thresholds import ThresholdDetector, peak_profile
from repro.errors import ConfigurationError, NotTrainedError


class Analysis(abc.ABC):
    """Base class for analyses attachable to a :class:`~repro.core.region.Region`.

    Subclasses implement :meth:`on_iteration`, returning an optional
    :class:`StatusBroadcast` when there is news worth publishing (a
    threshold crossing, a convergence event).

    ``wavefront_rank_of`` maps a spatial location to the rank that owns
    it.  It defaults to None (single-process: everything is rank 0);
    the distributed runtime wires the shard decomposition's owner
    function in here, so status broadcasts carry the paper's "MPI rank
    indicating the location of the wave front".
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.wants_stop = False
        self.wavefront_rank_of: Optional[Callable[[int], int]] = None

    def wavefront_rank(self, location: int) -> int:
        """Owner rank of ``location`` (0 without a decomposition)."""
        if self.wavefront_rank_of is None:
            return 0
        return int(self.wavefront_rank_of(int(location)))

    @property
    def converged(self) -> bool:
        """Convergence signal consumed by the adaptive cadence layer.

        Subclasses with an early-stop monitor report its verdict; the
        base class never converges, so a custom analysis keeps full
        collection cadence unless it opts in.
        """
        return False

    def cohort_key(self) -> Optional[tuple]:
        """Key of the analyses this one may share its collector with.

        When an analysis subscribes to a collection group whose earlier
        subscriber has an equal key, it takes that subscriber's
        collector and monitor
        (:meth:`repro.engine.collection.SharedCollector.subscribe`).
        The scheduler steps the active analyses on one collector with
        one ``step_cohort(members, domain, iteration, own)`` call on
        the first of them (see :meth:`CurveFitting.step_cohort`).
        None, the default, keeps this analysis on a collector of its
        own, stepped through :meth:`on_iteration`.
        """
        return None

    @abc.abstractmethod
    def on_iteration(self, domain: object, iteration: int) -> Optional[StatusBroadcast]:
        """Observe one completed simulation iteration."""

    @abc.abstractmethod
    def summary(self) -> ExtractionSummary:
        """Report collection/training statistics after the run."""


class CurveFitting(Analysis):
    """Auto-regressive curve fitting over a declared data window.

    Parameters
    ----------
    provider:
        Variable accessor ``provider(domain, location) -> float``.
    spatial, temporal:
        Location and iteration windows (tuples accepted).
    order:
        AR model order ``n``.
    lag:
        Temporal lag in iterations; defaults to the temporal step.
    axis:
        ``"space"`` (LULESH-style profile advance) or ``"time"``
        (wdmerger-style scalar series).
    batch_size:
        Mini-batch capacity.
    learning_rate, epochs_per_batch, l2, seed:
        Forwarded to :class:`ARModel`.
    threshold:
        Optional relative threshold enabling threshold-based feature
        events; requires ``reference_value``.
    reference_value:
        Scale the relative threshold applies to (e.g. blast velocity).
    terminate_when_trained:
        The paper's early-termination flag: request simulation stop
        once collection completed and the model converged.
    accuracy_threshold, min_updates:
        Early-stop monitor configuration.
    """

    def __init__(
        self,
        provider: ProviderFn,
        spatial,
        temporal,
        *,
        order: int = 3,
        lag: Optional[int] = None,
        axis: str = "space",
        include_self: bool = True,
        batch_size: int = 16,
        learning_rate: float = 0.1,
        epochs_per_batch: int = 16,
        l2: float = 0.0,
        seed: int = 0,
        threshold: Optional[float] = None,
        reference_value: Optional[float] = None,
        terminate_when_trained: bool = False,
        accuracy_threshold: float = 0.01,
        min_updates: int = 10,
        monitor_window: int = 5,
        monitor_patience: int = 2,
        name: str = "curve_fitting",
    ) -> None:
        super().__init__(name)
        spatial = as_iter_param(spatial)
        temporal = as_iter_param(temporal)
        if threshold is not None and reference_value is None:
            raise ConfigurationError(
                "threshold-based extraction needs reference_value"
            )
        effective_lag = temporal.step if lag is None else lag
        model = ARModel(
            order,
            lag=effective_lag,
            learning_rate=learning_rate,
            epochs_per_batch=epochs_per_batch,
            l2=l2,
            seed=seed,
        )
        self.collector = DataCollector(
            provider,
            spatial,
            temporal,
            MiniBatchTrainer(model, batch_size, order),
            lag=effective_lag,
            axis=axis,
            include_self=include_self,
        )
        self.include_self = include_self
        self.monitor = EarlyStopMonitor(
            accuracy_threshold,
            min_updates=min_updates,
            window=monitor_window,
            patience=monitor_patience,
        )
        self.threshold = threshold
        self.reference_value = reference_value
        self.terminate_when_trained = terminate_when_trained
        self.axis = axis
        self._threshold_events: List[ThresholdEvent] = []
        self._finalized = False
        self._converged_at: Optional[int] = None
        # The members on_iteration steps, and step_cohort's cut cache.
        self._alone = [self]
        self._cut_cache: Optional[tuple] = None

    @property
    def trainer(self) -> MiniBatchTrainer:
        """The collector's trainer, shared with the twins that share
        the collector until this analysis completes (see
        :class:`repro.engine.collection.SharedCollector`)."""
        return self.collector.trainer

    @property
    def model(self) -> ARModel:
        """The AR model :attr:`trainer` updates."""
        return self.collector.trainer.model

    @property
    def converged(self) -> bool:
        """True once the early-stop monitor has latched convergence."""
        return self.monitor.converged

    # ------------------------------------------------------------------
    # in-situ hook
    # ------------------------------------------------------------------

    def on_iteration(self, domain: object, iteration: int) -> Optional[StatusBroadcast]:
        """:meth:`step_cohort` applied to this analysis alone."""
        for _, event in self.step_cohort(self._alone, domain, iteration):
            return event
        return None

    def cohort_key(self) -> Optional[tuple]:
        """The exact class, the training and the monitor settings.

        Analyses with equal keys train alike on the same rows, so
        :class:`repro.engine.collection.SharedCollector` gives them one
        collector (with its trainer and model) and one early-stop
        monitor.  None once training has begun, for a custom trainer or
        model, and for a subclass that overrides :meth:`on_iteration`,
        which is stepped alone so that its override runs.
        """
        if type(self).on_iteration is not CurveFitting.on_iteration:
            return None
        collector = self.collector
        trainer = collector.trainer
        model = trainer.model
        if type(trainer) is not MiniBatchTrainer or type(model) is not ARModel:
            return None
        if collector.rows_ingested or trainer.samples_seen or model.updates:
            return None
        monitor = self.monitor
        return (
            type(self),
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
            monitor.accuracy_threshold,
            monitor.window,
            monitor.min_updates,
            monitor.patience,
        )

    def step_cohort(
        self,
        members: Sequence["CurveFitting"],
        domain: object,
        iteration: int,
        own: Optional[List[float]] = None,
    ) -> List[Tuple[int, Optional[StatusBroadcast]]]:
        """One iteration of ``members``: this analysis and its twins.

        ``members`` are the active analyses on this analysis's
        collector, this one first: twins, which share the collector and
        the monitor from subscription
        (:meth:`repro.engine.collection.SharedCollector.subscribe`).
        The shared work runs once: observe (sample, push, train), the
        loss feed, the window-end flush, and one binary search of the
        newest row for every member's threshold.  A member is visited
        only to record its own crossing or its conclusion.

        Returns ``(position, event)`` for the visited members, in member
        order.  When ``own`` is a list, each visit's seconds are added
        to ``own[position]``.
        """
        collector = self.collector
        monitor = self.monitor
        for loss in collector.observe(domain, iteration):
            if monitor.observe(loss) and self._converged_at is None:
                self._share(members, "_converged_at", iteration)
        if self._finalized:
            return []
        if collector.done:
            final_loss = collector.finalize()
            if final_loss is not None and monitor.observe(final_loss):
                if self._converged_at is None:
                    self._share(members, "_converged_at", iteration)
            self._share(members, "_finalized", True)
            return [
                (j, self._visit(own, j, member._conclude, iteration))
                for j, member in enumerate(members)
            ]
        store = collector.store
        if store.last_iteration != iteration:
            return []
        which, cuts, cut_array = self._cuts(members)
        if not which:
            return []
        visited = []
        newest = None
        reached = store.reach_many(cut_array).tolist()
        for j, index, cut in zip(which, reached, cuts):
            if index < 0:
                continue
            if newest is None:
                newest = store.last_row().tolist()
                locations = store.locations.tolist()
            event = self._visit(
                own, j, members[j]._record_crossing,
                iteration, locations[index], newest[index], cut,
            )
            if event is not None:
                visited.append((j, event))
        return visited

    @staticmethod
    def _share(members, name: str, value) -> None:
        """Set state the members of a cohort keep alike on every member."""
        for member in members:
            setattr(member, name, value)

    @staticmethod
    def _visit(own: Optional[List[float]], position: int, method, *args):
        """``method(*args)``, a visit to one member; with ``own`` a list,
        its seconds are added to ``own[position]``."""
        if own is None:
            return method(*args)
        tick = time.perf_counter()
        result = method(*args)
        own[position] += time.perf_counter() - tick
        return result

    def _cuts(self, members):
        """Positions of the ``members`` with a threshold and their cuts,
        as numbers and as one array; kept while the members and this
        analysis's reference (twins move theirs together) stay."""
        cached = self._cut_cache
        if (
            cached is None
            or cached[0] is not members
            or cached[1] != self.reference_value
        ):
            which = [j for j, m in enumerate(members) if m.threshold is not None]
            cuts = [
                members[j].threshold * members[j].reference_value
                for j in which
            ]
            cached = self._cut_cache = (
                members,
                self.reference_value,
                which,
                cuts,
                np.array(cuts, dtype=np.float64),
            )
        return cached[2:]

    def _conclude(self, iteration: int) -> StatusBroadcast:
        """Collection finished: decide termination, build the broadcast."""
        stop = self.terminate_when_trained and self.monitor.converged
        self.wants_stop = stop
        predicted = 0.0
        if self.model.is_trained and len(self.collector.store):
            last = self.collector.store.last_row()
            if last.size >= self.model.order:
                predicted = self.model.predict(
                    kernels.windows(last, self.model.order)[-1]
                )
        return StatusBroadcast(
            iteration=iteration,
            predicted_value=predicted,
            wavefront_rank=0,
            action=ACTION_TERMINATE if stop else ACTION_CONTINUE,
        )

    def _record_crossing(
        self, iteration: int, location: int, value: float, cut: float
    ) -> Optional[StatusBroadcast]:
        """The newest row reaches ``cut`` out to ``location``, where it
        reads ``value``: record the threshold event, build its broadcast."""
        # Events are appended at most once per iteration, in increasing
        # order, so only the newest one can already cover this one.
        events = self._threshold_events
        if events and events[-1].iteration == iteration:
            return None
        events.append(
            ThresholdEvent(
                iteration=iteration,
                location=location,
                value=value,
                threshold_value=cut,
            )
        )
        return StatusBroadcast(
            iteration=iteration,
            predicted_value=value,
            wavefront_rank=self.wavefront_rank(location),
            action=ACTION_CONTINUE,
        )

    # ------------------------------------------------------------------
    # post-collection evaluation
    # ------------------------------------------------------------------

    @property
    def threshold_events(self) -> List[ThresholdEvent]:
        return list(self._threshold_events)

    @property
    def last_threshold_event(self) -> Optional[ThresholdEvent]:
        """The newest of :attr:`threshold_events`, without the copy."""
        return self._threshold_events[-1] if self._threshold_events else None

    def predicted_vs_real(self, location: Optional[int] = None):
        """One-step model predictions against collected values.

        For ``axis="time"`` returns ``(iterations, predicted, real)`` at
        one location (default: the window's first).  For
        ``axis="space"`` returns the same shapes flattened over every
        valid (iteration, location) pair at the given location column
        or all columns when ``location`` is None.
        """
        self._require_trained()
        store = self.collector.store
        # Rows are paired positionally, which assumes uniform temporal
        # spacing; an adaptive-cadence snap-back can leave gaps in the
        # collected iterations, and a pair built across one would
        # evaluate the model at the wrong lag.  Only lag-exact pairs
        # are kept — the rows SeriesStore.lag_exact, the training
        # emitter's predicate, accepts — so training and evaluation
        # always agree on which pairs are valid (at full cadence: every
        # pair).
        if self.axis == "time":
            loc = int(store.locations[0]) if location is None else location
            iters, (predicted,), (real,) = self.time_pairs([loc])
            return iters, predicted, real
        matrix = store.matrix()
        order = self.model.order
        step = self.collector.temporal.step
        lag_rows = self.model.lag // step
        # axis == "space".  Spatial features come from ONE lagged row, so
        # order=1.  The training emitter's windows (most recent first,
        # ending at the target's column, or the one before it without
        # include_self) are taken for every kept row at once; each row
        # is still predicted by its own predict_many call of the same
        # shape, since a matvec's bits can depend on it.
        first = self.collector.first_target_offset
        kept = store.lag_exact_rows(lag_rows=lag_rows, order=1, step=step)
        if not kept.size:
            raise NotTrainedError("not enough collected data to evaluate")
        features = kernels.windows(matrix[kept - lag_rows], order)
        features = features[:, : matrix.shape[1] - first]
        predicted = np.stack([self.model.predict_many(f) for f in features])
        real = matrix[kept, first:]
        kept_iters = store.iterations[kept]
        if location is not None:
            cols = store.locations[first:]
            sel = np.where(cols == location)[0]
            if sel.size == 0:
                raise ConfigurationError(
                    f"location {location} not in evaluable window {cols.tolist()}"
                )
            predicted = predicted[:, sel[0]]
            real = real[:, sel[0]]
        return kept_iters, predicted, real

    def time_pairs(self, locations: Optional[Sequence[int]] = None):
        """Time-axis :meth:`predicted_vs_real` at each of ``locations``
        (every window location when None) as ``(iterations, [predicted],
        [real])``, one array per location, from one lag-exact mask."""
        self._require_trained()
        store = self.collector.store
        if locations is None:
            columns = store.matrix().T
        else:
            columns = [store.series(location)[1] for location in locations]
        order = self.model.order
        step = self.collector.temporal.step
        lag_rows = self.model.lag // step
        valid = store.lag_exact_rows(lag_rows=lag_rows, order=order, step=step)
        if not valid.size:
            raise NotTrainedError("not enough collected data to evaluate")
        # Row i's features, most recent first, end lag_rows back: the
        # window starting order - 1 rows before that.
        starts = valid - lag_rows - order + 1
        # One call per location: a matvec's bits can depend on its shape.
        predicted = [
            self.model.predict_many(kernels.windows(series, order)[starts])
            for series in columns
        ]
        real = [series[valid] for series in columns]
        return store.iterations[valid], predicted, real

    def fit_error(self, location: Optional[int] = None) -> float:
        """Curve-fit error rate (%) — the metric of Tables I and V.

        Mean absolute prediction error normalised by the mean absolute
        value of the real curve, in percent.  Unbounded above, so an
        overfit/diverged fit can report >100% exactly as the paper's
        267% cell does.
        """
        _, predicted, real = self.predicted_vs_real(location)
        scale = float(np.mean(np.abs(real)))
        if scale == 0.0:
            return 0.0
        return 100.0 * float(np.mean(np.abs(predicted - real))) / scale

    def forecaster(self) -> Forecast:
        """A :class:`~repro.core.ar_model.Forecast` seeded from the
        newest rows: a time-axis training sample's span, or a spatial
        one's lagged rows.  Raises :class:`~repro.errors.NotTrainedError`
        until the model has trained and those rows are one temporal step
        apart (after a cadence snap-back: once they are re-collected)."""
        self._require_trained()
        collector = self.collector
        store = collector.store
        step = collector.temporal.step
        lag_rows = collector.lag // step
        depth = lag_rows + (collector.order if collector.axis == "time" else 0)
        # The newest row and the one depth - 1 rows back, depth - 1 steps apart.
        if not store.lag_exact(-1, lag_rows=depth - 1, order=1, step=step):
            raise NotTrainedError(
                "not enough contiguous collected history to forecast"
            )
        return Forecast(
            self.model,
            store.matrix()[-depth:],
            axis=collector.axis,
            lag_rows=lag_rows,
            include_self=collector.include_self,
            step=step,
            iteration=store.last_iteration,
        )

    def forecast(self, location: int, steps: int) -> np.ndarray:
        """The forecasts at ``location`` over the ``steps`` temporal-grid
        steps after the newest collected row (see :meth:`forecaster`)."""
        column = self.collector.store.column(location)
        return self.forecaster().roll(steps)[:, column]

    def extrapolate_peak_profile(
        self, through_location: int, *, profile_order: int = 2
    ) -> np.ndarray:
        """Peak-|value| profile extended in space to ``through_location``.

        Takes the per-location peak of the collected window and extends
        it outward by fitting a dedicated spatial auto-regressive model
        to the (log of the) profile and rolling it forward — the
        paper's "replace V(l, t) by V(l+1, t)" applied to the peak
        curve the break-point detector thresholds (Table II).

        The log transform keeps the extension positive; because the
        profile's decay ratio flattens with distance, the extension
        saturates at very small thresholds, which is exactly how the
        paper's low-threshold rows overshoot to the domain edge.

        The result depends only on the store's rows and the two
        arguments, so it is computed once per store row for every
        analysis reading the store (:meth:`SeriesStore.memo`).
        """
        self._require_trained()
        store = self.collector.store
        profile = store.memo(
            ("peak_profile", through_location, profile_order),
            lambda: _extrapolate(store, through_location, profile_order),
        )
        return profile.copy()

    def break_point(self, threshold: float, max_location: int) -> int:
        """Break-point radius from the extrapolated peak profile."""
        if self.reference_value is None:
            raise ConfigurationError(
                "break_point needs reference_value (the blast velocity)"
            )
        detector = ThresholdDetector(self.reference_value, max_location)
        profile = self.extrapolate_peak_profile(max_location)
        first = int(self.collector.store.locations[0])
        locations = np.arange(first, first + profile.size)
        return detector.break_point(locations, profile, threshold).radius

    def summary(self) -> ExtractionSummary:
        return ExtractionSummary(
            samples_collected=self.collector.samples_emitted,
            updates=self.trainer.updates,
            final_loss=self.trainer.last_loss,
            converged=self.monitor.converged,
            converged_at_iteration=self._converged_at,
            features=list(self._threshold_events),
        )

    def _require_trained(self) -> None:
        if not self.model.is_trained:
            raise NotTrainedError(
                f"analysis {self.name!r} has not completed any training updates"
            )


def _extrapolate(
    store, through_location: int, profile_order: int
) -> np.ndarray:
    """:meth:`CurveFitting.extrapolate_peak_profile` of ``store``'s rows."""
    profile = peak_profile(store.matrix())
    last = int(store.locations[-1])
    if through_location <= last:
        keep = store.locations <= through_location
        return profile[keep]
    steps = through_location - last
    positive = np.maximum(profile, 1e-12)
    log_profile = np.log(positive)
    order = min(profile_order, log_profile.size - 1)
    if order < 1:
        raise ConfigurationError("peak profile too short to extrapolate")
    # Each location is predicted from the order before it: every
    # window but the last, which ends at the profile's edge.
    spatial_model = ARModel(order)
    spatial_model.fit_exact(
        kernels.windows(log_profile, order)[:-1], log_profile[order:]
    )
    extension = Forecast(spatial_model, log_profile[-order:, None])
    return np.concatenate([profile, np.exp(extension.roll(steps)[:, 0])])


def evaluate_spatial_history(
    model,
    history: np.ndarray,
    window,
    *,
    include_self: bool = True,
    start_iteration: int = 0,
):
    """One-step spatial predictions against a full recorded history.

    This is the paper's accuracy evaluation for the LULESH case (Table
    I): the model — trained in situ on a *prefix* of the run — predicts
    every (iteration, location) sample of the **complete** simulation
    from its real lagged neighbours, and the error rate is computed
    over all of them.  A model that only ever saw quiet pre-shock data
    mispredicts the later wave arrival, which is exactly how the
    paper's 267% overfit cell arises.

    Parameters
    ----------
    model:
        A trained :class:`~repro.core.ar_model.ARModel`.
    history:
        Array of shape ``(iterations, locations)`` where the column
        index is the location id (e.g. the recorded velocity history of
        :class:`~repro.lulesh.simulation.LuleshSimulation`).
    window:
        Spatial window (IterParam or 3-tuple) to evaluate over.  Its
        locations (clipped to the history's width) are the columns a
        collector over the same window stores, and the feature windows
        run over them, so a strided window pairs locations ``step``
        apart exactly as training did.
    include_self:
        Must match the collector configuration the model was trained
        with.
    start_iteration:
        Skip this many leading iterations (start-up transient).

    Returns
    -------
    (predicted, real):
        Flattened arrays over all evaluated (iteration, location) pairs.
    """
    window = as_iter_param(window)
    arr = np.asarray(history, dtype=np.float64)
    if arr.ndim != 2:
        raise ConfigurationError("history must be 2-D (iterations x locations)")
    order = model.order
    lag = model.lag
    columns = window.indices()
    columns = columns[columns < arr.shape[1]]
    # The first target, as in DataCollector.first_target_offset.
    first = order - 1 if include_self else order
    if columns.size <= first:
        raise ConfigurationError(
            f"window {window} leaves no evaluable locations for order {order}"
        )
    t0 = max(start_iteration, lag)
    # The windows over the window's columns that end at each target or
    # (without include_self) just before it, as _emit_spatial builds
    # them on a store row.
    features = kernels.windows(arr[t0 - lag: arr.shape[0] - lag, columns], order)
    features = features[:, : columns.size - first]
    # One call per iteration: a matvec's bits can depend on its shape.
    preds = [model.predict_many(f) for f in features]
    return np.concatenate(preds), arr[t0:, columns[first:]].ravel()
