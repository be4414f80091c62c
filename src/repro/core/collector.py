"""Real-time data collection across temporal and spatial dimensions.

The collector is the "helper function" of the paper's Section III-B-1:
it watches every simulation iteration, and whenever the iteration falls
in the user's temporal window it samples the diagnostic variable at all
locations of the spatial window, stores the row, and emits auto-
regressive training samples into the mini-batch trainer.

Two pairing modes cover the paper's two case studies:

``axis="space"``
    Predictors are the ``order`` spatially-preceding values at time
    ``t - lag``; the target is ``V(l, t)``.  This is the LULESH wave
    setting where the model learns how the profile advances outward.

``axis="time"``
    Predictors are the ``order`` most recent collected values at the
    *same* location, ending ``lag`` iterations before the target.  This
    is the wdmerger setting where each diagnostic is a single global
    time series.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernels
from repro.core.minibatch import MiniBatchTrainer
from repro.core.params import IterParam
from repro.core.providers import ProviderFn, batch_sample
from repro.errors import CollectionError, ConfigurationError


def _view(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array`` (no copy)."""
    out = array.view()
    out.flags.writeable = False
    return out


class SeriesStore:
    """Collected samples: a (iteration x location) matrix built row-wise.

    Rows arrive one collected iteration at a time; the store keeps the
    iteration numbers and exposes per-location series for evaluation and
    for seeding model forwarding.

    Storage is a preallocated ``(capacity, n_locations)`` float64 array
    grown by amortized doubling, plus an iteration → row-index dict, so
    the hot-path accessors are zero-copy: :meth:`matrix`,
    :meth:`row_at`, :meth:`row` and :meth:`series` all return O(1)
    read-only views into the buffer instead of re-stacking history.

    Threshold checks ask one question of the newest row, once per
    threshold: :meth:`reach`.  The store scans the row once and answers
    every threshold from that scan, so analyses sharing the store share
    the scan too.
    """

    def __init__(self, locations: np.ndarray, *, capacity: int = 64) -> None:
        self.locations = np.asarray(locations, dtype=np.int64)
        if capacity <= 0:
            raise ConfigurationError(
                f"capacity must be positive, got {capacity}"
            )
        self._n = 0
        self._data = np.empty(
            (capacity, self.locations.shape[0]), dtype=np.float64
        )
        self._iterations = np.empty(capacity, dtype=np.int64)
        self._index: Dict[int, int] = {}
        # (row count, running max of |newest row| from its far end)
        self._reach: Tuple[int, Optional[np.ndarray]] = (0, None)

    def __len__(self) -> int:
        return self._n

    def _grow(self) -> None:
        capacity = max(1, 2 * self._data.shape[0])
        data = np.empty((capacity, self._data.shape[1]), dtype=np.float64)
        data[: self._n] = self._data[: self._n]
        iterations = np.empty(capacity, dtype=np.int64)
        iterations[: self._n] = self._iterations[: self._n]
        self._data = data
        self._iterations = iterations

    @property
    def iterations(self) -> np.ndarray:
        return _view(self._iterations[: self._n])

    @property
    def last_iteration(self) -> Optional[int]:
        """Iteration of the most recent row, or None when empty."""
        return int(self._iterations[self._n - 1]) if self._n else None

    def add_row(self, iteration: int, values: np.ndarray) -> None:
        iteration = int(iteration)
        if self._n and iteration <= self._iterations[self._n - 1]:
            raise CollectionError(
                f"iteration {iteration} arrived after "
                f"{int(self._iterations[self._n - 1])}"
            )
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.locations.shape:
            raise CollectionError(
                f"row shape {values.shape} does not match "
                f"{self.locations.shape} locations"
            )
        if self._n >= self._data.shape[0]:
            self._grow()
        self._data[self._n] = values
        self._iterations[self._n] = iteration
        self._index[iteration] = self._n
        self._n += 1

    def matrix(self) -> np.ndarray:
        """All rows stacked: shape ``(n_collected, n_locations)``.

        A zero-copy read-only view — O(1) however long the history is.
        An empty store returns a well-shaped ``(0, n_locations)`` view,
        so reducers over rank shards that never matched a temporal
        window can treat every shard uniformly.
        """
        return _view(self._data[: self._n])

    @classmethod
    def merge_shards(cls, shards: "Sequence[SeriesStore]") -> "SeriesStore":
        """Assemble one full-width store from per-rank column shards.

        ``shards`` are rank-local stores over disjoint location blocks,
        given in rank (== location) order; every shard must have
        collected exactly the same iteration sequence — including the
        empty sequence, and including zero-location shards from ranks
        that own no part of the window.  The merged store's row at each
        iteration is the concatenation of the shard rows, so it equals
        the row a single full-window collector would have sampled.
        """
        shards = list(shards)
        if not shards:
            raise ConfigurationError("need at least one shard to merge")
        iterations = shards[0].iterations
        for shard in shards[1:]:
            if not np.array_equal(shard.iterations, iterations):
                raise CollectionError(
                    "shard iteration sequences disagree: "
                    f"{iterations.tolist()} vs {shard.iterations.tolist()}"
                )
        locations = np.concatenate([shard.locations for shard in shards])
        n_rows = int(iterations.shape[0])
        out = cls(locations, capacity=max(1, n_rows))
        if n_rows:
            out._data[:n_rows] = np.hstack(
                [shard.matrix() for shard in shards]
            )
            out._iterations[:n_rows] = iterations
            out._index = {int(it): i for i, it in enumerate(iterations)}
            out._n = n_rows
        return out

    def lag_exact(
        self, index: int, *, lag_rows: int, order: int, step: int
    ) -> bool:
        """True when row ``index`` pairs lag-exactly with its features.

        Training and post-hoc evaluation both address feature rows
        positionally (the anchor ``lag_rows`` rows back, the ``order``
        window behind it), which assumes uniform temporal spacing.  An
        adaptive-cadence snap-back leaves gaps in the collected
        iterations; this is THE predicate both sides share to reject a
        pair built across one (collected iterations all sit on the
        temporal grid, so checking the two endpoints pins every row
        between).  At full cadence it always holds.
        """
        if index < 0:
            index += self._n
        anchor = index - lag_rows
        lo = anchor - (order - 1)
        if lo < 0 or index >= self._n:
            return False
        iters = self._iterations
        return int(iters[index]) - int(iters[anchor]) == lag_rows * step and (
            int(iters[anchor]) - int(iters[lo]) == (order - 1) * step
        )

    def row_at(self, iteration: int) -> Optional[np.ndarray]:
        """Row collected at exactly ``iteration``, or None (O(1))."""
        idx = self._index.get(int(iteration))
        if idx is None:
            return None
        return _view(self._data[idx])

    def row(self, index: int) -> np.ndarray:
        """The ``index``-th collected row (supports negative indices)."""
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError(f"row index {index} out of range ({self._n} rows)")
        return _view(self._data[index])

    def last_row(self) -> Optional[np.ndarray]:
        """Most recently collected row, or None when empty."""
        return _view(self._data[self._n - 1]) if self._n else None

    def reach(self, cut: float) -> Optional[int]:
        """Index of the farthest location in the newest row with |v| >= cut.

        None when no location of the newest row (or no row at all)
        reaches ``cut``.  The first query after a row arrives takes the
        running maximum of |row| from the far end, which never
        decreases; every query then is one binary search over it, so
        any number of thresholds cost one scan of the row.
        """
        if not self._n:
            return None
        count, far_max = self._reach
        if count != self._n:
            far_max = np.maximum.accumulate(np.abs(self._data[self._n - 1, ::-1]))
            self._reach = (self._n, far_max)
        below = int(far_max.searchsorted(cut))
        if below == far_max.shape[0]:
            return None
        return far_max.shape[0] - 1 - below

    def series(self, location: int) -> Tuple[np.ndarray, np.ndarray]:
        """(iterations, values) time series of one location (views)."""
        cols = np.where(self.locations == location)[0]
        if cols.size == 0:
            raise CollectionError(
                f"location {location} is outside the collected window "
                f"{self.locations.tolist()}"
            )
        return self.iterations, _view(self._data[: self._n, cols[0]])

    def profile_at(self, iteration: int) -> np.ndarray:
        """Spatial profile (values over locations) at one collected step."""
        row = self.row_at(iteration)
        if row is None:
            raise CollectionError(f"iteration {iteration} was not collected")
        return row


@dataclass
class Feed:
    """One collector push into a trainer, kept as its ``last_feed``.

    Collectors sharing a trainer (see
    :class:`repro.engine.collection.SharedCollector`) push each
    iteration once; every later subscriber replays the record instead
    of repeating the update.  ``seconds`` is what the push took, and
    ``flush`` holds ``(final loss, seconds)`` once
    :meth:`DataCollector.finalize` has flushed the trainer after it.
    """

    iteration: Optional[int]
    losses: List[float]
    samples: int
    seconds: float
    flush: Optional[Tuple[Optional[float], float]] = None


class DataCollector:
    """Streams matching samples from the simulation into the trainer.

    Parameters
    ----------
    provider:
        ``provider(domain, location) -> float`` variable accessor.
    spatial:
        Window of location ids to sample each matching iteration.
    temporal:
        Window of iteration numbers that trigger sampling.
    trainer:
        Mini-batch trainer receiving the generated (features, target)
        pairs; its model order defines the AR order used here.
    lag:
        Iteration distance between predictors and target.  Must be a
        multiple of ``temporal.step`` so lagged rows exist exactly.
    axis:
        ``"space"`` or ``"time"`` pairing mode (see module docstring).
    include_self:
        In spatial mode, include the target location's *own* lagged
        value as the first predictor (features
        ``V(l, t-lag), V(l-1, t-lag), ..., V(l-n+1, t-lag)``).  This is
        the dual-dimensional formulation — the model sees both the
        temporal history of the point and its spatial neighbourhood —
        and is markedly more accurate on travelling waves; disable it
        for the strict neighbours-only form of the paper's equation.
    store:
        Optional :class:`SeriesStore` to collect into.  When several
        collectors with the same provider and windows share one store
        (see :class:`repro.engine.collection.SharedCollector`), the
        first collector dispatched in an iteration samples the
        simulation and every later one reuses the stored row, so the
        provider runs at most once per (location, iteration).  Omitted,
        the collector owns a private store — the original per-analysis
        behaviour.  Collectors with identical training may share one
        trainer too (:meth:`rebind_trainer`): the first one to observe
        an iteration trains it, and the rest replay that update.
    """

    def __init__(
        self,
        provider: ProviderFn,
        spatial: IterParam,
        temporal: IterParam,
        trainer: MiniBatchTrainer,
        *,
        lag: int = 1,
        axis: str = "space",
        include_self: bool = True,
        store: Optional[SeriesStore] = None,
    ) -> None:
        if axis not in ("space", "time"):
            raise ConfigurationError(f"axis must be 'space' or 'time', got {axis!r}")
        if lag <= 0:
            raise ConfigurationError(f"lag must be positive, got {lag}")
        if lag % temporal.step != 0:
            raise ConfigurationError(
                f"lag ({lag}) must be a multiple of the temporal step "
                f"({temporal.step}) so lagged rows align with collected rows"
            )
        order = trainer.batch.n_features
        min_locs = order if include_self else order + 1
        if axis == "space" and spatial.count < min_locs:
            raise ConfigurationError(
                f"spatial window holds {spatial.count} locations but the "
                f"model order is {order}; no training samples would exist"
            )
        self.provider = provider
        self.spatial = spatial
        self.temporal = temporal
        self.trainer = trainer
        self.lag = lag
        self.axis = axis
        self.include_self = include_self
        self.order = order
        if store is None:
            store = SeriesStore(spatial.indices(), capacity=temporal.count)
        elif not np.array_equal(store.locations, spatial.indices()):
            raise ConfigurationError(
                f"shared store covers locations {store.locations.tolist()} "
                f"but the spatial window is {spatial.indices().tolist()}"
            )
        self.store = store
        self._samples_emitted = 0
        self._rows_ingested = 0
        #: Seconds of trainer updates this collector replayed from a
        #: shared trainer instead of running them itself.
        self.replayed_seconds = 0.0
        # Adaptive-cadence hooks (installed by the engine's cadence
        # layer; both default to "off" so standalone collectors behave
        # exactly as before).
        self.cadence_gate: Optional[Callable[[int], bool]] = None
        self._window_exhausted = False

    def rebind_store(self, store: SeriesStore) -> None:
        """Subscribe this collector to an existing (shared) store.

        Only legal before this collector has collected anything; the
        shared store's locations must match the spatial window exactly,
        otherwise the reused rows would mean something different here.
        """
        if store is self.store:
            return
        if len(self.store):
            raise ConfigurationError(
                "cannot rebind a collector that has already collected rows"
            )
        if not np.array_equal(store.locations, self.store.locations):
            raise ConfigurationError(
                f"shared store covers locations {store.locations.tolist()} "
                f"but this collector samples {self.store.locations.tolist()}"
            )
        self.store = store

    def rebind_trainer(self, trainer: MiniBatchTrainer) -> None:
        """Train through an existing (shared) trainer.

        Only legal before either trainer has taken a sample, so the
        shared updates are exactly the ones this collector would have
        run; the shared trainer's feature width must match this
        collector's order.
        """
        if trainer is self.trainer:
            return
        if self.trainer.samples_seen or trainer.samples_seen:
            raise ConfigurationError(
                "cannot rebind a collector onto a trainer once either "
                "trainer has taken samples"
            )
        if trainer.batch.n_features != self.order:
            raise ConfigurationError(
                f"shared trainer takes {trainer.batch.n_features} features "
                f"but this collector emits {self.order}"
            )
        self.trainer = trainer

    @property
    def samples_emitted(self) -> int:
        """Number of AR training samples pushed into the trainer."""
        return self._samples_emitted

    @property
    def rows_ingested(self) -> int:
        """Rows THIS collector has processed (sampled or reused).

        With a shared store ``len(collector.store)`` counts rows
        collected by the whole group, so subclass hooks that need
        "did I just collect a sample?" must use this per-collector
        counter instead.
        """
        return self._rows_ingested

    @property
    def done(self) -> bool:
        """True once the temporal window is exhausted.

        Normally that means every matching iteration was collected; an
        adaptive-cadence run that skipped sampling instead marks the
        window exhausted explicitly (:meth:`mark_window_exhausted`)
        when the simulation passes the window's end.
        """
        return (
            len(self.store) >= self.temporal.count or self._window_exhausted
        )

    def mark_window_exhausted(self) -> None:
        """Declare the temporal window over despite uncollected rows.

        Called by the adaptive cadence layer once the simulation has
        run past ``temporal.end`` while sampling was widened, so the
        owning analysis still concludes (finalize, early-stop decision)
        exactly as it would at the end of a fully collected window.
        """
        self._window_exhausted = True

    def observe(self, domain: object, iteration: int) -> List[float]:
        """Inspect one simulation iteration; returns losses of any updates.

        This is the O(1)-most-of-the-time hook embedded in the
        simulation loop.  On non-matching iterations it returns
        immediately.
        """
        if not self.temporal.matches(iteration):
            return []
        if self.cadence_gate is not None and not self.cadence_gate(iteration):
            # The cadence layer widened this window's stride: neither
            # sample nor train on this iteration.
            return []
        if (
            self.store.last_iteration == iteration
            and self._rows_ingested < len(self.store)
        ):
            # A collector sharing this store already sampled this
            # iteration; reuse the row instead of re-running the
            # provider over the window.  The rows_ingested guard keeps
            # a double observe() of the same iteration an error (via
            # add_row below) rather than a silent duplicate emission.
            row = self.store.row(-1)
        else:
            # One vectorized gather over the whole spatial window when
            # the provider implements the batch protocol; scalar
            # per-location calls otherwise (see providers.batch_sample).
            row = batch_sample(self.provider, domain, self.store.locations)
            if not np.all(np.isfinite(row)):
                raise CollectionError(
                    f"non-finite sample collected at iteration {iteration}"
                )
            self.store.add_row(iteration, row)
        self._rows_ingested += 1
        feed = self.trainer.last_feed
        if feed is not None and feed.iteration == iteration:
            # A collector sharing this trainer already pushed this
            # iteration's samples (they are identical here); replay the
            # update's outcome instead of training twice.
            self.replayed_seconds += feed.seconds
        else:
            tick = time.perf_counter()
            if self.axis == "space":
                losses, samples = self._emit_spatial(iteration, row)
            else:
                losses, samples = self._emit_temporal(iteration)
            feed = Feed(iteration, losses, samples, time.perf_counter() - tick)
            self.trainer.last_feed = feed
        self._samples_emitted += feed.samples
        return list(feed.losses)

    def finalize(self) -> Optional[float]:
        """Flush a trailing partial mini-batch after collection ends.

        A shared trainer is flushed once: every later subscriber gets
        the same final loss.
        """
        feed = self.trainer.last_feed
        if feed is None:
            feed = self.trainer.last_feed = Feed(None, [], 0, 0.0)
        if feed.flush is None:
            tick = time.perf_counter()
            loss = self.trainer.finalize()
            feed.flush = (loss, time.perf_counter() - tick)
        else:
            self.replayed_seconds += feed.flush[1]
        return feed.flush[0]

    # ------------------------------------------------------------------

    def _emit_spatial(
        self, iteration: int, row: np.ndarray
    ) -> Tuple[List[float], int]:
        lagged = self.store.row_at(iteration - self.lag)
        if lagged is None:
            return [], 0
        # Features ordered nearest-first.  With include_self the window
        # is V(l), V(l-1), ..., V(l-n+1) at the lagged time; without it,
        # the strict predecessors V(l-1), ..., V(l-n).
        first = self.first_target_offset
        n_targets = row.shape[0] - first
        if n_targets <= 0:
            return [], 0
        shift = 1 if self.include_self else 0
        windows = np.lib.stride_tricks.sliding_window_view(lagged, self.order)
        features = windows[first - self.order + shift: first - self.order
                           + shift + n_targets, ::-1]
        targets = row[first:]
        return self.trainer.push_block(features, targets), n_targets

    @property
    def first_target_offset(self) -> int:
        """Index into the spatial window of the first predictable target."""
        if self.axis != "space":
            return 0
        return self.order - 1 if self.include_self else self.order

    def _emit_temporal(self, iteration: int) -> Tuple[List[float], int]:
        # Index of the row exactly `lag` iterations before the target.
        lag_rows = self.lag // self.temporal.step
        n = len(self.store)
        anchor = n - 1 - lag_rows
        if anchor - (self.order - 1) < 0:
            return [], 0
        # A sample built across an adaptive-cadence gap would pair
        # features at the wrong lag (see SeriesStore.lag_exact).
        if not self.store.lag_exact(
            n - 1,
            lag_rows=lag_rows,
            order=self.order,
            step=self.temporal.step,
        ):
            return [], 0
        # Every location emits one sample: its `order` most recent
        # predecessors ending at the anchor row (most recent first)
        # predicting its value in the newest row.  One push_block over
        # all columns replaces the per-location push loop — O(order)
        # rows are touched, independent of history length.  The feature
        # windows are a zero-copy strided view of the store.
        features = kernels.temporal_features(
            self.store.matrix(), anchor, self.order
        )
        targets = self.store.row(n - 1)
        return self.trainer.push_block(features, targets), targets.shape[0]
