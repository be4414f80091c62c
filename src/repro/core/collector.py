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

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernels
from repro.core.minibatch import MiniBatchTrainer
from repro.core.params import IterParam
from repro.core.providers import ProviderFn, batch_sample
from repro.errors import CollectionError, ConfigurationError


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array`` (no copy); its slices are too."""
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

    Threshold checks ask one question of the newest row:
    :meth:`reach_many` answers every threshold of a cohort with one
    binary search over one scan of the row, and analyses sharing the
    store share the scan too.  Other per-row results are kept the same
    way (:meth:`memo`): stores only grow, so the row count dates them.
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
        self._freeze()
        self._index: Dict[int, int] = {}
        # (row count, results computed from the first that many rows)
        self._memo: Tuple[int, Dict[object, object]] = (0, {})

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
        self._freeze()

    def _freeze(self) -> None:
        # Read-only views of the buffers: the accessors slice these, so
        # each returns a read-only view without setting a flag.
        self._rows = _read_only(self._data)
        self._iters = _read_only(self._iterations)

    @property
    def iterations(self) -> np.ndarray:
        return self._iters[: self._n]

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
        return self._rows[: self._n]

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

    def lag_exact_rows(
        self, *, lag_rows: int, order: int, step: int
    ) -> np.ndarray:
        """Indices of every row :meth:`lag_exact` accepts, ascending."""
        lo = lag_rows + order - 1
        n = max(self._n, lo)
        iters = self._iterations
        anchor = iters[order - 1: n - lag_rows]
        exact = (iters[lo:n] - anchor == lag_rows * step) & (
            anchor - iters[: n - lo] == (order - 1) * step
        )
        return exact.nonzero()[0] + lo

    def row_at(self, iteration: int) -> Optional[np.ndarray]:
        """Row collected at exactly ``iteration``, or None (O(1))."""
        idx = self._index.get(int(iteration))
        if idx is None:
            return None
        return self._rows[idx]

    def row(self, index: int) -> np.ndarray:
        """The ``index``-th collected row (supports negative indices)."""
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError(f"row index {index} out of range ({self._n} rows)")
        return self._rows[index]

    def last_row(self) -> Optional[np.ndarray]:
        """Most recently collected row, or None when empty."""
        return self._rows[self._n - 1] if self._n else None

    def memo(self, key: object, compute: Callable[[], object]) -> object:
        """``compute()``, kept under ``key`` until the next row arrives.

        For results that depend only on the rows collected so far:
        analyses sharing the store then compute each one once per row.
        """
        count, values = self._memo
        if count != self._n:
            values = {}
            self._memo = (self._n, values)
        if key not in values:
            values[key] = compute()
        return values[key]

    def _far_max(self) -> np.ndarray:
        return np.maximum.accumulate(np.abs(self._data[self._n - 1, ::-1]))

    def reach_many(self, cuts):
        """Per cut, the index of the farthest location in the newest row
        with |v| >= cut; -1 where none (or no row at all) reaches it.

        The first query after a row arrives takes the running maximum
        of |row| from the far end, which never decreases; every query
        then is one binary search over it, so any number of thresholds
        cost one scan of the row.  A scalar cut gives a scalar.
        """
        if not self._n:
            return np.full(np.shape(cuts), -1, dtype=np.intp)[()]
        far_max = self.memo("far_max", self._far_max)
        return np.subtract(far_max.shape[0] - 1, far_max.searchsorted(cuts))

    def column(self, location: int) -> int:
        """Column of ``location`` in the collected window."""
        cols = np.where(self.locations == location)[0]
        if cols.size == 0:
            raise CollectionError(
                f"location {location} is outside the collected window "
                f"{self.locations.tolist()}"
            )
        return int(cols[0])

    def series(self, location: int) -> Tuple[np.ndarray, np.ndarray]:
        """(iterations, values) time series of one location (views)."""
        return self.iterations, self._rows[: self._n, self.column(location)]

    def profile_at(self, iteration: int) -> np.ndarray:
        """Spatial profile (values over locations) at one collected step."""
        row = self.row_at(iteration)
        if row is None:
            raise CollectionError(f"iteration {iteration} was not collected")
        return row


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
        behaviour.  Analyses with identical training go further and
        share one collector, so they observe once between them.
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
        self._rows = 0
        self._samples = 0
        # The newest iteration this collector took in.
        self._last_iteration: Optional[int] = None
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

    @property
    def samples_emitted(self) -> int:
        """Number of AR training samples pushed into the trainer."""
        return self._samples

    @property
    def rows_ingested(self) -> int:
        """Rows THIS collector has processed (sampled or reused).

        With a shared store ``len(collector.store)`` counts rows
        collected by the whole group, so subclass hooks that need
        "did I just collect a sample?" must use this per-collector
        counter instead.
        """
        return self._rows

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
            and self._last_iteration != iteration
        ):
            # A collector sharing this store already sampled this
            # iteration; reuse the row instead of re-running the
            # provider over the window.  A second observe() of an
            # iteration this collector took in samples again, so
            # add_row below raises rather than emitting it twice.
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
        self._last_iteration = iteration
        self._rows += 1
        if self.axis == "space":
            losses, samples = self._emit_spatial(iteration, row)
        else:
            losses, samples = self._emit_temporal(iteration)
        self._samples += samples
        return losses

    def finalize(self) -> Optional[float]:
        """Flush a trailing partial mini-batch after collection ends."""
        return self.trainer.finalize()

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
        features = kernels.windows(lagged, self.order)[:n_targets]
        return self.trainer.push_block(features, row[first:]), n_targets

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
