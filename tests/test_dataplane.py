"""Equivalence tests for the vectorized data plane.

The batch provider protocol, the preallocated SeriesStore and Chan's
batched normalisation statistics must all be drop-in replacements for
the scalar seed implementation: identical collected rows, identical
emitted samples, identical fits (within 1e-9), identical error
behaviour.
"""

import pickle

import numpy as np
import pytest

from repro.core.ar_model import ARModel, RunningStats
from repro.core.collector import DataCollector, SeriesStore
from repro.core.minibatch import MiniBatchTrainer
from repro.core.params import IterParam
from repro.core.providers import (
    array_provider,
    attribute_provider,
    batch_sample,
    batched,
    checked,
    provider_key,
    scalar_provider,
)
from repro.engine.collection import SharedCollector
from repro.errors import CollectionError


class _RecordingModel:
    def __init__(self):
        self.samples = []

    def partial_fit(self, x, y):
        for row, target in zip(np.atleast_2d(x), np.ravel(y)):
            self.samples.append((row.copy(), float(target)))
        return 0.0


class _ArrayDomain:
    def __init__(self, row):
        self.row = np.asarray(row, dtype=np.float64)
        self.pressure = 3.5


def _scalar(domain, loc):
    return float(domain.row[loc])


def _collector(provider, *, order=2, axis="space", spatial=(0, 5, 1),
               temporal=(1, 50, 1), capacity=4, store=None):
    model = _RecordingModel()
    trainer = MiniBatchTrainer(model, capacity=capacity, n_features=order)
    collector = DataCollector(
        provider,
        IterParam(*spatial),
        IterParam(*temporal),
        trainer,
        lag=1,
        axis=axis,
        store=store,
    )
    return collector, model


class TestBatchSample:
    def test_scalar_fallback_matches_batch(self):
        domain = _ArrayDomain(np.arange(8.0) * 1.5)
        locations = np.array([1, 3, 4], dtype=np.int64)
        scalar_values = batch_sample(_scalar, domain, locations)
        batch = batched(_scalar, lambda d, locs: d.row[locs])
        batch_values = batch_sample(batch, domain, locations)
        np.testing.assert_array_equal(scalar_values, batch_values)

    def test_wrong_shape_from_batch_raises(self):
        bad = batched(_scalar, lambda d, locs: d.row[locs][:-1])
        with pytest.raises(CollectionError):
            batch_sample(bad, _ArrayDomain(np.arange(6.0)), np.arange(3))

    def test_loop_adapter_without_custom_batch(self):
        wrapped = batched(_scalar)
        domain = _ArrayDomain([4.0, 5.0, 6.0])
        np.testing.assert_array_equal(
            batch_sample(wrapped, domain, np.array([2, 0])), [6.0, 4.0]
        )

    def test_batched_preserves_inner_batch_path(self):
        calls = {"batch": 0}

        def inner_batch(domain, locations):
            calls["batch"] += 1
            return domain.row[locations]

        inner = batched(_scalar, inner_batch)
        rewrapped = batched(inner)  # no explicit batch fn
        domain = _ArrayDomain(np.arange(5.0))
        np.testing.assert_array_equal(
            batch_sample(rewrapped, domain, np.array([3, 1])), [3.0, 1.0]
        )
        assert calls["batch"] == 1  # inner vectorized path, not a loop

    def test_builtin_providers_scalar_batch_agree(self):
        domain = _ArrayDomain(np.linspace(0.0, 2.0, 9))
        locations = np.array([0, 4, 8])
        for provider in (
            array_provider(np.linspace(-1.0, 1.0, 9)),
            attribute_provider("row"),
            scalar_provider("pressure"),
        ):
            expected = np.array(
                [provider(domain, int(loc)) for loc in locations]
            )
            np.testing.assert_array_equal(
                provider.batch(domain, locations), expected
            )

    def test_scalar_provider_pickles(self):
        # The multiprocessing backend ships it to worker ranks.
        domain = _ArrayDomain(np.zeros(3))
        provider = pickle.loads(pickle.dumps(scalar_provider("pressure")))
        assert provider(domain, 0) == 3.5
        np.testing.assert_array_equal(
            provider.batch(domain, np.array([0, 0])), [3.5, 3.5]
        )

    def test_checked_batch_flags_offending_location(self):
        values = np.array([1.0, np.inf, 2.0])
        provider = checked(array_provider(values), name="velocity")
        with pytest.raises(CollectionError, match="location 1"):
            batch_sample(provider, None, np.array([0, 1, 2]))
        np.testing.assert_array_equal(
            batch_sample(provider, None, np.array([0, 2])), [1.0, 2.0]
        )

    def test_provider_key_unwraps_wrappers(self):
        assert provider_key(checked(_scalar)) is _scalar
        assert provider_key(batched(_scalar)) is _scalar
        assert provider_key(checked(batched(_scalar))) is _scalar
        assert provider_key(_scalar) is _scalar


class TestCollectorEquivalence:
    def _run(self, provider, axis):
        spatial = (0, 9, 1)
        collector, model = _collector(provider, axis=axis, spatial=spatial)
        rng = np.random.default_rng(3)
        for iteration in range(1, 13):
            row = np.cumsum(rng.standard_normal(10)) + 5.0
            rng_domain = _ArrayDomain(row)
            collector.observe(rng_domain, iteration)
        return collector, model

    @pytest.mark.parametrize("axis", ["space", "time"])
    def test_scalar_and_batch_paths_identical(self, axis):
        batch = batched(_scalar, lambda d, locs: d.row[locs])
        scalar_collector, scalar_model = self._run(_scalar, axis)
        batch_collector, batch_model = self._run(batch, axis)
        np.testing.assert_array_equal(
            scalar_collector.store.matrix(), batch_collector.store.matrix()
        )
        assert len(scalar_model.samples) == len(batch_model.samples)
        for (fa, ta), (fb, tb) in zip(
            scalar_model.samples, batch_model.samples
        ):
            np.testing.assert_array_equal(fa, fb)
            assert ta == tb

    def test_temporal_block_ordering_matches_per_column(self):
        # Multi-location time-axis emission: one sample per column, in
        # column order, features most-recent-first — the contract the
        # per-column seed loop provided.
        collector, model = _collector(
            _scalar, axis="time", spatial=(0, 2, 1), capacity=1
        )
        rows = [np.array([1.0, 10.0, 100.0]) * k for k in range(1, 5)]
        for iteration, row in enumerate(rows, start=1):
            collector.observe(_ArrayDomain(row), iteration)
        # First emission at iteration 3: targets rows[2], anchor rows[1].
        assert len(model.samples) == 6
        features, target = model.samples[0]
        np.testing.assert_array_equal(features, [2.0, 1.0])
        assert target == 3.0
        features, target = model.samples[1]
        np.testing.assert_array_equal(features, [20.0, 10.0])
        assert target == 30.0


class TestGrownStore:
    def test_growth_preserves_content_and_errors(self):
        store = SeriesStore(np.array([0, 1, 2]), capacity=2)
        rows = [np.array([1.0, 2.0, 3.0]) * k for k in range(1, 8)]
        for iteration, row in enumerate(rows, start=1):
            store.add_row(iteration * 2, row)
        assert len(store) == 7
        np.testing.assert_array_equal(store.matrix(), np.vstack(rows))
        np.testing.assert_array_equal(
            store.iterations, [2, 4, 6, 8, 10, 12, 14]
        )
        np.testing.assert_array_equal(store.row_at(10), rows[4])
        assert store.row_at(11) is None
        # Error behaviour survives growth:
        with pytest.raises(CollectionError):  # non-monotonic iteration
            store.add_row(14, rows[0])
        with pytest.raises(CollectionError):  # shape mismatch
            store.add_row(99, np.array([1.0, 2.0]))
        with pytest.raises(CollectionError):  # unknown location
            store.series(77)
        iters, series = store.series(1)
        np.testing.assert_array_equal(iters, store.iterations)
        np.testing.assert_array_equal(series, [2.0 * k for k in range(1, 8)])

    def test_views_are_zero_copy_and_read_only(self):
        store = SeriesStore(np.array([0, 1]), capacity=4)
        store.add_row(1, np.array([1.0, 2.0]))
        store.add_row(2, np.array([3.0, 4.0]))
        matrix = store.matrix()
        assert matrix.base is not None  # a view, not a stacked copy
        with pytest.raises(ValueError):
            matrix[0, 0] = 99.0
        with pytest.raises(ValueError):
            store.last_row()[0] = 99.0
        with pytest.raises(ValueError):
            store.iterations[0] = 99

    def test_row_index_bounds(self):
        store = SeriesStore(np.array([0]), capacity=1)
        with pytest.raises(IndexError):
            store.row(0)
        store.add_row(1, np.array([5.0]))
        np.testing.assert_array_equal(store.row(-1), [5.0])
        with pytest.raises(IndexError):
            store.row(1)


class TestSharedReuse:
    def test_each_location_iteration_sampled_once(self):
        calls = {"batch": 0, "scalar": 0}

        def provider(domain, loc):
            calls["scalar"] += 1
            return float(domain.row[loc])

        def batch(domain, locations):
            calls["batch"] += 1
            return domain.row[locations]

        provider.batch = batch
        store = SeriesStore(IterParam(0, 5, 1).indices(), capacity=8)
        first, model_a = _collector(provider, store=store)
        second, model_b = _collector(provider, store=store)
        domain = _ArrayDomain(np.arange(6.0))
        for iteration in (1, 2, 3):
            first.observe(domain, iteration)
            second.observe(domain, iteration)
        assert calls == {"batch": 3, "scalar": 0}
        assert len(store) == 3
        assert first.rows_ingested == second.rows_ingested == 3
        assert len(model_a.samples) == len(model_b.samples)

    def test_grouping_unwraps_checked_providers(self):
        class _Holder:
            def __init__(self, collector):
                self.collector = collector

        bare, _ = _collector(_scalar)
        wrapped, _ = _collector(checked(_scalar))
        holder = _Holder(wrapped)
        shared = SharedCollector()
        assert shared.subscribe(_Holder(bare))
        assert shared.subscribe(holder)
        assert shared.n_groups == 1
        assert wrapped.store is bare.store
        # Without a cohort_key a subscriber is nobody's twin.
        assert holder.collector is wrapped


class _WelfordStats(RunningStats):
    """Seed per-row Welford recurrence, kept as the pinning reference."""

    def update(self, rows):
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        for row in rows:
            self.count += 1
            delta = row - self._mean
            self._mean += delta / self.count
            self._m2 += delta * (row - self._mean)
        self._std_cache = None


class TestBlockTraining:
    def test_chan_merge_matches_welford(self):
        rng = np.random.default_rng(11)
        chan = RunningStats(4)
        welford = _WelfordStats(4)
        for size in (1, 3, 16, 1, 64, 7):
            block = 1e3 * rng.standard_normal((size, 4)) + 50.0
            chan.update(block)
            welford.update(block)
        assert chan.count == welford.count
        np.testing.assert_allclose(chan.mean, welford.mean, rtol=1e-12)
        np.testing.assert_allclose(chan.std, welford.std, rtol=1e-12)

    def test_empty_block_is_noop(self):
        stats = RunningStats(2)
        stats.update(np.empty((0, 2)))
        assert stats.count == 0

    def test_fit_pinned_against_scalar_implementation(self):
        # The acceptance criterion: AR coefficients trained through the
        # block (Chan) statistics match the scalar-Welford fit ≤ 1e-9.
        rng = np.random.default_rng(5)
        chan_model = ARModel(3, lag=1, seed=2)
        scalar_model = ARModel(3, lag=1, seed=2)
        scalar_model._x_stats = _WelfordStats(3)
        scalar_model._y_stats = _WelfordStats(1)
        series = np.cumsum(rng.standard_normal(600)) + 100.0
        features = np.stack(
            [series[i - 3: i][::-1] for i in range(3, len(series))]
        )
        targets = series[3:]
        for start in range(0, len(targets) - 32, 32):
            x = features[start: start + 32]
            y = targets[start: start + 32]
            loss_a = chan_model.partial_fit(x, y)
            loss_b = scalar_model.partial_fit(x, y)
            assert abs(loss_a - loss_b) <= 1e-9
        np.testing.assert_allclose(
            chan_model.coefficients,
            scalar_model.coefficients,
            atol=1e-9,
            rtol=0,
        )
        assert abs(chan_model.intercept - scalar_model.intercept) <= 1e-9

    def test_empty_push_is_a_noop(self):
        trainer = MiniBatchTrainer(_RecordingModel(), 4, 2)
        assert trainer.push_block([], []) == []
        assert trainer.samples_seen == 0
