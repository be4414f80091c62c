"""Tests for repro.core.collector (SeriesStore and DataCollector)."""

import numpy as np
import pytest

from repro.core.collector import DataCollector, SeriesStore
from repro.core.minibatch import MiniBatchTrainer
from repro.core.params import IterParam
from repro.errors import CollectionError, ConfigurationError


class _RecordingModel:
    """Stub capturing every (features, target) pair the trainer emits."""

    def __init__(self):
        self.samples = []

    def partial_fit(self, x, y):
        for row, target in zip(np.atleast_2d(x), np.ravel(y)):
            self.samples.append((row.copy(), float(target)))
        return 0.0


class _ArrayDomain:
    def __init__(self, row):
        self.row = row


def _provider(domain, loc):
    return float(domain.row[loc])


def _make_collector(order=2, capacity=1, spatial=(0, 5, 1), temporal=(1, 50, 1),
                    lag=1, axis="space", include_self=True):
    model = _RecordingModel()
    trainer = MiniBatchTrainer(model, capacity=capacity, n_features=order)
    collector = DataCollector(
        _provider,
        IterParam(*spatial),
        IterParam(*temporal),
        trainer,
        lag=lag,
        axis=axis,
        include_self=include_self,
    )
    return collector, model


class TestSeriesStore:
    def test_rows_must_arrive_in_order(self):
        store = SeriesStore(np.array([0, 1, 2]))
        store.add_row(5, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(CollectionError):
            store.add_row(5, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(CollectionError):
            store.add_row(3, np.array([1.0, 2.0, 3.0]))

    def test_row_shape_checked(self):
        store = SeriesStore(np.array([0, 1]))
        with pytest.raises(CollectionError):
            store.add_row(1, np.array([1.0, 2.0, 3.0]))

    def test_series_extraction(self):
        store = SeriesStore(np.array([3, 4]))
        store.add_row(1, np.array([1.0, 10.0]))
        store.add_row(2, np.array([2.0, 20.0]))
        iters, values = store.series(4)
        np.testing.assert_array_equal(iters, [1, 2])
        np.testing.assert_array_equal(values, [10.0, 20.0])

    def test_series_unknown_location_raises(self):
        store = SeriesStore(np.array([3, 4]))
        with pytest.raises(CollectionError):
            store.series(99)

    def test_profile_at(self):
        store = SeriesStore(np.array([0, 1]))
        store.add_row(7, np.array([5.0, 6.0]))
        np.testing.assert_array_equal(store.profile_at(7), [5.0, 6.0])
        with pytest.raises(CollectionError):
            store.profile_at(8)

    def test_row_access(self):
        store = SeriesStore(np.array([0]))
        assert store.last_row() is None
        store.add_row(1, np.array([2.0]))
        store.add_row(2, np.array([3.0]))
        np.testing.assert_array_equal(store.row(0), [2.0])
        np.testing.assert_array_equal(store.last_row(), [3.0])
        assert store.row_at(3) is None

    def test_empty_store_is_well_shaped(self):
        # Regression: a rank shard that never matched a temporal window
        # must feed the reducer a (0, width) matrix and a None last row,
        # not crash.
        store = SeriesStore(np.array([4, 5, 6]))
        assert len(store) == 0
        assert store.matrix().shape == (0, 3)
        assert not store.matrix().flags.writeable
        assert store.last_row() is None
        assert store.last_iteration is None
        assert store.iterations.shape == (0,)

    def test_empty_zero_location_store(self):
        store = SeriesStore(np.array([], dtype=np.int64))
        assert store.matrix().shape == (0, 0)
        assert store.last_row() is None
        store.add_row(1, np.array([]))
        assert store.matrix().shape == (1, 0)
        assert store.reach(0.0) is None

    def test_reach_matches_brute_force(self):
        rng = np.random.default_rng(3)
        store = SeriesStore(np.arange(7), capacity=1)
        assert store.reach(0.5) is None
        for iteration in range(1, 20):
            row = rng.normal(0.0, 1.0, 7)
            store.add_row(iteration, row)
            peak = float(np.abs(row).max())
            for cut in (-1.0, 0.0, 0.3, 1.0, peak, abs(row[2]), peak + 1.0):
                above = np.where(np.abs(row) >= cut)[0]
                expected = int(above.max()) if above.size else None
                assert store.reach(cut) == expected


class TestMergeShards:
    def _shard(self, locations, rows, iterations):
        store = SeriesStore(np.asarray(locations, dtype=np.int64))
        for iteration, row in zip(iterations, rows):
            store.add_row(iteration, np.asarray(row, dtype=np.float64))
        return store

    def test_round_trip_equals_full_store(self):
        rng = np.random.default_rng(2)
        matrix = rng.standard_normal((5, 7))
        iterations = [1, 3, 5, 7, 9]
        full = self._shard(np.arange(7), matrix, iterations)
        shards = [
            self._shard(np.arange(0, 3), matrix[:, 0:3], iterations),
            self._shard(np.arange(3, 6), matrix[:, 3:6], iterations),
            self._shard(np.arange(6, 7), matrix[:, 6:7], iterations),
        ]
        merged = SeriesStore.merge_shards(shards)
        np.testing.assert_array_equal(merged.matrix(), full.matrix())
        np.testing.assert_array_equal(merged.iterations, full.iterations)
        np.testing.assert_array_equal(merged.locations, full.locations)
        np.testing.assert_array_equal(merged.row_at(5), full.row_at(5))

    def test_empty_shards_merge(self):
        shards = [
            self._shard([0, 1], [], []),
            self._shard([], [], []),
            self._shard([2], [], []),
        ]
        merged = SeriesStore.merge_shards(shards)
        assert merged.matrix().shape == (0, 3)
        assert merged.last_row() is None

    def test_zero_location_shard_included(self):
        shards = [
            self._shard([0], [[1.0], [2.0]], [1, 2]),
            self._shard([], [[], []], [1, 2]),
        ]
        merged = SeriesStore.merge_shards(shards)
        assert merged.matrix().shape == (2, 1)

    def test_disagreeing_iterations_rejected(self):
        shards = [
            self._shard([0], [[1.0]], [1]),
            self._shard([1], [[2.0]], [2]),
        ]
        with pytest.raises(CollectionError):
            SeriesStore.merge_shards(shards)

    def test_no_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            SeriesStore.merge_shards([])

    def test_merged_store_accepts_new_rows(self):
        merged = SeriesStore.merge_shards(
            [self._shard([0], [[1.0]], [4]), self._shard([1], [[2.0]], [4])]
        )
        merged.add_row(6, np.array([3.0, 4.0]))
        np.testing.assert_array_equal(merged.row_at(6), [3.0, 4.0])
        np.testing.assert_array_equal(merged.iterations, [4, 6])


class TestValidation:
    def test_bad_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            _make_collector(axis="diagonal")

    def test_lag_must_align_with_step(self):
        with pytest.raises(ConfigurationError):
            _make_collector(temporal=(1, 50, 3), lag=5)

    def test_nonpositive_lag_rejected(self):
        with pytest.raises(ConfigurationError):
            _make_collector(lag=0)

    def test_spatial_window_must_fit_order(self):
        # include_self=False needs order+1 locations.
        with pytest.raises(ConfigurationError):
            _make_collector(order=3, spatial=(0, 2, 1), include_self=False)
        # include_self=True gets away with exactly `order` locations.
        collector, _ = _make_collector(order=3, spatial=(0, 2, 1))
        assert collector.order == 3

    def test_non_finite_sample_raises(self):
        collector, _ = _make_collector()
        domain = _ArrayDomain(np.array([1.0, np.nan, 2.0, 3.0, 4.0, 5.0]))
        with pytest.raises(CollectionError):
            collector.observe(domain, 1)


class TestSpatialEmission:
    def test_sample_alignment_include_self(self):
        collector, model = _make_collector(order=2, lag=1)
        row1 = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        row2 = row1 + 10.0
        collector.observe(_ArrayDomain(row1), 1)
        collector.observe(_ArrayDomain(row2), 2)
        # Targets at window offsets j >= order-1 = 1: locations 1..5.
        assert len(model.samples) == 5
        features, target = model.samples[0]
        # Target row2[1], features row1[1], row1[0] (nearest first).
        np.testing.assert_array_equal(features, [1.0, 0.0])
        assert target == 11.0

    def test_sample_alignment_strict_neighbours(self):
        collector, model = _make_collector(order=2, lag=1, include_self=False)
        row1 = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        row2 = row1 + 10.0
        collector.observe(_ArrayDomain(row1), 1)
        collector.observe(_ArrayDomain(row2), 2)
        # Targets at offsets j >= order = 2: locations 2..5.
        assert len(model.samples) == 4
        features, target = model.samples[0]
        np.testing.assert_array_equal(features, [1.0, 0.0])
        assert target == 12.0

    def test_lag_pairs_correct_rows(self):
        collector, model = _make_collector(order=2, lag=2)
        rows = [np.arange(6.0) + 100 * k for k in range(4)]
        for it, row in enumerate(rows, start=1):
            collector.observe(_ArrayDomain(row), it)
        # First emission at iteration 3 pairs with iteration 1.
        features, target = model.samples[0]
        np.testing.assert_array_equal(features, [1.0, 0.0])
        assert target == rows[2][1]

    def test_non_matching_iterations_skipped(self):
        collector, model = _make_collector(temporal=(5, 10, 1))
        domain = _ArrayDomain(np.arange(6.0))
        assert collector.observe(domain, 3) == []
        assert len(collector.store) == 0
        collector.observe(domain, 5)
        assert len(collector.store) == 1

    def test_done_flag(self):
        collector, _ = _make_collector(temporal=(1, 3, 1))
        domain = _ArrayDomain(np.arange(6.0))
        for it in (1, 2, 3):
            assert not collector.done or it == 3
            collector.observe(domain, it)
        assert collector.done

    def test_samples_emitted_counter(self):
        collector, model = _make_collector(order=2, lag=1)
        domain = _ArrayDomain(np.arange(6.0))
        collector.observe(domain, 1)
        collector.observe(domain, 2)
        assert collector.samples_emitted == len(model.samples)


class TestTemporalEmission:
    def test_single_location_series(self):
        collector, model = _make_collector(
            order=2, lag=1, spatial=(0, 0, 1), axis="time"
        )
        values = [1.0, 2.0, 4.0, 8.0, 16.0]
        for it, v in enumerate(values, start=1):
            collector.observe(_ArrayDomain(np.array([v])), it)
        # First sample possible at the 3rd observation:
        # target 4.0, features [2.0, 1.0].
        features, target = model.samples[0]
        np.testing.assert_array_equal(features, [2.0, 1.0])
        assert target == 4.0
        assert len(model.samples) == 3

    def test_temporal_with_stride_and_matching_lag(self):
        collector, model = _make_collector(
            order=2, lag=4, spatial=(0, 0, 1), axis="time",
            temporal=(2, 50, 2),
        )
        for it in range(1, 21):
            collector.observe(_ArrayDomain(np.array([float(it)])), it)
        # Collected at 2,4,6,...; lag 4 = 2 strided rows back.
        features, target = model.samples[0]
        assert target == features[0] + 4.0
        assert features[0] == features[1] + 2.0

    def test_first_target_offset_time_axis(self):
        collector, _ = _make_collector(spatial=(0, 0, 1), axis="time")
        assert collector.first_target_offset == 0
