"""Tests for repro.analysis (metrics, I/O model, post-hoc baseline) and
repro.instrument (overhead arithmetic)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    PostHocAnalyzer,
    StorageModel,
    accuracy,
    error_rate,
    relative_difference,
    rmse,
    snapshot_bytes,
)
from repro.errors import ConfigurationError
from repro.instrument import (
    acceleration_percent,
    overhead_percent,
    share_percent,
)


class TestMetrics:
    def test_error_rate_zero_for_perfect_fit(self):
        series = np.array([1.0, -2.0, 3.0])
        assert error_rate(series, series) == 0.0

    def test_error_rate_unbounded_above(self):
        # The paper's 267% overfit cell is representable.
        assert error_rate([10.0], [1.0]) == pytest.approx(900.0)

    def test_error_rate_zero_signal(self):
        assert error_rate([1.0, 1.0], [0.0, 0.0]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            error_rate([1.0, 2.0], [1.0])
        with pytest.raises(ConfigurationError):
            error_rate([], [])

    def test_accuracy_complements_error(self):
        assert accuracy([1.0, 1.0], [1.0, 2.0]) == pytest.approx(
            100.0 - error_rate([1.0, 1.0], [1.0, 2.0])
        )

    def test_accuracy_floored_at_zero(self):
        assert accuracy([100.0], [1.0]) == 0.0

    def test_relative_difference_convention(self):
        diff, pct = relative_difference(30.84, 31.24)
        assert diff == pytest.approx(-0.40, abs=0.01)
        assert pct == pytest.approx(-1.28, abs=0.02)

    def test_relative_difference_zero_truth(self):
        diff, pct = relative_difference(1.0, 0.0)
        assert diff == 1.0
        assert pct == float("inf")

    def test_rmse(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
    )
    @settings(max_examples=40)
    def test_property_error_rate_of_self_is_zero(self, values):
        assert error_rate(values, values) == 0.0


class TestStorageModel:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StorageModel(write_bandwidth=0)
        with pytest.raises(ConfigurationError):
            StorageModel(op_latency=-1)

    def test_write_time_components(self):
        model = StorageModel(
            write_bandwidth=1e9, read_bandwidth=1e9, op_latency=1e-3
        )
        assert model.write_time(1e9, n_ops=2) == pytest.approx(1.002)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            StorageModel().write_time(-1)

    def test_snapshot_bytes(self):
        assert snapshot_bytes(1000, 4) == 32000
        with pytest.raises(ConfigurationError):
            snapshot_bytes(0, 4)


class TestPostHoc:
    def test_io_cost_scales_with_snapshots(self):
        analyzer = PostHocAnalyzer()
        small = analyzer.io_cost(10, 27_000, 4)
        big = analyzer.io_cost(100, 27_000, 4)
        assert big.total_seconds > small.total_seconds
        assert big.bytes_written == 10 * small.bytes_written

    def test_io_cost_validation(self):
        with pytest.raises(ConfigurationError):
            PostHocAnalyzer().io_cost(0, 100, 1)

    def test_break_point_from_full_history(self):
        history = np.array(
            [[10.0, 5.0, 1.0, 0.1], [8.0, 6.0, 2.0, 0.2]]
        )
        feature = PostHocAnalyzer().break_point(
            history, [1, 2, 3, 4], threshold=0.1, reference_value=10.0,
            max_location=30,
        )
        # cut = 1.0; peaks [10, 6, 2, 0.2] -> last above at location 3.
        assert feature.radius == 3
        assert feature.source == "simulation"

    def test_delay_times_per_variable(self):
        times = np.arange(50.0)
        series = np.concatenate([np.zeros(25), np.arange(0, 12.5, 0.5)])
        out = PostHocAnalyzer().delay_times(
            times, {"temperature": series}, smooth_window=1
        )
        assert out["temperature"].delay_time == pytest.approx(25.0, abs=3.0)


class TestOverheadMath:
    def test_overhead_percent(self):
        assert overhead_percent(100.0, 103.0) == pytest.approx(3.0)

    def test_acceleration_percent(self):
        assert acceleration_percent(100.0, 40.0) == pytest.approx(60.0)

    def test_share_percent(self):
        assert share_percent(40.0, 100.0) == pytest.approx(40.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            overhead_percent(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            acceleration_percent(-1.0, 1.0)
        with pytest.raises(ConfigurationError):
            share_percent(1.0, 0.0)
