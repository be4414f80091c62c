"""Tests for repro.core.ar_model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ar_model import ARModel, RunningStats
from repro.errors import ConfigurationError, NotTrainedError


class TestRunningStats:
    def test_width_validation(self):
        with pytest.raises(ConfigurationError):
            RunningStats(0)

    def test_single_sample_has_unit_std(self):
        stats = RunningStats(2)
        stats.update(np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(stats.std, [1.0, 1.0])

    @given(
        st.lists(
            st.floats(-1e6, 1e6).filter(lambda v: abs(v) > 1e-3),
            min_size=3,
            max_size=50,
        )
    )
    @settings(max_examples=50)
    def test_matches_numpy_moments(self, values):
        stats = RunningStats(1)
        stats.update(np.array(values).reshape(-1, 1))
        assert stats.mean[0] == pytest.approx(np.mean(values), rel=1e-9, abs=1e-9)
        expected = np.std(values, ddof=1)
        floor = 1e-3 * abs(np.mean(values)) + 1e-12
        assert stats.std[0] == pytest.approx(max(expected, floor), rel=1e-6)

    def test_std_floor_prevents_noise_amplification(self):
        # Near-constant data: std is floored relative to the mean.
        stats = RunningStats(1)
        rows = 100.0 + 1e-9 * np.arange(10)
        stats.update(rows.reshape(-1, 1))
        assert stats.std[0] >= 1e-3 * 100.0


class TestRunningStatsMerge:
    """Chan-merge edge cases the distributed reduction depends on."""

    def _filled(self, rows):
        stats = RunningStats(rows.shape[1])
        stats.update(rows)
        return stats

    def test_merge_empty_partial_is_identity(self):
        rows = np.arange(12.0).reshape(4, 3)
        stats = self._filled(rows)
        before_mean, before_std = stats.mean, stats.std
        stats.merge(RunningStats(3))
        assert stats.count == 4
        np.testing.assert_array_equal(stats.mean, before_mean)
        np.testing.assert_array_equal(stats.std, before_std)

    def test_merge_into_empty_copies_other(self):
        rows = np.arange(12.0).reshape(4, 3)
        other = self._filled(rows)
        stats = RunningStats(3)
        stats.merge(other)
        assert stats.count == 4
        np.testing.assert_array_equal(stats.mean, other.mean)
        np.testing.assert_array_equal(stats.std, other.std)
        # A copy, not an alias: updating the merged side must not
        # corrupt the source partial.
        stats.update(np.ones((1, 3)))
        assert other.count == 4

    def test_merge_of_empties_stays_empty(self):
        stats = RunningStats(2)
        stats.merge(RunningStats(2))
        assert stats.count == 0
        np.testing.assert_array_equal(stats.std, [1.0, 1.0])

    def test_single_row_partials_match_bulk_update(self):
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((17, 2)) * 3.0 + 1.0
        bulk = self._filled(rows)
        merged = RunningStats.merged(
            [self._filled(row.reshape(1, -1)) for row in rows]
        )
        assert merged.count == bulk.count
        np.testing.assert_allclose(
            merged.mean, bulk.mean, rtol=1e-12, atol=1e-15
        )
        np.testing.assert_allclose(
            merged.std, bulk.std, rtol=1e-12, atol=1e-15
        )

    @given(st.integers(0, 10), st.integers(0, 10), st.integers(1, 10))
    @settings(max_examples=40)
    def test_associativity_within_tolerance(self, n_a, n_b, n_c):
        rng = np.random.default_rng(n_a * 131 + n_b * 17 + n_c)
        blocks = [
            rng.standard_normal((n, 3)) * 2.0 + 0.5
            for n in (n_a, n_b, n_c)
        ]
        a1, b1, c1 = (self._filled(b) for b in blocks)
        a2, b2, c2 = (self._filled(b) for b in blocks)
        left = a1.merge(b1).merge(c1)
        right = a2.merge(b2.merge(c2))
        assert left.count == right.count
        np.testing.assert_allclose(
            left.mean, right.mean, rtol=1e-12, atol=1e-15
        )
        np.testing.assert_allclose(
            left._m2, right._m2, rtol=1e-12, atol=1e-15
        )

    def test_merge_equals_sequential_update(self):
        rng = np.random.default_rng(9)
        first, second = rng.standard_normal((6, 2)), rng.standard_normal((9, 2))
        sequential = RunningStats(2)
        sequential.update(first)
        sequential.update(second)
        merged = self._filled(first).merge(self._filled(second))
        np.testing.assert_allclose(
            merged.mean, sequential.mean, rtol=1e-12, atol=1e-15
        )
        np.testing.assert_allclose(
            merged.std, sequential.std, rtol=1e-12, atol=1e-15
        )

    def test_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            RunningStats(2).merge(RunningStats(3))

    def test_non_stats_rejected(self):
        with pytest.raises(ConfigurationError):
            RunningStats(2).merge(np.zeros(2))

    def test_merged_needs_at_least_one_partial(self):
        with pytest.raises(ConfigurationError):
            RunningStats.merged([])

    def test_model_exposes_mergeable_stats(self):
        model = ARModel(2)
        model.partial_fit(np.ones((4, 2)), np.ones(4))
        assert isinstance(model.x_stats, RunningStats)
        assert isinstance(model.y_stats, RunningStats)
        assert model.x_stats.count == 4
        assert model.y_stats.width == 1


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"order": 0},
            {"order": 3, "lag": 0},
            {"order": 3, "learning_rate": 0},
            {"order": 3, "epochs_per_batch": 0},
            {"order": 3, "l2": -1},
            {"order": 3, "max_coefficient_sum": 0},
        ],
    )
    def test_bad_constructor_args(self, kwargs):
        order = kwargs.pop("order")
        with pytest.raises(ConfigurationError):
            ARModel(order, **kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("order", float("nan")),
            ("lag", float("nan")),
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("epochs_per_batch", float("nan")),
            ("l2", float("nan")),
            ("l2", float("inf")),
            ("clip", float("nan")),
            ("clip", 0.0),
            ("max_coefficient_sum", float("nan")),
        ],
    )
    def test_nan_and_inf_hyperparameters_rejected(self, name, value):
        # Each would otherwise leave every coefficient NaN, or turn
        # clipping or the stationarity projection off, without an error.
        kwargs = {"order": 3, name: value}
        with pytest.raises(ConfigurationError, match=name):
            ARModel(kwargs.pop("order"), **kwargs)

    def test_predict_before_training_raises(self):
        with pytest.raises(NotTrainedError):
            ARModel(2).predict([1.0, 2.0])

    def test_wrong_feature_count_rejected(self):
        model = _trained_identity(order=2)
        with pytest.raises(ConfigurationError):
            model.predict([1.0])

    def test_mismatched_fit_shapes_rejected(self):
        model = ARModel(2)
        with pytest.raises(ConfigurationError):
            model.partial_fit(np.ones((4, 3)), np.ones(4))
        with pytest.raises(ConfigurationError):
            model.partial_fit(np.ones((4, 2)), np.ones(3))

    @pytest.mark.parametrize("trained", [False, True])
    def test_empty_batch_rejected_without_state_change(self, trained):
        model = _trained_identity(order=3) if trained else ARModel(3)
        before = (
            model._w.tobytes(), model._b, model.updates,
            model.x_stats.count, model.x_stats._mean.tobytes(),
            model.y_stats.count, model.y_stats._mean.tobytes(),
        )
        with pytest.raises(ConfigurationError, match="empty batch"):
            model.partial_fit(np.empty((0, 3)), np.empty(0))
        after = (
            model._w.tobytes(), model._b, model.updates,
            model.x_stats.count, model.x_stats._mean.tobytes(),
            model.y_stats.count, model.y_stats._mean.tobytes(),
        )
        assert after == before
        assert model.is_trained == trained


def _trained_identity(order=2, n=400, seed=1):
    """Model trained on y = x0 (persistence)."""
    rng = np.random.default_rng(seed)
    model = ARModel(order, learning_rate=0.1)
    for _ in range(n // 16):
        x = rng.normal(0, 1, (16, order))
        model.partial_fit(x, x[:, 0])
    return model


class TestTraining:
    def test_recovers_linear_relation(self):
        rng = np.random.default_rng(0)
        true_w = np.array([0.5, 0.3, 0.1])
        model = ARModel(3, learning_rate=0.1)
        for _ in range(400):
            x = rng.normal(0, 2, (16, 3))
            y = x @ true_w + 1.0 + rng.normal(0, 0.01, 16)
            model.partial_fit(x, y)
        np.testing.assert_allclose(model.coefficients, true_w, atol=0.02)
        assert model.intercept == pytest.approx(1.0, abs=0.05)

    def test_loss_decreases_on_stationary_problem(self):
        rng = np.random.default_rng(3)
        model = ARModel(2, learning_rate=0.1)
        losses = []
        for _ in range(60):
            x = rng.normal(0, 1, (16, 2))
            y = 2.0 * x[:, 0] - 1.0 * x[:, 1]
            losses.append(model.partial_fit(x, y))
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_fit_exact_matches_least_squares(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (200, 3))
        true_w = np.array([1.2, -0.4, 0.2])
        y = x @ true_w + 0.7
        model = ARModel(3)
        mse = model.fit_exact(x, y)
        assert mse < 1e-10
        np.testing.assert_allclose(model.coefficients, true_w, atol=1e-6)
        assert model.intercept == pytest.approx(0.7, abs=1e-6)

    def test_persistence_init_survives_constant_window(self):
        # Training on a flat series must not destroy persistence.
        model = ARModel(3, learning_rate=0.05)
        flat = np.full((16, 3), 5.0)
        for _ in range(10):
            model.partial_fit(flat, np.full(16, 5.0))
        # A later, larger value should still be predicted near itself.
        assert model.predict([50.0, 50.0, 50.0]) == pytest.approx(50.0, rel=0.1)

    def test_stationarity_projection_bounds_amplification(self):
        # Exponential growth window: without the projection the model
        # would lock into an explosive recursion.
        series = 0.05 * np.exp(0.05 * np.arange(60))
        model = ARModel(3, learning_rate=0.05)
        x = np.stack([series[i - 3: i][::-1] for i in range(3, len(series))])
        y = series[3:]
        for i in range(0, len(y) - 8, 8):
            model.partial_fit(x[i: i + 8], y[i: i + 8])
        assert float(np.sum(model.coefficients)) <= 1.2

    def test_updates_counter(self):
        model = ARModel(2)
        assert not model.is_trained
        model.partial_fit(np.ones((4, 2)), np.ones(4))
        assert model.is_trained
        assert model.updates == 1


def _fresh_original_scale(model):
    """Coefficients and intercept computed from the model's state now."""
    y_std = float(model.y_stats.std[0])
    coef = model._w * (y_std / model.x_stats.std)
    intercept = (
        float(model.y_stats.mean[0])
        + y_std * model._b
        - float(np.dot(coef, model.x_stats.mean))
    )
    return coef, intercept


class TestOriginalScaleMemo:
    """``coefficients`` and ``intercept`` are kept until the model
    changes; each writer of its state must drop them."""

    @staticmethod
    def _trained():
        rng = np.random.default_rng(11)
        series = np.cumsum(rng.standard_normal(120)) + 40.0
        x = np.stack([series[i - 3: i][::-1] for i in range(3, len(series))])
        model = ARModel(3, learning_rate=0.1)
        model.partial_fit(x[:16], series[3:19])
        return model, x, series[3:]

    @staticmethod
    def _assert_current(model):
        coef, intercept = _fresh_original_scale(model)
        assert model.coefficients.tobytes() == coef.tobytes()
        assert np.float64(model.intercept).tobytes() == np.float64(intercept).tobytes()

    def test_reused_until_the_model_changes(self):
        model, x, y = self._trained()
        coefficients = model.coefficients
        assert model.coefficients is coefficients
        assert not coefficients.flags.writeable
        model.partial_fit(x[16:32], y[16:32])
        assert model.coefficients is not coefficients
        self._assert_current(model)

    def test_fit_exact_refreshes(self):
        model, x, y = self._trained()
        before = model.coefficients.copy()
        model.fit_exact(x, y)
        assert not np.array_equal(model.coefficients, before)
        self._assert_current(model)


class TestPrediction:
    def test_predict_many_matches_predict(self):
        model = _trained_identity(order=3)
        rows = np.random.default_rng(7).normal(0, 1, (10, 3))
        batch = model.predict_many(rows)
        single = [model.predict(row) for row in rows]
        np.testing.assert_allclose(batch, single, rtol=1e-12)



class TestOneStepSeries:
    def test_indices_and_values_align(self):
        model = _trained_identity(order=2)
        series = np.arange(20, dtype=float)
        indices, predicted, real = model.one_step_series(series, stride=1)
        assert indices[0] == 2  # order-1 + lag_rows with lag 1
        np.testing.assert_array_equal(real, series[2:])
        assert predicted.shape == real.shape

    def test_stride_resamples(self):
        model = _trained_identity(order=2)
        series = np.arange(40, dtype=float)
        indices, predicted, real = model.one_step_series(series, stride=4)
        np.testing.assert_array_equal(real, series[::4][2:])
        assert set(np.diff(indices).tolist()) == {4}

    def test_short_series_rejected(self):
        model = _trained_identity(order=3)
        with pytest.raises(ConfigurationError):
            model.one_step_series([1.0, 2.0], stride=1)

    def test_bad_stride_rejected(self):
        model = _trained_identity(order=2)
        with pytest.raises(ConfigurationError):
            model.one_step_series(np.arange(10.0), stride=0)

    def test_persistence_tracks_smooth_series(self):
        model = _trained_identity(order=2)
        t = np.linspace(0, 4, 100)
        series = np.sin(t) + 2.0
        _, predicted, real = model.one_step_series(series, stride=1)
        assert np.mean(np.abs(predicted - real)) < 0.1
