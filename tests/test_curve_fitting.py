"""Tests for repro.core.curve_fitting (the Curve_Fitting analysis)."""

import numpy as np
import pytest

from repro.core.curve_fitting import CurveFitting, evaluate_spatial_history
from repro.core.params import IterParam
from repro.core.region import Region
from repro.engine import ReplayApp
from repro.errors import ConfigurationError, NotTrainedError


class _WaveDomain:
    """Synthetic travelling wave: V(l, t) = exp(-(l - c*t)^2 / w)."""

    def __init__(self, n_locations=20, speed=0.05, width=8.0):
        self.n = n_locations
        self.speed = speed
        self.width = width
        self.t = 0

    def value(self, loc):
        x = loc - self.speed * self.t
        return float(np.exp(-(x**2) / self.width))

    def history(self, iterations):
        out = np.zeros((iterations, self.n))
        for t in range(iterations):
            self.t = t + 1
            out[t] = [self.value(loc) for loc in range(self.n)]
        return out


def _provider(domain, loc):
    return domain.value(loc)


def _run_wave_analysis(iterations=120, axis="space", **kwargs):
    domain = _WaveDomain()
    kwargs.setdefault("order", 3)
    kwargs.setdefault("lag", 2)
    kwargs.setdefault("batch_size", 8)
    analysis = CurveFitting(
        _provider,
        IterParam(0, 12, 1) if axis == "space" else IterParam(0, 0, 1),
        IterParam(1, iterations, 1),
        axis=axis,
        **kwargs,
    )
    region = Region(domain=domain)
    region.add_analysis(analysis)
    for _ in range(iterations):
        region.begin()
        domain.t = region.iteration
        region.end()
    return analysis, domain


class TestConstruction:
    def test_threshold_requires_reference(self):
        with pytest.raises(ConfigurationError):
            CurveFitting(
                _provider, (0, 5, 1), (1, 10, 1), threshold=0.1
            )

    def test_lag_defaults_to_temporal_step(self):
        analysis = CurveFitting(_provider, (0, 5, 1), (2, 20, 2))
        assert analysis.model.lag == 2


class TestTrainingFlow:
    def test_trains_during_iterations(self):
        analysis, _ = _run_wave_analysis()
        assert analysis.trainer.updates > 5
        assert analysis.model.is_trained

    def test_finalizes_once_window_done(self):
        analysis, _ = _run_wave_analysis(iterations=60)
        assert analysis._finalized
        summary = analysis.summary()
        assert summary.samples_collected > 0
        assert summary.updates == analysis.trainer.updates

    def test_fit_error_is_small_on_learnable_wave(self):
        analysis, _ = _run_wave_analysis()
        assert analysis.fit_error() < 20.0

    def test_predicted_vs_real_shapes(self):
        analysis, _ = _run_wave_analysis()
        iters, pred, real = analysis.predicted_vs_real()
        assert pred.shape == real.shape
        assert len(iters) == pred.shape[0]

    def test_predicted_vs_real_single_location(self):
        analysis, _ = _run_wave_analysis()
        _, pred, real = analysis.predicted_vs_real(location=10)
        assert pred.ndim == 1

    def test_unknown_location_rejected(self):
        analysis, _ = _run_wave_analysis()
        with pytest.raises(ConfigurationError):
            analysis.predicted_vs_real(location=99)

    def test_untrained_evaluation_raises(self):
        analysis = CurveFitting(_provider, (0, 5, 1), (1, 10, 1))
        with pytest.raises(NotTrainedError):
            analysis.fit_error()


def _predicted_vs_real_loop(analysis, location=None):
    """``CurveFitting.predicted_vs_real`` as one call per row, the way it
    was written before its row pairing was vectorised."""
    store = analysis.collector.store
    matrix = store.matrix()
    order = analysis.model.order
    step = analysis.collector.temporal.step
    lag_rows = analysis.model.lag // step
    if analysis.axis == "time":
        loc = int(store.locations[0]) if location is None else location
        iters, series = store.series(loc)
        start = order - 1 + lag_rows
        valid = [
            i
            for i in range(start, series.size)
            if store.lag_exact(i, lag_rows=lag_rows, order=order, step=step)
        ]
        features = np.stack(
            [
                series[i - lag_rows - order + 1: i - lag_rows + 1][::-1]
                for i in valid
            ]
        )
        predicted = analysis.model.predict_many(features)
        return iters[valid], predicted, series[valid]
    first = analysis.collector.first_target_offset
    rows_pred, rows_real, kept_iters = [], [], []
    for i in range(lag_rows, matrix.shape[0]):
        if not store.lag_exact(i, lag_rows=lag_rows, order=1, step=step):
            continue
        lagged = matrix[i - lag_rows]
        features = np.stack(
            [
                (
                    lagged[j - order + 1: j + 1][::-1]
                    if analysis.include_self
                    else lagged[j - order: j][::-1]
                )
                for j in range(first, matrix.shape[1])
            ]
        )
        rows_pred.append(analysis.model.predict_many(features))
        rows_real.append(matrix[i, first:])
        kept_iters.append(store.iterations[i])
    predicted, real = np.stack(rows_pred), np.stack(rows_real)
    if location is not None:
        sel = np.where(store.locations[first:] == location)[0][0]
        predicted, real = predicted[:, sel], real[:, sel]
    return np.asarray(kept_iters), predicted, real


class TestPredictedVsRealPairing:
    """The vectorised row pairing against the one-call-per-row loop, on
    stores with cadence gaps, so the lag-exact mask drops rows."""

    GATED_OFF = {9, 10, 11, 24, 31, 32}

    def _run(self, axis, lag, step, include_self):
        t = np.arange(1, 61, dtype=np.float64)[:, None]
        x = np.arange(12, dtype=np.float64)[None, :]
        history = np.sin(0.07 * t - 0.4 * x) + 0.02 * x + 1.5
        analysis = CurveFitting(
            ReplayApp.provider,
            (0, 11, 1) if axis == "space" else (2, 5, 1),
            (1, 60, step),
            axis=axis,
            order=3,
            lag=lag * step,
            batch_size=4,
            include_self=include_self,
        )
        analysis.collector.cadence_gate = lambda it: it not in self.GATED_OFF
        app = ReplayApp(history)
        for iteration in range(1, 61):
            app.step()
            analysis.on_iteration(app.domain, iteration)
        return analysis

    @pytest.mark.parametrize("include_self", [False, True])
    @pytest.mark.parametrize("step", [1, 2])
    @pytest.mark.parametrize("lag", [1, 2])
    @pytest.mark.parametrize("axis", ["time", "space"])
    def test_matches_row_loop(self, monkeypatch, axis, lag, step, include_self):
        analysis = self._run(axis, lag, step, include_self)
        store = analysis.collector.store
        assert len(store) < 60 // step  # the gate left gaps
        shapes = []
        predict_many = analysis.model.predict_many
        monkeypatch.setattr(
            analysis.model,
            "predict_many",
            lambda past: shapes.append(np.shape(past)) or predict_many(past),
        )
        for location in (None, int(store.locations[-1])):
            shapes.clear()
            ours = analysis.predicted_vs_real(location)
            ours_shapes = list(shapes)
            shapes.clear()
            ref = _predicted_vs_real_loop(analysis, location)
            assert ours_shapes == shapes
            for a, b in zip(ours, ref):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
        lag_rows = analysis.model.lag // step
        for order in (1, 3, 60):  # 60: more than the store holds
            np.testing.assert_array_equal(
                store.lag_exact_rows(lag_rows=lag_rows, order=order, step=step),
                [
                    i
                    for i in range(len(store))
                    if store.lag_exact(
                        i, lag_rows=lag_rows, order=order, step=step
                    )
                ],
            )


class TestTimeAxis:
    def test_time_axis_one_step_tracking(self):
        analysis, _ = _run_wave_analysis(axis="time", iterations=100)
        iters, pred, real = analysis.predicted_vs_real()
        assert pred.shape == real.shape
        assert np.mean(np.abs(pred - real)) < 0.2

    def test_forecast_extends_series(self):
        analysis, _ = _run_wave_analysis(axis="time", iterations=100)
        out = analysis.forecast(0, 5)
        assert out.shape == (5,)
        assert np.all(np.isfinite(out))


class TestThresholdEvents:
    def test_events_emitted_on_crossing(self):
        analysis, _ = _run_wave_analysis(
            threshold=0.5, reference_value=1.0, iterations=100
        )
        events = analysis.threshold_events
        assert events
        assert all(abs(e.value) >= e.threshold_value for e in events)
        iterations = [e.iteration for e in events]
        assert all(a < b for a, b in zip(iterations, iterations[1:]))

    def test_no_events_above_unreachable_threshold(self):
        analysis, _ = _run_wave_analysis(
            threshold=50.0, reference_value=1.0, iterations=60
        )
        assert analysis.threshold_events == []


class TestPeakExtrapolation:
    def test_profile_extends_to_requested_location(self):
        analysis, _ = _run_wave_analysis()
        profile = analysis.extrapolate_peak_profile(19)
        assert profile.shape == (20,)
        assert np.all(profile >= 0.0)

    def test_profile_clip_inside_window(self):
        analysis, _ = _run_wave_analysis()
        profile = analysis.extrapolate_peak_profile(5)
        assert profile.shape == (6,)

    def test_break_point_requires_reference(self):
        analysis, _ = _run_wave_analysis()
        with pytest.raises(ConfigurationError):
            analysis.break_point(0.1, 19)

    def test_break_point_with_reference(self):
        analysis, _ = _run_wave_analysis(
            threshold=0.5, reference_value=1.0
        )
        radius = analysis.break_point(0.5, 19)
        assert 1 <= radius <= 19


class TestEarlyTermination:
    def test_requests_stop_once_converged_and_done(self):
        domain = _WaveDomain()
        analysis = CurveFitting(
            _provider,
            IterParam(0, 12, 1),
            IterParam(1, 60, 1),
            order=3,
            lag=2,
            batch_size=8,
            terminate_when_trained=True,
            accuracy_threshold=10.0,  # generous: converges quickly
            min_updates=3,
            monitor_window=3,
            monitor_patience=1,
        )
        region = Region(domain=domain)
        region.add_analysis(analysis)
        stopped_at = None
        for _ in range(100):
            region.begin()
            domain.t = region.iteration
            if not region.end():
                stopped_at = region.iteration
                break
        assert stopped_at is not None
        assert stopped_at <= 61


class TestEvaluateSpatialHistory:
    def test_alignment_on_exact_translation(self):
        domain = _WaveDomain()
        history = domain.history(100)
        analysis, _ = _run_wave_analysis()
        pred, real = evaluate_spatial_history(
            analysis.model, history, IterParam(0, 12, 1),
            include_self=True,
        )
        assert pred.shape == real.shape
        assert np.mean(np.abs(pred - real)) < 0.1

    def test_rejects_1d_history(self):
        analysis, _ = _run_wave_analysis()
        with pytest.raises(ConfigurationError):
            evaluate_spatial_history(
                analysis.model, np.zeros(10), IterParam(0, 5, 1)
            )

    def test_rejects_empty_window(self):
        analysis, _ = _run_wave_analysis()
        with pytest.raises(ConfigurationError):
            evaluate_spatial_history(
                analysis.model, np.zeros((10, 2)), IterParam(5, 6, 1)
            )
