"""Tests for repro.core.curve_fitting (the Curve_Fitting analysis)."""

import numpy as np
import pytest

from repro.core.curve_fitting import CurveFitting, evaluate_spatial_history
from repro.core.params import IterParam
from repro.core.region import Region
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
