"""One implementation per AR step, pinned to the code it replaced.

Every AR feature window is built by ``kernels.windows`` or
``kernels.temporal_features``, every roll-forward goes through
``ar_model.Forecast`` and every prediction through
``ARModel.predict_many``.  Each rewritten builder is compared here, on
random stores, with a frozen copy of the expression it replaced: the
windows themselves, and the bits ``predict_many`` returns on them.
"""

from collections import deque

import numpy as np
import pytest

from repro.core import kernels
from repro.core.ar_model import ARModel, Forecast, RunningStats
from repro.core.curve_fitting import CurveFitting, evaluate_spatial_history
from repro.core.thresholds import peak_profile
from repro.engine import InSituEngine, ReplayApp
from repro.errors import CollectionError, ConfigurationError, NotTrainedError
from tests.test_ar_model import _trained_identity

#: Iterations a cadence gate skips: the gaps an adaptive-cadence
#: snap-back leaves in the collected history.
GATED_OFF = {9, 10, 11, 24, 31, 32}


# -- frozen references -------------------------------------------------


def _frozen_predict_many(model, past):
    """``ARModel.predict_many`` before it copied its input to C order."""
    rows = np.atleast_2d(np.asarray(past, dtype=np.float64))
    xs = (rows - model.x_stats.mean) / model.x_stats.std
    ys = xs @ model._w + model._b
    return ys * float(model.y_stats.std[0]) + float(model.y_stats.mean[0])


def _frozen_predict(model, past):
    """``ARModel.predict`` before it became a one-row ``predict_many``."""
    row = np.asarray(past, dtype=np.float64)
    xs = (row - model.x_stats.mean) / model.x_stats.std
    ys = float(np.dot(xs, model._w) + model._b)
    return ys * float(model.y_stats.std[0]) + float(model.y_stats.mean[0])


def _frozen_spatial_windows(lagged, order, first, include_self):
    """``DataCollector._emit_spatial``'s windows before ``kernels.windows``."""
    n_targets = lagged.shape[0] - first
    shift = 1 if include_self else 0
    windows = np.lib.stride_tricks.sliding_window_view(lagged, order)
    return windows[
        first - order + shift: first - order + shift + n_targets, ::-1
    ]


class _FrozenForecastState:
    """``engine/cadence._ForecastState`` before ``ar_model.Forecast``."""

    def __init__(self, analysis):
        collector = analysis.collector
        store = collector.store
        self.model = analysis.model
        self.axis = collector.axis
        self.order = collector.order
        self.include_self = collector.include_self
        self.step = collector.temporal.step
        self.lag_rows = collector.lag // self.step
        self.first = collector.first_target_offset
        if self.axis == "time":
            depth = self.lag_rows + self.order
        else:
            depth = self.lag_rows
        self.seedable = len(store) >= depth and np.all(
            np.diff(store.iterations[-depth:]) == self.step
        )
        self.rows = deque(store.matrix()[-depth:].copy(), maxlen=depth)

    def next_row(self):
        rows = self.rows
        if self.axis == "time":
            features = np.stack(
                [rows[-(self.lag_rows + k)] for k in range(self.order)],
                axis=1,
            )
            row = _frozen_predict_many(self.model, features)
        else:
            lagged = rows[-self.lag_rows]
            windows = np.lib.stride_tricks.sliding_window_view(
                lagged, self.order
            )
            shift = 1 if self.include_self else 0
            n_targets = lagged.shape[0] - self.first
            features = windows[
                self.first - self.order + shift:
                self.first - self.order + shift + n_targets, ::-1
            ]
            row = np.array(lagged, dtype=np.float64, copy=True)
            row[self.first:] = _frozen_predict_many(self.model, features)
        self.rows.append(row)
        return row


# -- helpers -----------------------------------------------------------


def _history(seed, n_iterations=60, n_locations=12):
    rng = np.random.default_rng(seed)
    t = np.arange(1, n_iterations + 1, dtype=np.float64)[:, None]
    x = np.arange(n_locations, dtype=np.float64)[None, :]
    wave = np.sin(0.07 * t - 0.4 * x) + 0.02 * x + 1.5
    return wave + 0.05 * rng.standard_normal((n_iterations, n_locations))


def _analysis(axis, lag_rows, include_self, *, gaps=False, seed=0, step=1):
    """A trained analysis over a random store; ``events`` holds what
    ``on_iteration`` returned, ``pushed`` every trainer push."""
    analysis = CurveFitting(
        ReplayApp.provider,
        (0, 11, 1) if axis == "space" else (2, 5, 1),
        (1, 60, step),
        axis=axis,
        order=3,
        lag=lag_rows * step,
        batch_size=4,
        include_self=include_self,
        seed=seed,
    )
    if gaps:
        analysis.collector.cadence_gate = lambda it: it not in GATED_OFF
    analysis.pushed = []
    push_block = analysis.trainer.push_block

    def recording(features, targets):
        iteration = analysis.collector.store.last_iteration
        analysis.pushed.append((iteration, np.array(features)))
        return push_block(features, targets)

    analysis.trainer.push_block = recording
    app = ReplayApp(_history(seed))
    analysis.events = []
    for iteration in range(1, 61):
        app.step()
        analysis.events.append(analysis.on_iteration(app.domain, iteration))
    assert analysis.model.is_trained
    return analysis


def _recording(monkeypatch, model):
    """Record every ``predict_many`` call's input and output."""
    calls = []
    predict_many = model.predict_many

    def recording(past):
        out = predict_many(past)
        calls.append((np.array(past), out))
        return out

    monkeypatch.setattr(model, "predict_many", recording)
    return calls


def _assert_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _assert_calls(calls, windows, model):
    """Each call saw one reference window block, and returned the bits
    the reference prediction gives on it."""
    assert len(calls) == len(windows)
    for (seen, out), window in zip(calls, windows):
        _assert_bits(seen, window)
        _assert_bits(out, _frozen_predict_many(model, window))


STORES = [
    pytest.param(axis, lag_rows, include_self, gaps, id=(
        f"{axis}-lag{lag_rows}-{'self' if include_self else 'strict'}"
        f"{'-gaps' if gaps else ''}"
    ))
    for axis in ("space", "time")
    for lag_rows in (1, 2, 3)
    for include_self in (True, False)
    for gaps in (False, True)
    if axis == "space" or include_self
]


# -- feature windows ---------------------------------------------------


class TestWindows:
    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_windows_are_every_window_newest_first(self, order):
        values = np.random.default_rng(order).standard_normal((4, 9))
        out = kernels.windows(values, order)
        assert out.shape == (4, 10 - order, order)
        assert not out.flags.writeable
        assert np.shares_memory(out, values)
        expected = np.lib.stride_tricks.sliding_window_view(
            values, order, axis=-1
        )[..., ::-1]
        _assert_bits(out, expected)
        strided = values[:, ::2]
        _assert_bits(
            kernels.windows(strided, order),
            np.lib.stride_tricks.sliding_window_view(
                strided, order, axis=-1
            )[..., ::-1],
        )

    def test_too_short_gives_no_window(self):
        assert kernels.windows(np.ones(2), 3).shape == (0, 3)

    @pytest.mark.parametrize("axis, lag_rows, include_self, gaps", STORES)
    def test_emitter_windows(self, axis, lag_rows, include_self, gaps):
        analysis = _analysis(axis, lag_rows, include_self, gaps=gaps)
        collector = analysis.collector
        store = collector.store
        assert analysis.pushed
        for iteration, features in analysis.pushed:
            if axis == "space":
                lagged = store.row_at(iteration - collector.lag)
                expected = _frozen_spatial_windows(
                    lagged, 3, collector.first_target_offset, include_self
                )
            else:
                n = int(np.searchsorted(store.iterations, iteration)) + 1
                anchor = n - 1 - lag_rows
                expected = np.stack(
                    [store.row(anchor - k) for k in range(3)], axis=1
                )
            _assert_bits(features, expected)

    @pytest.mark.parametrize("axis, lag_rows, include_self, gaps", STORES)
    def test_predicted_vs_real(
        self, monkeypatch, axis, lag_rows, include_self, gaps
    ):
        analysis = _analysis(axis, lag_rows, include_self, gaps=gaps)
        model = analysis.model
        store = analysis.collector.store
        matrix = store.matrix()
        step = analysis.collector.temporal.step
        if axis == "space":
            first = analysis.collector.first_target_offset
            kept = store.lag_exact_rows(lag_rows=lag_rows, order=1, step=step)
            ends = np.arange(first, matrix.shape[1]) - (
                0 if include_self else 1
            )
            windows = matrix[
                (kept - lag_rows)[:, None, None], ends[:, None] - np.arange(3)
            ]
            iterations, real = store.iterations[kept], matrix[kept, first:]
        else:
            valid = store.lag_exact_rows(lag_rows=lag_rows, order=3, step=step)
            rows = (valid - lag_rows)[:, None] - np.arange(3)
            windows = [series[rows] for series in matrix.T]
            iterations = store.iterations[valid]
            real = [series[valid] for series in matrix.T]
        calls = _recording(monkeypatch, model)
        if axis == "space":
            ours = analysis.predicted_vs_real()
            predicted = np.stack(
                [_frozen_predict_many(model, w) for w in windows]
            )
        else:
            ours = analysis.time_pairs()
            predicted = [_frozen_predict_many(model, w) for w in windows]
        _assert_calls(calls, list(windows), model)
        for a, b in zip(ours, (iterations, predicted, real)):
            if isinstance(a, list):
                assert len(a) == len(b)
                for x, y in zip(a, b):
                    _assert_bits(x, y)
            else:
                _assert_bits(a, b)

    def test_time_pairs_at_chosen_locations(self, monkeypatch):
        analysis = _analysis("time", 2, True, gaps=True)
        model = analysis.model
        store = analysis.collector.store
        locations = [5, 3]
        valid = store.lag_exact_rows(lag_rows=2, order=3, step=1)
        rows = (valid - 2)[:, None] - np.arange(3)
        windows = [store.series(loc)[1][rows] for loc in locations]
        calls = _recording(monkeypatch, model)
        _, predicted, _ = analysis.time_pairs(locations)
        _assert_calls(calls, windows, model)
        assert len(predicted) == 2

    @pytest.mark.parametrize("include_self", [True, False])
    @pytest.mark.parametrize("lag", [1, 2, 3])
    @pytest.mark.parametrize(
        "window, start", [((0, 11, 1), 0), ((2, 30, 1), 5)]
    )
    def test_evaluate_spatial_history(
        self, monkeypatch, include_self, lag, window, start
    ):
        model = _analysis("space", 1, include_self).model
        model.lag = lag
        history = _history(7, n_iterations=30, n_locations=14)
        order = model.order
        first_loc = window[0] + (order - 1 if include_self else order)
        locations = [
            loc for loc in range(first_loc, window[1] + 1)
            if loc < history.shape[1]
        ]
        windows, reals = [], []
        for t in range(max(start, lag), history.shape[0]):
            lagged = history[t - lag]
            windows.append(
                np.stack([
                    lagged[loc - order + 1: loc + 1][::-1]
                    if include_self
                    else lagged[loc - order: loc][::-1]
                    for loc in locations
                ])
            )
            reals.append(history[t, locations])
        calls = _recording(monkeypatch, model)
        predicted, real = evaluate_spatial_history(
            model,
            history,
            window,
            include_self=include_self,
            start_iteration=start,
        )
        _assert_calls(calls, windows, model)
        _assert_bits(
            predicted,
            np.concatenate([_frozen_predict_many(model, w) for w in windows]),
        )
        _assert_bits(real, np.concatenate(reals))

    @pytest.mark.parametrize("include_self", [True, False])
    @pytest.mark.parametrize("window", [(0, 28, 2), (1, 27, 3), (2, 29, 3)])
    def test_evaluate_spatial_history_strided(self, include_self, window):
        # A travelling Gaussian; the collector samples every step-th
        # location, and history row r is iteration r + 1.
        t = np.arange(120, dtype=np.float64)[:, None]
        x = np.arange(30, dtype=np.float64)[None, :]
        history = np.exp(-0.5 * ((x - 0.2 * t) / 3.0) ** 2)
        temporal, lag = (20, 100, 1), 2
        engine = InSituEngine(ReplayApp(history), policy="all")
        analysis = engine.add_analysis(
            CurveFitting(
                ReplayApp.provider, window, temporal, order=3, lag=lag,
                include_self=include_self, batch_size=8,
            )
        )
        engine.run()
        iterations, predicted, real = analysis.predicted_vs_real()
        # Restricted to the collected iterations, the full-history
        # evaluation is the store's, pair for pair.
        ours, theirs = evaluate_spatial_history(
            analysis.model, history, window, include_self=include_self,
            start_iteration=int(iterations[0]) - 1,
        )
        n = predicted.size
        _assert_bits(ours[:n], predicted.ravel())
        _assert_bits(theirs[:n], real.ravel())
        # ... and runs on to the history's end.
        rows = history.shape[0] - int(iterations[0]) + 1
        assert ours.size == predicted.shape[1] * rows

    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("lag", [1, 2, 3, 6])
    def test_one_step_series(self, monkeypatch, stride, lag):
        model = _trained_identity(order=3)
        model.lag = lag
        series = _history(3)[:, 4]
        arr = series[::stride]
        lag_rows = max(1, lag // stride)
        start = 2 + lag_rows
        windows = np.stack([
            arr[i - lag_rows - 2: i - lag_rows + 1][::-1]
            for i in range(start, arr.size)
        ])
        calls = _recording(monkeypatch, model)
        indices, predicted, real = model.one_step_series(series, stride=stride)
        _assert_calls(calls, [windows], model)
        _assert_bits(indices, np.arange(start, arr.size) * stride)
        _assert_bits(real, arr[start:])

    @pytest.mark.parametrize("include_self", [True, False])
    @pytest.mark.parametrize("profile_order", [1, 2, 3])
    def test_extrapolate_peak_profile(self, include_self, profile_order):
        analysis = _analysis("space", 2, include_self)
        store = analysis.collector.store
        profile = peak_profile(store.matrix())
        log_profile = np.log(np.maximum(profile, 1e-12))
        order = min(profile_order, log_profile.size - 1)
        features = np.stack([
            log_profile[i - order: i][::-1]
            for i in range(order, log_profile.size)
        ])
        model = ARModel(order)
        model.fit_exact(features, log_profile[order:])
        window = list(log_profile[-order:])
        extension = []
        for _ in range(9):
            extension.append(_frozen_predict(model, window[::-1]))
            window = window[1:] + [extension[-1]]
        expected = np.concatenate([profile, np.exp(extension)])
        _assert_bits(
            analysis.extrapolate_peak_profile(
                int(store.locations[-1]) + 9, profile_order=profile_order
            ),
            expected,
        )

    @pytest.mark.parametrize("axis", ["space", "time"])
    def test_concluding_broadcast(self, axis):
        analysis = _analysis(axis, 1, True)
        [event] = [e for e in analysis.events if e is not None]
        last = analysis.collector.store.last_row()
        expected = _frozen_predict(analysis.model, last[-3:][::-1])
        assert np.float64(event.predicted_value).tobytes() == (
            np.float64(expected).tobytes()
        )


# -- forecasts ---------------------------------------------------------


def _pentagon(n, y0=0.5, y1=1.5):
    """The pentagon Y-system y(n+1) y(n-1) = 1 + y(n): period 5."""
    y = [y0, y1]
    while len(y) < n:
        y.append((1.0 + y[-1]) / y[-2])
    return np.array(y)


def _series_analysis(series, *, order, lag, n_train):
    analysis = CurveFitting(
        ReplayApp.provider,
        (0, 0, 1),
        (1, n_train, 1),
        axis="time",
        order=order,
        lag=lag,
        batch_size=4,
    )
    app = ReplayApp(np.asarray(series[:n_train], dtype=np.float64)[:, None])
    for iteration in range(1, n_train + 1):
        app.step()
        analysis.on_iteration(app.domain, iteration)
    return analysis


class TestForecast:
    def test_pentagon_forecast_honours_the_lag(self):
        # x(t) = x(t-5) exactly, so a lag-5 fit learns coefficient 1; a
        # forecast that rolled at lag 1 missed the orbit by up to 4.0.
        y = _pentagon(80)
        np.testing.assert_allclose(y[5:], y[:-5], rtol=1e-12)
        analysis = _series_analysis(y, order=1, lag=5, n_train=60)
        assert analysis.model.coefficients[0] == pytest.approx(1.0, abs=1e-9)
        forecast = analysis.forecast(0, 10)
        assert np.max(np.abs(forecast - y[60:70])) < 1e-9

    def test_period_two_forecast_honours_the_lag(self):
        # A lag-1 roll of the lag-2 fit gave [3, 3, 3, 3].
        series = np.tile([1.0, 3.0], 30)
        analysis = _series_analysis(series, order=1, lag=2, n_train=40)
        np.testing.assert_allclose(
            analysis.forecast(0, 4), [1.0, 3.0, 1.0, 3.0], atol=1e-9
        )

    @pytest.mark.parametrize("step", [1, 2])
    @pytest.mark.parametrize("axis, lag_rows, include_self, gaps", STORES)
    def test_roll_matches_frozen_forecast_state(
        self, axis, lag_rows, include_self, gaps, step
    ):
        analysis = _analysis(
            axis, lag_rows, include_self, gaps=gaps, step=step
        )
        frozen = _FrozenForecastState(analysis)
        assert frozen.seedable
        forecast = analysis.forecaster()
        assert forecast.iteration == analysis.collector.store.last_iteration
        rows = forecast.roll(8)
        _assert_bits(rows, np.stack([frozen.next_row() for _ in range(8)]))
        last = analysis.collector.store.last_iteration
        assert forecast.iteration == last + 8 * step
        sampled = _history(9)[0, analysis.collector.store.locations]
        compare = slice(frozen.first, None)
        diff = np.mean(np.abs(frozen.rows[-1][compare] - sampled[compare]))
        assert forecast.residual(sampled) == float(
            diff / np.mean(np.abs(sampled[compare]))
        )

    @pytest.mark.parametrize("axis", ["space", "time"])
    @pytest.mark.parametrize("gap", [50, 55, 57, 58, 59, 60])
    def test_seed_needs_contiguous_history(self, axis, gap):
        analysis = CurveFitting(
            ReplayApp.provider,
            (0, 11, 1) if axis == "space" else (2, 5, 1),
            (1, 60, 1),
            axis=axis,
            order=3,
            lag=3,
            batch_size=4,
        )
        analysis.collector.cadence_gate = lambda it: it != gap
        app = ReplayApp(_history(0))
        for iteration in range(1, 61):
            app.step()
            analysis.on_iteration(app.domain, iteration)
        if _FrozenForecastState(analysis).seedable:
            analysis.forecaster()
        else:
            with pytest.raises(NotTrainedError, match="contiguous"):
                analysis.forecaster()

    def test_advance_to_rolls_on_the_grid(self):
        analysis = _analysis("time", 1, True, step=2)
        forecast = analysis.forecaster()
        last = forecast.iteration
        forecast.advance_to(last + 5)
        assert forecast.iteration == last + 6
        forecast.advance_to(last)
        assert forecast.iteration == last + 6

    # What ARModel.forward_time and forward_space were tested for.

    def test_persistence_stays_constant(self):
        model = _trained_identity(order=2)
        out = Forecast(model, [[3.0], [3.0]]).roll(5)
        np.testing.assert_allclose(out, 3.0, atol=0.15)

    def test_step_count(self):
        forecast = Forecast(_trained_identity(order=2), [[1.0], [2.0]])
        assert forecast.roll(7).shape == (7, 1)
        assert forecast.roll(0).shape == (0, 1)
        analysis = _analysis("time", 1, True)
        assert analysis.forecast(3, 7).shape == (7,)
        assert analysis.forecast(3, 0).shape == (0,)

    def test_history_too_short(self):
        with pytest.raises(ConfigurationError, match="at least 3 seed rows"):
            Forecast(_trained_identity(order=3), [[1.0], [2.0]])
        with pytest.raises(ConfigurationError, match="at least 2 seed rows"):
            Forecast(_trained_identity(order=1), [[1.0]], lag_rows=2)
        with pytest.raises(ConfigurationError, match="2-D"):
            Forecast(_trained_identity(order=2), [1.0, 2.0, 3.0])

    def test_negative_steps_rejected(self):
        with pytest.raises(ConfigurationError, match="steps"):
            Forecast(_trained_identity(order=2), [[1.0], [2.0]]).roll(-1)
        with pytest.raises(ConfigurationError, match="steps"):
            _analysis("time", 1, True).forecast(3, -1)

    def test_untrained_model(self):
        with pytest.raises(NotTrainedError):
            Forecast(ARModel(2), [[1.0], [2.0], [3.0]]).roll(2)
        analysis = CurveFitting(
            ReplayApp.provider, (2, 5, 1), (1, 60, 1), axis="time"
        )
        with pytest.raises(NotTrainedError):
            analysis.forecast(3, 2)
        with pytest.raises(NotTrainedError):
            analysis.forecaster()

    def test_unknown_location(self):
        with pytest.raises(CollectionError, match="outside the collected"):
            _analysis("time", 1, True).forecast(99, 2)


# -- predictions and statistics -----------------------------------------


class TestPredictions:
    def test_predict_many_ignores_memory_order(self):
        rng = np.random.default_rng(11)
        for order in (1, 2, 3, 5, 8):
            model = _trained_identity(order=order, seed=order)
            for n in (1, 2, 3, 7, 16, 33, 100):
                values = rng.standard_normal((n, order)) * 10.0
                c_order = np.ascontiguousarray(values)
                expected = model.predict_many(c_order).tobytes()
                for variant in (
                    np.asfortranarray(values),
                    np.ascontiguousarray(values[::-1])[::-1],
                    np.ascontiguousarray(values[:, ::-1])[:, ::-1],
                    np.asfortranarray(values[::-1, ::-1])[::-1, ::-1],
                ):
                    assert np.array_equal(variant, values)
                    assert model.predict_many(variant).tobytes() == expected
                _assert_bits(
                    model.predict_many(c_order),
                    _frozen_predict_many(model, c_order),
                )

    def test_predict_is_one_row_of_predict_many(self):
        rng = np.random.default_rng(5)
        for order in (1, 2, 3, 5):
            model = _trained_identity(order=order, seed=order)
            for _ in range(50):
                row = rng.standard_normal(order) * 100.0
                value = model.predict(row)
                assert isinstance(value, float)
                assert value == _frozen_predict(model, row)
                assert value == model.predict_many(row[None])[0]
                assert value == model.predict(row[::-1].copy()[::-1])

    def test_running_stats_merge_and_std_use_the_kernels(self):
        rng = np.random.default_rng(2)
        for width in (1, 3):
            a, b = RunningStats(width), RunningStats(width)
            a.update(rng.standard_normal((17, width)) * 3.0 + 1.0)
            b.update(rng.standard_normal((5, width)))
            n, k = a.count, b.count
            delta = b.mean - a.mean
            mean = a.mean + delta * (k / (n + k))
            m2 = a._m2 + b._m2 + delta * delta * (n * k / (n + k))
            a.merge(b)
            _assert_bits(a.mean, mean)
            _assert_bits(a._m2, m2)
            assert a.count == n + k
            std = np.sqrt(m2 / (n + k - 1))
            std = np.maximum(std, 1e-3 * np.abs(mean) + 1e-12)
            _assert_bits(a.std, np.where(std > 1e-12, std, 1.0))
            _assert_bits(RunningStats(width).std, np.ones(width))
