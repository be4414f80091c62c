"""Scenario: damped-oscillator "ringdown" diagnostic bank.

A bank of exponentially damped cosines sharing one ``(omega, gamma)``
pair but differing in amplitude and phase — the shape of a ringdown
signal after a transient event.  The closed form

    x_j(t) = A_j exp(-gamma t) cos(omega t + phi_j)

lives in a two-dimensional state space, so for ANY sampling lag ``L``
there is an exact order-2 auto-regressive relation

    x(t) = c1(L) x(t - L) + c2(L) x(t - L - 1)

with coefficients independent of amplitude and phase — every channel
of the bank satisfies the same relation, which is what lets one model
train across the whole spatial window.  The scenario registers one
analysis per candidate lag and validates each lag's fitted prediction
against the closed form: the conditioning of the relation degrades as
the lagged samples decorrelate, so the sweep stresses exactly the AR
lag selection the paper tunes by hand (Fig. 4).
"""

from __future__ import annotations

import numpy as np

from repro.core.curve_fitting import CurveFitting
from repro.core.params import IterParam
from repro.errors import NotTrainedError
from repro.scenarios.spec import ScenarioSpec, register, require_number


class RingdownApp:
    """Damped-cosine channel bank (its own domain).

    Channel ``j`` has amplitude ``1 + j/2`` and phase ``j * golden
    angle`` — deterministic, spread around the circle, and exactly
    reproducible on worker-rank replicas (the state is re-evaluated in
    closed form each step).
    """

    def __init__(
        self,
        *,
        n_channels: int = 12,
        omega: float = 0.35,
        gamma: float = 0.01,
        n_iterations: int = 240,
        **_,
    ) -> None:
        self.n_channels = require_number("n_channels", n_channels, int, 1)
        self.omega = require_number("omega", omega, float)
        self.gamma = require_number("gamma", gamma, float, 0)
        self.n_iterations = require_number("n_iterations", n_iterations, int, 1)
        self.iteration = 0
        j = np.arange(self.n_channels, dtype=np.float64)
        self.amplitudes = 1.0 + 0.5 * j
        self.phases = j * 2.399963229728653  # golden angle, radians
        self.x = self._evaluate(0)

    def _evaluate(self, iteration: int) -> np.ndarray:
        t = float(iteration)
        return (
            self.amplitudes
            * np.exp(-self.gamma * t)
            * np.cos(self.omega * t + self.phases)
        )

    def step(self) -> None:
        self.iteration += 1
        self.x = self._evaluate(self.iteration)

    @property
    def domain(self) -> object:
        return self

    @property
    def done(self) -> bool:
        return self.iteration >= self.n_iterations

    @property
    def max_iterations(self) -> int:
        return self.n_iterations

    def exact(self, channels, iterations) -> np.ndarray:
        """Closed-form ``x`` at ``(iteration, channel)`` — shape (T, C)."""
        channels = np.asarray(channels, dtype=np.int64)
        t = np.asarray(iterations, dtype=np.float64)[:, None]
        return (
            self.amplitudes[channels][None, :]
            * np.exp(-self.gamma * t)
            * np.cos(self.omega * t + self.phases[channels][None, :])
        )


def ringdown_provider(domain: object, location: int) -> float:
    """Channel amplitude ``x[location]`` (module-level: picklable)."""
    return float(domain.x[location])


def _ringdown_batch(domain: object, locations: np.ndarray) -> np.ndarray:
    return domain.x[np.asarray(locations, dtype=np.int64)]


ringdown_provider.batch = _ringdown_batch


def make_app(**params) -> RingdownApp:
    return RingdownApp(**params)


def make_analyses(
    *,
    n_channels: int = 12,
    train_iterations: int = 200,
    lags=(1, 2, 4),
    order: int = 2,
    batch_size: int = 16,
    **_,
):
    """One analysis per candidate lag, all sharing one collection group."""
    return [
        CurveFitting(
            ringdown_provider,
            IterParam(0, n_channels - 1, 1),
            IterParam(1, train_iterations, 1),
            axis="time",
            order=order,
            lag=lag,
            batch_size=batch_size,
            terminate_when_trained=True,
            name=f"ringdown-lag{lag}",
        )
        for lag in lags
    ]


def validate(app, analyses, result, **params) -> dict:
    """Per-lag fitted predictions vs the closed form; best lag wins."""
    lag_errors = {}
    for analysis in analyses:
        abs_errors, scales = [], []
        try:
            for channel in analysis.collector.store.locations:
                iters, predicted, _ = analysis.predicted_vs_real(int(channel))
                exact = app.exact([int(channel)], iters)[:, 0]
                abs_errors.append(np.abs(predicted - exact))
                scales.append(np.abs(exact))
        except NotTrainedError:
            lag_errors[analysis.model.lag] = float("inf")
            continue
        scale = float(np.mean(np.concatenate(scales)))
        lag_errors[analysis.model.lag] = (
            100.0 * float(np.mean(np.concatenate(abs_errors))) / scale
        )
    best_lag = min(lag_errors, key=lag_errors.get)
    return {
        "error": lag_errors[best_lag],
        "selected_lag": best_lag,
        "lag_errors": {
            str(lag): err for lag, err in sorted(lag_errors.items())
        },
    }


register(
    ScenarioSpec(
        name="oscillator-ringdown",
        physics="damped-cosine channel bank (post-event ringdown diagnostic)",
        ground_truth="x_j(t) = A_j exp(-gamma t) cos(omega t + phi_j)",
        providers=("ringdown_provider",),
        app_factory=make_app,
        analysis_factory=make_analyses,
        validator=validate,
        defaults={
            "n_channels": 12,
            "omega": 0.35,
            "gamma": 0.01,
            "n_iterations": 240,
            "train_iterations": 200,
            "lags": (1, 2, 4),
            "order": 2,
            "batch_size": 16,
        },
        quick={
            "n_channels": 8,
            "n_iterations": 150,
            "train_iterations": 128,
        },
        policy="all",
        tolerance=5.0,
        # Exact AR(2) per lag, but the chained forecast's phase error
        # compounds over long widened horizons — a looser drift bound
        # plus a warmed-up collected base keeps probe snap-backs from
        # thrashing while the validator stays well inside tolerance.
        cadence={
            "drift_tolerance": 0.3,
            "warmup_rows": 32,
            "probes_per_level": 1,
        },
    )
)
