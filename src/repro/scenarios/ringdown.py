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
from repro.scenarios.spec import Param, ScenarioSpec, register


class RingdownApp:
    """Damped-cosine channel bank (its own domain).

    Channel ``j`` has amplitude ``1 + j/2`` and phase ``j * golden
    angle`` — deterministic, spread around the circle, and exactly
    reproducible on worker-rank replicas (the state is re-evaluated in
    closed form each step).  The scenario schema checks the arguments.
    """

    def __init__(
        self, *, n_channels: int, omega: float, gamma: float, n_iterations: int, **_
    ) -> None:
        self.n_channels = n_channels
        self.omega = omega
        self.gamma = gamma
        self.n_iterations = n_iterations
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


def make_analyses(*, n_channels, train_iterations, lags, order, batch_size, **_):
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
        app_factory=RingdownApp,
        analysis_factory=make_analyses,
        validator=validate,
        schema={
            "n_channels": Param(int, 12, quick=8, low=1),
            "omega": Param(float, 0.35),
            "gamma": Param(float, 0.01, low=0),
            "n_iterations": Param(int, 240, quick=150, low=1),
            "train_iterations": Param(int, 200, quick=128, low=1),
            "lags": Param([int], (1, 2, 4), low=1),
            "order": Param(int, 2, low=1),
            "batch_size": Param(int, 16, low=1),
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
