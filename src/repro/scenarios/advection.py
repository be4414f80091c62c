"""Scenario: linear advection of a shock front, tracked in situ.

A smoothed shock profile ``u(x, t) = f(x - c t)`` translating at
constant speed across a 1-D cell array — the solution of the linear
advection equation ``u_t + c u_x = 0`` evaluated in closed form each
step, so the simulated samples *are* the ground truth.  Two things are
validated:

* **AR prediction** — with ``c * lag`` an integer number of cells the
  profile satisfies ``u(l, t) = u(l - c*lag, t - lag)`` exactly, an
  auto-regressive relation in the spatial window the in-situ model
  must recover; fitted predictions are compared against the closed
  form.
* **Wavefront tracking** — the analysis's relative threshold fires on
  the front's trailing edge every collected iteration, so the emitted
  feature locations must follow ``x_front = front0 + c t`` within one
  cell.  Under the distributed runtime those status broadcasts carry
  the owner rank from ``Analysis.wavefront_rank_of``, which is how the
  scenario exercises the paper's "MPI rank indicating the location of
  the wave front".
"""

from __future__ import annotations

import numpy as np

from repro.core.curve_fitting import CurveFitting
from repro.core.params import IterParam
from repro.errors import ConfigurationError, NotTrainedError
from repro.scenarios.spec import ScenarioSpec, register, require_number


class AdvectionFrontApp:
    """Travelling tanh front on a 1-D cell array (its own domain).

    ``u = 1`` far behind the front, ``0`` far ahead; ``width`` sets the
    smoothing length in cells.  The update is an exact translation —
    re-evaluating the closed form keeps worker-rank replicas
    bit-identical to the engine-visible app.
    """

    def __init__(
        self,
        *,
        n_cells: int = 64,
        speed: float = 0.5,
        width: float = 1.5,
        front0: float = 6.0,
        n_iterations: int = 96,
        **_,
    ) -> None:
        self.n_cells = require_number("n_cells", n_cells, int, 4)
        self.speed = require_number("speed", speed, float)
        self.width = require_number("width", width, float)
        if self.speed <= 0:
            raise ConfigurationError(f"speed must be positive, got {speed}")
        if self.width <= 0:
            raise ConfigurationError(f"width must be positive, got {width}")
        self.front0 = require_number("front0", front0, float)
        self.n_iterations = require_number("n_iterations", n_iterations, int, 1)
        self.iteration = 0
        self._x = np.arange(self.n_cells, dtype=np.float64)
        self.u = self.profile(self._x, 0)

    def profile(self, x, iteration) -> np.ndarray:
        """Closed form: smoothed step centred on the advected front."""
        xi = np.asarray(x, dtype=np.float64) - self.front_position(iteration)
        return 0.5 * (1.0 - np.tanh(xi / self.width))

    def front_position(self, iteration) -> float:
        return self.front0 + self.speed * float(iteration)

    def step(self) -> None:
        self.iteration += 1
        self.u = self.profile(self._x, self.iteration)

    @property
    def domain(self) -> object:
        return self

    @property
    def done(self) -> bool:
        return self.iteration >= self.n_iterations

    @property
    def max_iterations(self) -> int:
        return self.n_iterations

    def exact(self, locations, iterations) -> np.ndarray:
        """Closed-form ``u`` at ``(iteration, location)`` — shape (T, L)."""
        locations = np.asarray(locations, dtype=np.float64)
        return np.stack([self.profile(locations, it) for it in iterations])


def front_provider(domain: object, location: int) -> float:
    """Cell value ``u[location]`` (module-level: picklable)."""
    return float(domain.u[location])


def _front_batch(domain: object, locations: np.ndarray) -> np.ndarray:
    return domain.u[np.asarray(locations, dtype=np.int64)]


front_provider.batch = _front_batch


def make_app(**params) -> AdvectionFrontApp:
    return AdvectionFrontApp(**params)


def make_analyses(
    *,
    window=(0, 47),
    train_iterations: int = 80,
    order: int = 2,
    lag: int = 2,
    batch_size: int = 16,
    learning_rate: float = 0.3,
    epochs_per_batch: int = 48,
    threshold: float = 0.5,
    n_cells: int = 64,
    **_,
):
    if window[1] >= n_cells:
        raise ConfigurationError(
            f"window {list(window)} runs past the domain: n_cells is "
            f"{n_cells}, so locations must be in [0, {n_cells - 1}]"
        )
    # order=2 captures the exact shift relation u(l,t) = u(l-1,t-lag);
    # a third (collinear) feature only destabilises the SGD fit here.
    return [
        CurveFitting(
            front_provider,
            IterParam(window[0], window[1], 1),
            IterParam(1, train_iterations, 1),
            axis="space",
            order=order,
            lag=lag,
            batch_size=batch_size,
            learning_rate=learning_rate,
            epochs_per_batch=epochs_per_batch,
            threshold=threshold,
            reference_value=1.0,
            terminate_when_trained=True,
            name="advection-ar",
        )
    ]


def validate(app, analyses, result, *, threshold=0.5, **params) -> dict:
    """Fitted predictions and tracked front vs the closed form."""
    analysis = analyses[0]
    try:
        iters, predicted, real = analysis.predicted_vs_real()
    except NotTrainedError:
        return {"error": float("inf"), "detail": "model never trained"}
    store = analysis.collector.store
    first = analysis.collector.first_target_offset
    evaluable = store.locations[first:]
    exact = app.exact(evaluable, iters)
    scale = float(np.mean(np.abs(exact)))
    error = 100.0 * float(np.mean(np.abs(predicted - exact))) / scale
    # Wavefront tracking: every threshold event's location must sit
    # within one cell of the analytic front position.  (The threshold
    # 0.5 crosses exactly at the front centre for the tanh profile.)
    events = analysis.threshold_events
    front_error = max(
        (
            abs(event.location - app.front_position(event.iteration))
            for event in events
        ),
        default=float("inf"),
    )
    metrics = {
        "error": error,
        "fit_error_vs_collected": analysis.fit_error(),
        "front_error_cells": front_error,
        "n_front_events": len(events),
    }
    if front_error > 1.0:
        # Broken tracking fails the scenario outright, however good
        # the curve fit happens to be.
        metrics["error"] = float("inf")
        metrics["detail"] = "wavefront tracking diverged from closed form"
    return metrics


register(
    ScenarioSpec(
        name="advection-front",
        physics="linear advection of a smoothed shock front, exact translation",
        ground_truth="u(l,t) = u(l - c*lag, t - lag); front at x0 + c*t",
        providers=("front_provider",),
        app_factory=make_app,
        analysis_factory=make_analyses,
        validator=validate,
        defaults={
            "n_cells": 64,
            "speed": 0.5,
            "width": 1.5,
            "front0": 6.0,
            "n_iterations": 96,
            "window": (0, 47),
            "train_iterations": 80,
            "order": 2,
            "lag": 2,
            "batch_size": 16,
            "learning_rate": 0.3,
            "epochs_per_batch": 48,
            "threshold": 0.5,
        },
        quick={
            "n_cells": 48,
            "n_iterations": 72,
            "window": (0, 35),
            "train_iterations": 56,
        },
        policy="all",
        tolerance=2.0,
        # Full cadence only: the early-stop monitor converges well
        # before the SGD fit actually recovers the exact shift
        # relation, and resuming training across snap-back gaps on an
        # increasingly saturated window corrupts the intercept — the
        # closed-form validator catches both, so the spec opts out.
        cadence=None,
    )
)
