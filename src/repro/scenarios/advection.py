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
from repro.errors import NotTrainedError
from repro.scenarios.spec import Param, ScenarioSpec, check_window, register


class AdvectionFrontApp:
    """Travelling tanh front on a 1-D cell array (its own domain).

    ``u = 1`` far behind the front, ``0`` far ahead; ``width`` sets the
    smoothing length in cells.  The update is an exact translation —
    re-evaluating the closed form keeps worker-rank replicas
    bit-identical to the engine-visible app.  The scenario schema
    checks the arguments.
    """

    def __init__(
        self,
        *,
        n_cells: int,
        speed: float,
        width: float,
        front0: float,
        n_iterations: int,
        **_,
    ) -> None:
        self.n_cells = n_cells
        self.speed = speed
        self.width = width
        self.front0 = front0
        self.n_iterations = n_iterations
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


def make_analyses(
    *,
    window,
    train_iterations,
    order,
    lag,
    batch_size,
    learning_rate,
    epochs_per_batch,
    threshold,
    **_,
):
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


def validate(app, analyses, result, **_) -> dict:
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


def check(params) -> None:
    """The window must lie inside the cell array."""
    check_window(params["window"], params["n_cells"], "n_cells")


register(
    ScenarioSpec(
        name="advection-front",
        physics="linear advection of a smoothed shock front, exact translation",
        ground_truth="u(l,t) = u(l - c*lag, t - lag); front at x0 + c*t",
        providers=("front_provider",),
        app_factory=AdvectionFrontApp,
        analysis_factory=make_analyses,
        validator=validate,
        schema={
            "n_cells": Param(int, 64, quick=48, low=4),
            "speed": Param(float, 0.5, low=0, strict=True),
            "width": Param(float, 1.5, low=0, strict=True),
            "front0": Param(float, 6.0),
            "n_iterations": Param(int, 96, quick=72, low=1),
            "window": Param((int, int), (0, 47), quick=(0, 35), low=0),
            "train_iterations": Param(int, 80, quick=56, low=1),
            "order": Param(int, 2, low=1),
            "lag": Param(int, 2, low=1),
            "batch_size": Param(int, 16, low=1),
            "learning_rate": Param(float, 0.3, low=0, strict=True),
            "epochs_per_batch": Param(int, 48, low=1),
            "threshold": Param(float, 0.5),
        },
        check=check,
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
