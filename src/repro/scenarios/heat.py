"""Scenario: 1-D heat diffusion with exact exponential mode decay.

An explicit-Euler finite-difference solve of ``u_t = alpha * u_xx`` on
the unit interval with homogeneous Dirichlet boundaries, initialised as
a superposition of sine modes.  The discrete scheme has a *closed-form*
solution: mode ``k`` is an eigenvector of the discrete Laplacian, so it
decays by an exact factor per step,

    mu_k = 1 - 4 r sin^2(k pi / (2 (N + 1))),    r = alpha dt / h^2,

and ``u_j(t) = sum_k A_k mu_k^t sin(k pi (j+1) / (N+1))`` to rounding.
Every per-location time series is a sum of ``len(modes)`` geometric
decays, which an AR model of order >= ``len(modes)`` can represent
exactly — the scenario validates the fitted in-situ predictions
directly against the closed form.
"""

from __future__ import annotations

import numpy as np

from repro.core.curve_fitting import CurveFitting
from repro.core.params import IterParam
from repro.errors import ConfigurationError, NotTrainedError
from repro.scenarios.spec import Param, ScenarioSpec, check_window, register


#: Nodes one pass of the step covers before the next pass starts.  A
#: tile's slices of the state and the next state, and the tile-sized
#: Laplacian scratch, are 256 KB each, so they stay in a 2 MB L2 across
#: the tile's five passes instead of streaming from memory on every pass.
TILE = 32768


def _mode_shape(k, amplitude, j, n_nodes) -> np.ndarray:
    """Sine mode ``k`` at the 1-based node indices ``j`` (float64)."""
    return amplitude * np.sin(k * np.pi * j / (n_nodes + 1))


class HeatDiffusionApp:
    """Explicit finite-difference heat equation (its own domain).

    ``n_nodes`` interior nodes on the unit interval; ``r`` is the
    diffusion number ``alpha dt / h^2`` (stable for ``r <= 0.5``).
    ``modes`` is a tuple of ``(wavenumber, amplitude)`` pairs summed
    into the initial condition.  The scenario schema checks every
    argument; the app itself rejects only modes that cancel to a zero
    state.  It can be block-sharded: see the optional members
    ``stencil_radius``, ``state`` and ``shard`` in
    :mod:`repro.engine.workload`.  The step runs in :data:`TILE`-node
    tiles, bit-identical to one pass over the whole range.  The app
    holds two state-sized arrays (state and next state) and one tile of
    Laplacian scratch; the closed form evaluates each mode only at the
    locations it is asked for.
    """

    stencil_radius = 1

    def __init__(
        self, *, n_nodes: int, r: float, modes: tuple, n_iterations: int, **_
    ) -> None:
        self.n_nodes = n_nodes
        self.r = r
        self.modes = modes
        self.n_iterations = n_iterations
        self.iteration = 0
        # The modes summed in order, one TILE of nodes at a time, so
        # building holds no state-sized temporary.
        self.u = np.zeros(n_nodes)
        for t0 in range(0, n_nodes, TILE):
            u = self.u[t0 : t0 + TILE]
            j = np.arange(t0 + 1, t0 + 1 + len(u), dtype=np.float64)
            for k, amplitude in modes:
                u += _mode_shape(k, amplitude, j, n_nodes)
        # With no nonzero amplitude the state is zero throughout, and
        # so it is when the amplitudes of one wavenumber cancel.
        if not self.u.any():
            raise ConfigurationError(
                f"modes {list(modes)} need at least one nonzero amplitude "
                "that no other mode of its wavenumber cancels"
            )
        # Step buffers, allocated once: at large n_nodes, fresh
        # temporaries every step make the step's cost depend on whether
        # the allocator reuses or re-maps them.  The next state starts
        # as a copy, so nodes a sharded step skips stay finite.  The
        # Laplacian is one tile of scratch that every tile reuses,
        # sized by the step from the TILE it reads.
        self._lap = np.empty(0)
        self._next = self.u.copy()
        self._range = (0, self.n_nodes)

    @property
    def state(self) -> np.ndarray:
        return self.u

    def shard(self, lo: int, hi: int) -> None:
        self._range = (int(lo), int(hi))

    def step(self) -> None:
        """Advance nodes ``[lo, hi)`` one step, one :data:`TILE` at a time.

        Same operations in the same order as
        ``lap[1:-1] = u[:-2] - 2.0 * u[1:-1] + u[2:]; u + r * lap``, so
        every state is bit-identical: each is elementwise and reads only
        the old state.  Each tile's Laplacian goes into the one tile of
        scratch, and the next state into the preallocated buffer; the
        state buffers then swap.  Providers copy what they read, so
        nothing holds the old one.
        """
        u, out, r = self.u, self._next, self.r
        lo, hi = self._range
        n = self.n_nodes
        width = min(TILE, n)
        if len(self._lap) < width:
            self._lap = np.empty(width)
        for t0 in range(lo, hi, width):
            t1 = min(t0 + width, hi)
            a, b = max(t0, 1), min(t1, n - 1)
            lap = self._lap[: t1 - t0]
            inner = lap[a - t0 : b - t0]
            np.multiply(u[a:b], 2.0, out=inner)
            np.subtract(u[a - 1 : b - 1], inner, out=inner)
            np.add(inner, u[a + 1 : b + 1], out=inner)
            if t0 == 0:
                lap[0] = -2.0 * u[0] + u[1]
            if t1 == n:
                lap[-1] = u[-2] - 2.0 * u[-1]
            np.multiply(lap, r, out=lap)
            np.add(u[t0:t1], lap, out=out[t0:t1])
        self.u, self._next = out, u
        self.iteration += 1

    @property
    def domain(self) -> object:
        return self

    @property
    def done(self) -> bool:
        return self.iteration >= self.n_iterations

    @property
    def max_iterations(self) -> int:
        return self.n_iterations

    # -- closed form ---------------------------------------------------

    def decay_factor(self, wavenumber: int) -> float:
        """Exact per-step decay of one discrete sine mode."""
        angle = wavenumber * np.pi / (2.0 * (self.n_nodes + 1))
        return 1.0 - 4.0 * self.r * np.sin(angle) ** 2

    def exact(self, locations, iterations) -> np.ndarray:
        """Closed-form ``u`` at ``(iteration, location)`` — shape (T, L)."""
        locations = np.asarray(locations, dtype=np.int64)
        iterations = np.asarray(iterations, dtype=np.float64)
        j = locations + 1.0
        out = np.zeros((iterations.shape[0], locations.shape[0]), dtype=np.float64)
        for k, amplitude in self.modes:
            mu = self.decay_factor(k)
            shape = _mode_shape(k, amplitude, j, self.n_nodes)
            out += np.power(mu, iterations)[:, None] * shape[None, :]
        return out


def temperature_provider(domain: object, location: int) -> float:
    """Interior-node temperature ``u[location]`` (module-level: picklable)."""
    return float(domain.u[location])


def _temperature_batch(domain: object, locations: np.ndarray) -> np.ndarray:
    return domain.u[np.asarray(locations, dtype=np.int64)]


temperature_provider.batch = _temperature_batch


def make_analyses(*, window, train_iterations, order, lag, batch_size, **_):
    return [
        CurveFitting(
            temperature_provider,
            IterParam(window[0], window[1], 1),
            IterParam(1, train_iterations, 1),
            axis="time",
            order=order,
            lag=lag,
            batch_size=batch_size,
            terminate_when_trained=True,
            name="heat-ar",
        )
    ]


def validate(app, analyses, result, **params) -> dict:
    """Fitted one-step predictions vs the closed-form mode decay."""
    analysis = analyses[0]
    try:
        iters, predicted, real = analysis.time_pairs()
    except NotTrainedError:
        return {"error": float("inf"), "detail": "model never trained"}
    # One closed-form call for the whole window: every operation in it
    # is elementwise, so each column equals a call for its location.
    exact = app.exact(analysis.collector.store.locations, iters).T
    scale = float(np.mean(np.concatenate([np.abs(e) for e in exact])))
    abs_errors = [np.abs(p - e) for p, e in zip(predicted, exact)]
    error = 100.0 * float(np.mean(np.concatenate(abs_errors))) / scale
    deltas = [float(np.max(np.abs(r - e))) for r, e in zip(real, exact)]
    return {
        "error": error,
        "fit_error_vs_collected": analysis.fit_error(),
        # How far the simulated samples drift from the closed form
        # (pure float rounding — the scheme is exact for sine modes).
        "simulation_vs_closed_form": max([0.0, *deltas]),
        "decay_factors": [
            float(app.decay_factor(k)) for k, _ in app.modes
        ],
    }


def check(params) -> None:
    """The window and every wavenumber must lie inside the domain: past
    ``n_nodes``, a mode aliases onto a lower one, or onto zero."""
    n_nodes = params["n_nodes"]
    check_window(params["window"], n_nodes, "n_nodes")
    for k, _ in params["modes"]:
        if not 1 <= k <= n_nodes:
            raise ConfigurationError(
                f"modes wavenumber must be an integer in [1, {n_nodes}], "
                f"got {k}"
            )


register(
    ScenarioSpec(
        name="heat-diffusion",
        physics="1-D heat equation, explicit FD, Dirichlet boundaries",
        ground_truth="exact discrete sine-mode decay u = sum A_k mu_k^t",
        providers=("temperature_provider",),
        app_factory=HeatDiffusionApp,
        analysis_factory=make_analyses,
        validator=validate,
        schema={
            "n_nodes": Param(int, 48, quick=32, low=3),
            "r": Param(float, 0.4, low=0, high=0.5, strict=True),
            "modes": Param([(int, float)], ((1, 1.0), (3, 0.4))),
            "n_iterations": Param(int, 260, quick=150, low=1),
            "train_iterations": Param(int, 220, quick=128, low=1),
            "window": Param((int, int), (8, 31), quick=(6, 21), low=0),
            "order": Param(int, 3, low=1),
            "lag": Param(int, 1, low=1),
            "batch_size": Param(int, 16, low=1),
        },
        check=check,
        policy="all",
        tolerance=2.0,
        # The discrete scheme IS an exact AR process per location, so a
        # converged fit forecasts the decay to rounding: adaptive
        # cadence widens aggressively and the drift probes stay clean
        # until the signal has decayed into the std floor.
        cadence={"probes_per_level": 1, "max_stride": 32},
    )
)
