"""Scenario: the paper's LULESH Sedov-blast material-deformation case.

The original case study, re-registered through the scenario platform:
a threshold sweep of :class:`~repro.lulesh.insitu.BreakPointAnalysis`
rides one instrumented Sedov blast under the ``all`` termination
policy, and every extracted break-point radius is validated against
the post-hoc ground truth computed from the cached full reference run
(:func:`repro.experiments.common.lulesh_reference`).  The headline
``error`` metric is the worst radius deviation in radial elements.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import IterParam
from repro.scenarios.spec import Param, ScenarioSpec, register


def velocity_provider(domain: object, location: int) -> float:
    """Radial node velocity ``xd`` (module-level: picklable)."""
    return domain.xd(location)


def _velocity_batch(domain: object, locations: np.ndarray) -> np.ndarray:
    return domain.xd_batch(locations)


velocity_provider.batch = _velocity_batch


def make_app(
    *,
    size: int,
    maintain_field: bool,
    record_locations=None,
    stop_time=None,
    blast_energy=None,
    **_,
):
    """Raw simulation — the engine wraps it via the adapter registry.

    ``None`` keeps the simulation's own value of a non-schema keyword.
    """
    from repro.lulesh import LuleshSimulation

    blast = {"stop_time": stop_time, "blast_energy": blast_energy}
    blast = {key: value for key, value in blast.items() if value is not None}
    return LuleshSimulation(
        size, maintain_field=maintain_field, record_locations=record_locations, **blast
    )


def make_analyses(
    *, size, thresholds, spatial_window, train_begin, train_fraction, lag, order, **_
):
    from repro.experiments.common import lulesh_reference
    from repro.lulesh.insitu import BreakPointAnalysis

    total = lulesh_reference(size).total_iterations
    return [
        BreakPointAnalysis(
            velocity_provider,
            IterParam(spatial_window[0], spatial_window[1], 1),
            IterParam(train_begin, int(train_fraction * total), 1),
            threshold=threshold,
            max_location=size,
            lag=lag,
            order=order,
            terminate_when_trained=True,
            name=f"breakpoint-t{threshold:g}",
        )
        for threshold in thresholds
    ]


def validate(app, analyses, result, *, size: int, thresholds, **_) -> dict:
    """Extracted break radii vs the reference run's peak-velocity truth."""
    from repro.experiments.common import lulesh_reference

    reference = lulesh_reference(size)
    peaks = np.abs(reference.history).max(axis=0)
    radii = {}
    worst = 0.0
    for threshold, analysis in zip(thresholds, analyses):
        cut = threshold * reference.blast_velocity
        above = np.where(peaks[1:] >= cut)[0]
        truth = int(above.max()) + 1 if above.size else 0
        extracted = int(analysis.final_feature().radius)
        radii[f"t{threshold:g}"] = {"truth": truth, "extracted": extracted}
        worst = max(worst, float(abs(extracted - truth)))
    return {
        # Worst break-radius deviation across the sweep, in elements.
        "error": worst,
        "radii": radii,
        "reference_iterations": reference.total_iterations,
        "iterations_saved_pct": 100.0
        * (1.0 - result.iterations / reference.total_iterations),
    }


register(
    ScenarioSpec(
        name="lulesh-sedov",
        physics="LULESH-like Sedov blast (Lagrangian hydro, radial mesh)",
        ground_truth="break-point radius from the recorded full run's peaks",
        providers=("velocity_provider (domain.xd)",),
        app_factory=make_app,
        analysis_factory=make_analyses,
        validator=validate,
        schema={
            "size": Param(int, 30, quick=16, low=2),
            "maintain_field": Param(bool, False),
            # The size-16 window (1, 8) is too short to extrapolate the
            # 5% radius; smoke runs validate the exactly-matching
            # thresholds (Table II's 10/20% rows).
            "thresholds": Param(
                [float], (0.05, 0.1, 0.2), quick=(0.1, 0.2), low=0, strict=True
            ),
            "spatial_window": Param((int, int), (1, 10), quick=(1, 8), low=0),
            "train_begin": Param(int, 50, quick=30, low=0),
            "train_fraction": Param(float, 0.4, low=0, high=1, strict=True),
            "lag": Param(int, 10, low=1),
            "order": Param(int, 3, low=1),
        },
        policy="all",
        # Table II's own accuracy bound: 5% threshold within 3 elements,
        # 10/20% exact.
        tolerance=3.0,
        # Full cadence only: break-point confirmation samples the
        # post-convergence peak profile every `check_every` collected
        # rows, which a widened stride would starve.
        cadence=None,
    )
)
