"""Scenario: the paper's wdmerger detonation delay-time case.

The second case study, re-registered through the scenario platform: a
:class:`~repro.wdmerger.insitu.DetonationAnalysis` tracks the core
temperature diagnostic of a binary white-dwarf merger, requests early
termination once the detonation inflection is confirmed, and the
extracted delay time is validated against the simulation's own
recorded detonation event — the reference quantity the paper's Table
VI compares against.  The headline ``error`` metric is the relative
delay-time deviation in percent.
"""

from __future__ import annotations

from repro.core.params import IterParam
from repro.scenarios.spec import Param, ScenarioSpec, register

#: ``repro.wdmerger.DIAGNOSTIC_NAMES``, spelled out so that importing the
#: registry does not import the simulator.
DIAGNOSTICS = ("temperature", "angular_momentum", "mass", "energy")


def make_app(*, resolution: int, maintain_grid: bool, **extra):
    """Raw simulation — the engine wraps it via the adapter registry."""
    from repro.wdmerger import WdMergerSimulation

    factory_kwargs = {
        key: extra[key]
        for key in ("initial_separation", "m_primary", "m_secondary")
        if key in extra
    }
    return WdMergerSimulation(resolution, maintain_grid=maintain_grid, **factory_kwargs)


def make_analyses(*, resolution, variable, order, batch_size, learning_rate, **_):
    from repro.wdmerger.insitu import DetonationAnalysis

    # A full run's iteration count: dt scales as 32/resolution.
    total = int(100.0 / (32.0 / resolution))
    return [
        DetonationAnalysis(
            IterParam(0, 0, 1),
            IterParam(1, total, 1),
            variable=variable,
            dt=32.0 / resolution,
            order=order,
            batch_size=batch_size,
            learning_rate=learning_rate,
            min_updates=3,
            monitor_window=3,
            monitor_patience=1,
            terminate_when_trained=True,
        )
    ]


def validate(app, analyses, result, **params) -> dict:
    """Extracted delay time vs the simulation's recorded detonation event."""
    analysis = analyses[0]
    sim = app.domain  # the wdmerger simulation doubles as the domain
    event_time = sim.events.detonation_time
    feature = analysis.delay_feature
    if feature is None or event_time is None:
        return {
            "error": float("inf"),
            "detail": "no detonation detected",
            "event_time": event_time,
        }
    error = 100.0 * abs(feature.delay_time - event_time) / event_time
    return {
        "error": error,
        "delay_time": feature.delay_time,
        "event_time": event_time,
        "run_saved_pct": 100.0 * (1.0 - sim.time / sim.end_time),
    }


register(
    ScenarioSpec(
        name="wdmerger-detonation",
        physics="binary white-dwarf merger (Castro-wdmerger-like diagnostics)",
        ground_truth="recorded detonation event time of the simulation",
        providers=("diagnostic_provider('temperature')",),
        app_factory=make_app,
        analysis_factory=make_analyses,
        validator=validate,
        schema={
            "resolution": Param(int, 24, quick=16, low=4),
            "maintain_grid": Param(bool, False),
            "initial_separation": Param(float, 2.65, low=0, strict=True),
            "variable": Param(str, "temperature", choices=DIAGNOSTICS),
            "order": Param(int, 3, low=1),
            "batch_size": Param(int, 4, low=1),
            "learning_rate": Param(float, 0.03, low=0, strict=True),
        },
        policy="any",
        tolerance=15.0,
        # Full cadence only: the detonation inflection is detected from
        # the collected diagnostic's curvature, which needs every
        # post-convergence sample.
        cadence=None,
    )
)
