"""Scenario platform: name-addressable, declaratively specified workloads.

Importing this package registers the built-in scenarios — the paper's
two case studies plus three analytic scenarios with closed-form ground
truth — and exposes the registry/runner surface the CLI (``python -m
repro``), the experiment drivers and CI all resolve workloads through:

>>> from repro import scenarios
>>> scenarios.names()
['advection-front', 'heat-diffusion', 'lulesh-sedov',
 'oscillator-ringdown', 'wdmerger-detonation']
>>> cfg = scenarios.RunConfig(n_ranks=2, quick=True)
>>> run = scenarios.run_scenario("heat-diffusion", config=cfg)
>>> run.ok
True

See :mod:`repro.scenarios.spec` for the :class:`ScenarioSpec` contract
and its :class:`Param` schema, the :class:`RunConfig` request object
and :func:`run_scenario` semantics.
"""

from repro.scenarios.spec import (
    CROSSCHECK_INHERITED,
    CROSSCHECK_OVERRIDES,
    DIVERGENCE_TOL,
    SCHEMA_VERSION,
    Param,
    RunConfig,
    ScenarioRun,
    ScenarioSpec,
    build_sim,
    crosscheck_analyses,
    get,
    json_safe,
    names,
    register,
    replay_fingerprint,
    replay_report,
    resolve_backend,
    run_scenario,
    specs,
    unregister,
)

# Built-in scenario registration (import order fixes ties; names sort
# in the registry anyway).
import repro.scenarios.advection  # noqa: E402,F401
import repro.scenarios.heat  # noqa: E402,F401
import repro.scenarios.lulesh_sedov  # noqa: E402,F401
import repro.scenarios.ringdown  # noqa: E402,F401
import repro.scenarios.wdmerger_merger  # noqa: E402,F401

__all__ = [
    "CROSSCHECK_INHERITED",
    "CROSSCHECK_OVERRIDES",
    "DIVERGENCE_TOL",
    "SCHEMA_VERSION",
    "Param",
    "RunConfig",
    "ScenarioRun",
    "ScenarioSpec",
    "build_sim",
    "crosscheck_analyses",
    "get",
    "json_safe",
    "names",
    "register",
    "replay_fingerprint",
    "replay_report",
    "resolve_backend",
    "run_scenario",
    "specs",
    "unregister",
]
