"""Workload layer: the unified simulation-application abstraction.

The in-situ engine drives *any* iterative simulation through one small
surface — :class:`SimulationApp` — instead of each workload carrying its
own copy of the instrumented-main-loop glue (the pattern previously
duplicated across ``lulesh/insitu``, ``wdmerger/insitu``, the examples
and the experiment drivers).  A new workload plugs into the engine with
a ~50-line adapter implementing four members:

``step()``
    Advance the simulation by one iteration.
``domain``
    The object variable providers read from (passed to every analysis).
``done``
    True once the simulation has reached its natural end.
``max_iterations``
    A hard iteration ceiling (guards against runaway loops).

Three optional members, outside the Protocol, let the multiprocessing
backend step a 1-D stencil app one block per rank instead of one full
replica per rank (:class:`~repro.engine.distributed.MultiprocessExecutor`):

``stencil_radius``
    Cells one step reads on each side of a cell.
``state``
    The 1-D float array location ids index; the executor may read and
    write it between steps.
``shard(lo, hi)``
    Step only cells ``[lo, hi)`` from now on, with the same arithmetic
    per cell (cells near an edge inside the domain go stale; the
    executor refreshes them).  Providers must read only their cells.

Adapters for the two paper case studies ship here, plus
:class:`ReplayApp`, which replays a recorded history matrix as if it
were a live simulation — the backbone of the cheap accuracy sweeps.
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

import numpy as np

from repro.errors import ConfigurationError


@runtime_checkable
class SimulationApp(Protocol):
    """Protocol every engine-drivable workload satisfies."""

    def step(self) -> None: ...

    @property
    def domain(self) -> object: ...

    @property
    def done(self) -> bool: ...

    @property
    def max_iterations(self) -> int: ...


class LuleshApp:
    """Adapter wrapping :class:`~repro.lulesh.simulation.LuleshSimulation`."""

    def __init__(self, sim, *, max_iterations: int = 1_000_000) -> None:
        self.sim = sim
        self._max_iterations = max_iterations

    def step(self) -> None:
        self.sim.step()

    @property
    def domain(self) -> object:
        return self.sim.domain

    @property
    def done(self) -> bool:
        return self.sim.time >= self.sim.stop_time

    @property
    def max_iterations(self) -> int:
        return self._max_iterations

    @property
    def iteration(self) -> int:
        return self.sim.iteration


class WdMergerApp:
    """Adapter wrapping :class:`~repro.wdmerger.merger.WdMergerSimulation`.

    The wdmerger diagnostics are domain-global attributes of the
    simulation object itself, so the simulation doubles as the domain.
    """

    def __init__(self, sim, *, max_iterations: int = 10_000_000) -> None:
        self.sim = sim
        self._max_iterations = max_iterations

    def step(self) -> None:
        self.sim.step()

    @property
    def domain(self) -> object:
        return self.sim

    @property
    def done(self) -> bool:
        return self.sim.time >= self.sim.end_time

    @property
    def max_iterations(self) -> int:
        return self._max_iterations

    @property
    def iteration(self) -> int:
        return self.sim.iteration


class _ReplayDomain:
    """Domain whose per-location values come from one history row."""

    __slots__ = ("row",)

    def __init__(self) -> None:
        self.row: Optional[np.ndarray] = None

    def value(self, location: int) -> float:
        return float(self.row[location])

    def values(self, locations: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`value`: gather a whole spatial window."""
        return self.row[locations]


def replay_provider(domain: object, location: int) -> float:
    """The one provider every :class:`ReplayApp` analysis should use.

    A single module-level function (rather than a fresh lambda per
    analysis) so the shared-collection layer can recognise analyses
    reading the same replayed data and sample each row only once.
    Implements the batch protocol (``replay_provider.batch``): the
    collector gathers its whole spatial window from the replayed row
    with one fancy index instead of a Python call per location.
    """
    return domain.value(location)


def _replay_batch(domain: object, locations: np.ndarray) -> np.ndarray:
    return domain.values(locations)


replay_provider.batch = _replay_batch


class ReplayApp:
    """Replays a recorded ``(iterations, locations)`` history matrix.

    Row ``r`` of the history becomes iteration ``r + 1`` (matching the
    1-based iteration numbering of the live loop), so an analysis
    attached here sees exactly the rows a live run would have produced
    — at the cost of an array lookup per step instead of a hydro solve.
    """

    provider = staticmethod(replay_provider)

    def __init__(self, history) -> None:
        arr = np.asarray(history, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ConfigurationError(
                f"history must be 1-D or 2-D, got {arr.ndim}-D"
            )
        self.history = arr
        self.iteration = 0
        self._domain = _ReplayDomain()

    def step(self) -> None:
        self._domain.row = self.history[self.iteration]
        self.iteration += 1

    @property
    def domain(self) -> object:
        return self._domain

    @property
    def done(self) -> bool:
        return self.iteration >= self.history.shape[0]

    @property
    def max_iterations(self) -> int:
        return self.history.shape[0]


# ----------------------------------------------------------------------
# adapter registry: raw simulation type -> SimulationApp wrapper
# ----------------------------------------------------------------------

#: Simulation type -> adapter callable.  Scenario packages extend this
#: through :func:`register_adapter`, so resolving a workload never means
#: editing the engine again.
_ADAPTERS: dict = {}
_BUILTINS_REGISTERED = False


def register_adapter(sim_type: type, adapter) -> None:
    """Teach :func:`as_simulation_app` to wrap ``sim_type`` instances.

    ``adapter(sim) -> SimulationApp`` is applied to any object whose
    type (or parent type) matches.  Registering a second adapter for
    the same type is a configuration error — silent replacement would
    make workload resolution order-dependent.
    """
    if not isinstance(sim_type, type):
        raise ConfigurationError(
            f"sim_type must be a type, got {type(sim_type).__name__}"
        )
    if not callable(adapter):
        raise ConfigurationError(
            f"adapter for {sim_type.__name__} must be callable"
        )
    if sim_type in _ADAPTERS:
        raise ConfigurationError(
            f"an adapter for {sim_type.__name__} is already registered"
        )
    _ADAPTERS[sim_type] = adapter


def _ensure_builtin_adapters() -> None:
    """Register the two substrate adapters on first resolution miss.

    Lazy so the engine does not drag both substrate packages in for
    users driving only one (or a custom app).
    """
    global _BUILTINS_REGISTERED
    if _BUILTINS_REGISTERED:
        return
    _BUILTINS_REGISTERED = True
    from repro.lulesh.simulation import LuleshSimulation
    from repro.wdmerger.merger import WdMergerSimulation

    if LuleshSimulation not in _ADAPTERS:
        register_adapter(LuleshSimulation, LuleshApp)
    if WdMergerSimulation not in _ADAPTERS:
        register_adapter(WdMergerSimulation, WdMergerApp)


def as_simulation_app(obj) -> SimulationApp:
    """Coerce a raw simulation (or an app) to a :class:`SimulationApp`.

    Anything already satisfying the protocol passes through unchanged;
    raw simulation types with a registered adapter (see
    :func:`register_adapter`) get wrapped.  The raw substrate classes
    do not satisfy the protocol (no ``done``/``max_iterations``), so
    they never short-circuit past their adapters.
    """
    if isinstance(obj, (LuleshApp, WdMergerApp, ReplayApp)):
        return obj
    if isinstance(obj, SimulationApp):
        return obj
    _ensure_builtin_adapters()
    for klass in type(obj).__mro__:
        adapter = _ADAPTERS.get(klass)
        if adapter is not None:
            return adapter(obj)
    raise ConfigurationError(
        f"{type(obj).__name__} is not a SimulationApp: it needs step(), "
        "domain, done and max_iterations (see repro.engine.workload), "
        "or an adapter registered via register_adapter()"
    )
