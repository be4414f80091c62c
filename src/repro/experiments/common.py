"""Shared infrastructure for the experiment drivers.

Provides the plain-text table container every driver returns (so
benchmarks can both assert on rows and print paper-style output), the
timing protocol of the overhead tables and ``benchmarks/perf.py``
(:func:`interleaved_runs`, :func:`interleaved_medians`),
the cached reference runs (full LULESH / wdmerger simulations reused
across tables), and the replay helpers that train analyses from a
recorded history without re-running the simulation.  Replay runs through the
in-situ engine: N analyses over the same window cost one pass over the
history with one provider sweep per collected row
(:func:`train_many_from_history`).
"""

from __future__ import annotations

import multiprocessing
import statistics
import traceback
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, List, Mapping, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.curve_fitting import CurveFitting
from repro.core.params import IterParam, as_iter_param
from repro.engine import InSituEngine, ReplayApp
from repro.errors import ConfigurationError, ReproError
from repro.scenarios import build_sim


Run = TypeVar("Run")


def _send_result(leg: Callable[[], Run], send) -> None:
    try:
        send.send((True, leg()))
    except BaseException:  # reported to the parent, which raises
        send.send((False, traceback.format_exc()))


def run_forked(leg: Callable[[], Run]) -> Run:
    """Call ``leg`` in a child forked from this process; return its result.

    Every child starts from the same heap.  Run back to back in one
    process, a run inherits the allocator state the run before left, and
    whether its large arrays page-fault (which can double a run's time
    on a VM) depends on that history rather than on the run itself.
    Where fork is unavailable the leg runs in this process.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return leg()
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_result, args=(leg, send))
    child.start()
    send.close()
    try:
        ok, value = receive.recv()
    except EOFError:  # the child died before it could report
        ok, value = False, None
    finally:
        receive.close()
        child.join()
    if not ok:
        raise ReproError(
            "timed run failed in its child process:\n"
            + (value or f"exit code {child.exitcode}")
        )
    return value


def interleaved_runs(
    legs: Sequence[Callable[[], Run]],
    groups: int,
    run: Callable[[Callable[[], Run]], Run] = run_forked,
) -> List[List[Run]]:
    """Run ``legs`` in interleaved groups; return every run, per leg.

    A group runs every leg once through ``run``, by default each in its
    own forked child (:func:`run_forked`).  The first group runs the
    legs in the given order and each later group reverses the order of
    the one before, so host drift over the minutes a table takes lands
    on every leg alike.  ``runs[leg][group]`` is that leg's run in that
    group.
    """
    if groups <= 0:
        raise ConfigurationError(f"groups must be positive, got {groups}")
    runs: List[List[Run]] = [[] for _ in legs]
    order = list(range(len(legs)))
    for _ in range(groups):
        for leg in order:
            runs[leg].append(run(legs[leg]))
        order.reverse()
    return runs


def interleaved_medians(
    legs: Sequence[Callable[[], Run]], groups: int
) -> List[Run]:
    """Time ``legs`` in interleaved groups; return one median run per leg.

    The groups are :func:`interleaved_runs`'s, each leg in a forked
    child.  The first leg is the baseline (the uninstrumented run).  Its
    reported ``seconds`` is its median over the groups; every other
    leg reports the baseline median times the median over the groups of
    its ratio to the baseline run of the same group.  Runs seconds
    apart share the host's speed, so the ratio cancels what the host
    did between groups, and the percentages a table derives from these
    seconds are the median paired ones.  The other fields of each
    returned run come from that leg's first run: they are
    deterministic.
    """
    runs = interleaved_runs(legs, groups)
    base = [run.seconds for run in runs[0]]
    base_median = statistics.median(base)
    out = [replace(runs[0][0], seconds=base_median)]
    for leg in runs[1:]:
        ratio = statistics.median(
            run.seconds / seconds for run, seconds in zip(leg, base)
        )
        out.append(replace(leg[0], seconds=base_median * ratio))
    return out


@dataclass
class Table:
    """A reproduction of one paper table (or figure's data series)."""

    title: str
    headers: List[str]
    rows: List[Tuple] = field(default_factory=list)
    notes: str = ""

    def add_row(self, *values) -> None:
        if len(values) != len(self.headers):
            raise ConfigurationError(
                f"row has {len(values)} cells, table has "
                f"{len(self.headers)} columns"
            )
        self.rows.append(tuple(values))

    def column(self, name: str) -> List:
        try:
            idx = self.headers.index(name)
        except ValueError as exc:
            raise ConfigurationError(
                f"no column {name!r} in {self.headers}"
            ) from exc
        return [row[idx] for row in self.rows]

    def render(self) -> str:
        """Aligned plain-text rendering (the benchmark harness output)."""
        cells = [self.headers] + [
            [self._fmt(v) for v in row] for row in self.rows
        ]
        widths = [
            max(len(row[i]) for row in cells) for i in range(len(self.headers))
        ]
        lines = [self.title, "-" * len(self.title)]
        for i, row in enumerate(cells):
            lines.append(
                "  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row))
            )
            if i == 0:
                lines.append("  ".join("=" * w for w in widths))
        if self.notes:
            lines.append("")
            lines.append(self.notes)
        return "\n".join(lines)

    @staticmethod
    def _fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)


@dataclass(frozen=True)
class LuleshReference:
    """One complete LULESH run's recorded ground truth."""

    size: int
    history: np.ndarray  # (iterations, nodes) |velocity|
    total_iterations: int
    blast_velocity: float
    final_time: float


@lru_cache(maxsize=8)
def lulesh_reference(size: int) -> LuleshReference:
    """Run (once per size) the full simulation, recording every node.

    The simulation is resolved by scenario name, so the reference run
    is built from exactly the workload the registry serves — with the
    recording arguments only ground truth needs layered on top.
    """
    sim = build_sim(
        "lulesh-sedov",
        size=size,
        maintain_field=False,
        record_locations=list(range(size + 1)),
    )
    result = sim.run()
    return LuleshReference(
        size=size,
        history=result.velocity_history,
        total_iterations=result.iterations,
        blast_velocity=sim.blast_velocity,
        final_time=result.time,
    )


@dataclass(frozen=True)
class WdReference:
    """One complete wdmerger run's recorded ground truth."""

    resolution: int
    times: np.ndarray
    series: dict  # name -> np.ndarray
    total_iterations: int
    dt: float
    detonation_time: Optional[float]
    merger_time: Optional[float]


@lru_cache(maxsize=8)
def wdmerger_reference(resolution: int) -> WdReference:
    """Run (once per resolution) the full merger with grid diagnostics."""
    sim = build_sim(
        "wdmerger-detonation", resolution=resolution, maintain_grid=True
    )
    sim.run()
    history = sim.history
    return WdReference(
        resolution=resolution,
        times=history.times,
        series=history.all_series(),
        total_iterations=sim.iteration,
        dt=sim.dt,
        detonation_time=sim.events.detonation_time,
        merger_time=sim.events.merger_time,
    )


def train_many_from_history(
    history: np.ndarray,
    spatial: IterParam,
    temporal: IterParam,
    configs: Sequence[Mapping],
    *,
    policy: str = "all",
) -> List[CurveFitting]:
    """Train N CurveFitting analyses in one replay of a recorded history.

    All analyses share the same declared data window, so the engine's
    shared-collection layer samples each history row exactly once and
    fans it out — an N-configuration sweep (thresholds, batch sizes,
    model orders, ...) costs a single pass.  Configurations with
    identical training and early-stop settings share one collector,
    model and monitor (forked when one stops), so results are
    bit-identical to N independent replays.
    """
    arr = np.asarray(history, dtype=np.float64)
    app = ReplayApp(arr)
    engine = InSituEngine(app, policy=policy)
    spatial = as_iter_param(spatial)
    temporal = as_iter_param(temporal)
    analyses = []
    for i, config in enumerate(configs):
        kwargs = dict(config)
        kwargs.setdefault("name", f"curve_fitting_{i}")
        analyses.append(
            engine.add_analysis(
                CurveFitting(ReplayApp.provider, spatial, temporal, **kwargs)
            )
        )
    # Recorded row r holds iteration r+1 (rows are appended after each
    # step of the 1-based iteration counter); replay stops at the
    # window end rather than draining the whole recording.
    engine.run(max_iterations=min(temporal.end, arr.shape[0]))
    for analysis in analyses:
        if not analysis.collector.done:
            analysis.collector.finalize()
    return analyses


def train_from_history(
    history: np.ndarray,
    spatial: IterParam,
    temporal: IterParam,
    **analysis_kwargs,
) -> CurveFitting:
    """Train a CurveFitting analysis by replaying a recorded history.

    Exactly equivalent to attaching the analysis to the live simulation
    (the collector sees the same rows in the same order), but reusing
    the cached reference run makes accuracy sweeps cheap.
    """
    return train_many_from_history(
        history, spatial, temporal, [analysis_kwargs]
    )[0]


def train_series_from_history(
    series: Sequence[float],
    temporal: IterParam,
    **analysis_kwargs,
) -> CurveFitting:
    """Replay-train a time-axis analysis on a scalar diagnostic series."""
    arr = np.asarray(series, dtype=np.float64).reshape(-1, 1)
    analysis_kwargs.setdefault("axis", "time")
    return train_from_history(
        arr, IterParam(0, 0, 1), temporal, **analysis_kwargs
    )
