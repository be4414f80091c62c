"""wdmerger performance experiments: Table VII.

Measures three execution modes per resolution — original, with feature
extraction (non-stop), and with early termination — then projects each
onto the paper's MPI x OpenMP configurations with the scaling model.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.params import IterParam
from repro.engine import InSituEngine, WdMergerApp
from repro.experiments.common import Table, interleaved_medians
from repro.experiments.scaling import ScalingModel
from repro.instrument.overhead import acceleration_percent, overhead_percent
from repro.parallel.comm import SimComm
from repro.wdmerger import WdMergerSimulation
from repro.wdmerger.diagnostics import DIAGNOSTIC_NAMES
from repro.wdmerger.insitu import DetonationAnalysis

#: Paper Table VII configurations (MPI ranks, OpenMP threads).
TABLE7_CONFIGS = ((8, 1), (8, 2), (8, 4), (16, 1), (16, 2), (32, 1))


@dataclass(frozen=True)
class WdMeasuredRun:
    """One measured wdmerger execution."""

    resolution: int
    iterations: int
    seconds: float
    broadcasts: int = 0
    stopped_at_time: Optional[float] = None
    delay_time: Optional[float] = None


def _attach_analyses(
    sim: WdMergerSimulation,
    engine: InSituEngine,
    *,
    early_stop: bool,
    variables: Sequence[str] = DIAGNOSTIC_NAMES,
):
    total = int(sim.end_time / sim.dt)
    analyses = []
    for variable in variables:
        analyses.append(
            engine.add_analysis(
                DetonationAnalysis(
                    IterParam(0, 0, 1),
                    IterParam(1, total, 1),
                    variable=variable,
                    dt=sim.dt,
                    order=3,
                    batch_size=max(4, total // 12),
                    learning_rate=0.03,
                    epochs_per_batch=4,
                    l2=0.05,
                    min_updates=3,
                    monitor_window=3,
                    monitor_patience=1,
                    terminate_when_trained=early_stop,
                )
            )
        )
    return analyses


def _warmup() -> None:
    """Trigger numpy's lazy imports (median, fft, random) and the
    engine's first-call costs once, before the timed runs fork from
    this process, so they do not land inside a measurement."""
    import numpy as np

    np.median(np.arange(8.0))
    np.fft.rfftn(np.zeros((4, 4, 4)))
    sim = WdMergerSimulation(8, end_time=4.0)
    engine = InSituEngine(WdMergerApp(sim), name="warmup")
    _attach_analyses(sim, engine, early_stop=False)
    engine.run()


def _groups(resolution: int) -> int:
    """Interleaved (origin, non-stop, stop) groups timed per resolution.

    Five while a group takes a second or two; three for the
    multi-second 48^3 runs.
    """
    return 5 if resolution <= 32 else 3


def measure_original(resolution: int) -> WdMeasuredRun:
    sim = WdMergerSimulation(resolution)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return WdMeasuredRun(
        resolution=resolution, iterations=sim.iteration, seconds=elapsed
    )


def measure_instrumented(
    resolution: int, *, early_stop: bool, ranks: int = 8
) -> WdMeasuredRun:
    sim = WdMergerSimulation(resolution)
    comm = SimComm(ranks)
    engine = InSituEngine(WdMergerApp(sim), comm=comm, name="wdmerger")
    analyses = _attach_analyses(sim, engine, early_stop=early_stop)
    start = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - start
    delay = None
    for analysis in analyses:
        if analysis.delay_feature is not None:
            delay = analysis.delay_feature.delay_time
            break
    return WdMeasuredRun(
        resolution=resolution,
        iterations=sim.iteration,
        seconds=elapsed,
        broadcasts=comm.broadcast_count,
        stopped_at_time=sim.time,
        delay_time=delay,
    )


def table7(
    resolutions: Sequence[int] = (16, 32, 48),
    configs: Sequence[Tuple[int, int]] = TABLE7_CONFIGS,
) -> Table:
    """Table VII: Orig / No-stop / Ovh / Stop / Acc per configuration.

    After one warm-up, each resolution times the origin, non-stop and
    stop runs as interleaved groups (:func:`_groups` of them,
    alternating which runs first): the origin column is the median
    origin run, and the other two are that times their median ratio to
    the origin run of the same group
    (:func:`~repro.experiments.common.interleaved_medians`).
    """
    table = Table(
        title="Table VII — wdmerger execution time, overhead and acceleration",
        headers=[
            "MPIxOMP", "Resolution", "Orig(s)", "No-stop(s)", "Ovh(%)",
            "Stop(s)", "Acc(%)",
        ],
        notes=(
            "Paper shape: overhead stays low single-digit percent; "
            "early-termination acceleration grows with resolution "
            "(~48% at 16^3 up to ~67% at 48^3)."
        ),
    )
    _warmup()
    measured = {}
    for resolution in resolutions:
        measured[resolution] = interleaved_medians(
            [
                functools.partial(measure_original, resolution),
                functools.partial(
                    measure_instrumented, resolution, early_stop=False
                ),
                functools.partial(
                    measure_instrumented, resolution, early_stop=True
                ),
            ],
            _groups(resolution),
        )
    for ranks, threads in configs:
        for resolution in resolutions:
            origin, nonstop, stop = measured[resolution]
            model = ScalingModel(
                elements=resolution**3, iterations=origin.iterations
            )
            origin_t = model.configured_time(origin.seconds, ranks, threads)
            bcast = nonstop.broadcasts * model.comm.broadcast(128, ranks)
            nonstop_t = (
                model.configured_time(nonstop.seconds, ranks, threads) + bcast
            )
            stop_t = (
                model.configured_time(stop.seconds, ranks, threads)
                + stop.broadcasts * model.comm.broadcast(128, ranks)
            )
            table.add_row(
                f"{ranks}x{threads}",
                f"{resolution}^3",
                round(origin_t, 4),
                round(nonstop_t, 4),
                round(overhead_percent(origin_t, nonstop_t), 2),
                round(stop_t, 4),
                round(acceleration_percent(origin_t, stop_t), 1),
            )
    return table
