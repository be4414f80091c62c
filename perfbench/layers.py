"""The program seams the traced run wraps, named after their modules.

``install`` patches each layer's public function on a
:class:`~spans.Tracer`, so its calls become spans; the span names are
the keys of :data:`metrics.LOOP_SPANS` plus ``driver.loop`` (the whole
loop) and ``serve.request`` (one client call).  :class:`Counters`
records what a span cannot: repeated AR updates and stats folds.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core import collector, providers
from repro.core.ar_model import ARModel, RunningStats
from repro.core.minibatch import MiniBatchTrainer
from repro.engine import driver
from repro.engine.cadence import CadenceController
from repro.engine.distributed import MultiprocessExecutor
from repro.engine.scheduler import AnalysisScheduler
from repro.serve.client import ServeClient


class Counters:
    """Per-request counts the spans cannot give: duplicate AR updates
    and running-stats folds."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.stats_updates: Dict[Optional[int], int] = defaultdict(int)
        self.fit_calls: Dict[Optional[int], int] = defaultdict(int)
        self.fit_dups: Dict[Optional[int], int] = defaultdict(int)
        self._iteration: Tuple[Optional[int], int] = (None, -1)
        self._seen: set = set()

    def on_dispatch(self, _scheduler, _domain, iteration) -> None:
        key = (self.tracer.request, int(iteration))
        if key != self._iteration:
            self._iteration = key
            self._seen = set()

    def on_partial_fit(self, model, x, y) -> None:
        """Count a call whose inputs and model state equal an earlier
        call's in the same driver iteration (work a shared trainer would
        not repeat)."""
        xs, ys = model.x_stats, model.y_stats
        key = (
            np.asarray(x, dtype=np.float64).tobytes(),
            np.asarray(y, dtype=np.float64).tobytes(),
            model._w.tobytes(),
            float(model._b),
            xs._mean.tobytes(), xs._m2.tobytes(), xs.count,
            ys._mean.tobytes(), ys._m2.tobytes(), ys.count,
            model.learning_rate, model.epochs_per_batch, model.l2,
            model.clip, model.max_coefficient_sum,
        )
        request = self.tracer.request
        self.fit_calls[request] += 1
        if key in self._seen:
            self.fit_dups[request] += 1
        else:
            self._seen.add(key)

    def on_stats_update(self) -> None:
        self.stats_updates[self.tracer.request] += 1


def install(tracer) -> Counters:
    """Wrap every layer seam on ``tracer`` (undone by ``tracer.close()``)."""
    counters = Counters(tracer)
    tracer.wrap(driver.ExecutionDriver, "_run", "driver.loop")
    tracer.wrap(driver.LocalExecutor, "advance", "driver.advance")
    tracer.wrap(MultiprocessExecutor, "advance", "driver.advance")
    tracer.wrap(driver, "batch_sample", "providers.gather")
    tracer.wrap(collector, "batch_sample", "providers.gather")
    tracer.wrap(providers.ShardView, "sample", "providers.gather")
    tracer.wrap(collector.SeriesStore, "add_row", "collector.add_row")
    tracer.wrap(collector.DataCollector, "observe", "collector.observe")
    tracer.wrap(
        AnalysisScheduler, "dispatch", "scheduler.dispatch",
        before=counters.on_dispatch,
    )
    tracer.wrap(MiniBatchTrainer, "push_block", "minibatch.push_block")
    tracer.wrap(
        ARModel, "partial_fit", "ar_model.partial_fit",
        before=counters.on_partial_fit,
    )
    tracer.wrap(CadenceController, "run_probes", "cadence.probe")
    tracer.wrap(MultiprocessExecutor, "__init__", "distributed.spawn")
    tracer.wrap(MultiprocessExecutor, "start", "distributed.spawn")
    tracer.count(RunningStats, "update", counters.on_stats_update)
    tracer.count(RunningStats, "merge", counters.on_stats_update)
    tracer.wrap(ServeClient, "run", "serve.request")
    return counters
