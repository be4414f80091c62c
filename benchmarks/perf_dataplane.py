"""Data-plane performance benchmark: scalar seed path vs vectorized path.

Times a collection-heavy in-situ run — wide spatial window, long
temporal window, four analyses sharing one data window — through two
implementations of the data plane:

``scalar``
    A faithful reference copy of the seed implementation: the provider
    is called once per location in a Python loop, the series store is a
    list of row arrays (``matrix()`` re-stacks history), temporal
    emission pushes one sample per location, and the AR normalisation
    statistics run the per-row Welford recurrence.

``vector``
    The current implementation: one batch-provider gather per matching
    iteration, preallocated zero-copy :class:`SeriesStore`, block
    temporal emission through ``push_block``, and Chan's batched merge
    in :class:`RunningStats`.

Both paths train the same four AR models on the same replayed history;
the benchmark asserts their fitted coefficients agree within 1e-9, so
the reported speedup is for *identical* results.  An untimed warmup
pass runs before any timed region; its cost lands in
``warmup_seconds``.

Run directly::

    python benchmarks/perf_dataplane.py [--quick] [--output BENCH_dataplane.json]

``--quick`` trims the grid for CI smoke runs.  ``--min-speedup`` gates
the wide-window scenario's scalar-vs-vector speedup.  Not collected by
pytest (the module is not named ``test_*``) — this is a timing script,
not a correctness test.
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (makes src/ importable from a checkout)

import argparse
import json
import os
import time
from typing import List, Optional

import numpy as np

from repro.core.ar_model import ARModel, RunningStats
from repro.core.collector import DataCollector, SeriesStore
from repro.core.minibatch import MiniBatchTrainer
from repro.core.params import IterParam
from repro.errors import CollectionError


# ----------------------------------------------------------------------
# Scalar reference: the seed data plane, frozen for comparison
# ----------------------------------------------------------------------


class ScalarRunningStats(RunningStats):
    """Seed per-row Welford recurrence (pre-Chan reference)."""

    def update(self, rows: np.ndarray) -> None:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        for row in rows:
            self.count += 1
            delta = row - self._mean
            self._mean += delta / self.count
            self._m2 += delta * (row - self._mean)
        self._std_cache = None


class ScalarARModel(ARModel):
    """Seed training path, frozen pre-kernel.

    The live :meth:`ARModel.partial_fit` now runs as one fused call to
    :func:`repro.core.kernels.ar_batch_update`; the reference copy
    below preserves the seed sequence — a stats fold through
    ``RunningStats.update`` (the per-row Welford loop of
    :class:`ScalarRunningStats`) followed by interpreted GD epochs — so
    the scalar leg keeps measuring the original implementation.
    """

    def partial_fit(self, x: np.ndarray, y: np.ndarray) -> float:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.ravel(np.asarray(y, dtype=np.float64))
        self._x_stats.update(x)
        self._y_stats.update(y.reshape(-1, 1))
        xs = (x - self._x_stats.mean) / self._x_stats.std
        ys = (y - self._y_stats.mean[0]) / self._y_stats.std[0]
        pre_residual = xs @ self._w + self._b - ys
        pre_mse = float(np.mean(pre_residual**2))
        k = xs.shape[0]
        for _ in range(self.epochs_per_batch):
            residual = xs @ self._w + self._b - ys
            grad_w = 2.0 * (xs.T @ residual) / k + 2.0 * self.l2 * (
                self._w - self._prior
            )
            grad_b = 2.0 * float(np.mean(residual))
            norm = float(np.sqrt(np.dot(grad_w, grad_w) + grad_b * grad_b))
            if norm > self.clip:
                grad_w = grad_w * (self.clip / norm)
                grad_b = grad_b * (self.clip / norm)
            self._w = self._w - self.learning_rate * grad_w
            self._b -= self.learning_rate * grad_b
            self._project_stationary()
        self._updates += 1
        return pre_mse


class ScalarSeriesStore:
    """Seed store: list of rows, vstack matrix, linear row lookup."""

    def __init__(self, locations: np.ndarray) -> None:
        self.locations = np.asarray(locations, dtype=np.int64)
        self._iterations: List[int] = []
        self._rows: List[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._iterations)

    @property
    def last_iteration(self) -> Optional[int]:
        return self._iterations[-1] if self._iterations else None

    def add_row(self, iteration: int, values: np.ndarray) -> None:
        if self._iterations and iteration <= self._iterations[-1]:
            raise CollectionError("out-of-order row")
        self._iterations.append(int(iteration))
        self._rows.append(np.array(values, dtype=np.float64))

    def matrix(self) -> np.ndarray:
        if not self._rows:
            return np.empty((0, len(self.locations)))
        return np.vstack(self._rows)

    def row_at(self, iteration: int) -> Optional[np.ndarray]:
        try:
            idx = self._iterations.index(int(iteration))
        except ValueError:
            return None
        return self._rows[idx]

    def row(self, index: int) -> np.ndarray:
        return self._rows[index]


class ScalarCollector:
    """Seed collector: per-location provider calls, per-sample pushes."""

    def __init__(
        self,
        provider,
        spatial: IterParam,
        temporal: IterParam,
        trainer: MiniBatchTrainer,
        *,
        lag: int = 1,
        axis: str = "space",
        store: Optional[ScalarSeriesStore] = None,
    ) -> None:
        self.provider = provider
        self.spatial = spatial
        self.temporal = temporal
        self.trainer = trainer
        self.lag = lag
        self.axis = axis
        self.order = trainer.batch.n_features
        self.store = store or ScalarSeriesStore(spatial.indices())
        self._rows_ingested = 0

    def observe(self, domain: object, iteration: int) -> None:
        if not self.temporal.matches(iteration):
            return
        if (
            self.store.last_iteration == iteration
            and self._rows_ingested < len(self.store)
        ):
            row = self.store.row(-1)
        else:
            row = np.array(
                [
                    float(self.provider(domain, int(loc)))
                    for loc in self.store.locations
                ],
                dtype=np.float64,
            )
            self.store.add_row(iteration, row)
        self._rows_ingested += 1
        if self.axis == "space":
            self._emit_spatial(iteration, row)
        else:
            self._emit_temporal()

    def _emit_spatial(self, iteration: int, row: np.ndarray) -> None:
        lagged = self.store.row_at(iteration - self.lag)
        if lagged is None:
            return
        first = self.order - 1
        n_targets = row.shape[0] - first
        if n_targets <= 0:
            return
        windows = np.lib.stride_tricks.sliding_window_view(lagged, self.order)
        features = windows[:n_targets, ::-1]
        self.trainer.push_block(features, row[first:])

    def _emit_temporal(self) -> None:
        lag_rows = self.lag // self.temporal.step
        n = len(self.store)
        anchor = n - 1 - lag_rows
        if anchor - (self.order - 1) < 0:
            return
        window_rows = [
            self.store.row(i)
            for i in range(anchor - self.order + 1, anchor + 1)
        ]
        target_row = self.store.row(n - 1)
        for col in range(target_row.shape[0]):
            features = np.array([row[col] for row in reversed(window_rows)])
            self.trainer.push(features, target_row[col])


# ----------------------------------------------------------------------
# Scenario drivers
# ----------------------------------------------------------------------


class _RowDomain:
    __slots__ = ("row",)

    def value(self, location: int) -> float:
        return float(self.row[location])


def _scalar_row_provider(domain, location):
    return domain.value(location)


def _vector_row_provider(domain, location):
    return domain.value(location)


def _vector_row_batch(domain, locations):
    return domain.row[locations]


_vector_row_provider.batch = _vector_row_batch


def _history(n_iterations: int, n_locations: int, seed: int = 7) -> np.ndarray:
    """A travelling wave over noise: smooth, well-scaled, nontrivial."""
    rng = np.random.default_rng(seed)
    t = np.arange(1, n_iterations + 1)[:, None].astype(np.float64)
    x = np.arange(n_locations)[None, :].astype(np.float64)
    wave = 5.0 * np.exp(-0.5 * ((x - 0.35 * t) / (0.06 * n_locations)) ** 2)
    drift = 0.01 * t + 0.002 * x
    noise = 0.02 * rng.standard_normal((n_iterations, n_locations))
    return wave + drift + noise


def _models(n_analyses: int, order: int, *, scalar_stats: bool):
    models = []
    for i in range(n_analyses):
        cls = ScalarARModel if scalar_stats else ARModel
        model = cls(
            order,
            lag=1,
            learning_rate=0.05,
            epochs_per_batch=4,
            seed=100 + i,
        )
        if scalar_stats:
            model._x_stats = ScalarRunningStats(order)
            model._y_stats = ScalarRunningStats(1)
        models.append(model)
    return models


def _run_scalar(history, spatial, temporal, *, axis, order, batch_size,
                n_analyses):
    models = _models(n_analyses, order, scalar_stats=True)
    shared = ScalarSeriesStore(spatial.indices())
    collectors = [
        ScalarCollector(
            _scalar_row_provider,
            spatial,
            temporal,
            MiniBatchTrainer(model, batch_size, order),
            axis=axis,
            store=shared,
        )
        for model in models
    ]
    domain = _RowDomain()
    start = time.perf_counter()
    for iteration in range(1, history.shape[0] + 1):
        domain.row = history[iteration - 1]
        for collector in collectors:
            collector.observe(domain, iteration)
    for collector in collectors:
        collector.trainer.finalize()
    return time.perf_counter() - start, models


def _run_vector(history, spatial, temporal, *, axis, order, batch_size,
                n_analyses):
    models = _models(n_analyses, order, scalar_stats=False)
    shared = SeriesStore(spatial.indices(), capacity=temporal.count)
    collectors = [
        DataCollector(
            _vector_row_provider,
            spatial,
            temporal,
            MiniBatchTrainer(model, batch_size, order),
            axis=axis,
            store=shared,
        )
        for model in models
    ]
    domain = _RowDomain()
    start = time.perf_counter()
    for iteration in range(1, history.shape[0] + 1):
        domain.row = history[iteration - 1]
        for collector in collectors:
            collector.observe(domain, iteration)
    for collector in collectors:
        collector.trainer.finalize()
    return time.perf_counter() - start, models


def _model_delta(models_a, models_b) -> float:
    delta = 0.0
    for a, b in zip(models_a, models_b):
        delta = max(
            delta,
            float(np.max(np.abs(a.coefficients - b.coefficients))),
            abs(a.intercept - b.intercept),
        )
    return delta


def warmup() -> float:
    """One untimed pass over a tiny grid before any timed region.

    Warms allocator pools and import caches, so the timed runs below
    measure steady-state throughput only.  Returns the wall seconds the
    warmup itself cost (recorded in the JSON payload, never counted
    against a timed leg).
    """
    start = time.perf_counter()
    history = _history(40, 32, seed=11)
    spatial = IterParam(0, 31, 1)
    temporal = IterParam(1, 40, 1)
    for axis in ("space", "time"):
        kwargs = dict(axis=axis, order=3, batch_size=64, n_analyses=1)
        _run_scalar(history, spatial, temporal, **kwargs)
        _run_vector(history, spatial, temporal, **kwargs)
    return time.perf_counter() - start


def run_scenario(name, *, n_locations, n_iterations, axis, order=3,
                 batch_size=256, n_analyses=4):
    history = _history(n_iterations, n_locations)
    spatial = IterParam(0, n_locations - 1, 1)
    temporal = IterParam(1, n_iterations, 1)
    kwargs = dict(
        axis=axis,
        order=order,
        batch_size=batch_size,
        n_analyses=n_analyses,
    )
    scalar_seconds, scalar_models = _run_scalar(
        history, spatial, temporal, **kwargs
    )
    vector_seconds, vector_models = _run_vector(
        history, spatial, temporal, **kwargs
    )
    max_delta = _model_delta(scalar_models, vector_models)
    if max_delta > 1e-9:
        raise AssertionError(
            f"{name}: scalar/vector fits diverged (max delta {max_delta:.3e})"
        )
    return {
        "scenario": name,
        "axis": axis,
        "n_locations": n_locations,
        "n_iterations": n_iterations,
        "n_analyses": n_analyses,
        "order": order,
        "batch_size": batch_size,
        "scalar_seconds": round(scalar_seconds, 4),
        "vector_seconds": round(vector_seconds, 4),
        "speedup": round(scalar_seconds / vector_seconds, 2),
        "max_coefficient_delta": max_delta,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="trimmed grid for CI smoke runs",
    )
    parser.add_argument(
        "--output",
        default="BENCH_dataplane.json",
        help="where to write the JSON results",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="fail unless the wide-window scenario beats this "
        "scalar-vs-vector speedup",
    )
    args = parser.parse_args(argv)

    if args.quick:
        grid = [
            dict(name="wide_spatial", n_locations=128, n_iterations=200,
                 axis="space"),
            dict(name="temporal_block", n_locations=64, n_iterations=300,
                 axis="time"),
        ]
    else:
        grid = [
            dict(name="wide_spatial", n_locations=512, n_iterations=600,
                 axis="space"),
            dict(name="temporal_block", n_locations=256, n_iterations=800,
                 axis="time"),
        ]

    warmup_seconds = warmup()
    results = [run_scenario(spec.pop("name"), **spec) for spec in grid]

    header = (
        f"{'scenario':<16}{'axis':<7}{'locs':>6}{'iters':>7}"
        f"{'scalar s':>10}{'vector s':>10}{'speedup':>9}"
    )
    print(header)
    print("-" * len(header))
    for r in results:
        print(
            f"{r['scenario']:<16}{r['axis']:<7}{r['n_locations']:>6}"
            f"{r['n_iterations']:>7}{r['scalar_seconds']:>10.3f}"
            f"{r['vector_seconds']:>10.3f}{r['speedup']:>8.1f}x"
        )

    cpu_count = os.cpu_count() or 1
    payload = {
        "quick": args.quick,
        "warmup_seconds": round(warmup_seconds, 4),
        "cpu_count": cpu_count,
        # Timing-contention flag, following the distributed bench
        # convention: on a starved box the speedups are noise.
        "cpu_limited": cpu_count < 2,
        "scenarios": results,
    }
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"\nwrote {args.output}")

    gate = results[0]["speedup"]
    if args.min_speedup and gate < args.min_speedup:
        print(
            f"FAIL: wide-window scalar-vs-vector speedup {gate}x is below "
            f"the required {args.min_speedup}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
