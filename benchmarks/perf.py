"""Timing harness for the repository's speed claims.

Run directly::

    python benchmarks/perf.py {dataplane,distributed,elastic,serve} \
        [--quick] [--ranks N] [--min-speedup X] [--output PATH]

Each suite supplies its legs (callables that return one timed
:class:`Run`), a check that every leg produced the same fit, and one
gated ratio with its bound.  The harness runs every leg once untimed in
this process, so imports, allocator pools and lazy set-up are warm, then
times :data:`REPS` interleaved groups through
:func:`repro.experiments.common.interleaved_runs`: each leg runs once a
group, in its own forked child (serve legs in this process, next to the
server they talk to), and each group reverses the order of the one
before.  A per-group ratio pairs runs made seconds apart, so host drift
cancels; the gate reads the median of those ratios.

``dataplane``
    The frozen seed data plane (per-location provider calls, list-of-rows
    store, per-sample temporal pushes, per-row Welford statistics and
    interpreted GD epochs) against the live vectorized one, on a wide
    spatial and a long temporal window with four analyses sharing the
    data.  Fits agree within 1e-9; the wide-spatial speedup must reach 2.
``distributed``
    A replayed wide-spatial scenario with an expensive per-location
    provider, serial engine against the multiprocessing backend at
    ``--ranks`` ranks (default 2).  Fits agree with serial within 1e-12;
    ``--min-speedup`` gates the mp speedup (CI asks 2 at 4 ranks on a
    4-core runner; the speedup needs one core per rank).
``elastic``
    The same scenario at 4 mp ranks: fault-free, one rank slowed by an
    injected per-sample delay with static shards and with rebalancing,
    and one rank killed mid-run.  Fits agree with serial within 1e-9;
    rebalancing must cut the sample-time skew (max/mean of the ranks'
    sampling seconds) by 1.2x.
``serve``
    One quick heat-diffusion request as a fresh CLI subprocess (cold),
    streamed from a warm pool worker (warm) and answered from the result
    cache (hit).  Hits are byte-identical to the run that filled the
    cache, a warm stream carries at least two coefficient updates, and a
    hit must be 100x faster than a warm run.

The JSON report holds, per leg, the median and interquartile range of
its seconds, the same for each per-group metric, the gate, and a host
stamp (CPU count and affinity, Python and NumPy versions, git SHA).
Exit status 1 means the gate failed.  Not collected by pytest (the
module is not named ``test_*``).
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (makes src/ importable from a checkout)

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.ar_model import ARModel, RunningStats
from repro.core.collector import DataCollector, SeriesStore
from repro.core.curve_fitting import CurveFitting
from repro.core.minibatch import MiniBatchTrainer
from repro.core.params import IterParam
from repro.core.providers import HarmonicProvider
from repro.engine import DistributedEngine, InSituEngine, ReplayApp
from repro.errors import CollectionError
from repro.experiments.common import interleaved_runs, run_forked

ROOT = os.path.abspath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
)

#: Timed groups per suite; every leg runs once a group.
REPS = 5


@dataclass
class Run:
    """One timed leg: wall seconds, the fit it produced, rank skew."""

    seconds: float
    fit: Optional[np.ndarray] = None
    skew: float = float("nan")


def require(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def timed(legs: Dict[str, Callable[[], Run]], run=run_forked):
    """Warm every leg once here, then time ``REPS`` interleaved groups."""
    for leg in legs.values():
        leg()
    return dict(zip(legs, interleaved_runs(list(legs.values()), REPS, run)))


def fit_delta(runs: List[Run], reference: np.ndarray, tolerance: float) -> float:
    delta = max(float(np.max(np.abs(run.fit - reference))) for run in runs)
    require(
        delta <= tolerance,
        f"fits diverged from the reference (max delta {delta:.3e})",
    )
    return delta


def ratios(top: List[Run], bottom: List[Run], field: str = "seconds"):
    """Per-group ``top / bottom`` of one field of paired runs."""
    return [getattr(a, field) / getattr(b, field) for a, b in zip(top, bottom)]


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "iqr": [round(q1, 6), round(q3, 6)]}


# ----------------------------------------------------------------------
# dataplane: the seed implementation, frozen for comparison
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

    The live :meth:`ARModel.partial_fit` runs as one fused call to
    :func:`repro.core.kernels.ar_batch_update`; this copy keeps the seed
    sequence, a stats fold through :class:`ScalarRunningStats` followed
    by interpreted GD epochs, each ending in the stationarity
    projection.
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
        self._scaled = None
        return pre_mse

    def _project_stationary(self) -> None:
        """Shrink the deviation from the persistence prior until the
        original-scale coefficient sum sits on the bound."""
        if self.max_coefficient_sum is None:
            return
        scale = float(self._y_stats.std[0]) / self._x_stats.std
        total = float(np.sum(self._w * scale))
        if total <= self.max_coefficient_sum:
            return
        prior_total = float(np.sum(self._prior * scale))
        deviation_total = total - prior_total
        if deviation_total <= 0.0 or prior_total >= self.max_coefficient_sum:
            self._w *= self.max_coefficient_sum / total
            return
        shrink = (self.max_coefficient_sum - prior_total) / deviation_total
        self._w = self._prior + shrink * (self._w - self._prior)


class ScalarSeriesStore:
    """Seed store: a list of row arrays with a linear row lookup."""

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

    def row_at(self, iteration: int) -> Optional[np.ndarray]:
        try:
            idx = self._iterations.index(int(iteration))
        except ValueError:
            return None
        return self._rows[idx]

    def row(self, index: int) -> np.ndarray:
        return self._rows[index]


class ScalarCollector:
    """Seed collector: per-location provider calls, per-sample pushes.

    Built like :class:`DataCollector`; the store fixes the window.
    """

    def __init__(self, provider, _spatial, temporal, trainer, *, axis, store):
        self.provider = provider
        self.temporal = temporal
        self.trainer = trainer
        self.lag = 1
        self.axis = axis
        self.order = trainer.batch.n_features
        self.store = store
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


class _RowDomain:
    __slots__ = ("row",)

    def value(self, location: int) -> float:
        return float(self.row[location])


def _row_provider(domain, location):
    return domain.value(location)


_row_provider.batch = lambda domain, locations: domain.row[locations]


def history(n_iterations: int, n_locations: int, seed: int = 7) -> np.ndarray:
    """A travelling wave over noise: smooth, well-scaled, nontrivial."""
    rng = np.random.default_rng(seed)
    t = np.arange(1, n_iterations + 1)[:, None].astype(np.float64)
    x = np.arange(n_locations)[None, :].astype(np.float64)
    wave = 5.0 * np.exp(-0.5 * ((x - 0.35 * t) / (0.06 * n_locations)) ** 2)
    noise = 0.02 * rng.standard_normal((n_iterations, n_locations))
    return wave + 0.01 * t + 0.002 * x + noise


def _dataplane_leg(rows: np.ndarray, axis: str, scalar: bool):
    """One pass of four order-3 analyses sharing one window over ``rows``."""
    spatial = IterParam(0, rows.shape[1] - 1, 1)
    temporal = IterParam(1, rows.shape[0], 1)

    def leg() -> Run:
        models = [
            (ScalarARModel if scalar else ARModel)(
                3, lag=1, learning_rate=0.05, epochs_per_batch=4, seed=100 + i
            )
            for i in range(4)
        ]
        if scalar:
            store = ScalarSeriesStore(spatial.indices())
            collector = ScalarCollector
            for model in models:
                model._x_stats = ScalarRunningStats(3)
                model._y_stats = ScalarRunningStats(1)
        else:
            store = SeriesStore(spatial.indices(), capacity=temporal.count)
            collector = DataCollector
        collectors = [
            collector(
                _row_provider,
                spatial,
                temporal,
                MiniBatchTrainer(model, 256, 3),
                axis=axis,
                store=store,
            )
            for model in models
        ]
        domain = _RowDomain()
        start = time.perf_counter()
        for iteration in range(1, rows.shape[0] + 1):
            domain.row = rows[iteration - 1]
            for c in collectors:
                c.observe(domain, iteration)
        for c in collectors:
            c.trainer.finalize()
        seconds = time.perf_counter() - start
        fit = [np.append(m.coefficients, m.intercept) for m in models]
        return Run(seconds, np.concatenate(fit))

    return leg


def dataplane(args):
    grid = {  # name: (locations, iterations, axis)
        "wide_spatial": (128, 200, "space") if args.quick else (512, 600, "space"),
        "temporal_block": (64, 300, "time") if args.quick else (256, 800, "time"),
    }
    legs = {}
    for name, (n_locations, n_iterations, axis) in grid.items():
        rows = history(n_iterations, n_locations)
        for path in ("scalar", "vector"):
            legs[f"{name}.{path}"] = _dataplane_leg(rows, axis, path == "scalar")
    runs = timed(legs)
    delta = max(
        fit_delta(
            runs[f"{name}.scalar"] + runs[f"{name}.vector"],
            runs[f"{name}.scalar"][0].fit,
            1e-9,
        )
        for name in grid
    )
    metrics = {
        f"{name}_speedup": ratios(runs[f"{name}.scalar"], runs[f"{name}.vector"])
        for name in grid
    }
    return runs, metrics, 2.0, {"grid": grid, "max_fit_delta": delta}


# ----------------------------------------------------------------------
# distributed and elastic: one replayed wide-spatial scenario
# ----------------------------------------------------------------------

#: Expensive per-location diagnostic over the replayed row (module
#: level, so grouping and worker pickling see one provider identity).
HEAVY = HarmonicProvider(384)


def make_app(n_iterations: int, n_locations: int) -> ReplayApp:
    """Deterministic replay app (module level: workers rebuild it)."""
    return ReplayApp(history(n_iterations, n_locations))


def _engine_leg(n_locations, n_iterations, ranks=1, **engine_kwargs):
    """The wide-spatial fit, serial (``ranks=1``) or on ``ranks`` mp ranks."""
    factory = partial(make_app, n_iterations, n_locations)

    def leg() -> Run:
        if ranks == 1:
            engine = InSituEngine(factory())
        else:
            engine = DistributedEngine(
                backend="multiprocessing",
                n_ranks=ranks,
                app_factory=factory,
                **engine_kwargs,
            )
        analysis = engine.add_analysis(
            CurveFitting(
                HEAVY,
                (0, n_locations - 1, 1),
                (1, n_iterations, 1),
                order=3,
                lag=1,
                batch_size=max(256, n_locations),
                epochs_per_batch=2,
                name="wide_spatial",
            )
        )
        start = time.perf_counter()
        result = engine.run()
        seconds = time.perf_counter() - start
        model = analysis.model
        skew = float("nan")
        if ranks > 1:
            sampled = result.rank_sample_seconds
            sampled = sampled[np.isfinite(sampled)]  # dead ranks are NaN
            skew = float(sampled.max() / sampled.mean())
        return Run(seconds, np.append(model.coefficients, model.intercept), skew)

    return leg


def distributed(args):
    shape = (192, 60) if args.quick else (768, 200)
    runs = timed(
        {
            "serial": _engine_leg(*shape),
            f"mp{args.ranks}": _engine_leg(*shape, ranks=args.ranks, chunk=16),
        }
    )
    serial, mp = runs.values()
    delta = fit_delta(mp, serial[0].fit, 1e-12)
    extra = {"locations_iterations": shape, "ranks": args.ranks}
    extra.update(max_fit_delta=delta)
    return runs, {"mp_speedup": ratios(serial, mp)}, args.min_speedup, extra


#: The elastic legs' rank count, slowed rank and injected delay.  The
#: delay makes the slowed rank's sampling several times its peers'
#: wherever a rank samples its share in under ~0.2 s.
RANKS, FAULTY_RANK, PER_SAMPLE = 4, 2, 2e-4


def elastic(args):
    n_locations, n_iterations = (192, 60) if args.quick else (384, 120)
    slow = f"slow:rank={FAULTY_RANK},per_sample={PER_SAMPLE:g}"
    kill = f"kill:rank={FAULTY_RANK},iter={max(2, n_iterations // 3)}"
    mp_leg = partial(_engine_leg, n_locations, n_iterations, RANKS, chunk=8)
    runs = timed(
        {
            "clean": mp_leg(),
            "static": mp_leg(faults=slow),
            "rebalanced": mp_leg(faults=slow, rebalance=True),
            "killed": mp_leg(faults=kill),
        }
    )
    serial = _engine_leg(n_locations, n_iterations)().fit
    delta = max(fit_delta(leg_runs, serial, 1e-9) for leg_runs in runs.values())
    metrics = {
        "skew_reduction": ratios(runs["static"], runs["rebalanced"], "skew"),
        "static_skew": [run.skew for run in runs["static"]],
        "rebalanced_skew": [run.skew for run in runs["rebalanced"]],
        "kill_slowdown": ratios(runs["killed"], runs["clean"]),
    }
    extra = {"locations_iterations": (n_locations, n_iterations)}
    extra.update(faults=[slow, kill], ranks=RANKS, max_fit_delta=delta)
    return runs, metrics, 1.2, extra


# ----------------------------------------------------------------------
# serve: cold CLI run, warm pool, cache hit
# ----------------------------------------------------------------------

#: Back-to-back requests a hit leg times; it reports seconds per hit.
#: One hit takes under a millisecond, about the size of a 2-core host's
#: scheduling noise.
HITS = 20


def serve(args):
    from repro.scenarios import RunConfig
    from repro.serve import ServerThread

    scenario, config = "heat-diffusion", RunConfig(quick=True, crosscheck=False)

    def cold() -> Run:
        command = [sys.executable, os.path.join(ROOT, "repro.py"), "run"]
        command += [scenario, "--quick", "--no-crosscheck"]
        start = time.perf_counter()
        subprocess.run(command, check=True, capture_output=True, cwd=ROOT)
        return Run(time.perf_counter() - start)

    with ServerThread(workers=2) as harness:

        def request(**kwargs):
            response = harness.client().run(scenario, config, **kwargs)
            require(response.status == 200 and response.report["ok"],
                    f"request failed: {response.status} {response.error}")
            return response

        filled = request()  # every later hit must return its bytes

        def warm() -> Run:
            start = time.perf_counter()
            response = request(no_cache=True)
            seconds = time.perf_counter() - start
            fitted = [event for event in response.progress
                      if event["analyses"]
                      and "coefficients" in event["analyses"][0]]
            require(len(fitted) >= 2, f"{len(fitted)} coefficient updates")
            return Run(seconds)

        def hit() -> Run:
            start = time.perf_counter()
            responses = [request() for _ in range(HITS)]
            seconds = (time.perf_counter() - start) / HITS
            require(all(r.cached and r.raw_report == filled.raw_report
                        for r in responses),
                    "a hit was not the cached bytes of the run that filled it")
            return Run(seconds)

        # In this process: the legs talk to the server thread it runs.
        runs = timed({"cold": cold, "warm": warm, "hit": hit}, lambda leg: leg())
    metrics = {
        "hit_speedup_vs_warm": ratios(runs["warm"], runs["hit"]),
        "warm_speedup_vs_cold": ratios(runs["cold"], runs["warm"]),
    }
    extra = {"scenario": scenario, "config": config.to_json(), "workers": 2}
    return runs, metrics, 100.0, extra


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------


def host() -> dict:
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    try:  # the commit measured; "-dirty" when the tree has edits
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True,
        ).stdout.strip()
    except OSError:  # no git on this host
        sha = ""
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(affinity) if affinity is not None else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha or None,
    }


SUITES = {
    "dataplane": dataplane,
    "distributed": distributed,
    "elastic": elastic,
    "serve": serve,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("--quick", action="store_true",
                        help="trimmed grid for CI smoke runs")
    parser.add_argument("--ranks", type=int,
                        help="distributed: mp rank count (default 2)")
    parser.add_argument("--min-speedup", type=float,
                        help="distributed: fail unless the median mp "
                        "speedup reaches this")
    parser.add_argument("--output", metavar="PATH",
                        help="JSON report path (default BENCH_<suite>.json)")
    args = parser.parse_args(argv)
    if args.suite != "distributed" and (args.ranks or args.min_speedup):
        parser.error("--ranks and --min-speedup belong to the distributed suite")
    if args.ranks is None:
        args.ranks = 2
    if args.ranks < 2:
        parser.error("--ranks must be at least 2")

    runs, metrics, bound, extra = SUITES[args.suite](args)
    gated = next(iter(metrics))  # each suite lists its gated metric first
    median = statistics.median(metrics[gated])
    payload = {
        "suite": args.suite,
        "quick": args.quick,
        "repetitions": REPS,
        "host": host(),
        **extra,
        "legs": {
            name: summary([run.seconds for run in leg_runs])
            for name, leg_runs in runs.items()
        },
        "metrics": {name: summary(values) for name, values in metrics.items()},
        "gate": {
            "metric": gated,
            "bound": bound,
            "median": round(median, 6),
            "passed": bound is None or median >= bound,
        },
    }
    print(f"{args.suite}: median [IQR] over {REPS} interleaved repetitions")
    for name, row in payload["legs"].items():
        q1, q3 = row["iqr"]
        print(f"  {name:<24}{row['median']:>10.4g} s  [{q1:.4g}, {q3:.4g}]")
    for name, row in payload["metrics"].items():
        q1, q3 = row["iqr"]
        print(f"  {name:<24}{row['median']:>10.4g}    [{q1:.4g}, {q3:.4g}]")
    output = args.output or os.path.join(ROOT, f"BENCH_{args.suite}.json")
    with open(output, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {output}")
    if not payload["gate"]["passed"]:
        print(f"FAIL: median {gated} {median:.3f} is below {bound:g}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
