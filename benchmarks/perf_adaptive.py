"""Adaptive-cadence benchmark: full-cadence sampling vs converged probes.

Runs each workload twice through the unified execution driver — once at
full collection cadence (the bit-identical default) and once with the
:class:`~repro.engine.cadence.CadenceController` attached — and reports
the **sampling-cost reduction**: how many provider sweeps the adaptive
run paid (collected rows + verification probes) against what full
cadence would have swept, with the validation error of both runs next
to it so the saving is never quoted without its accuracy bill.

Three legs:

``heat-diffusion`` / ``oscillator-ringdown``
    The analytic scenarios, driven through ``scenarios.run_scenario``
    with their spec-declared cadence tolerances; errors are measured
    against closed-form ground truth and must stay inside each spec's
    stated tolerance in both modes.

``lulesh_wide_spatial``
    A wide-spatial-window curve fit over a real LULESH Sedov blast
    (the paper's material-deformation variable at every interior
    element, sampled on the paper's lag-matched temporal stride).
    Provider sweeps are counted by instrumenting the batch provider,
    so probe sweeps are charged too.  The blast is genuinely
    non-stationary while the wave transits the window, so the expected
    behaviour is drift snap-backs during transit and widened sampling
    on the decaying tail — a smaller but honest reduction.

An untimed warmup pass (one quick heat-diffusion run) precedes the
timed legs so allocator pools and import caches never land inside a
timed region; the payload records the ``warmup_seconds`` it cost.

Run directly::

    python benchmarks/perf_adaptive.py [--quick] \
        [--min-reduction 2] [--output BENCH_adaptive.json]

``--min-reduction`` fails the run unless the best scenario beats the
bound (CI gates on 2x).  Not collected by pytest (the module is not
named ``test_*``) — this is a timing script, not a correctness test.
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (makes src/ importable from a checkout)

import argparse
import json
import time

from repro import scenarios
from repro.core.curve_fitting import CurveFitting
from repro.core.params import IterParam
from repro.engine import CadenceController, CadencePolicy, InSituEngine

#: Sweep counter shared by the instrumented LULESH provider.
_SWEEPS = {"n": 0}


def _velocity(domain, location):
    return domain.xd(location)


def _velocity_batch(domain, locations):
    _SWEEPS["n"] += 1
    return domain.xd_batch(locations)


_velocity.batch = _velocity_batch


def bench_scenario(name: str, *, quick: bool) -> dict:
    """Baseline vs adaptive run of one registered scenario."""
    spec = scenarios.get(name)
    baseline = scenarios.run_scenario(
        name, config=scenarios.RunConfig(quick=quick)
    )
    adaptive = scenarios.run_scenario(
        name, config=scenarios.RunConfig(quick=quick, adaptive=True)
    )
    totals = adaptive.result.cadence["totals"]
    if not (baseline.accuracy_ok and adaptive.accuracy_ok):
        raise AssertionError(
            f"{name}: validator exceeded tolerance "
            f"(baseline {baseline.error:.4f}, adaptive {adaptive.error:.4f} "
            f"vs {spec.tolerance:g})"
        )
    return {
        "scenario": name,
        "tolerance": spec.tolerance,
        "cadence": dict(spec.cadence),
        "baseline_error": baseline.error,
        "adaptive_error": adaptive.error,
        "baseline_rows": totals["matching_iterations"],
        "adaptive_rows": totals["collected"] + totals["probed"],
        "snapbacks": totals["snapbacks"],
        "max_probe_residual": totals["max_probe_residual"],
        "sampling_reduction": round(totals["sampling_reduction"], 2),
        "baseline_seconds": round(baseline.seconds, 4),
        "adaptive_seconds": round(adaptive.seconds, 4),
    }


def bench_lulesh_wide(*, quick: bool) -> dict:
    """Baseline vs adaptive wide-spatial curve fit on a Sedov blast."""
    from repro.experiments.common import lulesh_reference
    from repro.lulesh import LuleshSimulation

    size = 16 if quick else 30
    total = lulesh_reference(size).total_iterations
    spatial = IterParam(1, size - 2, 1)
    temporal = IterParam(50, int(0.9 * total), 10)
    # The quick grid's window holds ~30 rows in total, so the warm-up
    # must shrink with it or the cadence never widens.
    policy = CadencePolicy(
        drift_tolerance=0.15, warmup_rows=12 if quick else 30
    )

    def one_run(adaptive: bool):
        _SWEEPS["n"] = 0
        sim = LuleshSimulation(size, maintain_field=False)
        engine = InSituEngine(
            sim,
            policy="all",
            cadence=CadenceController(policy) if adaptive else None,
        )
        analysis = engine.add_analysis(
            CurveFitting(
                _velocity,
                spatial,
                temporal,
                axis="space",
                order=3,
                lag=10,
                batch_size=16,
                name="wide-spatial",
            )
        )
        tick = time.perf_counter()
        result = engine.run()
        seconds = time.perf_counter() - tick
        return result, analysis, _SWEEPS["n"], seconds

    base_result, base_fit, base_sweeps, base_seconds = one_run(False)
    ad_result, ad_fit, ad_sweeps, ad_seconds = one_run(True)
    totals = ad_result.cadence["totals"]
    if ad_sweeps >= base_sweeps:
        raise AssertionError(
            f"lulesh_wide_spatial: adaptive paid {ad_sweeps} sweeps vs "
            f"{base_sweeps} at full cadence — no reduction"
        )
    return {
        "scenario": "lulesh_wide_spatial",
        "size": size,
        "window_width": spatial.count,
        "baseline_error": base_fit.fit_error(),
        "adaptive_error": ad_fit.fit_error(),
        "baseline_rows": base_sweeps,
        "adaptive_rows": ad_sweeps,
        "snapbacks": totals["snapbacks"],
        "max_probe_residual": totals["max_probe_residual"],
        "sampling_reduction": round(base_sweeps / ad_sweeps, 2),
        "baseline_seconds": round(base_seconds, 4),
        "adaptive_seconds": round(ad_seconds, 4),
    }


def warmup() -> float:
    """One untimed pass before any timed leg.

    Drives one quick scenario end to end so the timed runs below
    measure steady state.  Returns the warmup wall seconds.
    """
    tick = time.perf_counter()
    scenarios.run_scenario(
        "heat-diffusion", config=scenarios.RunConfig(quick=True)
    )
    scenarios.run_scenario(
        "heat-diffusion", config=scenarios.RunConfig(quick=True, adaptive=True)
    )
    return time.perf_counter() - tick


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="trimmed grid for CI smoke runs",
    )
    parser.add_argument(
        "--output",
        default="BENCH_adaptive.json",
        help="where to write the JSON results",
    )
    parser.add_argument(
        "--min-reduction",
        type=float,
        default=0.0,
        help="fail unless the best sampling-cost reduction beats this",
    )
    args = parser.parse_args(argv)

    warmup_seconds = warmup()
    results = [
        bench_scenario("heat-diffusion", quick=args.quick),
        bench_scenario("oscillator-ringdown", quick=args.quick),
        bench_lulesh_wide(quick=args.quick),
    ]

    header = (
        f"{'scenario':<22}{'rows full':>10}{'rows adpt':>10}{'reduction':>10}"
        f"{'err full':>10}{'err adpt':>10}{'snaps':>6}"
    )
    print(header)
    print("-" * len(header))
    for r in results:
        print(
            f"{r['scenario']:<22}{r['baseline_rows']:>10}"
            f"{r['adaptive_rows']:>10}{r['sampling_reduction']:>9.2f}x"
            f"{r['baseline_error']:>10.4f}{r['adaptive_error']:>10.4f}"
            f"{r['snapbacks']:>6}"
        )

    payload = {
        "quick": args.quick,
        "warmup_seconds": round(warmup_seconds, 4),
        "scenarios": results,
    }
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"\nwrote {args.output}")

    best = max(r["sampling_reduction"] for r in results)
    if args.min_reduction and best < args.min_reduction:
        print(
            f"FAIL: best sampling-cost reduction {best}x is below the "
            f"required {args.min_reduction}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
