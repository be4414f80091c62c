"""``python -m repro`` — the single entry point for scenario runs.

Three subcommands drive the scenario registry
(:mod:`repro.scenarios`):

``list``
    Show every registered scenario (``--json`` for machine-readable
    metadata, ``--names`` for a bare name list — ``--names --json``
    emits the compact JSON array CI feeds into its matrix).

``run <scenario>``
    Build, run and validate one scenario.  ``--ranks N`` shards it
    over the distributed runtime (``--backend simcomm|mp``) and — by
    default — cross-checks the fitted analyses against a fresh serial
    run, failing on any divergence beyond 1e-12.  ``--adaptive``
    enables the spec's adaptive collection cadence (scenarios that
    support it report ``adaptive`` in ``list``); the validator bound
    still applies, so CI can fail an adaptive run whose accuracy
    drifts.  ``--quick`` applies the spec's trimmed smoke parameters;
    ``--json out.json`` writes the full report.  ``--faults SPEC``
    injects deterministic failures (rank kills and slowdowns) into the
    distributed run and ``--rebalance`` migrates work away from slow
    ranks; both leave results bit-identical to serial, so the
    cross-check still applies.  Exit status 1 on validation failure or
    serial/distributed divergence.

``bench``
    Time every (or the named) scenario serial and distributed, print a
    comparison table, and optionally write the rows as JSON.

``serve``
    Start the analysis server (:mod:`repro.serve`): an asyncio HTTP
    endpoint multiplexing run requests over ``--workers N`` warm
    pre-imported worker processes, streaming incremental analysis
    state as NDJSON and answering repeated identical requests from a
    content-addressed result cache (``--cache-mb`` byte budget).

Programmatically, ``run`` builds a
:class:`~repro.scenarios.RunConfig` from its flags and calls
``run_scenario(name, config=...)`` — the same request object the
server accepts as JSON.

Examples::

    python -m repro list
    python -m repro run heat-diffusion --quick
    python -m repro run advection-front --ranks 4 --json report.json
    python -m repro run heat-diffusion --ranks 4 --backend mp \
        --faults 'kill:rank=2,iter=40' --rebalance
    python -m repro bench --ranks 2 --quick
    python -m repro serve --port 8752 --workers 4
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from typing import Dict, List, Optional, Sequence

from repro import scenarios
from repro.errors import ReproError, ScenarioError


def _parse_value(raw: str) -> object:
    """JSON (``true``, ``[8,263]``), then a Python literal (``(1,40)``),
    then the string itself; the scenario schema checks the result."""
    for parse in (json.loads, ast.literal_eval):
        try:
            return parse(raw)
        except (ValueError, SyntaxError):
            pass
    return raw


def _parse_params(pairs: Sequence[str]) -> Dict[str, object]:
    """Parse repeated ``--param key=value`` flags."""
    params: Dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ScenarioError(f"--param expects key=value, got {pair!r}")
        params[key] = _parse_value(raw)
    return params


def _cmd_list(args) -> int:
    specs = scenarios.specs()
    if args.names:
        names = [spec.name for spec in specs]
        if args.json:
            print(json.dumps(names))
        else:
            for name in names:
                print(name)
        return 0
    if args.json:
        listing = {"scenarios": [spec.describe() for spec in specs]}
        print(json.dumps(listing, indent=2))
        return 0
    width = max(len(spec.name) for spec in specs)
    print(f"{len(specs)} registered scenarios:\n")
    for spec in specs:
        adaptive = "yes" if spec.adaptive_supported else "no"
        print(f"  {spec.name.ljust(width)}  {spec.physics}")
        print(f"  {' ' * width}  ground truth: {spec.ground_truth}")
        print(
            f"  {' ' * width}  policy={spec.policy} "
            f"adaptive={adaptive} tolerance={spec.tolerance:g}"
        )
    print(
        "\nrun one with: python -m repro run <scenario> "
        "[--quick] [--ranks N] [--adaptive]"
    )
    return 0


def _cmd_run(args) -> int:
    config = scenarios.RunConfig(
        n_ranks=args.ranks,
        backend=args.backend,
        quick=args.quick,
        adaptive=args.adaptive,
        params=_parse_params(args.param),
        crosscheck=False if args.no_crosscheck else None,
        max_iterations=args.max_iterations,
        faults=args.faults,
        rebalance=args.rebalance,
    )
    run = scenarios.run_scenario(args.scenario, config=config)
    if config.serial:
        mode = "serial"
    else:
        mode = f"{config.n_ranks} ranks ({config.backend})"
    if config.adaptive:
        mode += " + adaptive cadence"
    if config.faults is not None:
        mode += f" + faults[{config.faults.to_spec()}]"
    if config.rebalance:
        mode += " + rebalance"
    print(f"scenario  : {run.name}{' [quick]' if config.quick else ''}")
    print(f"mode      : {mode}")
    print(
        f"run       : {run.result.iterations} iterations, "
        f"terminated_early={run.result.terminated_early}, "
        f"{run.seconds:.2f}s"
    )
    if run.result.stopped_at:
        stops = ", ".join(
            f"{name}@{stop}" for name, stop in sorted(run.result.stopped_at.items())
        )
        print(f"stops     : {stops}")
    for key, value in sorted(run.metrics.items()):
        if key == "error":
            continue
        print(f"  {key}: {value}")
    verdict = "PASS" if run.accuracy_ok else "FAIL"
    print(
        f"accuracy  : error {run.error:.4g} vs tolerance "
        f"{run.tolerance:g} -> {verdict}"
    )
    if run.result.cadence is not None:
        totals = run.result.cadence["totals"]
        print(
            "cadence   : sampling reduction "
            f"{totals['sampling_reduction']:.2f}x "
            f"({totals['collected']} collected + {totals['probed']} probes "
            f"vs {totals['matching_iterations']} full-cadence rows, "
            f"{totals['snapbacks']} snap-backs)"
        )
    events = getattr(run.result, "recovery_events", [])
    if events:
        summary = ", ".join(
            f"{event.kind}@{event.iteration}"
            + (f"(rank {event.rank})" if event.rank is not None else "")
            for event in events
        )
        print(f"recovery  : {summary}")
    if run.crosscheck is not None:
        report = run.crosscheck
        verdict = "PASS" if run.crosscheck_ok else "FAIL"
        print(
            "crosscheck: serial vs distributed max delta "
            f"{report['max_coefficient_delta']:.2e} "
            f"(stops_match={report['stops_match']}) -> {verdict}"
        )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(run.to_json(), fh, indent=2, default=str)
        print(f"report    : {args.json}")
    return 0 if run.ok else 1


def _cmd_bench(args) -> int:
    from repro.experiments.common import Table

    names = args.scenarios or scenarios.names()
    backend = scenarios.resolve_backend(args.backend)
    table = Table(
        title=f"Scenario bench (quick={args.quick}, ranks={args.ranks}, "
        f"backend={backend})",
        headers=[
            "Scenario",
            "Iterations",
            "Serial(s)",
            f"Dist@{args.ranks}(s)",
            "Comm(s)",
            "Error",
            "OK",
        ],
    )
    rows: List[Dict[str, object]] = []
    failures = 0
    for name in names:
        serial = scenarios.run_scenario(
            name, config=scenarios.RunConfig(quick=args.quick)
        )
        if args.ranks > 1:
            dist = scenarios.run_scenario(
                name,
                config=scenarios.RunConfig(
                    n_ranks=args.ranks,
                    backend=backend,
                    quick=args.quick,
                    crosscheck=True,
                ),
            )
            dist_seconds: Optional[float] = dist.seconds
            comm_seconds = getattr(dist.result, "comm_seconds", 0.0)
            ok = serial.ok and dist.ok
        else:
            dist_seconds = None
            comm_seconds = 0.0
            ok = serial.ok
        failures += 0 if ok else 1
        table.add_row(
            name,
            serial.result.iterations,
            serial.seconds,
            dist_seconds if dist_seconds is not None else "-",
            comm_seconds,
            serial.error,
            "yes" if ok else "NO",
        )
        rows.append(
            {
                "scenario": name,
                "iterations": serial.result.iterations,
                "serial_seconds": serial.seconds,
                "distributed_seconds": dist_seconds,
                "comm_seconds": comm_seconds,
                "backend": backend,
                "error": scenarios.json_safe(serial.error),
                "ok": ok,
            }
        )
    print(table.render())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(
                {"ranks": args.ranks, "backend": backend, "rows": rows},
                fh,
                indent=2,
            )
        print(f"\nreport: {args.json}")
    return 0 if failures == 0 else 1


def _cmd_serve(args) -> int:
    # Imported lazily: `list`/`run` should not pay for asyncio + the
    # serving stack.
    from repro.serve import serve

    serve(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_bytes=args.cache_mb * 1024 * 1024,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run registered in-situ feature-extraction scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show registered scenarios")
    p_list.add_argument("--json", action="store_true", help="JSON output")
    p_list.add_argument(
        "--names", action="store_true", help="names only (CI matrix input)"
    )
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run and validate one scenario")
    p_run.add_argument("scenario", help="registered scenario name")
    p_run.add_argument(
        "--ranks", type=int, default=1, help="ranks (default 1 = serial)"
    )
    p_run.add_argument(
        "--backend",
        default="simcomm",
        choices=sorted(set(scenarios.spec.BACKEND_ALIASES)),
        help="distributed backend (mp = multiprocessing)",
    )
    p_run.add_argument(
        "--quick", action="store_true", help="use the spec's smoke parameters"
    )
    p_run.add_argument(
        "--adaptive",
        action="store_true",
        help="enable the spec's adaptive collection cadence "
        "(supported scenarios only; any backend)",
    )
    p_run.add_argument("--json", metavar="PATH", help="write the full report as JSON")
    p_run.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a scenario parameter (repeatable)",
    )
    p_run.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="inject deterministic faults into a distributed run, e.g. "
        "'kill:rank=2,iter=40;slow:rank=1,per_sample=1e-4'",
    )
    p_run.add_argument(
        "--rebalance",
        action="store_true",
        help="migrate window slices away from slow ranks when sample-time "
        "skew exceeds the hysteresis threshold (distributed runs)",
    )
    p_run.add_argument(
        "--no-crosscheck",
        action="store_true",
        help="skip the serial agreement check on distributed runs",
    )
    p_run.add_argument(
        "--max-iterations", type=int, default=None, help="hard iteration cap"
    )
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser("bench", help="time scenarios serial vs distributed")
    p_bench.add_argument("scenarios", nargs="*", help="scenario names (default: all)")
    p_bench.add_argument("--ranks", type=int, default=2, help="distributed rank count")
    p_bench.add_argument(
        "--backend",
        default="simcomm",
        choices=sorted(set(scenarios.spec.BACKEND_ALIASES)),
        help="distributed backend for the parallel leg",
    )
    p_bench.add_argument("--quick", action="store_true")
    p_bench.add_argument("--json", metavar="PATH")
    p_bench.set_defaults(func=_cmd_bench)

    p_serve = sub.add_parser(
        "serve", help="start the streaming analysis server"
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    p_serve.add_argument(
        "--port", type=int, default=8752, help="TCP port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, help="warm worker processes"
    )
    p_serve.add_argument(
        "--cache-mb",
        type=int,
        default=64,
        help="result cache budget in MiB (0 disables caching)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
