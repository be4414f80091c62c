"""The repo benchmark: three in-situ workloads, end-to-end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-serial --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

A run sets its workload up three times (the median is ``setup_s``),
then drives the workload's closed loop for ``--seconds``.  Times are
host-normalised: each is divided by a short fixed probe of NumPy and
interpreter work timed just before it (``metrics.normalised``).  With
``--trace 0`` it prints the end-to-end metrics.  With ``--trace 1`` it
spends the first half untraced and the second half with spans recorded
around each layer's public functions, prints the per-layer metrics and
writes the spans to ``perfbench/out/`` as Chrome trace-event JSON.

Every request's outputs are checked; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``,
and the exit code is non-zero when any check failed.  Every output is
stamped with the environment it was measured in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

import metrics
from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Setups per run; ``setup_s`` is their median.
SETUPS = 3


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from ``.git``."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def src_digest() -> str:
    """SHA-256 over the program's source files: identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


#: Seconds between host probes in a timed loop.
PROBE_EVERY = 0.25


def host_probe() -> float:
    """Seconds of a fixed block of small NumPy and interpreter work.

    About 6 ms on a 2.1 GHz Xeon.  No program code runs in it, so it
    reads the host, not the change; request and set-up times are divided
    by the probe taken last before them (:func:`metrics.normalised`).
    """
    import numpy

    rng = numpy.random.default_rng(0)
    x = rng.standard_normal((64, 8))
    y = rng.standard_normal(64)
    w = numpy.zeros(8)
    start = time.perf_counter()
    for _ in range(400):
        w -= 0.01 * numpy.clip(x.T @ (x @ w - y) / 64, -1, 1)
        total = 0.0
        for v in range(30):
            total += v * 0.5
    return time.perf_counter() - start


def environment(args) -> dict:
    import numpy

    from repro.core.kernels import resolve_kernels
    from repro.engine.transport import shared_memory_available

    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(affinity) if affinity is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels": resolve_kernels("auto"),
        "shared_memory": shared_memory_available(),
        "git_sha": git_sha(),
        "src_digest": src_digest(),
        "host_probe_s": metrics.median(host_probe() for _ in range(7)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(workload, seconds: float) -> metrics.Phase:
    """Drive the workload's closed loop for ``seconds``, probing the host
    at most every ``PROBE_EVERY`` seconds between requests."""
    records, probes = [], []
    start = time.perf_counter()
    deadline = start + seconds
    next_probe = start
    while time.perf_counter() < deadline:
        if time.perf_counter() >= next_probe:
            probes.append(host_probe())
            next_probe = time.perf_counter() + PROBE_EVERY
        try:
            step = workload.step()
        except StopIteration:
            break
        for record in step:
            record.probe = probes[-1]
        records.extend(step)
    return metrics.Phase(records, start, probes)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Set up, measure and check one workload; returns (result, details)."""
    import layers
    from spans import Tracer
    from workloads import WORKLOADS, Session

    session = Session()
    workload = WORKLOADS[name](session, seed, tiny)
    records, setups = [], []
    details: dict = {}
    try:
        for _ in range(1 if tiny else SETUPS):
            probe = host_probe()
            tick = time.perf_counter()
            records.extend(workload.setup())
            setups.append((time.perf_counter() - tick, probe))
        if not trace:
            phase = measure(workload, seconds)
            values = metrics.end_to_end(phase, setups)
            details = metrics.untraced(phase)
            phases = [phase]
        else:
            plain = measure(workload, seconds / 2)
            tracer = Tracer()
            counters = layers.install(tracer)
            session.tracer = tracer
            try:
                traced = measure(workload, seconds / 2)
            finally:
                tracer.close()
                session.tracer = None
            phases = [plain, traced]
            values = metrics.untraced(plain)
            values.update(metrics.layer_metrics(tracer, counters, traced.records))
            base = metrics.decile((r.seconds for r in plain.runs()), 1)
            slow = metrics.decile((r.seconds for r in traced.runs()), 1)
            values["trace.overhead_pct"] = 100.0 * (slow - base) / base if base else 0.0
            details["tracer"] = tracer
        for phase in phases:
            records.extend(phase.records)
        delta = None
        if name == "serve-mix":
            delta = workload.stats_delta()
            if delta["hits"] != workload.repeats:
                details["stats_mismatch"] = (
                    f"/stats counted {delta['hits']} cache hits for "
                    f"{workload.repeats} repeated requests"
                )
        if trace:
            values.update(metrics.serve_metrics(records, delta))
    finally:
        workload.close()
    failed = [r for r in records if not r.ok]
    attempted = len(records)
    n_failed = len(failed) + (1 if "stats_mismatch" in details else 0)
    details.update(
        fail_frac=n_failed / attempted if attempted else 1.0,
        failures=[r.reason for r in failed][:5],
        executed=sum(1 for r in records if r.kind == "run" and r.executed),
        requests=attempted,
    )
    if trace:
        values["fail_frac"] = details["fail_frac"]
        values = {k: values.get(k, 0.0) for k in PER_LAYER}
    return {
        "correct": n_failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": values,
    }, details


def render(result: dict, units: dict) -> dict:
    """The result line: every metric as ``{"value", "unit"}``."""
    return {
        **result,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }


def self_check() -> int:
    """Each workload at a tiny size, both modes: every named metric is
    emitted with its unit and nothing fails.  Takes a few seconds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if declared != {0: END_TO_END, 1: PER_LAYER}:
        raise SystemExit("BENCHMARK.json metrics differ from the ones run.py emits")
    for workload in spec["workloads"]:
        for trace in (0, 1):
            result, details = run_workload(
                workload["name"], seed=7, seconds=0.5, trace=bool(trace), tiny=True
            )
            line = render(result, declared[trace])
            if line["metrics"].keys() != declared[trace].keys():
                raise SystemExit(f"{workload['name']} trace={trace}: metrics differ")
            if result["failed"] or not result["correct"]:
                raise SystemExit(
                    f"{workload['name']} trace={trace}: fail_frac > 0: "
                    f"{details['failures']}"
                )
            print(
                f"self-check {workload['name']} trace={trace}: "
                f"{result['attempted']} requests ok"
            )
    return 0


def stop_children(grace: float = 10.0) -> None:
    """Stop and reap every process this run started.

    Pool and mp workers are joined (killed after ``grace`` seconds).
    Shared memory starts ``multiprocessing``'s resource tracker, which
    otherwise outlives the benchmark until it notices the closed pipe;
    closing its pipe here and waiting for it makes the exit clean.
    """
    import multiprocessing
    import signal

    for child in multiprocessing.active_children():
        child.join(grace)
        if child.is_alive():
            child.kill()
            child.join()
    try:
        from multiprocessing import resource_tracker

        tracker = resource_tracker._resource_tracker
        fd, pid = tracker._fd, tracker._pid
    except (ImportError, AttributeError):  # private API drift
        return
    if fd is None or pid is None:
        return
    tracker._fd = tracker._pid = None
    os.close(fd)
    deadline = time.monotonic() + grace
    try:
        while os.waitpid(pid, os.WNOHANG)[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)
    except ChildProcessError:  # already reaped
        pass


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=["sweep-serial", "bigsim-mp", "serve-mix"]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source under {SRC.name}/repro in this "
            "checkout; nothing to measure",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    result, details = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in result["metrics"].items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    tracer = details.pop("tracer", None)
    for name, value in sorted(details.items()):
        print(f"detail {name} = {value}")
    if tracer is not None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(tracer.chrome_trace(env), separators=(",", ":")))
        print(f"trace {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    print(json.dumps(render(result, units)), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
