"""Metric names and units, and the reductions from records to metrics.

Nothing here imports the program, so ``run.py`` can read the tables
before it knows whether the checkout holds one.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

#: name -> unit of every end-to-end metric (``--trace 0``).  Times are
#: host-normalised (see :func:`normalised`).
END_TO_END = {
    "run_s": "s",
    "feature_error": "error",
    "setup_s": "s",
}

#: name -> unit of every per-layer metric (``--trace 1``).
PER_LAYER = {
    "run_s.p90": "s",
    "wall_s": "s",
    "host.probe_s": "s",
    "requests_per_s": "1/s",
    "hit_s": "s",
    "overhead_pct": "%",
    "scaling_speedup": "x",
    "fail_frac": "ratio",
    "driver.loop_s": "s",
    "driver.iterations": "count",
    "driver.build_s": "s",
    "driver.loop_self_s": "s",
    "driver.advance_s": "s",
    "driver.advance_calls": "count",
    "workload.bare_step_s": "s",
    "providers.gather_s": "s",
    "providers.gather_calls": "count",
    "collector.add_row_s": "s",
    "collector.rows": "count",
    "collector.observe_s": "s",
    "scheduler.dispatch_s": "s",
    "scheduler.dispatch_calls": "count",
    "ar_model.partial_fit_s": "s",
    "ar_model.partial_fit_calls": "count",
    "ar_model.partial_fit_dup_frac": "ratio",
    "ar_model.stats_update_calls": "count",
    "minibatch.push_block_s": "s",
    "cadence.probe_s": "s",
    "cadence.probes": "count",
    "cadence.rows_collected": "count",
    "cadence.rows_skipped": "count",
    "cadence.snapbacks": "count",
    "cadence.sampling_reduction": "x",
    "distributed.spawn_s": "s",
    "distributed.rank0_idle_s": "s",
    "distributed.worker_idle_s": "s",
    "distributed.overlap_s": "s",
    "distributed.chunks_speculated": "count",
    "distributed.chunks_discarded": "count",
    "distributed.backfilled_rows": "count",
    "distributed.speculation_waste_frac": "ratio",
    "transport.bytes_moved": "B",
    "transport.serialize_s": "s",
    "transport.transfer_s": "s",
    "scenarios.validate_s": "s",
    "serve.server_s_hit": "s",
    "serve.server_s_miss": "s",
    "serve.wire_s": "s",
    "serve.progress_events": "count",
    "serve.stream_bytes": "B",
    "serve.cache_hit_frac": "ratio",
    "serve.cache_evictions": "count",
    "serve.pool_jobs": "count",
    "serve.pool_restarts": "count",
    "trace.overhead_pct": "%",
    "trace.coverage_frac": "ratio",
}

#: span name -> (self-time metric, call-count metric or None).  Every
#: span here runs inside the driver loop.
LOOP_SPANS = {
    "driver.advance": ("driver.advance_s", "driver.advance_calls"),
    "providers.gather": ("providers.gather_s", "providers.gather_calls"),
    "collector.add_row": ("collector.add_row_s", "collector.rows"),
    "collector.observe": ("collector.observe_s", None),
    "scheduler.dispatch": ("scheduler.dispatch_s", "scheduler.dispatch_calls"),
    "minibatch.push_block": ("minibatch.push_block_s", None),
    "ar_model.partial_fit": ("ar_model.partial_fit_s", "ar_model.partial_fit_calls"),
    "cadence.probe": ("cadence.probe_s", None),
    "distributed.spawn": ("distributed.spawn_s", None),
}


#: Host probe time the normalised seconds are scaled to.
PROBE_REF_S = 0.005


def normalised(seconds: float, probe: float) -> float:
    """``seconds`` as read on a host where the probe takes ``PROBE_REF_S``.

    On a shared host, other tenants slow whole minutes of a run: identical
    runs moved up to 60% in wall time while a fixed probe of NumPy and
    interpreter work, timed next to each request, moved with them.
    Dividing by the probe keeps what the program changes and removes most
    of what the host changes.
    """
    return seconds * PROBE_REF_S / probe


def mean(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def decile(values, which: int) -> float:
    """``which``-th decile (1..9) of ``values``, interpolated inside the sample."""
    values = sorted(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[which - 1]


class Phase:
    """Records and host probe times of one timed closed loop."""

    def __init__(self, records, start: float, probes) -> None:
        self.records = records
        self.start = start
        self.probes = probes
        self.end = max((r.end for r in records), default=start)

    def runs(self, kind: str = "run"):
        return [r for r in self.records if r.kind == kind and r.executed and r.ok]


def end_to_end(phase: Phase, setups) -> Dict[str, float]:
    """``setups`` holds ``(seconds, probe)`` per set-up."""
    executed = [r for r in phase.records if r.executed and r.ok]
    return {
        "run_s": median(normalised(r.seconds, r.probe) for r in phase.runs()),
        "feature_error": max((r.error for r in executed), default=0.0),
        "setup_s": median(normalised(s, p) for s, p in setups),
    }


def untraced(phase: Phase) -> Dict[str, float]:
    """Untraced latency and the metrics that exist on some workloads only.

    ``run_s`` is the median request, host-normalised, and ``wall_s`` the
    same in wall seconds; a workload without a hit, bare-sim or serial
    leg leaves that metric out (reported as 0).
    """
    runs = phase.runs()
    seconds = [normalised(r.seconds, r.probe) for r in runs]
    elapsed = phase.end - phase.start
    out = {
        "run_s": median(seconds),
        "run_s.p90": decile(seconds, 9),
        "wall_s": median(r.seconds for r in runs),
        "host.probe_s": median(phase.probes),
        "requests_per_s": len(phase.records) / elapsed if elapsed else 0.0,
    }
    hits = [
        normalised(r.seconds, r.probe)
        for r in phase.records
        if r.kind == "hit" and r.ok
    ]
    if hits:
        out["hit_s"] = median(hits)
    bare = [r.info["bare_s"] for r in runs if "bare_s" in r.info]
    if bare:
        loop = median(r.info["loop_s"] for r in runs)
        out["workload.bare_step_s"] = median(bare)
        out["overhead_pct"] = 100.0 * (loop - median(bare)) / median(bare)
    serial = phase.runs("serial")
    if serial and runs:
        out["scaling_speedup"] = median(r.seconds for r in serial) / out["wall_s"]
    return out


def layer_metrics(tracer, counters, records) -> Dict[str, float]:
    """Per-request layer metrics over the measured requests of a phase.

    ``records`` are the traced phase's records; the measured requests
    are its executed ``run`` records (the mp leg on ``bigsim-mp``, cache
    misses on ``serve-mix``).  Times are self times averaged per request.
    """
    runs = [r for r in records if r.kind == "run" and r.executed and r.ok]
    ids = [r.request for r in runs]
    selfs = tracer.self_times()
    out: Dict[str, float] = {}

    def per_request(name: str, index: int) -> float:
        return mean(selfs.get(i, {}).get(name, [0.0, 0])[index] for i in ids)

    inside = 0.0
    for span, (time_metric, count_metric) in LOOP_SPANS.items():
        out[time_metric] = per_request(span, 0)
        inside += out[time_metric]
        if count_metric:
            out[count_metric] = per_request(span, 1)
    out["driver.loop_self_s"] = per_request("driver.loop", 0)

    info = [r.info for r in runs]
    engine = [i for i in info if "loop_s" in i]
    out["driver.loop_s"] = mean(i["loop_s"] for i in engine)
    out["driver.iterations"] = mean(i.get("iterations", 0) for i in info)
    out["driver.build_s"] = mean(i["run_s"] - i["loop_s"] for i in engine)
    out["trace.coverage_frac"] = inside / out["driver.loop_s"] if engine else 0.0
    # Wall time outside ScenarioRun.seconds: validation and report
    # assembly (on serve-mix, in the pool worker plus the hand-off).
    out["scenarios.validate_s"] = mean(
        i.get("server_s", r.seconds) - i["run_s"] for r, i in zip(runs, info)
    )

    calls = sum(counters.fit_calls[i] for i in ids)
    dups = sum(counters.fit_dups[i] for i in ids)
    out["ar_model.partial_fit_dup_frac"] = dups / calls if calls else 0.0
    out["ar_model.stats_update_calls"] = mean(counters.stats_updates[i] for i in ids)

    cadence = [i.get("cadence") or {} for i in info]
    for metric, key in (
        ("cadence.probes", "probed"),
        ("cadence.rows_collected", "collected"),
        ("cadence.rows_skipped", "skipped"),
        ("cadence.snapbacks", "snapbacks"),
    ):
        out[metric] = mean(c.get(key, 0) for c in cadence)
    out["cadence.sampling_reduction"] = mean(
        c.get("sampling_reduction", 1.0) for c in cadence
    )

    transport = [i.get("transport") or {} for i in info]
    ranks = [t.get("per_rank", []) for t in transport]

    def rank_sum(key: str, workers: bool) -> float:
        return mean(sum(r[key] for r in p if (r["rank"] > 0) == workers) for p in ranks)

    out["distributed.rank0_idle_s"] = rank_sum("idle_seconds", False)
    out["distributed.worker_idle_s"] = rank_sum("idle_seconds", True)
    out["distributed.overlap_s"] = rank_sum("overlap_seconds", False)
    pipeline = [t.get("pipeline", {}) for t in transport]
    for key in ("chunks_speculated", "chunks_discarded", "backfilled_rows"):
        out[f"distributed.{key}"] = mean(p.get(key, 0) for p in pipeline)
    speculated = out["distributed.chunks_speculated"]
    out["distributed.speculation_waste_frac"] = (
        out["distributed.chunks_discarded"] / speculated if speculated else 0.0
    )
    out["transport.bytes_moved"] = mean(
        t.get("total_bytes_moved", 0) for t in transport
    )
    out["transport.serialize_s"] = mean(
        sum(r["serialize_seconds"] for r in p) for p in ranks
    )
    out["transport.transfer_s"] = mean(
        sum(r["transfer_seconds"] for r in p) for p in ranks
    )
    return out


def serve_metrics(records: List, delta: Optional[Dict[str, float]]) -> Dict[str, float]:
    """Serve-layer metrics over every client request of a run."""
    served = [r for r in records if r.kind in ("run", "hit") and "server_s" in r.info]
    hits = [r for r in served if not r.executed]
    misses = [r for r in served if r.executed]
    delta = delta or {}
    lookups = delta.get("hits", 0) + delta.get("misses", 0)
    return {
        "serve.server_s_hit": median(r.info["server_s"] for r in hits),
        "serve.server_s_miss": median(r.info["server_s"] for r in misses),
        "serve.wire_s": median(r.seconds - r.info["server_s"] for r in served),
        "serve.progress_events": mean(r.info["progress_events"] for r in misses),
        "serve.stream_bytes": mean(r.info["stream_bytes"] for r in misses),
        "serve.cache_hit_frac": delta.get("hits", 0) / lookups if lookups else 0.0,
        "serve.cache_evictions": float(delta.get("evictions", 0)),
        "serve.pool_jobs": float(delta.get("jobs", 0)),
        "serve.pool_restarts": float(delta.get("restarts", 0)),
    }
