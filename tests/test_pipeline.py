"""Tests for pipelined chunk execution on the multiprocessing backend.

The acceptance core: every multi-rank run speculates the next chunk,
and results stay bit-identical to the serial engine — speculation only
ever changes *when* rows are fetched, never what the engine consumes.
The hard edges each get a deterministic test: a speculative chunk
adopted when the active set grows between chunk boundaries (rank 0
backfills the group it gained), a worker killed while a speculative
chunk is in flight, and teardown on failure paths.
"""

import os
import threading

import numpy as np
import pytest

from repro.core.curve_fitting import CurveFitting
from repro.core.params import IterParam
from repro.engine import (
    CadenceController,
    CadencePolicy,
    DistributedEngine,
    InSituEngine,
    MultiprocessExecutor,
    ReplayApp,
    SharedCollector,
    plan_groups,
)
from repro.engine import transport
from repro.errors import CollectionError

TOL = 1e-12


def _replay_app(seed=11, n_iterations=120, n_locations=32):
    rng = np.random.default_rng(seed)
    history = np.cumsum(
        rng.standard_normal((n_iterations, n_locations)), axis=0
    )
    return ReplayApp(history + 5.0)


def _nan_replay_app():
    history = np.ones((40, 8))
    history[20, 2] = np.nan
    return ReplayApp(history)


def _replay_analysis(name="fit", n_iterations=120, n_locations=32):
    return CurveFitting(
        ReplayApp.provider,
        IterParam(0, n_locations - 1, 1),
        IterParam(1, n_iterations, 1),
        order=3,
        lag=1,
        batch_size=16,
        name=name,
        terminate_when_trained=True,
        min_updates=3,
        monitor_window=3,
        monitor_patience=1,
    )


def _assert_fits_match(serial_analysis, dist_analysis, atol=TOL):
    np.testing.assert_allclose(
        serial_analysis.model.coefficients,
        dist_analysis.model.coefficients,
        rtol=0.0,
        atol=atol,
    )
    assert serial_analysis.model.intercept == pytest.approx(
        dist_analysis.model.intercept, abs=atol
    )


def _regime_history(n_iterations=160, n_locations=8, shift_at=100):
    t = np.arange(1, n_iterations + 1, dtype=np.float64)[:, None]
    x = np.arange(n_locations, dtype=np.float64)[None, :]
    quiet = 5.0 + 2.0 * np.power(0.98, t) * np.cos(0.1 * x)
    burst = 5.0 + 3.0 * np.sin(0.35 * (t - shift_at)) * (1.0 + 0.1 * x)
    return np.where(t < shift_at, quiet, burst)


def _regime_app():
    return ReplayApp(_regime_history())


# ----------------------------------------------------------------------
# the pipeline is not a knob
# ----------------------------------------------------------------------


class TestPipelineKnob:
    def test_simcomm_rejects_pipeline(self):
        with pytest.raises(TypeError, match="pipeline"):
            DistributedEngine(_replay_app(), n_ranks=2, pipeline="on")


# ----------------------------------------------------------------------
# bit-identity: pipelined == serial
# ----------------------------------------------------------------------


class TestPipelinedEquivalence:
    def test_pipelined_and_serial_bit_identical(self):
        serial_engine = InSituEngine(_replay_app(), policy="all")
        serial_analysis = serial_engine.add_analysis(_replay_analysis())
        serial_result = serial_engine.run()

        engine = DistributedEngine(
            backend="multiprocessing",
            n_ranks=2,
            app_factory=_replay_app,
            chunk=8,
            policy="all",
        )
        analysis = engine.add_analysis(_replay_analysis())
        result = engine.run()
        assert result.stopped_at == serial_result.stopped_at
        _assert_fits_match(serial_analysis, analysis)
        assert result.transport_stats["pipeline"]["chunks_speculated"] > 0

    def test_overlap_and_idle_seconds_reported_per_rank(self):
        engine = DistributedEngine(
            backend="multiprocessing",
            n_ranks=3,
            app_factory=_replay_app,
            chunk=8,
            policy="all",
        )
        engine.add_analysis(_replay_analysis())
        result = engine.run()
        stats = result.transport_stats
        assert [r["rank"] for r in stats["per_rank"]] == [0, 1, 2]
        for entry in stats["per_rank"]:
            assert entry["overlap_seconds"] >= 0.0
            assert entry["idle_seconds"] >= 0.0
        # Speculation ran, so rank 0 banked compute time that
        # overlapped worker stepping.
        assert stats["pipeline"]["chunks_speculated"] > 0
        assert stats["per_rank"][0]["overlap_seconds"] > 0.0

    def test_worker_idles_while_rank0_is_slow(self):
        # Rank 0 sleeps per sampled value, so each speculative chunk a
        # worker produces waits for rank 0 to catch up.  The worker's
        # busy seconds ride its chunk acks; the rest of each
        # speculation window is its idle time.
        engine = DistributedEngine(
            backend="multiprocessing",
            n_ranks=2,
            app_factory=_replay_app,
            chunk=8,
            policy="all",
            faults="slow:rank=0,per_sample=1e-4",
        )
        engine.add_analysis(_replay_analysis())
        stats = engine.run().transport_stats
        worker = stats["per_rank"][1]
        assert worker["idle_seconds"] > 0.0
        assert worker["idle_seconds"] > worker["overlap_seconds"]


# ----------------------------------------------------------------------
# speculation adoption: the active set changes between chunk boundaries
# ----------------------------------------------------------------------

N_ITER = 16
N_LOC = 32


def _two_group_app():
    rng = np.random.default_rng(29)
    history = np.cumsum(rng.standard_normal((N_ITER, N_LOC)), axis=0)
    return ReplayApp(history + 3.0)


def _two_group_executor():
    """A 2-rank executor over two spatial groups, driven by hand."""
    app = _two_group_app()
    shared = SharedCollector()
    for spatial in (IterParam(0, 15, 1), IterParam(16, N_LOC - 1, 1)):
        shared.subscribe(
            CurveFitting(
                ReplayApp.provider,
                spatial,
                IterParam(1, N_ITER, 1),
                order=2,
                lag=1,
                batch_size=8,
            )
        )
    plans = plan_groups(shared, 2)
    executor = MultiprocessExecutor(
        app,
        plans,
        n_ranks=2,
        app_factory=_two_group_app,
        max_iterations=N_ITER,
        chunk=4,
    )
    return executor, plans, app.history


class TestSpeculationAdoption:
    def test_grown_active_set_adopts_and_backfills_bit_identical(self):
        # Chunk 1 is requested with only group 0 active, so the
        # speculative chunk 2 freezes {0} as well.  Activating group 1
        # at the chunk-2 boundary makes the needed set a *superset* of
        # the speculated one.  The chunk is adopted anyway: the workers'
        # group-0 parts are used, and rank 0 backfills group 1's rows
        # for that chunk only.
        executor, plans, history = _two_group_executor()
        try:
            executor.start()
            rows_seen = {}
            for iteration in range(1, 13):
                active = (0,) if iteration in (1, 3, 4) else (0, 1)
                rows = executor.advance(iteration, active)
                rows_seen[iteration] = rows
            for iteration, rows in rows_seen.items():
                for g, row in rows.items():
                    window = plans[g].locations
                    np.testing.assert_array_equal(
                        row, history[iteration - 1, window]
                    )
            # Iteration 2 (mid-chunk) and iterations 5-8 (the adopted
            # chunk) wanted group 1, which their chunks were frozen
            # without: rank 0 backfilled those five rows.
            assert executor._backfilled_rows == 5
            assert executor._chunks_speculated >= 2
            assert "chunks_discarded" not in (
                executor.transport_stats()["pipeline"]
            )
            # Per rank, values sampled.  The worker's 32 group-0 values
            # of chunk 2 are kept; rank 0 samples only its 32 group-1
            # values of that chunk.
            assert executor.layout.samples == [208, 128]
        finally:
            executor.close()

    def test_shrunk_active_set_adopts_the_speculated_chunk(self):
        # The other direction of drift — a group going inactive — only
        # over-collects: the speculated superset is adopted as-is.
        executor, plans, history = _two_group_executor()
        try:
            executor.start()
            for iteration in range(1, 13):
                active = (0, 1) if iteration <= 4 else (0,)
                rows = executor.advance(iteration, active)
                np.testing.assert_array_equal(
                    rows[0], history[iteration - 1, plans[0].locations]
                )
            # Freezing only over-collects here: rank 0 never samples
            # the worker's shard.
            assert executor._backfilled_rows == 0
        finally:
            executor.close()


# ----------------------------------------------------------------------
# elastic events while a speculative chunk is in flight
# ----------------------------------------------------------------------


class TestElasticInteractions:
    def test_kill_during_speculation_recovers_bit_identical(self):
        # With chunk=8, iteration 16 of the worker's replica is always
        # reached while its chunk is speculative (the parent consumes
        # iterations 1-8 concurrently) — the death surfaces when the
        # speculation is received, and the parent must record it,
        # fence, reshard and resume.
        serial_engine = InSituEngine(_replay_app(), policy="all")
        serial_analysis = serial_engine.add_analysis(_replay_analysis())
        serial_result = serial_engine.run()

        engine = DistributedEngine(
            backend="multiprocessing",
            n_ranks=3,
            app_factory=_replay_app,
            chunk=8,
            policy="all",
            faults="kill:rank=1,iter=16",
        )
        analysis = engine.add_analysis(_replay_analysis())
        result = engine.run()
        assert result.stopped_at == serial_result.stopped_at
        _assert_fits_match(serial_analysis, analysis, atol=1e-9)
        kinds = [event.kind for event in result.recovery_events]
        assert "rank_death" in kinds and "reshard" in kinds
        assert result.transport_stats["pipeline"]["chunks_speculated"] > 0

    def test_adaptive_cadence_pipelined_matches_serial(self):
        # Regime change: converge, widen, drift, snap back — the
        # snap-back grows the active set against an in-flight
        # speculative chunk.  Serial and pipelined mp must agree
        # exactly anyway.
        def build_analysis():
            return CurveFitting(
                ReplayApp.provider,
                IterParam(0, 7, 1),
                IterParam(1, 160, 1),
                axis="time",
                order=2,
                lag=1,
                batch_size=8,
                min_updates=5,
                monitor_window=3,
                monitor_patience=1,
                name="regime",
            )

        policy = CadencePolicy(drift_tolerance=0.02, probes_per_level=1)
        serial_engine = InSituEngine(
            _regime_app(), cadence=CadenceController(policy)
        )
        serial_analysis = serial_engine.add_analysis(build_analysis())
        serial_result = serial_engine.run()
        assert serial_result.cadence["totals"]["snapbacks"] >= 1

        engine = DistributedEngine(
            backend="multiprocessing",
            n_ranks=2,
            app_factory=_regime_app,
            chunk=8,
            cadence=CadenceController(policy),
        )
        analysis = engine.add_analysis(build_analysis())
        result = engine.run()
        assert (
            result.cadence["totals"]["snapbacks"]
            == serial_result.cadence["totals"]["snapbacks"]
        )
        _assert_fits_match(serial_analysis, analysis)


# ----------------------------------------------------------------------
# teardown: no leaked processes, no threads, no shm segments
# ----------------------------------------------------------------------


def _shm_entries():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


class TestCleanup:
    def test_failure_mid_pipeline_tears_everything_down(self):
        engine = DistributedEngine(
            backend="multiprocessing",
            n_ranks=2,
            app_factory=_nan_replay_app,
            chunk=4,
        )
        engine.add_analysis(
            CurveFitting(
                ReplayApp.provider,
                IterParam(0, 7, 1),
                IterParam(1, 40, 1),
                order=2,
                lag=1,
                batch_size=8,
                name="nan-window",
            )
        )
        with pytest.raises(CollectionError, match="non-finite"):
            engine.run()
        executor = engine.executor
        assert executor._processes == []
        assert executor._conns == []
        assert executor._speculative is None

    def test_clean_run_leaves_no_reader_thread(self, monkeypatch):
        # The parent receives every chunk on its own thread: a run
        # starts no thread and creates no shared-memory segment.
        started = []
        original_start = threading.Thread.start

        def record_start(thread):
            started.append(thread.name)
            original_start(thread)

        monkeypatch.setattr(threading.Thread, "start", record_start)
        shm_before = _shm_entries()
        engine = DistributedEngine(
            backend="multiprocessing",
            n_ranks=2,
            app_factory=_replay_app,
            chunk=8,
        )
        engine.add_analysis(_replay_analysis())
        result = engine.run()
        assert result.transport_stats["pipeline"]["chunks_speculated"] > 0
        assert started == []
        assert _shm_entries() <= shm_before
        assert not hasattr(transport, "ShmRing")
