"""Tests for the distributed rank-parallel runtime.

The acceptance core: SimComm-backed distributed runs at 1/4/8 ranks
must produce fit coefficients and stop iterations bit-identical
(<= 1e-12) to the serial engine on both the LULESH and wdmerger
scenarios, and the multiprocessing backend must match on a replayed
scenario with real worker processes.
"""

import numpy as np
import pytest

from repro.core.curve_fitting import Analysis, CurveFitting
from repro.core.features import ExtractionSummary
from repro.core.params import IterParam
from repro.core.providers import ShardView
from repro.engine import (
    DistributedEngine,
    InSituEngine,
    MultiprocessExecutor,
    ReplayApp,
    plan_groups,
)
from repro.errors import CollectionError, ConfigurationError
from repro.lulesh import LuleshSimulation
from repro.lulesh.insitu import BreakPointAnalysis
from repro.parallel.comm import SimComm
from repro.wdmerger import WdMergerSimulation
from repro.wdmerger.diagnostics import multi_diagnostic_provider
from repro.wdmerger.insitu import DetonationAnalysis

SIZE = 16
THRESHOLDS = (0.002, 0.02, 0.2)
TOL = 1e-12


def _lulesh_provider(domain, loc):
    return domain.xd(loc)


def _replay_app(seed=3, n_iterations=120, n_locations=32):
    rng = np.random.default_rng(seed)
    history = np.cumsum(
        rng.standard_normal((n_iterations, n_locations)), axis=0
    )
    return ReplayApp(history + 5.0)


def _nan_replay_app():
    """Replay app whose history trips the non-finite row check mid-run."""
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


class _StopAtAnalysis(Analysis):
    """Collector-less analysis requesting termination at a set iteration."""

    def __init__(self, name, stop_at):
        super().__init__(name)
        self.stop_at = stop_at

    def on_iteration(self, domain, iteration):
        if iteration >= self.stop_at:
            self.wants_stop = True
        return None

    def summary(self):
        return ExtractionSummary()


def _assert_fits_match(serial_analysis, dist_analysis):
    np.testing.assert_allclose(
        serial_analysis.model.coefficients,
        dist_analysis.model.coefficients,
        rtol=0.0,
        atol=TOL,
    )
    assert serial_analysis.model.intercept == pytest.approx(
        dist_analysis.model.intercept, abs=TOL
    )
    assert (
        serial_analysis.trainer.updates == dist_analysis.trainer.updates
    )


# ----------------------------------------------------------------------
# acceptance: LULESH scenario, SimComm backend, 1/4/8 ranks
# ----------------------------------------------------------------------


class TestLuleshEquivalence:
    @pytest.fixture(scope="class")
    def total_iterations(self):
        sim = LuleshSimulation(SIZE, maintain_field=False)
        sim.run()
        return sim.iteration

    def _analyses(self, total):
        return [
            BreakPointAnalysis(
                _lulesh_provider,
                IterParam(1, 8, 1),
                IterParam(30, int(0.4 * total), 1),
                threshold=threshold,
                max_location=SIZE,
                lag=10,
                order=3,
                terminate_when_trained=True,
                name=f"t{threshold:g}",
            )
            for threshold in THRESHOLDS
        ]

    @pytest.fixture(scope="class")
    def serial(self, total_iterations):
        engine = InSituEngine(
            LuleshSimulation(SIZE, maintain_field=False), policy="all"
        )
        analyses = [
            engine.add_analysis(a) for a in self._analyses(total_iterations)
        ]
        return analyses, engine.run()

    @pytest.mark.parametrize("n_ranks", [1, 4, 8])
    def test_bit_identical_to_serial(self, serial, total_iterations, n_ranks):
        serial_analyses, serial_result = serial
        engine = DistributedEngine(
            LuleshSimulation(SIZE, maintain_field=False),
            n_ranks=n_ranks,
            policy="all",
        )
        analyses = [
            engine.add_analysis(a) for a in self._analyses(total_iterations)
        ]
        result = engine.run()
        assert result.n_ranks == n_ranks
        assert result.stopped_at == serial_result.stopped_at
        assert result.iterations == serial_result.iterations
        for serial_analysis, dist_analysis in zip(serial_analyses, analyses):
            _assert_fits_match(serial_analysis, dist_analysis)
            assert (
                serial_analysis.final_feature().radius
                == dist_analysis.final_feature().radius
            )

    def test_wavefront_ranks_span_decomposition(self, total_iterations):
        engine = DistributedEngine(
            LuleshSimulation(SIZE, maintain_field=False),
            n_ranks=4,
            policy="all",
        )
        analyses = [
            engine.add_analysis(a) for a in self._analyses(total_iterations)
        ]
        engine.run()
        assert all(a.wavefront_rank_of is not None for a in analyses)
        ranks = {e.wavefront_rank for e in engine.broadcaster.history}
        assert ranks <= set(range(4))
        # The confirmed break points live past the window edge, whose
        # owner is the last rank — the front's rank must appear.
        assert max(ranks) == 3


# ----------------------------------------------------------------------
# acceptance: wdmerger scenario, SimComm backend
# ----------------------------------------------------------------------


class TestWdMergerEquivalence:
    def _detonation(self, sim):
        total = int(sim.end_time / sim.dt)
        return DetonationAnalysis(
            IterParam(0, 0, 1),
            IterParam(1, total, 1),
            variable="temperature",
            dt=sim.dt,
            order=3,
            batch_size=4,
            learning_rate=0.03,
            min_updates=3,
            monitor_window=3,
            monitor_patience=1,
            terminate_when_trained=True,
        )

    def _diagnostics_sweep(self, sim):
        total = int(sim.end_time / sim.dt)
        return CurveFitting(
            multi_diagnostic_provider,
            IterParam(0, 3, 1),
            IterParam(1, total, 2),
            axis="time",
            order=2,
            lag=2,
            batch_size=8,
            name="diagnostics",
        )

    @pytest.fixture(scope="class")
    def serial(self):
        sim = WdMergerSimulation(16, maintain_grid=False)
        engine = InSituEngine(sim)
        detonation = engine.add_analysis(self._detonation(sim))
        sweep = engine.add_analysis(self._diagnostics_sweep(sim))
        return detonation, sweep, engine.run()

    @pytest.mark.parametrize("n_ranks", [1, 4, 8])
    def test_bit_identical_to_serial(self, serial, n_ranks):
        serial_detonation, serial_sweep, serial_result = serial
        sim = WdMergerSimulation(16, maintain_grid=False)
        engine = DistributedEngine(sim, n_ranks=n_ranks)
        detonation = engine.add_analysis(self._detonation(sim))
        sweep = engine.add_analysis(self._diagnostics_sweep(sim))
        result = engine.run()
        assert result.stopped_at == serial_result.stopped_at
        _assert_fits_match(serial_detonation, detonation)
        _assert_fits_match(serial_sweep, sweep)
        assert (
            detonation.delay_feature.delay_time
            == serial_detonation.delay_feature.delay_time
        )
        # The 4-diagnostic window shards one diagnostic per rank (with
        # empty shards past rank 3); the merged aggregate still covers
        # every sampled value.
        sweep_group = [
            g
            for g, locs in enumerate(result.group_locations)
            if locs.shape[0] == 4
        ][0]
        stats = result.collection_stats[sweep_group]
        assert stats.count == 4 * len(sweep.collector.store)


# ----------------------------------------------------------------------
# multiprocessing backend: real worker processes
# ----------------------------------------------------------------------


class TestMultiprocessingBackend:
    def test_matches_serial(self):
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
        assert result.backend == "multiprocessing"
        assert result.stopped_at == serial_result.stopped_at
        _assert_fits_match(serial_analysis, analysis)
        assert result.rank_sample_seconds.shape == (2,)
        stats = result.transport_stats
        assert [r["rank"] for r in stats["per_rank"]] == [0, 1]
        assert stats["per_rank"][1]["bytes_moved"] > 0
        assert stats["total_bytes_moved"] > 0

    def test_needs_picklable_factory(self):
        engine = DistributedEngine(
            backend="multiprocessing",
            n_ranks=2,
            app_factory=lambda: _replay_app(),
        )
        engine.add_analysis(_replay_analysis())
        with pytest.raises(ConfigurationError, match="picklable"):
            engine.run()

    def test_cannot_resume(self):
        engine = DistributedEngine(
            backend="multiprocessing", n_ranks=1, app_factory=_replay_app
        )
        engine.add_analysis(_replay_analysis())
        engine.run(max_iterations=10)
        with pytest.raises(ConfigurationError, match="resume"):
            engine.run()

    def test_rejects_simulated_comm(self):
        with pytest.raises(ConfigurationError):
            DistributedEngine(
                backend="multiprocessing",
                n_ranks=2,
                app_factory=_replay_app,
                comm=SimComm(2),
            )

    def test_needs_factory(self):
        with pytest.raises(ConfigurationError):
            DistributedEngine(
                _replay_app(), backend="multiprocessing", n_ranks=2
            )

    def test_mid_chunk_stop_does_not_leak_into_stats(self):
        # Regression: chunked prefetch samples past a mid-chunk stop;
        # those rows must not be folded into the reduced aggregates.
        def build(backend_kwargs):
            engine = DistributedEngine(
                policy="any", app_factory=_replay_app, **backend_kwargs
            )
            analysis = engine.add_analysis(
                CurveFitting(
                    ReplayApp.provider,
                    IterParam(0, 31, 1),
                    IterParam(1, 120, 1),
                    order=3,
                    lag=1,
                    batch_size=16,
                    name="window",
                )
            )
            engine.add_analysis(_StopAtAnalysis("stopper", 51))
            return engine, analysis

        # Iteration 51 lands mid-chunk for chunk=8, so workers prefetch
        # (and sample) iterations 52-56 the parent never consumes.
        mp_engine, mp_analysis = build(
            dict(backend="multiprocessing", n_ranks=2, chunk=8)
        )
        mp_result = mp_engine.run()
        assert mp_result.terminated_early
        rows = len(mp_analysis.collector.store)
        assert rows == 51
        assert mp_result.collection_stats[0].count == 32 * rows

        sc_engine, _ = build(dict(backend="simcomm", n_ranks=2))
        sc_result = sc_engine.run()
        assert (
            mp_result.collection_stats[0].count
            == sc_result.collection_stats[0].count
        )
        assert mp_result.collection_stats[0].mean[0] == pytest.approx(
            sc_result.collection_stats[0].mean[0], rel=1e-12
        )

    def test_rejects_transport_on_simcomm(self):
        # Rows move one way (a pickled payload per chunk); no backend
        # takes a transport choice.
        with pytest.raises(TypeError, match="transport"):
            DistributedEngine(_replay_app(), n_ranks=2, transport="pickle")

    def test_unknown_transport_rejected_at_construction(self):
        with pytest.raises(TypeError, match="transport"):
            DistributedEngine(
                backend="multiprocessing",
                n_ranks=2,
                app_factory=_replay_app,
                transport="carrier-pigeon",
            )

    def test_parent_failure_cleans_up_workers_and_segments(self):
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
        processes = []
        original_start = MultiprocessExecutor.start

        def capture_start(executor_self):
            original_start(executor_self)
            processes.extend(executor_self._processes)

        MultiprocessExecutor.start = capture_start
        try:
            with pytest.raises(CollectionError, match="non-finite"):
                engine.run()
        finally:
            MultiprocessExecutor.start = original_start
        executor = engine.executor
        # The driver's finally tore everything down despite the failure:
        # no live worker processes, no open pipes.
        assert processes and all(not p.is_alive() for p in processes)
        assert executor._processes == []
        assert executor._conns == []


# ----------------------------------------------------------------------
# runtime mechanics
# ----------------------------------------------------------------------


class TestDistributedMechanics:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            DistributedEngine(_replay_app(), backend="mpi")

    def test_comm_size_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            DistributedEngine(_replay_app(), n_ranks=4, comm=SimComm(2))

    def test_needs_app_or_factory(self):
        with pytest.raises(ConfigurationError):
            DistributedEngine(n_ranks=2)

    def test_collective_stop_charges_allreduces(self):
        comm = SimComm(4)
        engine = DistributedEngine(_replay_app(), comm=comm)
        engine.add_analysis(_replay_analysis())
        result = engine.run()
        # One stop-agreement allreduce per iteration plus one row
        # reduction per collected iteration.
        assert comm.allreduce_count >= 2 * result.iterations
        assert result.comm_seconds > 0.0
        assert comm.charged_seconds == result.comm_seconds

    def test_more_ranks_than_locations_leaves_empty_shards(self):
        app = _replay_app(n_locations=4)
        engine = DistributedEngine(app, n_ranks=8)
        analysis = engine.add_analysis(
            CurveFitting(
                ReplayApp.provider,
                IterParam(0, 3, 1),
                IterParam(1, 120, 1),
                order=2,
                lag=1,
                batch_size=8,
                name="narrow",
            )
        )
        result = engine.run()
        executor = engine.executor
        widths = [
            store.locations.shape[0] for store in executor.shard_stores(0)
        ]
        assert sum(widths) == 4
        assert widths.count(0) == 4
        # Ranks that never collect still merge cleanly.
        merged = executor.merged_store(0)
        np.testing.assert_array_equal(
            merged.matrix(), analysis.collector.store.matrix()
        )
        assert result.collection_stats[0].count == 4 * len(
            analysis.collector.store
        )

    def test_merged_stats_match_full_fold(self):
        engine = DistributedEngine(_replay_app(), n_ranks=4)
        analysis = engine.add_analysis(_replay_analysis())
        result = engine.run()
        matrix = analysis.collector.store.matrix()
        stats = result.collection_stats[0]
        assert stats.count == matrix.size
        assert stats.mean[0] == pytest.approx(matrix.mean(), rel=1e-12)

    def test_plan_groups_shards_partition_window(self):
        engine = DistributedEngine(_replay_app(), n_ranks=3)
        engine.add_analysis(_replay_analysis())
        plans = plan_groups(engine.scheduler.shared, 3)
        assert len(plans) == 1
        plan = plans[0]
        np.testing.assert_array_equal(
            np.concatenate(plan.shards), plan.locations
        )
        assert plan.owner_of_location(-5) == 0
        assert plan.owner_of_location(10_000) == 2

    def test_non_finite_assembled_row_rejected(self):
        history = np.ones((10, 6))
        history[4, 2] = np.nan
        engine = DistributedEngine(ReplayApp(history), n_ranks=2)
        engine.add_analysis(
            CurveFitting(
                ReplayApp.provider,
                IterParam(0, 5, 1),
                IterParam(1, 10, 1),
                order=2,
                lag=1,
                batch_size=4,
            )
        )
        with pytest.raises(CollectionError, match="non-finite"):
            engine.run()

    def test_shard_view_empty_shard_samples_empty(self):
        view = ShardView(ReplayApp.provider, np.array([], dtype=np.int64))
        app = _replay_app()
        app.step()
        assert view.sample(app.domain).shape == (0,)
        assert view.n_locations == 0

    def test_shard_view_rejects_2d_locations(self):
        with pytest.raises(CollectionError):
            ShardView(ReplayApp.provider, np.zeros((2, 2), dtype=np.int64))

    def test_simcomm_resume_continues(self):
        serial_engine = InSituEngine(_replay_app(), policy="all")
        serial_analysis = serial_engine.add_analysis(_replay_analysis())
        serial_result = serial_engine.run()

        engine = DistributedEngine(_replay_app(), n_ranks=2, policy="all")
        analysis = engine.add_analysis(_replay_analysis())
        engine.run(max_iterations=40)
        result = engine.run()
        assert result.stopped_at == serial_result.stopped_at
        _assert_fits_match(serial_analysis, analysis)
        # Regression: the rank-local shard state spans both run() calls
        # — the reduced aggregates and the reassembled store must cover
        # the pre-resume rows too.
        rows = len(analysis.collector.store)
        assert result.collection_stats[0].count == 32 * rows
        merged = engine.executor.merged_store(0)
        np.testing.assert_array_equal(
            merged.matrix(), analysis.collector.store.matrix()
        )

    def test_attaching_analyses_between_runs_rejected(self):
        engine = DistributedEngine(_replay_app(), n_ranks=2, policy="all")
        engine.add_analysis(_replay_analysis(name="first"))
        engine.run(max_iterations=10)
        # A different temporal window makes a new collection group.
        engine.add_analysis(_replay_analysis(name="late", n_iterations=60))
        with pytest.raises(ConfigurationError, match="between distributed"):
            engine.run()


class TestMultiDiagnosticProvider:
    def test_locations_are_range_checked(self):
        sim = WdMergerSimulation(8, maintain_grid=False)
        sim.step()
        assert multi_diagnostic_provider(sim, 0) == sim.temperature
        with pytest.raises(CollectionError):
            multi_diagnostic_provider(sim, -1)
        with pytest.raises(CollectionError):
            multi_diagnostic_provider(sim, 4)
        with pytest.raises(CollectionError):
            multi_diagnostic_provider.batch(sim, np.array([0, -1]))


class TestHarmonicProvider:
    def test_shard_gather_matches_full_sweep(self):
        import pickle

        from repro.core.providers import HarmonicProvider, batch_sample

        provider = HarmonicProvider(32)
        app = _replay_app(n_locations=16)
        app.step()
        locations = np.arange(16, dtype=np.int64)
        full = batch_sample(provider, app.domain, locations)
        parts = [
            batch_sample(provider, app.domain, locations[:7]),
            batch_sample(provider, app.domain, locations[7:]),
        ]
        np.testing.assert_array_equal(np.concatenate(parts), full)
        assert provider.batch(app.domain, locations[:0]).shape == (0,)
        assert provider(app.domain, 3) == full[3]
        clone = pickle.loads(pickle.dumps(provider))
        np.testing.assert_array_equal(
            clone.batch(app.domain, locations), full
        )
        with pytest.raises(ConfigurationError):
            HarmonicProvider(0)


class TestScalingCrosscheck:
    def test_rows_are_consistent(self):
        from repro.experiments.scaling import distributed_crosscheck

        rows = distributed_crosscheck(
            n_locations=64, n_iterations=40, ranks=(1, 2)
        )
        assert [row["ranks"] for row in rows] == [1, 2]
        for row in rows:
            assert row["max_coefficient_delta"] <= TOL
            assert row["measured_sample_seconds"] > 0.0
            assert row["modeled_speedup"] > 0.0
