"""End-to-end integration tests across module boundaries.

These exercise the full pipeline the examples use: a real substrate
simulation, a region with one or more analyses attached, broadcasts
through the simulated communicator, early termination, and the
post-analysis baseline agreeing with the in-situ features.
"""

import numpy as np
import pytest

from repro.analysis import PostHocAnalyzer
from repro.core.params import IterParam
from repro.core.region import Region
from repro.lulesh import LuleshSimulation
from repro.lulesh.insitu import BreakPointAnalysis
from repro.parallel.comm import SimComm
from repro.wdmerger import WdMergerSimulation, delay_time_from_series
from repro.wdmerger.insitu import DetonationAnalysis


@pytest.fixture(scope="module")
def lulesh_truth():
    sim = LuleshSimulation(
        20, maintain_field=False, record_locations=list(range(21))
    )
    result = sim.run()
    return sim, result


class TestLuleshPipeline:
    def test_insitu_matches_posthoc_at_high_threshold(self, lulesh_truth):
        truth_sim, truth_run = lulesh_truth
        threshold = 0.1
        post = PostHocAnalyzer().break_point(
            truth_run.velocity_history,
            list(range(21)),
            threshold=threshold,
            reference_value=truth_sim.blast_velocity,
            max_location=20,
        )
        sim = LuleshSimulation(20, maintain_field=False)
        region = Region("lulesh", sim.domain)
        analysis = BreakPointAnalysis(
            lambda d, loc: d.xd(loc),
            IterParam(1, 8, 1),
            IterParam(30, int(0.4 * truth_run.iterations), 1),
            threshold=threshold,
            max_location=20,
            lag=10,
            order=3,
            terminate_when_trained=True,
        )
        region.add_analysis(analysis)
        sim.run(region)
        insitu = analysis.final_feature()
        assert abs(insitu.radius - post.radius) <= 2

    def test_broadcasts_flow_through_comm(self, lulesh_truth):
        _, truth_run = lulesh_truth
        comm = SimComm(8)
        sim = LuleshSimulation(20, maintain_field=False)
        region = Region("lulesh", sim.domain, comm)
        analysis = BreakPointAnalysis(
            lambda d, loc: d.xd(loc),
            IterParam(1, 8, 1),
            IterParam(30, int(0.4 * truth_run.iterations), 1),
            threshold=0.05,
            max_location=20,
            lag=10,
            order=3,
            terminate_when_trained=True,
        )
        region.add_analysis(analysis)
        sim.run(region)
        # Threshold crossings and the conclusion event were broadcast.
        assert comm.broadcast_count >= 1
        assert comm.charged_seconds > 0
        assert len(region.broadcaster.history) == comm.broadcast_count

    def test_two_analyses_one_region(self, lulesh_truth):
        _, truth_run = lulesh_truth
        sim = LuleshSimulation(20, maintain_field=False)
        region = Region("lulesh", sim.domain)
        a1 = BreakPointAnalysis(
            lambda d, loc: d.xd(loc),
            IterParam(1, 8, 1),
            IterParam(30, int(0.4 * truth_run.iterations), 1),
            threshold=0.05, max_location=20, lag=10, order=3,
            name="low",
        )
        a2 = BreakPointAnalysis(
            lambda d, loc: d.xd(loc),
            IterParam(1, 8, 1),
            IterParam(30, int(0.4 * truth_run.iterations), 1),
            threshold=0.2, max_location=20, lag=10, order=3,
            name="high",
        )
        region.add_analysis(a1)
        region.add_analysis(a2)
        sim.run(region)
        summaries = region.summaries()
        assert set(summaries) == {"low", "high"}
        assert a1.final_feature().radius >= a2.final_feature().radius


class TestWdPipeline:
    def test_insitu_delay_matches_posthoc(self):
        sim = WdMergerSimulation(16, maintain_grid=False)
        total = int(sim.end_time / sim.dt)
        region = Region("wd", sim)
        analysis = DetonationAnalysis(
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
            terminate_when_trained=False,
        )
        region.add_analysis(analysis)
        sim.run(region)
        post = delay_time_from_series(
            sim.history.times, sim.history.series("temperature")
        )
        assert analysis.delay_feature is not None
        assert analysis.delay_feature.delay_time == pytest.approx(
            post, abs=6.0
        )

    def test_early_stop_saves_time_but_keeps_feature(self):
        stopped = WdMergerSimulation(16, maintain_grid=False)
        total = int(stopped.end_time / stopped.dt)
        region = Region("wd", stopped)
        analysis = DetonationAnalysis(
            IterParam(0, 0, 1), IterParam(1, total, 1),
            variable="temperature", dt=stopped.dt, order=3, batch_size=4,
            learning_rate=0.03, min_updates=3, monitor_window=3,
            monitor_patience=1, terminate_when_trained=True,
        )
        region.add_analysis(analysis)
        stopped.run(region)
        assert stopped.time < stopped.end_time
        assert analysis.delay_feature is not None
        # The feature was extracted *after* the physical event.
        assert stopped.time > stopped.events.detonation_time

    def test_four_diagnostics_in_one_region(self):
        sim = WdMergerSimulation(12)
        total = int(sim.end_time / sim.dt)
        region = Region("wd", sim)
        analyses = []
        for name in ("temperature", "angular_momentum", "mass", "energy"):
            analyses.append(
                region.add_analysis(
                    DetonationAnalysis(
                        IterParam(0, 0, 1), IterParam(1, total, 1),
                        variable=name, dt=sim.dt, order=3, batch_size=4,
                        learning_rate=0.03, epochs_per_batch=4, l2=0.05,
                        terminate_when_trained=False,
                    )
                )
            )
        sim.run(region)
        for analysis in analyses:
            assert analysis.model.is_trained
            assert analysis.collector.samples_emitted > 0


class TestDeterminism:
    def test_same_seed_same_run(self):
        runs = []
        for _ in range(2):
            sim = WdMergerSimulation(12, seed=11)
            sim.run()
            runs.append(sim.history.series("temperature"))
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_lulesh_is_deterministic(self):
        histories = []
        for _ in range(2):
            sim = LuleshSimulation(
                12, maintain_field=False, record_locations=[1, 2, 3]
            )
            histories.append(sim.run().velocity_history)
        np.testing.assert_array_equal(histories[0], histories[1])
