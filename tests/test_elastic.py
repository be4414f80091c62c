"""Tests for the elastic layout both distributed backends share.

:class:`~repro.engine.elastic.ElasticLayout` decides which ranks are
dead, when the shard layout may change and what it changes to.  These
tests pin the behaviour that only the shared core makes uniform: a
rank-0 death, several deaths on one iteration, the same reshard on
both backends, and a rebalance that would move nothing.
"""

import numpy as np

from repro.core.curve_fitting import CurveFitting
from repro.core.params import IterParam
from repro.engine import DistributedEngine, ReplayApp
from repro.engine.collection import SharedCollector
from repro.engine.driver import plan_groups
from repro.engine.elastic import ElasticLayout

from test_distributed import _replay_analysis, _replay_app
from test_faults import _serial_coefficients


def _simcomm_run(faults):
    engine = DistributedEngine(
        _replay_app(), backend="simcomm", n_ranks=4, faults=faults
    )
    analysis = engine.add_analysis(_replay_analysis())
    result = engine.run(max_iterations=120)
    return engine, analysis, result


class TestSimCommDeaths:
    def test_rank0_death_bit_identical_and_rank0_ends_empty(self):
        engine, analysis, result = _simcomm_run("kill:rank=0,iter=5")
        np.testing.assert_array_equal(
            np.asarray(analysis.model.coefficients), _serial_coefficients()
        )
        kinds = [(event.kind, event.iteration) for event in result.recovery_events]
        assert kinds == [("rank_death", 5), ("reshard", 5)]
        assert result.recovery_events[0].rank == 0
        assert engine.executor.layout.counts()[0] == 0
        assert all(plan.shards[0].size == 0 for plan in engine.executor.plans)

    def test_kills_on_one_iteration_share_one_reshard(self):
        engine, analysis, result = _simcomm_run(
            "kill:rank=1,iter=7;kill:rank=2,iter=7"
        )
        np.testing.assert_array_equal(
            np.asarray(analysis.model.coefficients), _serial_coefficients()
        )
        events = result.recovery_events
        assert [(e.kind, e.rank) for e in events] == [
            ("rank_death", 1),
            ("rank_death", 2),
            ("reshard", None),
        ]
        reshard = events[-1]
        assert reshard.iteration == 7
        assert reshard.detail.startswith("rank(s) [1, 2] dead")
        assert reshard.counts_before == [8, 8, 8, 8]
        assert reshard.counts_after[1] == reshard.counts_after[2] == 0
        assert engine.executor.layout.counts() == reshard.counts_after

    def test_rank_views_follow_the_reshard(self):
        engine, _, _ = _simcomm_run("kill:rank=1,iter=7")
        executor = engine.executor
        for rank in executor.ranks:
            assert len(rank.views) == len(executor.plans)
            for view, plan in zip(rank.views, executor.plans):
                np.testing.assert_array_equal(
                    view.locations, plan.shards[rank.rank]
                )
        assert all(view.locations.size == 0 for view in executor.ranks[1].views)


def test_backends_reshard_a_dead_rank_alike():
    # The reshard happens at different iterations (simcomm before the
    # kill iteration is sampled, mp at the next quiet chunk boundary),
    # but both run the same policy, so the layouts agree.
    _, _, simcomm = _simcomm_run("kill:rank=2,iter=10")
    engine = DistributedEngine(
        backend="multiprocessing",
        n_ranks=4,
        app_factory=_replay_app,
        faults="kill:rank=2,iter=10",
    )
    engine.add_analysis(_replay_analysis())
    mp = engine.run(max_iterations=120)

    def reshard(result):
        (event,) = [e for e in result.recovery_events if e.kind == "reshard"]
        return event.counts_before, event.counts_after, event.detail

    assert reshard(simcomm) == reshard(mp)
    assert reshard(mp)[1] == [11, 11, 0, 10]


def _three_rank_layout():
    shared = SharedCollector()
    shared.subscribe(
        CurveFitting(
            ReplayApp.provider,
            IterParam(0, 2, 1),
            IterParam(1, 20, 1),
            order=2,
            lag=1,
            batch_size=4,
        )
    )
    plans = plan_groups(shared, 3)
    return plans, ElasticLayout(plans, 3, rebalance=True, every=1)


class TestElasticLayout:
    def test_rebalance_that_moves_nothing_records_nothing(self):
        # One column per rank; speeds 3 : 8.5 : 8.5 project a skew of
        # 1.76 > 1.75, but the speed-weighted apportionment of three
        # columns rounds back to one per rank.
        plans, layout = _three_rank_layout()
        layout.samples = [30, 85, 85]
        layout.tick()
        assert layout.pending()
        assert layout.settle(4, [10.0, 10.0, 10.0]) is False
        assert layout.recovery_events == []
        assert layout.counts() == [1, 1, 1]
        assert not layout.pending()

    def test_death_is_recorded_once_and_resharded_at_settle(self):
        plans, layout = _three_rank_layout()
        layout.mark_dead(1, 3, "lost")
        layout.mark_dead(1, 4, "lost again")
        assert [e.kind for e in layout.recovery_events] == ["rank_death"]
        assert layout.pending()
        assert layout.settle(4, [0.0, 0.0, 0.0]) is True
        assert layout.counts() == [2, 0, 1]
        assert plans[0].shards[1].size == 0
        reshard = layout.recovery_events[-1]
        assert (reshard.kind, reshard.iteration) == ("reshard", 4)
        assert reshard.detail.startswith("rank(s) [1] dead")
