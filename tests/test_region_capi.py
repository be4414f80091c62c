"""Tests for repro.core.region, events, and the td_* C-style facade."""

import pytest

from repro.core.curve_fitting import Analysis
from repro.core.capi import (
    Curve_Fitting,
    td_iter_param_init,
    td_region_add_analysis,
    td_region_begin,
    td_region_end,
    td_region_init,
)
from repro.core.events import (
    ACTION_CONTINUE,
    ACTION_TERMINATE,
    StatusBroadcast,
    StatusBroadcaster,
)
from repro.core.features import ExtractionSummary
from repro.core.region import Region
from repro.errors import ConfigurationError
from repro.parallel.comm import SimComm


class _StubAnalysis(Analysis):
    """Analysis scripted to emit events / request stops on cue."""

    def __init__(self, stop_at=None, broadcast_at=None):
        super().__init__("stub")
        self.stop_at = stop_at
        self.broadcast_at = broadcast_at or []
        self.seen = []

    def on_iteration(self, domain, iteration):
        self.seen.append((domain, iteration))
        if self.stop_at is not None and iteration >= self.stop_at:
            self.wants_stop = True
        if iteration in self.broadcast_at:
            action = (
                ACTION_TERMINATE
                if self.stop_at is not None and iteration >= self.stop_at
                else ACTION_CONTINUE
            )
            return StatusBroadcast(iteration, 1.0, 0, action)
        return None

    def summary(self):
        return ExtractionSummary(samples_collected=len(self.seen))


class TestRegion:
    def test_begin_end_pairing_enforced(self):
        region = Region()
        region.begin()
        with pytest.raises(ConfigurationError):
            region.begin()
        region.end()
        with pytest.raises(ConfigurationError):
            region.end()

    def test_iterations_count_from_one(self):
        region = Region()
        assert region.begin() == 1
        region.end()
        assert region.begin() == 2

    def test_analyses_receive_domain_and_iteration(self):
        stub = _StubAnalysis()
        region = Region(domain="the-domain")
        region.add_analysis(stub)
        region.begin()
        region.end()
        assert stub.seen == [("the-domain", 1)]

    def test_end_domain_override(self):
        stub = _StubAnalysis()
        region = Region(domain="original")
        region.add_analysis(stub)
        region.begin()
        region.end(domain="override")
        assert stub.seen[0][0] == "override"

    def test_stop_propagates(self):
        region = Region()
        region.add_analysis(_StubAnalysis(stop_at=3))
        results = []
        for _ in range(5):
            region.begin()
            keep_going = region.end()
            results.append(keep_going)
            if not keep_going:
                break
        assert results == [True, True, False]
        assert region.stop_requested

    def test_run_driver_counts_iterations(self):
        region = Region()
        region.add_analysis(_StubAnalysis(stop_at=4))
        executed = region.run(lambda it: None, max_iterations=10)
        assert executed == 4

    def test_run_respects_max_iterations(self):
        region = Region()
        assert region.run(lambda it: None, max_iterations=3) == 3

    def test_run_negative_max_rejected(self):
        with pytest.raises(ConfigurationError):
            Region().run(lambda it: None, max_iterations=-1)

    def test_only_analyses_accepted(self):
        with pytest.raises(ConfigurationError):
            Region().add_analysis("not an analysis")

    def test_broadcasts_reach_comm(self):
        comm = SimComm(4)
        region = Region(comm=comm)
        region.add_analysis(_StubAnalysis(broadcast_at=[1, 2]))
        for _ in range(2):
            region.begin()
            region.end()
        assert comm.broadcast_count == 2
        assert len(region.broadcaster.history) == comm.broadcast_count

    def test_terminate_action_stops_loop(self):
        region = Region()
        region.add_analysis(_StubAnalysis(stop_at=2, broadcast_at=[2]))
        region.begin()
        assert region.end()
        region.begin()
        assert not region.end()

    def test_summaries_by_name(self):
        region = Region()
        region.add_analysis(_StubAnalysis())
        region.begin()
        region.end()
        assert region.summaries()["stub"].samples_collected == 1


class TestBroadcaster:
    def test_records_history_without_comm(self):
        broadcaster = StatusBroadcaster()
        event = StatusBroadcast(1, 2.0, 0)
        broadcaster.publish(event)
        assert broadcaster.last == event
        assert broadcaster.history == [event]

    def test_empty_history_last_is_none(self):
        assert StatusBroadcaster().last is None


class TestCapi:
    def test_full_facade_flow(self):
        # Port of the paper's Figure 2 listing shape.
        class _Dom:
            def xd(self, loc):
                return float(loc)

        dom = _Dom()
        region = td_region_init("", dom)
        loc_param = td_iter_param_init(1, 10, 1)
        iter_param = td_iter_param_init(1, 30, 1)
        analysis = td_region_add_analysis(
            region,
            lambda d, loc: d.xd(loc),
            loc_param,
            Curve_Fitting,
            iter_param,
            25.26,
            0,
            reference_value=100.0,
            order=3,
            lag=1,
        )
        for _ in range(5):
            td_region_begin(region)
            assert td_region_end(region) == 1
        assert len(analysis.collector.store) == 5

    def test_unknown_method_rejected(self):
        region = td_region_init()
        with pytest.raises(ConfigurationError):
            td_region_add_analysis(
                region,
                lambda d, loc: 0.0,
                td_iter_param_init(1, 5, 1),
                999,
                td_iter_param_init(1, 5, 1),
            )

    def test_terminate_flag_maps_to_bool(self):
        region = td_region_init()
        analysis = td_region_add_analysis(
            region,
            lambda d, loc: 0.0,
            td_iter_param_init(1, 5, 1),
            Curve_Fitting,
            td_iter_param_init(1, 5, 1),
            None,
            1,
        )
        assert analysis.terminate_when_trained is True
