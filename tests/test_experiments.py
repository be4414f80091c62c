"""Tests for the experiment harness (tables, replay training, scaling)."""

import multiprocessing
import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.params import IterParam
from repro.errors import ConfigurationError, ReproError
from repro.experiments.common import (
    Table,
    interleaved_medians,
    interleaved_runs,
    lulesh_reference,
    run_forked,
    train_from_history,
    train_series_from_history,
)
from repro.experiments.scaling import ScalingModel


class TestTable:
    def test_row_width_checked(self):
        table = Table("t", ["a", "b"])
        table.add_row(1, 2)
        with pytest.raises(ConfigurationError):
            table.add_row(1)

    def test_column_extraction(self):
        table = Table("t", ["a", "b"])
        table.add_row(1, "x")
        table.add_row(2, "y")
        assert table.column("a") == [1, 2]
        with pytest.raises(ConfigurationError):
            table.column("c")

    def test_render_contains_everything(self):
        table = Table("My Table", ["col1", "col2"], notes="a note")
        table.add_row(1.23456, "value")
        text = table.render()
        assert "My Table" in text
        assert "col1" in text
        assert "1.235" in text
        assert "a note" in text


@dataclass(frozen=True)
class _Run:
    seconds: float
    leg: int


class _ScriptedLeg:
    """A leg returning scripted seconds, one per call, in call order.

    Legs run in forked children, so the call log and counters live in
    shared memory the children write through.
    """

    def __init__(self, leg, seconds, log):
        self.leg = leg
        self.seconds = seconds
        self.calls = multiprocessing.Value("i", 0)
        self.log = log

    def __call__(self):
        with self.log.get_lock():
            self.log[self.log[0] + 1] = self.leg
            self.log[0] += 1
        call = self.calls.value
        self.calls.value += 1
        return _Run(self.seconds[call], self.leg)


class TestInterleavedMedians:
    def _legs(self, *seconds):
        log = multiprocessing.Array("i", 1 + sum(len(s) for s in seconds))
        return [_ScriptedLeg(i, s, log) for i, s in enumerate(seconds)], log

    def test_groups_alternate_leg_order(self):
        legs, log = self._legs([1.0] * 3, [1.0] * 3, [1.0] * 3)
        interleaved_medians(legs, 3)
        assert list(log[1:]) == [0, 1, 2, 2, 1, 0, 0, 1, 2]

    def test_reports_baseline_median_times_median_paired_ratio(self):
        base = [1.0, 3.0, 2.0]
        legs, _ = self._legs(base, [1.5, 3.3, 2.2], [0.5, 1.2, 1.0])
        origin, instrumented, stopped = interleaved_medians(legs, 3)
        assert origin == _Run(2.0, 0)
        # paired ratios 1.5, 1.1, 1.1 and 0.5, 0.4, 0.5
        assert instrumented.seconds == pytest.approx(2.0 * 1.1)
        assert stopped.seconds == pytest.approx(2.0 * 0.5)
        assert (instrumented.leg, stopped.leg) == (1, 2)

    def test_groups_must_be_positive(self):
        legs, _ = self._legs([1.0])
        with pytest.raises(ConfigurationError):
            interleaved_medians(legs, 0)

    def test_runs_keeps_every_group_per_leg(self):
        calls = []

        def leg(name):
            def call():
                calls.append(name)
                return name, calls.count(name)

            return call

        runs = interleaved_runs([leg("a"), leg("b")], 3, lambda call: call())
        assert calls == ["a", "b", "b", "a", "a", "b"]
        assert runs == [[("a", g) for g in (1, 2, 3)], [("b", g) for g in (1, 2, 3)]]

    def test_failing_run_raises_with_its_traceback(self):
        def boom():
            raise ValueError("leg exploded")

        with pytest.raises(ReproError, match="leg exploded"):
            run_forked(boom)

    def test_forked_run_returns_result(self):
        assert run_forked(lambda: _Run(0.5, 7)) == _Run(0.5, 7)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="runs in-process without fork",
    )
    def test_child_dying_before_it_reports_raises(self):
        with pytest.raises(ReproError, match="exit code 3"):
            run_forked(lambda: os._exit(3))


class TestReplayTraining:
    def test_spatial_replay_trains(self):
        history = np.tile(np.arange(12.0), (60, 1)) + np.arange(60.0)[:, None]
        analysis = train_from_history(
            history, IterParam(0, 8, 1), IterParam(1, 50, 1),
            order=3, lag=2, batch_size=8,
        )
        assert analysis.model.is_trained
        assert analysis.collector.done

    def test_series_replay_trains(self):
        series = np.sin(np.linspace(0, 6, 80)) + 2.0
        # Gentle GD settings, as the wdmerger experiments use for
        # short smooth series (aggressive per-batch epochs overfit the
        # most recent segment of a slowly-varying curve).
        analysis = train_series_from_history(
            series, IterParam(1, 60, 1), order=3, batch_size=8,
            learning_rate=0.03, epochs_per_batch=4, l2=0.05,
        )
        assert analysis.model.is_trained
        _, pred, real = analysis.model.one_step_series(series, stride=1)
        assert np.mean(np.abs(pred - real)) < 0.15

    def test_replay_equals_live_collection_counts(self):
        history = np.random.default_rng(0).normal(0, 1, (40, 10)) + 5.0
        analysis = train_from_history(
            history, IterParam(0, 7, 1), IterParam(1, 40, 1),
            order=2, lag=1, batch_size=4,
        )
        # (40 - lag) iterations emit (window - order + 1) samples each.
        expected = (40 - 1) * (8 - 2 + 1)
        assert analysis.collector.samples_emitted == expected


class TestReferenceRuns:
    def test_lulesh_reference_cached(self):
        a = lulesh_reference(12)
        b = lulesh_reference(12)
        assert a is b
        assert a.history.shape[1] == 13
        assert a.total_iterations == a.history.shape[0]
        assert a.blast_velocity > 0


class TestScalingModel:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScalingModel(elements=0, iterations=10)
        with pytest.raises(ConfigurationError):
            ScalingModel(elements=10, iterations=0)
        with pytest.raises(ConfigurationError):
            ScalingModel(elements=10, iterations=10).halo_time(0)
        with pytest.raises(ConfigurationError):
            ScalingModel(elements=10, iterations=10).configured_time(-1, 1, 1)

    def test_single_rank_no_halo(self):
        model = ScalingModel(elements=27_000, iterations=100)
        assert model.halo_time(1) == 0.0
        assert model.configured_time(10.0, 1, 1) == pytest.approx(10.0)

    def test_more_ranks_reduce_large_problem_time(self):
        model = ScalingModel(elements=90**3, iterations=1000)
        t1 = model.configured_time(100.0, 1, 1)
        t8 = model.configured_time(100.0, 8, 1)
        t27 = model.configured_time(100.0, 27, 1)
        assert t27 < t8 < t1

    def test_small_problem_stops_scaling(self):
        # The paper's 16^3 rows: more ranks do not keep helping.
        model = ScalingModel(
            elements=16**3, iterations=50, halo_seconds_per_element=2e-5
        )
        t32 = model.configured_time(0.05, 32, 1)
        ideal = 0.05 / 32
        assert t32 > 10 * ideal  # halo exchange dominates: far from ideal

    def test_threads_reduce_time(self):
        model = ScalingModel(elements=32**3, iterations=100)
        assert model.configured_time(10.0, 8, 4) < model.configured_time(
            10.0, 8, 1
        )
