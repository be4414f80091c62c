"""Tests for the in-situ engine: workloads, shared collection, scheduling.

The heart of this module is the equivalence regression: an N-threshold
sweep through one shared-collection engine run must produce bit-identical
fit coefficients and break points to N independent single-analysis runs,
while invoking the variable provider at most once per
(location, iteration) and training each distinct model once.
"""

import time
import types

import numpy as np
import pytest

from repro.core.ar_model import ARModel
from repro.core.collector import SeriesStore
from repro.core.curve_fitting import Analysis, CurveFitting
from repro.core.features import ExtractionSummary, ThresholdEvent
from repro.core.params import IterParam
from repro.core.region import Region
from repro.engine import (
    AnalysisScheduler,
    InSituEngine,
    LuleshApp,
    ReplayApp,
    SharedCollector,
    WdMergerApp,
    as_simulation_app,
)
from repro.errors import ConfigurationError
from repro.lulesh import LuleshSimulation
from repro.lulesh.insitu import BreakPointAnalysis
from repro.wdmerger import WdMergerSimulation

SIZE = 16
THRESHOLDS = (0.001, 0.002, 0.005, 0.0075, 0.01, 0.02, 0.05, 0.1, 0.2)


@pytest.fixture(scope="module")
def lulesh_total_iterations():
    sim = LuleshSimulation(SIZE, maintain_field=False)
    sim.run()
    return sim.iteration


def _provider(domain, loc):
    return domain.xd(loc)


def _break_point_analysis(total, threshold, provider, name):
    return BreakPointAnalysis(
        provider,
        IterParam(1, 8, 1),
        IterParam(30, int(0.4 * total), 1),
        threshold=threshold,
        max_location=SIZE,
        lag=10,
        order=3,
        terminate_when_trained=True,
        name=name,
    )


# ----------------------------------------------------------------------
# workload layer
# ----------------------------------------------------------------------


class _TickApp:
    """Minimal custom workload: counts iterations, no physics."""

    def __init__(self, n, max_iterations=10_000):
        self.n = n
        self.t = 0
        self._max = max_iterations

    def step(self):
        self.t += 1

    @property
    def domain(self):
        return self

    @property
    def done(self):
        return self.t >= self.n

    @property
    def max_iterations(self):
        return self._max


class _StubAnalysis(Analysis):
    """Analysis that requests termination at a scripted iteration."""

    def __init__(self, name, stop_at=None):
        super().__init__(name)
        self.stop_at = stop_at
        self.seen = []

    def on_iteration(self, domain, iteration):
        self.seen.append(iteration)
        if self.stop_at is not None and iteration >= self.stop_at:
            self.wants_stop = True
        return None

    def summary(self):
        return ExtractionSummary(samples_collected=len(self.seen))


class _StopAtCurveFitting(CurveFitting):
    """Curve fitting that requests termination at a scripted iteration."""

    def __init__(self, *args, stop_at, **kwargs):
        super().__init__(*args, **kwargs)
        self.stop_at = stop_at

    def on_iteration(self, domain, iteration):
        event = super().on_iteration(domain, iteration)
        if iteration >= self.stop_at:
            self.wants_stop = True
        return event


class _StopAtStep(CurveFitting):
    """Curve fitting that stops at a scripted iteration from inside the
    cohort step (it does not override ``on_iteration``)."""

    def __init__(self, *args, stop_at, **kwargs):
        super().__init__(*args, **kwargs)
        self.stop_at = stop_at

    def step_cohort(self, members, domain, iteration, own=None):
        visited = dict(super().step_cohort(members, domain, iteration, own))
        for j, member in enumerate(members):
            if iteration >= member.stop_at:
                member.wants_stop = True
                visited.setdefault(j, None)
        return sorted(visited.items())


def _wave_history(n_iterations=200, n_locations=10):
    """A travelling wave recording: smooth, so every update differs."""
    t = np.arange(n_iterations, dtype=np.float64)[:, None]
    loc = np.arange(n_locations, dtype=np.float64)[None, :]
    return np.sin(0.05 * t - 0.3 * loc) + 0.01 * loc


def _counting_partial_fit(monkeypatch, sleep=0.0):
    """Count (and optionally slow) every ARModel.partial_fit call."""
    calls = []
    original = ARModel.partial_fit

    def counted(self, x, y):
        calls.append(self)
        if sleep:
            time.sleep(sleep)
        return original(self, x, y)

    monkeypatch.setattr(ARModel, "partial_fit", counted)
    return calls


class TestWorkloads:
    def test_adapters_satisfy_protocol(self):
        lulesh = as_simulation_app(LuleshSimulation(8, maintain_field=False))
        wd = as_simulation_app(WdMergerSimulation(8, maintain_grid=False))
        assert isinstance(lulesh, LuleshApp)
        assert isinstance(wd, WdMergerApp)
        assert not lulesh.done and not wd.done

    def test_custom_duck_typed_app_passes_through(self):
        app = _TickApp(3)
        assert as_simulation_app(app) is app

    def test_non_app_rejected(self):
        with pytest.raises(ConfigurationError):
            as_simulation_app(object())

    def test_replay_app_feeds_rows_one_based(self):
        history = np.arange(12.0).reshape(4, 3)
        app = ReplayApp(history)
        seen = []
        engine = InSituEngine(app)

        class _Recorder(Analysis):
            def on_iteration(self, domain, iteration):
                seen.append((iteration, domain.value(1)))
                return None

            def summary(self):
                return ExtractionSummary()

        engine.add_analysis(_Recorder("recorder"))
        result = engine.run()
        assert result.iterations == 4
        assert seen == [(1, 1.0), (2, 4.0), (3, 7.0), (4, 10.0)]

    def test_replay_app_rejects_3d(self):
        with pytest.raises(ConfigurationError):
            ReplayApp(np.zeros((2, 2, 2)))


# ----------------------------------------------------------------------
# collection layer
# ----------------------------------------------------------------------


class TestSharedCollector:
    def _analysis(
        self, provider, spatial=(0, 5, 1), temporal=(1, 40, 1),
        cls=CurveFitting, **kw,
    ):
        kw.setdefault("order", 2)
        kw.setdefault("lag", 1)
        kw.setdefault("batch_size", 4)
        return cls(provider, spatial, temporal, **kw)

    def test_same_window_shares_one_store(self):
        shared = SharedCollector()
        a = self._analysis(ReplayApp.provider)
        b = self._analysis(ReplayApp.provider, batch_size=8)
        assert shared.subscribe(a) and shared.subscribe(b)
        assert a.collector.store is b.collector.store
        assert shared.n_groups == 1
        assert shared.shared_sweeps_saved == 1
        # Different batch sizes train differently: no shared trainer.
        assert a.trainer is not b.trainer

    def test_identical_training_shares_one_trainer(self):
        shared = SharedCollector()
        a = self._analysis(ReplayApp.provider, threshold=0.1, reference_value=1.0)
        b = self._analysis(
            ReplayApp.provider, threshold=0.2, reference_value=2.0, name="b"
        )
        shared.subscribe(a)
        shared.subscribe(b)
        # Twins (they differ only in threshold, reference and name)
        # share one collector, so one trainer and model, and one
        # early-stop monitor.
        assert a.collector is b.collector
        assert a.trainer is b.trainer
        assert a.model is b.model
        assert a.monitor is b.monitor
        (group,) = shared.groups
        assert group.collectors == [a.collector, a.collector]
        assert shared.shared_sweeps_saved == 1

    _BREAK_POINT = {"cls": BreakPointAnalysis, "threshold": 0.1, "max_location": 8}
    _OVERRIDE = {"cls": _StopAtCurveFitting, "stop_at": 1000}

    # (field, base, variant) — the variant differs from the base in
    # exactly the named field, both sides valid.  The on_iteration row
    # differs in nothing: an override is never shared.
    TRAINING_VARIANTS = [
        ("batch_size", {}, {"batch_size": 8}),
        ("learning_rate", {}, {"learning_rate": 0.05}),
        ("epochs_per_batch", {}, {"epochs_per_batch": 4}),
        ("l2", {}, {"l2": 0.1}),
        ("seed", {}, {"seed": 1}),
        ("lag", {}, {"lag": 2}),
        ("order", {}, {"order": 3}),
        ("include_self", {}, {"include_self": False}),
        ("axis", {}, {"axis": "time"}),
        ("accuracy_threshold", {}, {"accuracy_threshold": 0.5}),
        ("monitor_window", {}, {"monitor_window": 3}),
        ("min_updates", {}, {"min_updates": 4}),
        ("monitor_patience", {}, {"monitor_patience": 1}),
        ("class", {"threshold": 0.1, "reference_value": 1.0}, _BREAK_POINT),
        ("check_every", _BREAK_POINT, {**_BREAK_POINT, "check_every": 4}),
        (
            "reference_dynamic",
            _BREAK_POINT,
            {**_BREAK_POINT, "reference_value": 1.0},
        ),
        ("on_iteration", _OVERRIDE, _OVERRIDE),
    ]

    @pytest.mark.parametrize(
        "field, base, override",
        TRAINING_VARIANTS,
        ids=[v[0] for v in TRAINING_VARIANTS],
    )
    def test_each_training_field_prevents_sharing(self, field, base, override):
        shared = SharedCollector()
        a = self._analysis(ReplayApp.provider, **base)
        b = self._analysis(ReplayApp.provider, name="b", **override)
        shared.subscribe(a)
        shared.subscribe(b)
        assert a.collector.store is b.collector.store
        assert a.collector is not b.collector
        assert a.trainer is not b.trainer
        assert a.monitor is not b.monitor

    def test_late_subscriber_after_training_gets_own_trainer(self):
        shared = SharedCollector()
        a = self._analysis(ReplayApp.provider)
        shared.subscribe(a)
        app = ReplayApp(np.arange(18.0).reshape(3, 6))
        for iteration in (1, 2):
            app.step()
            a.on_iteration(app.domain, iteration)
        assert a.trainer.samples_seen > 0
        late = self._analysis(ReplayApp.provider)
        shared.subscribe(late)
        assert late.collector.store is a.collector.store
        assert late.trainer is not a.trainer
        assert late.trainer.samples_seen == 0

    def test_distinct_windows_do_not_share(self):
        shared = SharedCollector()
        a = self._analysis(ReplayApp.provider, temporal=(1, 40, 1))
        b = self._analysis(ReplayApp.provider, temporal=(1, 50, 1))
        shared.subscribe(a)
        shared.subscribe(b)
        assert a.collector.store is not b.collector.store
        assert shared.n_groups == 2

    def test_distinct_providers_do_not_share(self):
        shared = SharedCollector()
        a = self._analysis(lambda d, loc: 0.0)
        b = self._analysis(lambda d, loc: 0.0)
        shared.subscribe(a)
        shared.subscribe(b)
        assert shared.n_groups == 2

    def test_non_collector_analysis_ignored(self):
        shared = SharedCollector()
        assert not shared.subscribe(_StubAnalysis("stub"))
        assert shared.n_groups == 0

    def test_rebind_after_collection_rejected(self):
        shared = SharedCollector()
        a = self._analysis(ReplayApp.provider)
        shared.subscribe(a)
        app = ReplayApp(np.ones((3, 6)))
        app.step()
        a.on_iteration(app.domain, 1)
        late = self._analysis(ReplayApp.provider)
        app.step()
        late.on_iteration(app.domain, 2)
        with pytest.raises(ConfigurationError):
            shared.subscribe(late)

    def test_late_empty_subscriber_joins_existing_history(self):
        shared = SharedCollector()
        a = self._analysis(ReplayApp.provider)
        shared.subscribe(a)
        app = ReplayApp(np.ones((3, 6)))
        app.step()
        a.on_iteration(app.domain, 1)
        late = self._analysis(ReplayApp.provider)
        shared.subscribe(late)
        assert late.collector.store is a.collector.store
        assert len(late.collector.store) == 1
        # ``a`` has taken a row (though no sample yet), so the late
        # subscriber is not its twin: its counters start at zero.
        assert late.collector is not a.collector
        assert late.collector.rows_ingested == 0


# ----------------------------------------------------------------------
# scheduling layer: termination policies
# ----------------------------------------------------------------------


class TestTerminationPolicy:
    def _run(self, policy, stops, n_iters=20, **kwargs):
        engine = InSituEngine(_TickApp(n_iters), policy=policy, **kwargs)
        analyses = [
            engine.add_analysis(_StubAnalysis(f"a{i}", stop_at=stop))
            for i, stop in enumerate(stops)
        ]
        result = engine.run()
        return engine, analyses, result

    def test_any_stops_at_first(self):
        _, _, result = self._run("any", [5, 9, 3])
        assert result.terminated_early
        assert result.iterations == 3

    def test_all_waits_for_every_analysis(self):
        _, analyses, result = self._run("all", [5, 9, 3])
        assert result.terminated_early
        assert result.iterations == 9
        assert result.stopped_at == {"a0": 5, "a1": 9, "a2": 3}
        # Completed analyses are never dispatched again.
        assert analyses[2].seen == [1, 2, 3]
        assert analyses[0].seen == [1, 2, 3, 4, 5]

    def test_quorum_count(self):
        _, _, result = self._run("quorum", [5, 9, 3], quorum=2)
        assert result.iterations == 5

    def test_quorum_fraction(self):
        _, _, result = self._run("quorum", [5, 9, 3, 7], quorum=0.5)
        assert result.iterations == 5

    def test_no_stop_runs_to_completion(self):
        _, _, result = self._run("all", [None, None], n_iters=6)
        assert not result.terminated_early
        assert result.iterations == 6
        assert result.stopped_at == {}

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            AnalysisScheduler(policy="most")

    def test_quorum_validation(self):
        with pytest.raises(ConfigurationError):
            AnalysisScheduler(policy="quorum")
        with pytest.raises(ConfigurationError):
            AnalysisScheduler(policy="quorum", quorum=0)
        with pytest.raises(ConfigurationError):
            AnalysisScheduler(policy="quorum", quorum=1.5)
        with pytest.raises(ConfigurationError):
            AnalysisScheduler(policy="any", quorum=2)

    def test_analyses_property_is_read_only_snapshot(self):
        engine = InSituEngine(_TickApp(4))
        engine.add_analysis(_StubAnalysis("a"))
        with pytest.raises(AttributeError):
            engine.analyses.append(_StubAnalysis("b"))
        assert len(engine.analyses) == 1

    def test_duplicate_analysis_name_rejected(self):
        engine = InSituEngine(_TickApp(4))
        engine.add_analysis(_StubAnalysis("twin"))
        with pytest.raises(ConfigurationError):
            engine.add_analysis(_StubAnalysis("twin"))

    def test_scheduler_with_no_analyses_never_stops(self):
        engine = InSituEngine(_TickApp(4), policy="all")
        result = engine.run()
        assert result.iterations == 4
        assert not result.terminated_early

    def test_max_iterations_cap(self):
        engine = InSituEngine(_TickApp(100))
        result = engine.run(max_iterations=7)
        assert result.iterations == 7
        assert not result.terminated_early

    def test_rerun_after_termination_does_not_step_app(self):
        app = _TickApp(100)
        engine = InSituEngine(app, policy="any")
        engine.add_analysis(_StubAnalysis("a", stop_at=4))
        first = engine.run()
        assert first.terminated_early and app.t == 4
        again = engine.run()
        assert again.terminated_early
        assert again.iterations == 4
        assert app.t == 4


# ----------------------------------------------------------------------
# acceptance: one provider sweep per (location, iteration)
# ----------------------------------------------------------------------


class TestSharedSweepSampling:
    def test_nine_threshold_sweep_samples_once(self, lulesh_total_iterations):
        total = lulesh_total_iterations
        sim = LuleshSimulation(SIZE, maintain_field=False)
        calls = {}

        def counting_provider(domain, loc):
            key = (sim.iteration, loc)
            calls[key] = calls.get(key, 0) + 1
            return domain.xd(loc)

        engine = InSituEngine(sim, policy="all")
        analyses = [
            engine.add_analysis(
                _break_point_analysis(
                    total, threshold, counting_provider, f"t{i}"
                )
            )
            for i, threshold in enumerate(THRESHOLDS)
        ]
        assert engine.scheduler.shared.n_groups == 1
        assert engine.scheduler.shared.shared_sweeps_saved == len(THRESHOLDS) - 1
        assert all(a.trainer is analyses[0].trainer for a in analyses)
        result = engine.run()
        assert result.iterations > 0
        assert calls, "provider was never invoked"
        assert max(calls.values()) == 1
        # Every collected (iteration, location) pair was sampled exactly
        # once: 8 spatial locations per matching iteration.
        iterations_sampled = {it for it, _ in calls}
        assert all(
            sum(1 for k in calls if k[0] == it) == 8
            for it in iterations_sampled
        )

    def test_nine_threshold_sweep_trains_once(
        self, lulesh_total_iterations, monkeypatch
    ):
        total = lulesh_total_iterations
        fits = _counting_partial_fit(monkeypatch)
        engine = InSituEngine(
            LuleshSimulation(SIZE, maintain_field=False), policy="all"
        )
        analyses = [
            engine.add_analysis(
                _break_point_analysis(total, threshold, _provider, f"t{i}")
            )
            for i, threshold in enumerate(THRESHOLDS)
        ]
        engine.run()
        updates = analyses[0].trainer.updates
        assert updates > 0
        assert len(fits) == updates
        assert all(a.trainer.updates == updates for a in analyses)


# ----------------------------------------------------------------------
# equivalence: shared sweep == independent runs, bit for bit
# ----------------------------------------------------------------------


class TestSweepEquivalence:
    @pytest.fixture(scope="class")
    def sweep_and_solo(self, lulesh_total_iterations):
        total = lulesh_total_iterations
        thresholds = (0.002, 0.02, 0.2)

        solo = {}
        for threshold in thresholds:
            sim = LuleshSimulation(SIZE, maintain_field=False)
            region = Region("solo", sim.domain)
            analysis = region.add_analysis(
                _break_point_analysis(
                    total, threshold, _provider, f"solo_{threshold:g}"
                )
            )
            run = sim.run(region)
            solo[threshold] = (analysis, run)

        sim = LuleshSimulation(SIZE, maintain_field=False)
        engine = InSituEngine(sim, policy="all")
        shared = {
            threshold: engine.add_analysis(
                _break_point_analysis(
                    total, threshold, _provider, f"shared_{threshold:g}"
                )
            )
            for threshold in thresholds
        }
        result = engine.run()
        return thresholds, solo, shared, result

    def test_coefficients_bit_identical(self, sweep_and_solo):
        thresholds, solo, shared, _ = sweep_and_solo
        for threshold in thresholds:
            solo_analysis, _ = solo[threshold]
            shared_analysis = shared[threshold]
            np.testing.assert_array_equal(
                solo_analysis.model.coefficients,
                shared_analysis.model.coefficients,
            )
            assert (
                solo_analysis.model.intercept == shared_analysis.model.intercept
            )
            assert (
                solo_analysis.trainer.updates == shared_analysis.trainer.updates
            )
            assert (
                solo_analysis.collector.samples_emitted
                == shared_analysis.collector.samples_emitted
            )

    def test_break_points_identical(self, sweep_and_solo):
        thresholds, solo, shared, _ = sweep_and_solo
        for threshold in thresholds:
            solo_analysis, _ = solo[threshold]
            assert (
                solo_analysis.final_feature().radius
                == shared[threshold].final_feature().radius
            )

    def test_stop_iterations_identical(self, sweep_and_solo):
        thresholds, solo, shared, result = sweep_and_solo
        for threshold in thresholds:
            _, solo_run = solo[threshold]
            name = shared[threshold].name
            assert result.stopped_at[name] == solo_run.iterations


class _RowApp:
    """Workload replaying scripted rows; the domain is the app itself."""

    def __init__(self, rows):
        self.rows = rows
        self.t = 0
        self.row = None

    def step(self):
        self.row = self.rows[self.t]
        self.t += 1

    @property
    def domain(self):
        return self

    @property
    def done(self):
        return self.t >= len(self.rows)

    @property
    def max_iterations(self):
        return len(self.rows)


def _row_provider(domain, loc):
    return float(domain.row[loc])


class TestSharedThresholdEvents:
    """Every threshold of a shared sweep reports what a brute-force scan
    of each collected row finds: the farthest location with |v| >= cut."""

    SWEEP = (0.05, 0.075, 0.1, 0.125, 0.15, 0.175, 0.2, 0.25, 0.3)
    REFERENCE = 2.0
    WINDOW_END = 40

    def _rows(self):
        rng = np.random.default_rng(11)
        rows = rng.normal(0.0, 0.35, (self.WINDOW_END + 5, 12))
        cut = self.SWEEP[4] * self.REFERENCE
        rows[9] = rng.uniform(-0.5, 0.5, 12) * cut
        rows[9, 8] = -cut  # exactly on the cut, and the farthest to reach it
        rows[14] = rng.uniform(-0.9, 0.9, 12) * self.SWEEP[0] * self.REFERENCE
        return rows

    def test_events_equal_brute_force(self):
        rows = self._rows()
        engine = InSituEngine(_RowApp(rows), policy="all")
        analyses = []
        for threshold in self.SWEEP:
            analysis = CurveFitting(
                _row_provider,
                IterParam(0, 11, 1),
                IterParam(1, self.WINDOW_END, 1),
                order=3,
                lag=1,
                batch_size=8,
                threshold=threshold,
                reference_value=self.REFERENCE,
                name=f"threshold_{threshold:g}",
            )
            if not analyses:
                # A one-row store grows while the sweep runs.
                analysis.collector.rebind_store(
                    SeriesStore(np.arange(12), capacity=1)
                )
            analyses.append(engine.add_analysis(analysis))
        engine.run()
        store = analyses[0].collector.store
        assert all(a.collector.store is store for a in analyses)
        assert store.matrix().shape[0] == self.WINDOW_END
        assert store._data.shape[0] > 1

        for analysis in analyses:
            cut = analysis.threshold * self.REFERENCE
            expected = []
            # The row that completes the window concludes the analysis
            # instead of being checked against the threshold.
            for iteration in range(1, self.WINDOW_END):
                row = rows[iteration - 1]
                above = np.where(np.abs(row) >= cut)[0]
                if above.size:
                    loc = int(above.max())
                    expected.append(
                        ThresholdEvent(iteration, loc, float(row[loc]), cut)
                    )
            assert analysis.threshold_events == expected, analysis.name
        exact = analyses[4].threshold_events
        assert any(
            e.iteration == 10 and e.location == 8 and e.value == -e.threshold_value
            for e in exact
        )
        assert all(e.iteration != 15 for a in analyses for e in a.threshold_events)


# ----------------------------------------------------------------------
# timings
# ----------------------------------------------------------------------


class TestTimings:
    def test_solo_seconds_requires_recording(self):
        engine = InSituEngine(_TickApp(5))
        engine.add_analysis(_StubAnalysis("a", stop_at=3))
        result = engine.run()
        with pytest.raises(ConfigurationError):
            result.seconds_at(2)

    def test_recorded_timings_are_per_iteration_durations(self):
        engine = InSituEngine(_TickApp(10), record_timings=True)
        engine.add_analysis(_StubAnalysis("a", stop_at=None))
        result = engine.run()
        assert result.step_seconds is not None
        assert result.step_seconds.size == 10
        # Regression: step_seconds used to accumulate a running sum, so
        # seconds_at(n) returned the last cumulative entry while the
        # array itself summed to far more.  Entries are now per-iteration
        # durations whose prefix sums back seconds_at.
        assert np.all(result.step_seconds >= 0)
        assert result.seconds_at(10) == pytest.approx(
            float(result.step_seconds.sum())
        )
        assert result.seconds_at(4) == pytest.approx(
            float(result.step_seconds[:4].sum())
        )
        assert result.seconds_at(0) == 0.0
        assert result.solo_seconds("a") >= result.seconds_at(10)

    def test_unknown_analysis_name_rejected(self):
        engine = InSituEngine(_TickApp(3), record_timings=True)
        engine.add_analysis(_StubAnalysis("a"))
        result = engine.run()
        with pytest.raises(ConfigurationError):
            result.solo_seconds("nope")

    def test_timings_accumulate_across_resumed_runs(self):
        engine = InSituEngine(_TickApp(30), record_timings=True)
        engine.add_analysis(_StubAnalysis("a", stop_at=25))
        engine.run(max_iterations=20)
        result = engine.run(max_iterations=100)
        # stopped_at is an absolute iteration; step_seconds must index
        # absolute iterations too, covering both run() calls.
        assert result.stopped_at == {"a": 25}
        assert result.step_seconds.size == 25
        assert result.seconds_at(25) == pytest.approx(
            float(result.step_seconds.sum())
        )


# ----------------------------------------------------------------------
# shared training: one trainer per distinct model, forked on completion
# ----------------------------------------------------------------------


class TestSharedTraining:
    STOPS = (40, 90, 130)

    @staticmethod
    def _analysis(stop_at, name):
        return _StopAtStep(
            ReplayApp.provider,
            (0, 9, 1),
            (1, 180, 1),
            order=3,
            lag=1,
            batch_size=8,
            stop_at=stop_at,
            name=name,
        )

    @pytest.fixture(scope="class")
    def shared_and_solo(self):
        history = _wave_history()
        solo = {}
        for stop in self.STOPS:
            engine = InSituEngine(ReplayApp(history))
            solo[stop] = engine.add_analysis(self._analysis(stop, "solo"))
            assert engine.run().stopped_at == {"solo": stop}
        engine = InSituEngine(ReplayApp(history), policy="all")
        shared = {
            stop: engine.add_analysis(self._analysis(stop, f"stop_{stop}"))
            for stop in self.STOPS
        }
        assert len({id(a.collector) for a in shared.values()}) == 1
        result = engine.run()
        return solo, shared, result

    def test_each_fork_matches_its_solo_run(self, shared_and_solo):
        solo, shared, result = shared_and_solo
        for stop in self.STOPS:
            alone, twin = solo[stop], shared[stop]
            assert result.stopped_at[twin.name] == stop
            np.testing.assert_array_equal(
                alone.model.coefficients, twin.model.coefficients
            )
            assert alone.model.intercept == twin.model.intercept
            assert alone.trainer.updates == twin.trainer.updates
            assert alone.trainer.losses == twin.trainer.losses
            assert (
                alone.collector.samples_emitted
                == twin.collector.samples_emitted
            )
            assert alone.summary() == twin.summary()
            # Evaluated on the rows collected through its stop, not on
            # the rows its twins collected after it.
            assert len(alone.collector.store) == len(twin.collector.store)
            assert alone.fit_error() == twin.fit_error()
            for mine, theirs in zip(
                alone.predicted_vs_real(), twin.predicted_vs_real()
            ):
                np.testing.assert_array_equal(mine, theirs)
        updates = [shared[stop].trainer.updates for stop in self.STOPS]
        assert updates == sorted(updates) and len(set(updates)) == 3

    def test_completed_analyses_end_on_distinct_trainers(self, shared_and_solo):
        _, shared, _ = shared_and_solo
        trainers = {id(a.trainer) for a in shared.values()}
        models = {id(a.model) for a in shared.values()}
        assert len(trainers) == len(models) == len(self.STOPS)

    @pytest.mark.parametrize(
        "stops, copies",
        [((60, 60, 60), 0), ((40, 60, 60), 1)],
        ids=["stop_together", "one_stops_early"],
    )
    def test_fork_copies_only_for_a_twin_that_trains_on(
        self, monkeypatch, stops, copies
    ):
        """Twins that stop in one iteration keep sharing their collector;
        one that stops while others train on gets the only copies of
        trainer and monitor.  Every fit still equals its solo run."""
        from repro.core.early_stop import EarlyStopMonitor
        from repro.core.minibatch import MiniBatchTrainer
        from repro.engine import collection

        made = []
        real = collection.copy
        monkeypatch.setattr(
            collection,
            "copy",
            types.SimpleNamespace(
                copy=real.copy,
                deepcopy=lambda obj: made.append(type(obj))
                or real.deepcopy(obj),
            ),
        )
        history = _wave_history()
        engine = InSituEngine(ReplayApp(history), policy="all")
        shared = [
            engine.add_analysis(self._analysis(stop, f"twin_{i}"))
            for i, stop in enumerate(stops)
        ]
        result = engine.run()
        assert sorted(made, key=lambda t: t.__name__) == (
            [EarlyStopMonitor] * copies + [MiniBatchTrainer] * copies
        )
        assert len({id(a.collector) for a in shared}) == copies + 1
        assert len({id(a.trainer) for a in shared}) == copies + 1
        assert len({id(a.monitor) for a in shared}) == copies + 1
        for twin, stop in zip(shared, stops):
            assert result.stopped_at[twin.name] == stop
            solo = InSituEngine(ReplayApp(history))
            alone = solo.add_analysis(self._analysis(stop, twin.name))
            solo.run()
            np.testing.assert_array_equal(
                alone.model.coefficients, twin.model.coefficients
            )
            assert alone.trainer.losses == twin.trainer.losses
            assert alone.summary() == twin.summary()

    def test_shared_updates_are_charged_to_every_member(
        self, lulesh_total_iterations, monkeypatch
    ):
        total = lulesh_total_iterations
        _counting_partial_fit(monkeypatch, sleep=0.002)
        engine = InSituEngine(
            LuleshSimulation(SIZE, maintain_field=False),
            policy="all",
            record_timings=True,
        )
        analyses = [
            engine.add_analysis(
                _break_point_analysis(total, threshold, _provider, f"t{i}")
            )
            for i, threshold in enumerate((0.002, 0.02, 0.2))
        ]
        result = engine.run()
        for analysis in analyses:
            assert analysis.trainer.updates > 0
            assert (
                result.analysis_seconds[analysis.name]
                >= 0.002 * analysis.trainer.updates
            )


class TestDoubleObserve:
    @pytest.mark.parametrize(
        "late", [False, True], ids=["solo", "late_subscriber"]
    )
    def test_duplicate_iteration_still_raises(self, late):
        from repro.errors import CollectionError

        def fitting():
            return CurveFitting(
                ReplayApp.provider, (0, 5, 1), (1, 40, 1),
                order=2, lag=1, batch_size=4,
            )

        analysis = fitting()
        app = ReplayApp(np.ones((4, 6)))
        app.step()
        iteration = 1
        if late:
            # A collector joining a store that already holds a row.
            shared = SharedCollector()
            first = fitting()
            shared.subscribe(first)
            first.on_iteration(app.domain, 1)
            shared.subscribe(analysis)
            assert analysis.collector is not first.collector
            app.step()
            iteration = 2
        analysis.on_iteration(app.domain, iteration)
        emitted = analysis.collector.samples_emitted
        with pytest.raises(CollectionError):
            analysis.on_iteration(app.domain, iteration)
        assert analysis.collector.samples_emitted == emitted


# ----------------------------------------------------------------------
# cohort dispatch: twins stepped in one call per iteration
# ----------------------------------------------------------------------


def _own_provider(provider):
    """A provider object of its own: nothing shares collection with it."""
    return lambda domain, location: provider(domain, location)


def _outputs(analyses):
    """Everything an analysis reports, for comparing two runs."""
    out = []
    for analysis in analyses:
        entry = {"name": analysis.name, "summary": analysis.summary()}
        if isinstance(analysis, CurveFitting):
            model = analysis.model
            entry.update(
                events=analysis.threshold_events,
                rows=analysis.collector.rows_ingested,
                samples=analysis.collector.samples_emitted,
                losses=analysis.trainer.losses,
                converged=(
                    analysis.monitor.converged,
                    analysis.monitor.fired_at_update,
                ),
                coefficients=(
                    model.coefficients.tobytes() if model.is_trained else None
                ),
                intercept=model.intercept if model.is_trained else None,
            )
        if isinstance(analysis, BreakPointAnalysis):
            entry["feature"] = (
                analysis.final_feature() if analysis.model.is_trained else None
            )
        out.append(entry)
    return out


class TestCohortDispatch:
    def test_nine_threshold_sweep_observes_once_per_iteration(
        self, lulesh_total_iterations, monkeypatch
    ):
        from repro.core.collector import DataCollector

        calls = []
        observe = DataCollector.observe

        def counted(self, domain, iteration):
            calls.append(iteration)
            return observe(self, domain, iteration)

        monkeypatch.setattr(DataCollector, "observe", counted)
        engine = InSituEngine(
            LuleshSimulation(SIZE, maintain_field=False), policy="all"
        )
        for i, threshold in enumerate(THRESHOLDS):
            engine.add_analysis(
                _break_point_analysis(
                    lulesh_total_iterations, threshold, _provider, f"t{i}"
                )
            )
        result = engine.run()
        # The nine twins are one cohort, whose step observes once per
        # iteration: not once per analysis.
        assert calls == list(range(1, result.iterations + 1))

    def _mixed(self, total, provider_for):
        """Twins of both classes with a stub and a non-twin between."""
        spatial, temporal = IterParam(1, 8, 1), IterParam(30, int(0.4 * total), 1)

        def fitting(name, threshold, lag=10, **kwargs):
            return CurveFitting(
                provider_for(), spatial, temporal, order=3, lag=lag,
                threshold=threshold, reference_value=10.0, name=name,
                **kwargs,
            )

        def break_point(name, threshold):
            return BreakPointAnalysis(
                provider_for(), spatial, temporal, threshold=threshold,
                max_location=SIZE, lag=10, order=3,
                terminate_when_trained=True, name=name,
            )

        return [
            fitting("fit_a", 0.05, terminate_when_trained=True),
            break_point("bp_a", 0.02),
            _StubAnalysis("stub", stop_at=120),
            fitting("fit_lag5", 0.1, lag=5, terminate_when_trained=True),
            break_point("bp_b", 0.1),
            fitting("fit_b", 0.2),
            break_point("bp_c", 0.2),
        ]

    @staticmethod
    def _engine(analyses):
        engine = InSituEngine(
            LuleshSimulation(SIZE, maintain_field=False), policy="all"
        )
        for analysis in analyses:
            engine.add_analysis(analysis)
        return engine

    def test_mixed_registration_matches_unshared_run(
        self, lulesh_total_iterations
    ):
        total = lulesh_total_iterations
        shared = self._mixed(total, lambda: _provider)
        alone = self._mixed(total, lambda: _own_provider(_provider))
        engine, ref_engine = self._engine(shared), self._engine(alone)
        fit_a, bp_a, _, fit_lag5, bp_b, fit_b, bp_c = shared
        # One collector per class's twins; the lag trains on its own.
        assert fit_b.collector is fit_a.collector
        assert bp_b.collector is bp_a.collector and bp_c.collector is bp_a.collector
        assert bp_a.trainer is not fit_a.trainer
        assert fit_lag5.trainer not in (fit_a.trainer, bp_a.trainer)
        stream, ref_stream = [], []
        result = engine.run(progress=stream.append)
        ref_result = ref_engine.run(progress=ref_stream.append)
        assert engine.scheduler.shared.n_groups == 1
        assert ref_engine.scheduler.shared.n_groups == len(alone) - 1
        assert result.stopped_at == ref_result.stopped_at
        assert result.iterations == ref_result.iterations
        assert len(set(result.stopped_at.values())) > 1
        assert engine.broadcaster.history == ref_engine.broadcaster.history
        assert any(a.threshold_events for a in shared if a.name != "stub")
        assert _outputs(shared) == _outputs(alone)
        assert stream == ref_stream

    @pytest.mark.parametrize(
        "stops", [(40, 90, 130), (130, 90, 40), (90, 40, 130)],
        ids=["leader_first", "leader_last", "leader_middle"],
    )
    def test_staggered_stops_match_solo_runs(self, stops):
        history = _wave_history()

        def analysis(stop, threshold, name):
            return _StopAtStep(
                ReplayApp.provider, (0, 9, 1), (1, 180, 1), order=3, lag=1,
                batch_size=8, threshold=threshold, reference_value=1.0,
                stop_at=stop, name=name,
            )

        thresholds = (0.3, 0.6, 0.9)
        engine = InSituEngine(ReplayApp(history), policy="all")
        twins = [
            engine.add_analysis(analysis(stop, threshold, f"twin_{i}"))
            for i, (stop, threshold) in enumerate(zip(stops, thresholds))
        ]
        assert len({id(a.collector) for a in twins}) == 1
        result = engine.run()
        assert len({id(a.monitor) for a in twins}) == len(twins)
        assert len({id(a.collector) for a in twins}) == len(twins)
        crossings = [len(a.threshold_events) for a in twins]
        assert len(set(crossings)) == len(twins) and min(crossings) > 0
        for twin, stop, threshold in zip(twins, stops, thresholds):
            assert result.stopped_at[twin.name] == stop
            solo = InSituEngine(ReplayApp(history))
            alone = solo.add_analysis(analysis(stop, threshold, twin.name))
            assert solo.run().stopped_at == {twin.name: stop}
            assert _outputs([twin]) == _outputs([alone])

    @staticmethod
    def _counting(read, clock):
        """A provider ``read`` that counts calls per (iteration, location)."""
        calls = {}

        def provider(domain, location):
            key = (clock(), location)
            calls[key] = calls.get(key, 0) + 1
            return read(domain, location)

        return calls, provider

    def test_region_sweeps_once_per_iteration(self, lulesh_total_iterations):
        total = lulesh_total_iterations
        thresholds = (0.002, 0.02, 0.2)
        sim = LuleshSimulation(SIZE, maintain_field=False)
        region = Region("sweep", sim.domain, policy="all")
        calls, provider = self._counting(_provider, lambda: region.iteration)
        swept = [
            region.add_analysis(
                _break_point_analysis(total, t, provider, f"t{t:g}")
            )
            for t in thresholds
        ]
        sim.run(region)
        # No driver: the cohort's step samples inside its observe.
        assert set(calls.values()) == {1}
        assert len(calls) == 8 * len({it for it, _ in calls})
        engine = InSituEngine(
            LuleshSimulation(SIZE, maintain_field=False), policy="all"
        )
        driven = [
            engine.add_analysis(
                _break_point_analysis(total, t, _provider, f"t{t:g}")
            )
            for t in thresholds
        ]
        result = engine.run()
        assert region.scheduler.stopped_at() == result.stopped_at
        assert region.broadcaster.history == engine.broadcaster.history
        assert _outputs(swept) == _outputs(driven)

    def test_td_facade_sweeps_once_per_iteration(self):
        from repro.core import capi

        def facade(share):
            app = ReplayApp(_wave_history())
            calls, provider = self._counting(
                ReplayApp.provider, lambda: app.iteration
            )
            region = capi.td_region_init("facade", app.domain)
            added = [
                capi.td_region_add_analysis(
                    region,
                    provider if share else _own_provider(provider),
                    capi.td_iter_param_init(0, 9, 1),
                    capi.Curve_Fitting, capi.td_iter_param_init(1, 150, 1),
                    threshold=threshold, reference_value=1.0, order=3,
                    lag=1, batch_size=8, name=f"facade_{threshold:g}",
                )
                for threshold in (0.3, 0.6, 0.9)
            ]
            while not app.done:
                capi.td_region_begin(region)
                app.step()
                if not capi.td_region_end(region, app.domain):
                    break
            return region, added, calls

        region, twins, calls = facade(share=True)
        assert twins[0].trainer is twins[1].trainer is twins[2].trainer
        assert set(calls.values()) == {1}
        assert len(calls) == 10 * 150
        ref_region, alone, ref_calls = facade(share=False)
        assert set(ref_calls.values()) == {3}
        assert region.broadcaster.history == ref_region.broadcaster.history
        assert all(a.threshold_events for a in twins)
        assert _outputs(twins) == _outputs(alone)

    def test_time_axis_twins_under_adaptive_cadence(self):
        from repro.engine import CadenceController, CadencePolicy
        from tests.test_cadence import _regime_history

        history = _regime_history()

        def run(provider_for):
            engine = InSituEngine(
                ReplayApp(history),
                policy="all",
                cadence=CadenceController(
                    CadencePolicy(drift_tolerance=0.02, probes_per_level=1)
                ),
            )
            pair = [
                engine.add_analysis(
                    CurveFitting(
                        provider_for(), IterParam(0, 7, 1),
                        IterParam(1, history.shape[0], 1), axis="time",
                        order=2, lag=1, batch_size=8, min_updates=5,
                        monitor_window=3, monitor_patience=1,
                        threshold=threshold, reference_value=5.0,
                        name=f"regime_{threshold:g}",
                    )
                )
                for threshold in (1.2, 1.5)
            ]
            return engine, pair, engine.run()

        engine, shared, result = run(lambda: ReplayApp.provider)
        ref_engine, alone, ref_result = run(
            lambda: _own_provider(ReplayApp.provider)
        )
        assert shared[0].trainer is shared[1].trainer
        (group,) = result.cadence["groups"]
        assert group["probed"] > 0 and group["skipped"] > 0
        assert group["snapbacks"] >= 1
        for ref_group in ref_result.cadence["groups"]:
            assert {**ref_group, "group": 0} == group
        assert result.stopped_at == ref_result.stopped_at
        assert engine.broadcaster.history == ref_engine.broadcaster.history
        assert all(a.threshold_events for a in shared)
        assert shared[0].threshold_events != shared[1].threshold_events
        assert _outputs(shared) == _outputs(alone)

    def test_unconverged_break_points_stop_at_window_end(
        self, lulesh_total_iterations
    ):
        total = lulesh_total_iterations
        end = int(0.4 * total)
        engine = InSituEngine(
            LuleshSimulation(SIZE, maintain_field=False), policy="all"
        )
        twins = [
            engine.add_analysis(
                BreakPointAnalysis(
                    _provider, (1, 8, 1), (30, end, 1), threshold=threshold,
                    max_location=SIZE, lag=10, order=3,
                    terminate_when_trained=True, accuracy_threshold=1e-12,
                    name=f"t{threshold:g}",
                )
            )
            for threshold in (0.02, 0.2)
        ]
        result = engine.run()
        assert not any(a.converged for a in twins)
        # The paper's low-threshold rows: no confirmation, so each stops
        # where its window ends.
        assert result.stopped_at == {a.name: end for a in twins}

    def test_on_iteration_override_runs_every_iteration(self, monkeypatch):
        seen = []
        override = _StopAtCurveFitting.on_iteration

        def recorded(self, domain, iteration):
            seen.append((self.name, iteration))
            return override(self, domain, iteration)

        monkeypatch.setattr(_StopAtCurveFitting, "on_iteration", recorded)
        engine = InSituEngine(ReplayApp(_wave_history()), policy="all")
        twins = [
            engine.add_analysis(
                _StopAtCurveFitting(
                    ReplayApp.provider, (0, 9, 1), (1, 180, 1), order=3,
                    lag=1, batch_size=8, stop_at=stop, name=f"s{stop}",
                )
            )
            for stop in TestSharedTraining.STOPS
        ]
        assert all(a.cohort_key() is None for a in twins)
        assert len({id(a.collector) for a in twins}) == len(twins)
        engine.run()
        for stop in TestSharedTraining.STOPS:
            assert [it for name, it in seen if name == f"s{stop}"] == list(
                range(1, stop + 1)
            )

    def test_validator_extrapolates_once_per_store_row(
        self, lulesh_total_iterations, monkeypatch
    ):
        from repro.core import curve_fitting

        engine = InSituEngine(
            LuleshSimulation(SIZE, maintain_field=False), policy="all"
        )
        analyses = [
            engine.add_analysis(
                _break_point_analysis(
                    lulesh_total_iterations, threshold, _provider, f"t{i}"
                )
            )
            for i, threshold in enumerate(THRESHOLDS)
        ]
        engine.run()
        expected = [a.break_point(a.threshold, SIZE) for a in analyses]
        fits = []
        extrapolate = curve_fitting._extrapolate

        def counted(*args):
            fits.append(args)
            return extrapolate(*args)

        monkeypatch.setattr(curve_fitting, "_extrapolate", counted)
        store = analyses[0].collector.store
        store.add_row(store.last_iteration + 1, store.last_row() * 0.5)
        assert [a.break_point(a.threshold, SIZE) for a in analyses] == expected
        assert len(fits) == 1
