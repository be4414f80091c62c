"""Tests for deterministic fault injection and elastic recovery.

The acceptance core: a 4-rank multiprocessing run that loses one rank
mid-run (via a deterministic :class:`FaultPlan` kill) must complete
with fitted coefficients matching a serial run within 1e-9 on every
registered scenario that supports the multiprocessing backend, and the
skew-triggered rebalancer must migrate work away from slowed ranks
without ever churning a balanced run.
"""

import multiprocessing

import numpy as np
import pytest

from repro import scenarios
from repro.core.ar_model import RunningStats
from repro.core.collector import SeriesStore
from repro.engine import (
    KILL_EXIT_CODE,
    DistributedEngine,
    FaultPlan,
    InSituEngine,
    KillFault,
    RecoveryEvent,
    ReplayApp,
    as_fault_plan,
)
from repro.engine.distributed import DistributedResult
from repro.engine.elastic import _rebalance_weights
from repro.errors import ConfigurationError, ScenarioError

from test_distributed import _replay_analysis, _replay_app


class _WorkerOnlyFailure(RuntimeError):
    pass


class FailingReplayApp(ReplayApp):
    """Raises in worker processes only, at a fixed iteration.

    Rank 0's replica steps clean, so the parent survives to observe the
    worker's propagated traceback instead of hitting the same bug
    itself first.
    """

    def __init__(self, history, fail_at):
        super().__init__(history)
        self.fail_at = fail_at

    def step(self):
        in_worker = (
            multiprocessing.current_process().name != "MainProcess"
        )
        if in_worker and self.iteration + 1 >= self.fail_at:
            raise _WorkerOnlyFailure("injected worker-side failure")
        return super().step()


def _failing_replay_app():
    rng = np.random.default_rng(3)
    history = np.cumsum(rng.standard_normal((120, 32)), axis=0)
    return FailingReplayApp(history + 5.0, fail_at=12)


def _serial_coefficients(max_iterations=120):
    engine = InSituEngine(_replay_app())
    analysis = engine.add_analysis(_replay_analysis())
    engine.run(max_iterations=max_iterations)
    return np.asarray(analysis.model.coefficients).copy()


# ----------------------------------------------------------------------
# the plan itself
# ----------------------------------------------------------------------


class TestFaultPlanParsing:
    def test_round_trip(self):
        # Seconds keep every digit: a spec rounded to six significant
        # digits parses back to a different plan, so a report's embedded
        # config would not be the one that ran.
        spec = (
            "kill:rank=2,iter=40;slow:rank=1,per_iter=0.01;"
            "slow:rank=3,per_sample=0.000123456789"
        )
        plan = FaultPlan.parse(spec)
        assert plan.kill_for(2) == KillFault(rank=2, iteration=40)
        assert plan.delay_for(1).per_iteration == pytest.approx(0.01)
        assert plan.delay_for(3).per_sample == 1.23456789e-4
        assert plan.to_spec() == spec
        assert FaultPlan.parse(plan.to_spec()) == plan
        config = scenarios.RunConfig(n_ranks=4, backend="mp", faults=plan)
        assert scenarios.RunConfig.from_json(config.to_json()) == config

    def test_lookups_miss(self):
        plan = FaultPlan.parse("kill:rank=2,iter=40")
        assert plan.kill_for(1) is None
        assert plan.delay_for(2) is None

    @pytest.mark.parametrize(
        "spec",
        [
            "kill",  # no body
            "kill:rank=2",  # missing iter
            "kill:rank=2,iter=x",  # non-integer
            "kill:rank=2,iter=40,extra=1",  # unknown field
            "boom:rank=2",  # unknown type
            "drop:rank=1,chunk=2",  # retired: a pipe loses no message
            "slow:rank=1",  # no delay seconds
            "slow:rank=1,per_iter=-1",  # negative
            "slow:rank=1,per_iter=nan",  # not a number of seconds
            "slow:rank=0,per_iter=inf",  # never wakes
            "slow:rank=1,per_sample=nan",  # either field
            "kill:rank=1,iter=4;kill:rank=1,iter=9",  # duplicate rank
            "kill:rank=2,iter=40,iter=50",  # duplicate field
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse(spec)

    def test_as_fault_plan_normalises(self):
        assert as_fault_plan(None) is None
        assert as_fault_plan("") is None
        assert as_fault_plan(FaultPlan()) is None
        plan = as_fault_plan("kill:rank=1,iter=4")
        assert isinstance(plan, FaultPlan)
        assert as_fault_plan(plan) is plan
        with pytest.raises(ConfigurationError):
            as_fault_plan(42)

    def test_validate_for(self):
        FaultPlan.parse("kill:rank=1,iter=4").validate_for(2, "simcomm")
        with pytest.raises(ConfigurationError, match="has 2 rank"):
            FaultPlan.parse("kill:rank=2,iter=4").validate_for(2, "simcomm")
        with pytest.raises(ConfigurationError, match="at least one"):
            FaultPlan.parse(
                "kill:rank=0,iter=4;kill:rank=1,iter=5"
            ).validate_for(2, "simcomm")
        with pytest.raises(ConfigurationError, match="rank 0"):
            FaultPlan.parse("kill:rank=0,iter=4").validate_for(
                2, "multiprocessing"
            )

    def test_engine_validates_at_construction(self):
        with pytest.raises(ConfigurationError, match="rank 0"):
            DistributedEngine(
                backend="multiprocessing",
                n_ranks=2,
                app_factory=_replay_app,
                faults="kill:rank=0,iter=4",
            )

    def test_recovery_event_json_drops_empty_fields(self):
        event = RecoveryEvent(kind="rank_death", iteration=7, rank=2)
        payload = event.to_json()
        assert payload == {"kind": "rank_death", "iteration": 7, "rank": 2}
        reshard = RecoveryEvent(
            kind="reshard",
            iteration=8,
            counts_before=[4, 4],
            counts_after=[8, 0],
            resampled_iterations=0,
        )
        assert reshard.to_json()["resampled_iterations"] == 0


# ----------------------------------------------------------------------
# simcomm backend
# ----------------------------------------------------------------------


class TestSimCommElasticity:
    def test_kill_recovery_bit_identical(self):
        reference = _serial_coefficients()
        engine = DistributedEngine(
            _replay_app(),
            backend="simcomm",
            n_ranks=4,
            faults="kill:rank=2,iter=10",
        )
        analysis = engine.add_analysis(_replay_analysis())
        result = engine.run(max_iterations=120)
        np.testing.assert_array_equal(
            np.asarray(analysis.model.coefficients), reference
        )
        kinds = [event.kind for event in result.recovery_events]
        assert kinds == ["rank_death", "reshard"]
        reshard = result.recovery_events[1]
        assert reshard.counts_after[2] == 0
        assert sum(reshard.counts_after) == sum(reshard.counts_before)

    def test_delay_charged_without_sleeping(self):
        engine = DistributedEngine(
            _replay_app(),
            backend="simcomm",
            n_ranks=4,
            faults="slow:rank=3,per_iter=0.5",
        )
        engine.add_analysis(_replay_analysis())
        result = engine.run(max_iterations=20)
        # 20 sampled iterations x 0.5 simulated seconds: far more than
        # the wall clock this test is allowed, so the charge must be
        # simulated, and it must land on rank 3's ledger only.
        seconds = result.rank_sample_seconds
        assert seconds[3] >= 10.0
        assert max(seconds[:3]) < 1.0

    def test_skewed_run_rebalances_and_stays_identical(self):
        reference = _serial_coefficients()
        engine = DistributedEngine(
            _replay_app(),
            backend="simcomm",
            n_ranks=4,
            faults="slow:rank=3,per_sample=0.001",
            rebalance=True,
        )
        analysis = engine.add_analysis(_replay_analysis())
        result = engine.run(max_iterations=120)
        np.testing.assert_array_equal(
            np.asarray(analysis.model.coefficients), reference
        )
        rebalances = [
            event
            for event in result.recovery_events
            if event.kind == "rebalance"
        ]
        assert rebalances
        after = rebalances[-1].counts_after
        before = rebalances[-1].counts_before
        assert sum(after) == sum(before)
        # The slowed rank ends up with strictly less work.
        assert after[3] < before[3]

    def test_balanced_run_never_churns(self):
        engine = DistributedEngine(
            _replay_app(),
            backend="simcomm",
            n_ranks=4,
            rebalance=True,
        )
        engine.add_analysis(_replay_analysis())
        result = engine.run(max_iterations=120)
        assert result.recovery_events == []


# ----------------------------------------------------------------------
# multiprocessing backend
# ----------------------------------------------------------------------


class TestMultiprocessElasticity:
    def test_kill_recovery_matches_serial(self):
        reference = _serial_coefficients()
        engine = DistributedEngine(
            backend="multiprocessing",
            n_ranks=4,
            app_factory=_replay_app,
            faults="kill:rank=2,iter=10",
        )
        analysis = engine.add_analysis(_replay_analysis())
        result = engine.run(max_iterations=120)
        np.testing.assert_allclose(
            np.asarray(analysis.model.coefficients),
            reference,
            rtol=0.0,
            atol=1e-9,
        )
        kinds = [event.kind for event in result.recovery_events]
        assert kinds == ["rank_death", "reshard"]
        assert "exit code 117" in result.recovery_events[0].detail
        assert KILL_EXIT_CODE == 117
        reshard = result.recovery_events[1]
        assert reshard.counts_after[2] == 0
        assert reshard.resampled_iterations > 0

    def test_all_workers_killed_rank0_finishes_alone(self):
        reference = _serial_coefficients()
        engine = DistributedEngine(
            backend="multiprocessing",
            n_ranks=4,
            app_factory=_replay_app,
            faults=(
                "kill:rank=1,iter=5;kill:rank=2,iter=9;kill:rank=3,iter=30"
            ),
        )
        analysis = engine.add_analysis(_replay_analysis())
        result = engine.run(max_iterations=120)
        np.testing.assert_allclose(
            np.asarray(analysis.model.coefficients),
            reference,
            rtol=0.0,
            atol=1e-9,
        )
        deaths = [
            event.rank
            for event in result.recovery_events
            if event.kind == "rank_death"
        ]
        assert sorted(deaths) == [1, 2, 3]

    def test_worker_crash_recovered_with_error_event(self):
        reference = _serial_coefficients()
        engine = DistributedEngine(
            backend="multiprocessing",
            n_ranks=2,
            app_factory=_failing_replay_app,
        )
        analysis = engine.add_analysis(_replay_analysis())
        result = engine.run(max_iterations=120)
        np.testing.assert_allclose(
            np.asarray(analysis.model.coefficients),
            reference,
            rtol=0.0,
            atol=1e-9,
        )
        events = {event.kind: event for event in result.recovery_events}
        death = events["rank_death"]
        assert death.rank == 1
        assert "worker rank 1 died mid-run" in death.detail
        assert "worker traceback" in death.detail
        # The worker's own traceback rides the worker_error event.
        error = events["worker_error"]
        assert error.rank == 1
        assert "_WorkerOnlyFailure" in error.detail
        assert "injected worker-side failure" in error.detail

    def test_dead_rank_reports_nan_sample_seconds(self):
        engine = DistributedEngine(
            backend="multiprocessing",
            n_ranks=4,
            app_factory=_replay_app,
            faults="kill:rank=2,iter=10",
        )
        engine.add_analysis(_replay_analysis())
        result = engine.run(max_iterations=120)
        seconds = result.rank_sample_seconds
        assert np.isnan(seconds[2])
        assert np.isfinite(result.max_rank_sample_seconds)

    def test_rebalance_migrates_away_from_slow_rank(self):
        reference = _serial_coefficients()
        engine = DistributedEngine(
            backend="multiprocessing",
            n_ranks=4,
            app_factory=_replay_app,
            faults="slow:rank=2,per_sample=0.001",
            rebalance=True,
        )
        analysis = engine.add_analysis(_replay_analysis())
        result = engine.run(max_iterations=120)
        np.testing.assert_allclose(
            np.asarray(analysis.model.coefficients),
            reference,
            rtol=0.0,
            atol=1e-9,
        )
        rebalances = [
            event
            for event in result.recovery_events
            if event.kind == "rebalance"
        ]
        assert rebalances
        assert rebalances[0].counts_after[2] < rebalances[0].counts_before[2]


# ----------------------------------------------------------------------
# acceptance: every scenario survives losing 1 of 4 mp ranks
# ----------------------------------------------------------------------


MP_SCENARIOS = scenarios.names()


class TestScenarioRecoveryAcceptance:
    @pytest.mark.parametrize("name", MP_SCENARIOS)
    def test_lost_rank_matches_serial(self, name):
        serial = scenarios.run_scenario(
            name, config=scenarios.RunConfig(quick=True)
        )
        faulted = scenarios.run_scenario(
            name,
            config=scenarios.RunConfig(
                n_ranks=4,
                backend="multiprocessing",
                quick=True,
                faults="kill:rank=2,iter=10",
                crosscheck=False,
            ),
        )
        assert faulted.ok, faulted.metrics
        deltas = []
        for left, right in zip(serial.analyses, faulted.analyses):
            left_model = getattr(left, "model", None)
            right_model = getattr(right, "model", None)
            if left_model is None or right_model is None:
                continue
            deltas.append(
                float(
                    np.max(
                        np.abs(
                            left_model.coefficients
                            - right_model.coefficients
                        )
                    )
                )
            )
        assert deltas, "no fitted models to compare"
        assert max(deltas) <= 1e-9
        kinds = [event.kind for event in faulted.result.recovery_events]
        assert "rank_death" in kinds and "reshard" in kinds
        payload = faulted.to_json()
        assert payload["faults"] == "kill:rank=2,iter=10"
        assert payload["recovery_events"][0]["kind"] == "rank_death"

    def test_faults_rejected_on_serial_runs(self):
        with pytest.raises(ScenarioError, match="distributed"):
            scenarios.run_scenario(
                "heat-diffusion",
                config=scenarios.RunConfig(
                    quick=True, faults="kill:rank=1,iter=4"
                ),
            )
        with pytest.raises(ScenarioError, match="distributed"):
            scenarios.run_scenario(
                "heat-diffusion",
                config=scenarios.RunConfig(quick=True, rebalance=True),
            )


# ----------------------------------------------------------------------
# shared internals
# ----------------------------------------------------------------------


class TestRebalanceWeights:
    def test_holds_below_threshold(self):
        weights, skew = _rebalance_weights(
            counts=[4, 4, 4, 4],
            samples=[400, 400, 400, 400],
            seconds=[0.1, 0.1, 0.1, 0.11],
            dead=[False] * 4,
            threshold=1.75,
        )
        assert weights is None
        assert skew < 1.75

    def test_triggers_on_skew(self):
        weights, skew = _rebalance_weights(
            counts=[4, 4, 4, 4],
            samples=[400, 400, 400, 400],
            seconds=[0.1, 0.1, 0.1, 1.0],
            dead=[False] * 4,
            threshold=1.75,
        )
        assert skew > 1.75
        assert weights is not None
        assert weights[3] < min(weights[:3])

    def test_holds_without_evidence(self):
        weights, _ = _rebalance_weights(
            counts=[4, 4],
            samples=[400, 400],
            seconds=[1e-9, 1e-6],
            dead=[False, False],
            threshold=1.75,
        )
        assert weights is None


class TestRecoveredPartialMerges:
    def test_running_stats_merge_associative(self):
        rng = np.random.default_rng(11)
        chunks = [rng.standard_normal((40, 3)) for _ in range(3)]

        def part(index):
            stats = RunningStats(3)
            stats.update(chunks[index])
            return stats

        left = part(0).merge(part(1)).merge(part(2))
        right = part(0).merge(part(1).merge(part(2)))
        np.testing.assert_allclose(
            left._mean, right._mean, rtol=0.0, atol=1e-12
        )
        np.testing.assert_allclose(
            left._m2, right._m2, rtol=0.0, atol=1e-12
        )
        flat = RunningStats(3)
        flat.update(np.concatenate(chunks))
        np.testing.assert_allclose(
            left._mean, flat._mean, rtol=0.0, atol=1e-12
        )
        np.testing.assert_allclose(
            left._m2, flat._m2, rtol=0.0, atol=1e-12
        )

    def test_epoch_merge_recovers_full_rows(self):
        # Two epochs under different shard layouts of 6 locations: the
        # merged-by-epoch reassembly must reproduce the serial matrix.
        locations = np.arange(6)
        full = SeriesStore(locations, capacity=8)
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((8, 6))
        epoch1 = [
            SeriesStore(locations[:3], capacity=8),
            SeriesStore(locations[3:], capacity=8),
        ]
        epoch2 = [
            SeriesStore(locations[:5], capacity=8),
            SeriesStore(locations[5:], capacity=8),
        ]
        for it in range(1, 5):
            full.add_row(it, matrix[it - 1])
            epoch1[0].add_row(it, matrix[it - 1, :3])
            epoch1[1].add_row(it, matrix[it - 1, 3:])
        for it in range(5, 9):
            full.add_row(it, matrix[it - 1])
            epoch2[0].add_row(it, matrix[it - 1, :5])
            epoch2[1].add_row(it, matrix[it - 1, 5:])
        merged = [
            SeriesStore.merge_shards(epoch1),
            SeriesStore.merge_shards(epoch2),
        ]
        out = SeriesStore(locations, capacity=8)
        for store in merged:
            mat = store.matrix()
            for index, it in enumerate(store.iterations):
                out.add_row(int(it), mat[index])
        np.testing.assert_array_equal(out.matrix(), full.matrix())


class TestNanGuardRegression:
    def test_max_rank_sample_seconds_ignores_nan(self):
        result = DistributedResult(
            iterations=10,
            terminated_early=False,
            n_ranks=3,
            rank_sample_seconds=np.array([0.5, np.nan, 0.25]),
        )
        assert result.max_rank_sample_seconds == 0.5

    def test_all_nan_is_zero(self):
        result = DistributedResult(
            iterations=10,
            terminated_early=False,
            n_ranks=2,
            rank_sample_seconds=np.array([np.nan, np.nan]),
        )
        assert result.max_rank_sample_seconds == 0.0
