"""Tests for the adaptive collection cadence layer.

The acceptance core: with cadence OFF nothing changes (pinned by the
golden-parity matrix in test_driver.py); with it ON, the analytic
scenarios' closed-form validators stay inside their stated tolerances
while the sampling cost drops, the cadence snaps back to full
collection on drift, and adaptive serial and adaptive 2-rank runs stay
bit-identical.
"""

import numpy as np
import pytest

from repro import scenarios
from repro.core.curve_fitting import CurveFitting
from repro.core.params import IterParam
from repro.engine import (
    CadenceController,
    CadencePolicy,
    InSituEngine,
    ReplayApp,
)
from repro.errors import ConfigurationError, ScenarioError


class TestCadencePolicy:
    def test_defaults_validate(self):
        CadencePolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drift_tolerance": 0.0},
            {"drift_tolerance": -1.0},
            {"start_stride": 1},
            {"growth": 1},
            {"max_stride": 1},
            {"probes_per_level": 0},
            {"rearm_rows": -1},
            {"warmup_rows": -1},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CadencePolicy(**kwargs)


class TestAnalyticErrorBounds:
    """Adaptive runs must stay inside the closed-form tolerances."""

    @pytest.mark.parametrize(
        "name, min_reduction",
        [("heat-diffusion", 2.0), ("oscillator-ringdown", 1.1)],
    )
    def test_adaptive_within_stated_tolerance(self, name, min_reduction):
        baseline = scenarios.run_scenario(
            name, config=scenarios.RunConfig(quick=True)
        )
        adaptive = scenarios.run_scenario(
            name, config=scenarios.RunConfig(quick=True, adaptive=True)
        )
        assert baseline.ok and adaptive.ok
        assert adaptive.error <= adaptive.tolerance
        totals = adaptive.result.cadence["totals"]
        assert totals["sampling_reduction"] >= min_reduction
        assert totals["skipped"] > 0
        # Accepted probes all sat inside the spec's drift tolerance;
        # the overall max additionally covers drifted probes that
        # triggered snap-backs, so it can only be larger.
        policy = CadencePolicy(**dict(scenarios.get(name).cadence))
        assert totals["max_accepted_residual"] <= policy.drift_tolerance
        assert totals["max_probe_residual"] >= totals["max_accepted_residual"]

    def test_adaptive_serial_and_two_rank_bit_identical(self):
        run = scenarios.run_scenario(
            "heat-diffusion",
            config=scenarios.RunConfig(n_ranks=2, quick=True, adaptive=True),
        )
        report = run.crosscheck
        assert report is not None
        assert report["max_coefficient_delta"] == 0.0
        assert report["stops_match"] and report["iterations_match"]
        assert run.ok

    def test_adaptive_concludes_when_run_ends_at_window_end(self):
        # Regression: exhaustion used to be marked only after dispatch,
        # so a run whose iteration limit coincided with the window's
        # end never finalized its analyses (no stop, no conclusion).
        spec = scenarios.get("heat-diffusion")
        end = spec.params(quick=True)["train_iterations"]
        run = scenarios.run_scenario(
            "heat-diffusion",
            config=scenarios.RunConfig(
                quick=True, adaptive=True, max_iterations=end
            ),
        )
        assert run.result.stopped_at == {"heat-ar": end}
        assert run.result.terminated_early

    def test_adaptive_report_attached_to_run_payload(self):
        import json

        run = scenarios.run_scenario(
            "heat-diffusion", config=scenarios.RunConfig(quick=True, adaptive=True)
        )
        payload = run.to_json()
        json.dumps(payload)
        assert payload["adaptive"] is True
        assert payload["cadence"]["enabled"] is True
        assert payload["cadence"]["totals"]["sampling_reduction"] > 1.0

    def test_lulesh_wide_window_sweeps_fewer_rows(self):
        # lulesh-sedov rejects --adaptive (its break-point confirmation
        # needs full cadence), so a wide-spatial fit over the quick Sedov
        # blast is built here, and provider sweeps, probes included, are
        # counted at the batch provider.  The blast is non-stationary
        # while the wave transits the window, so the saving is small.
        from repro.experiments.common import lulesh_reference
        from repro.lulesh import LuleshSimulation

        size = 16
        total = lulesh_reference(size).total_iterations
        sweeps = []

        def velocity(domain, location):
            return domain.xd(location)

        def batch(domain, locations):
            sweeps.append(len(locations))
            return domain.xd_batch(locations)

        velocity.batch = batch

        def run(cadence):
            sweeps.clear()
            engine = InSituEngine(
                LuleshSimulation(size, maintain_field=False),
                policy="all",
                cadence=cadence,
            )
            analysis = engine.add_analysis(
                CurveFitting(
                    velocity,
                    IterParam(1, size - 2, 1),
                    IterParam(50, int(0.9 * total), 10),
                    axis="space",
                    order=3,
                    lag=10,
                    batch_size=16,
                )
            )
            engine.run()
            return len(sweeps), analysis.fit_error()

        full_sweeps, full_error = run(None)
        policy = CadencePolicy(drift_tolerance=0.15, warmup_rows=12)
        adaptive_sweeps, adaptive_error = run(CadenceController(policy))
        assert (full_sweeps, adaptive_sweeps) == (30, 25)
        assert np.isfinite(full_error) and np.isfinite(adaptive_error)


class TestAdaptiveGuards:
    @pytest.mark.parametrize(
        "name", ["advection-front", "lulesh-sedov", "wdmerger-detonation"]
    )
    def test_unsupported_scenarios_reject_adaptive(self, name):
        assert not scenarios.get(name).adaptive_supported
        with pytest.raises(ScenarioError, match="adaptive"):
            scenarios.run_scenario(
                name, config=scenarios.RunConfig(quick=True, adaptive=True)
            )

    def test_multiprocessing_backend_runs_adaptive_bit_identical(self):
        # mp + adaptive used to be rejected: workers freeze the active
        # set per chunk, so a mid-chunk cadence change (snap-back,
        # widening, early-stop) left them collecting the wrong rows.
        # Rank 0 now backfills, from its own live app, every row of a
        # group its chunk was frozen without (also in an adopted
        # speculative chunk), so the combination runs and must still
        # match serial exactly.
        run = scenarios.run_scenario(
            "heat-diffusion",
            config=scenarios.RunConfig(
                n_ranks=2, backend="mp", quick=True, adaptive=True
            ),
        )
        report = run.crosscheck
        assert report is not None
        assert report["max_coefficient_delta"] == 0.0
        assert report["stops_match"] and report["iterations_match"]
        assert run.ok

    def test_spec_cadence_validation(self):
        from tests.test_scenarios import _dummy_spec

        with pytest.raises(ScenarioError, match="cadence"):
            scenarios.register(
                _dummy_spec(name="bad-cadence", cadence={"no_such_knob": 1})
            )
        with pytest.raises(ScenarioError, match="cadence"):
            scenarios.register(
                _dummy_spec(
                    name="bad-cadence-value", cadence={"drift_tolerance": -1}
                )
            )
        with pytest.raises(ScenarioError, match="mapping"):
            scenarios.register(
                _dummy_spec(name="bad-cadence-type", cadence=3)
            )


def _regime_history(n_iterations=160, n_locations=8, shift_at=100):
    """Smooth decay that abruptly changes regime at ``shift_at``."""
    t = np.arange(1, n_iterations + 1, dtype=np.float64)[:, None]
    x = np.arange(n_locations, dtype=np.float64)[None, :]
    quiet = 5.0 + 2.0 * np.power(0.98, t) * np.cos(0.1 * x)
    burst = 5.0 + 3.0 * np.sin(0.35 * (t - shift_at)) * (1.0 + 0.1 * x)
    return np.where(t < shift_at, quiet, burst)


class TestDriftSnapBack:
    def test_regime_change_snaps_back_and_resumes_collection(self):
        shift_at = 100
        history = _regime_history(shift_at=shift_at)
        app = ReplayApp(history)
        engine = InSituEngine(
            app,
            cadence=CadenceController(
                CadencePolicy(drift_tolerance=0.02, probes_per_level=1)
            ),
        )
        analysis = engine.add_analysis(
            CurveFitting(
                ReplayApp.provider,
                IterParam(0, history.shape[1] - 1, 1),
                IterParam(1, history.shape[0], 1),
                axis="time",
                order=2,
                lag=1,
                batch_size=8,
                min_updates=5,
                monitor_window=3,
                monitor_patience=1,
                name="regime",
            )
        )
        result = engine.run()
        group = result.cadence["groups"][0]
        # The quiet regime converges and widens; the burst drifts the
        # probes past tolerance, forcing at least one snap-back.  (The
        # group may legitimately re-widen afterwards — an AR(2) model
        # fits the burst's sinusoid exactly — so ``widened_at`` records
        # whichever widening came last.)
        assert group["widened_at"] is not None
        assert group["snapbacks"] >= 1
        assert group["skipped"] > 0
        # ...after which collection (and training) resume for real:
        post_shift_rows = analysis.collector.store.iterations >= shift_at
        assert int(post_shift_rows.sum()) > 10

    def test_gap_guard_blocks_wrong_lag_training_pairs(self):
        # Force a gap by gating two iterations off, then verify the
        # temporal emitter waits for contiguous history instead of
        # pairing rows across the gap at the wrong lag.
        analysis = CurveFitting(
            ReplayApp.provider,
            (0, 3, 1),
            (1, 40, 1),
            axis="time",
            order=2,
            lag=1,
            batch_size=1,
        )
        app = ReplayApp(np.linspace(1.0, 4.0, 40)[:, None] * np.ones((1, 4)))
        gated_off = {6, 7}
        analysis.collector.cadence_gate = lambda it: it not in gated_off
        emitted = []
        for iteration in range(1, 11):
            app.step()
            analysis.on_iteration(app.domain, iteration)
            emitted.append(analysis.collector.samples_emitted)
        # Rows collected: 1-5, then 8, 9, 10 (6 and 7 gated off).
        np.testing.assert_array_equal(
            analysis.collector.store.iterations, [1, 2, 3, 4, 5, 8, 9, 10]
        )
        # Iteration 8 cannot pair (lag-1 row missing), 9 cannot build a
        # contiguous order-2 window; only 10 resumes emission.
        assert emitted[7] == emitted[4]  # nothing new at iteration 8
        assert emitted[8] == emitted[4]  # nothing new at iteration 9
        assert emitted[9] > emitted[4]  # iteration 10 resumes


class TestCollectorHooks:
    def test_mark_window_exhausted_concludes_analysis(self):
        analysis = CurveFitting(
            ReplayApp.provider,
            (0, 3, 1),
            (1, 100, 1),
            axis="time",
            order=2,
            lag=1,
            batch_size=4,
            min_updates=2,
            monitor_window=2,
            monitor_patience=1,
            terminate_when_trained=True,
        )
        app = ReplayApp(np.cumsum(np.ones((60, 4)), axis=0))
        for iteration in range(1, 31):
            app.step()
            analysis.on_iteration(app.domain, iteration)
        assert not analysis.collector.done
        assert not analysis.wants_stop
        analysis.collector.mark_window_exhausted()
        assert analysis.collector.done
        app.step()
        # The next dispatch concludes: finalize + early-stop decision.
        analysis.on_iteration(app.domain, 31)
        assert analysis.wants_stop

    def test_gate_blocks_provider_sweeps(self):
        calls = []

        def provider(domain, location):
            calls.append(location)
            return 1.0

        analysis = CurveFitting(
            provider, (0, 2, 1), (1, 10, 1), order=2, lag=1, batch_size=4
        )
        analysis.collector.cadence_gate = lambda iteration: False

        class _Domain:
            pass

        assert analysis.collector.observe(_Domain(), 1) == []
        assert calls == []
        assert len(analysis.collector.store) == 0
