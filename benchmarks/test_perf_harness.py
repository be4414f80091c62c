"""The timing harness ``perf.py``: its statistics, its frozen seed
reference, its gate and report, and the reports committed from it.

Nothing here times anything: the suites' legs are replaced by scripted
runs, so these checks are exact and take milliseconds.
"""

import json
import os
import pathlib
import platform

import numpy as np
import pytest

import perf
from repro.core.ar_model import ARModel

ROOT = pathlib.Path(perf.ROOT)


def _runs(*seconds):
    return [perf.Run(s) for s in seconds]


class TestStatistics:
    def test_summary_is_median_and_inclusive_quartiles(self):
        assert perf.summary([5.0, 1.0, 4.0, 2.0, 3.0]) == {
            "median": 3.0,
            "iqr": [2.0, 4.0],
        }

    def test_ratios_pair_runs_group_by_group(self):
        top = [perf.Run(2.0, skew=3.0), perf.Run(6.0, skew=1.5)]
        bottom = [perf.Run(1.0, skew=1.5), perf.Run(2.0, skew=1.0)]
        assert perf.ratios(top, bottom) == [2.0, 3.0]
        assert perf.ratios(top, bottom, "skew") == [2.0, 1.5]

    def test_fit_delta_bounds_every_run(self):
        reference = np.zeros(3)
        off = np.array([0.0, 1e-10, 0.0])
        runs = [perf.Run(1.0, reference), perf.Run(1.0, off)]
        assert perf.fit_delta(runs, reference, 1e-9) == pytest.approx(1e-10)
        with pytest.raises(AssertionError, match="max delta 1.000e-10"):
            perf.fit_delta(runs, reference, 1e-11)

    def test_timed_warms_each_leg_then_alternates_groups(self):
        calls = []

        def leg(name):
            def call():
                calls.append(name)
                return perf.Run(float(len(calls)))

            return call

        runs = perf.timed({"a": leg("a"), "b": leg("b")}, lambda call: call())
        assert calls[:2] == ["a", "b"]  # the untimed warm-up
        assert calls[2:] == ["a", "b", "b", "a"] * 2 + ["a", "b"]
        assert [len(leg_runs) for leg_runs in runs.values()] == [perf.REPS] * 2
        assert [run.seconds for run in runs["a"]] == [3.0, 6.0, 7.0, 10.0, 11.0]


class TestFrozenReference:
    @pytest.mark.parametrize("axis", ["space", "time"])
    def test_scalar_data_plane_fits_as_the_live_one(self, axis):
        rows = perf.history(60, 32)
        scalar = perf._dataplane_leg(rows, axis, scalar=True)()
        vector = perf._dataplane_leg(rows, axis, scalar=False)()
        assert np.all(np.isfinite(scalar.fit)) and np.any(scalar.fit != 0.0)
        assert float(np.max(np.abs(vector.fit - scalar.fit))) <= 1e-9

    @pytest.mark.parametrize("bound", [1.05, 1.15], ids=["scale", "shrink"])
    def test_projection_matches_the_kernel(self, bound):
        # An explosive AR(2) (coefficient sum 1.2) trains past the
        # stationarity bound.  At 1.05 the persistence prior alone
        # exceeds it, so the weights are scaled down; at 1.15 only the
        # deviation from the prior is shrunk.
        rng = np.random.default_rng(3)
        series = [1.0, 1.0]
        for _ in range(118):
            series.append(0.6 * series[-1] + 0.6 * series[-2])
            series[-1] += 0.01 * rng.standard_normal()
        series = np.array(series)
        x = np.stack([series[i - 3: i][::-1] for i in range(3, len(series))])
        y = series[3:]
        kwargs = dict(
            learning_rate=0.3, epochs_per_batch=8, max_coefficient_sum=bound
        )
        live = ARModel(3, **kwargs)
        frozen = perf.ScalarARModel(3, **kwargs)
        frozen._x_stats = perf.ScalarRunningStats(3)
        frozen._y_stats = perf.ScalarRunningStats(1)
        for lo in range(0, len(y) - 16 + 1, 16):
            live.partial_fit(x[lo:lo + 16], y[lo:lo + 16])
            frozen.partial_fit(x[lo:lo + 16], y[lo:lo + 16])
        assert float(np.sum(live.coefficients)) == pytest.approx(bound)
        assert np.max(np.abs(live.coefficients - frozen.coefficients)) <= 1e-9
        assert live.intercept == pytest.approx(frozen.intercept, abs=1e-9)


class TestGateAndReport:
    @staticmethod
    def _suite(speedup, bound=2.0, seen=None):
        def suite(args):
            if seen is not None:
                seen.append(args)
            runs = {
                "slow": _runs(*(speedup * s for s in (1.0, 1.2, 0.9, 1.1, 1.0))),
                "fast": _runs(1.0, 1.2, 0.9, 1.1, 1.0),
            }
            metrics = {
                "speedup": perf.ratios(runs["slow"], runs["fast"]),
                "spread": [1.0, 2.0, 3.0, 4.0, 5.0],
            }
            return runs, metrics, bound, {"note": "scripted"}

        return suite

    @pytest.mark.parametrize("speedup,code", [(3.0, 0), (1.5, 1)])
    def test_gate_reads_the_first_metric_median(
        self, monkeypatch, tmp_path, speedup, code
    ):
        monkeypatch.setitem(perf.SUITES, "dataplane", self._suite(speedup))
        out = tmp_path / "report.json"
        assert perf.main(["dataplane", "--output", str(out)]) == code
        assert json.loads(out.read_text())["gate"] == {
            "metric": "speedup",
            "bound": 2.0,
            "median": speedup,
            "passed": code == 0,
        }

    def test_report_holds_median_iqr_and_host(self, monkeypatch, tmp_path):
        monkeypatch.setitem(perf.SUITES, "elastic", self._suite(3.0))
        out = tmp_path / "report.json"
        perf.main(["elastic", "--quick", "--output", str(out)])
        payload = json.loads(out.read_text())
        assert payload["suite"] == "elastic" and payload["quick"] is True
        assert payload["repetitions"] == perf.REPS
        assert payload["note"] == "scripted"
        assert payload["legs"]["fast"] == {"median": 1.0, "iqr": [1.0, 1.1]}
        assert payload["legs"]["slow"] == {"median": 3.0, "iqr": [3.0, 3.3]}
        assert payload["metrics"]["spread"] == {"median": 3.0, "iqr": [2.0, 4.0]}
        assert set(payload["host"]) == {
            "cpu_count",
            "affinity",
            "python",
            "numpy",
            "git_sha",
        }

    def test_distributed_defaults_to_two_ranks_and_no_bound(
        self, monkeypatch, tmp_path
    ):
        seen = []

        def suite(args):
            return self._suite(0.5, bound=args.min_speedup, seen=seen)(args)

        monkeypatch.setitem(perf.SUITES, "distributed", suite)
        out = tmp_path / "report.json"
        assert perf.main(["distributed", "--output", str(out)]) == 0
        [args] = seen
        assert (args.ranks, args.min_speedup) == (2, None)
        assert json.loads(out.read_text())["gate"]["passed"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--ranks", "4"],
            ["elastic", "--min-speedup", "2"],
            ["distributed", "--ranks", "1"],
            ["adaptive", "--quick"],
        ],
        ids=["ranks-off-suite", "bound-off-suite", "one-rank", "retired-suite"],
    )
    def test_bad_command_lines_are_rejected_before_any_run(
        self, monkeypatch, capsys, argv
    ):
        def refuse(args):
            raise AssertionError("a suite ran")

        for name in perf.SUITES:
            monkeypatch.setitem(perf.SUITES, name, refuse)
        with pytest.raises(SystemExit) as exit_info:
            perf.main(argv)
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_host_stamp_names_this_interpreter(self):
        stamp = perf.host()
        assert stamp["cpu_count"] == os.cpu_count()
        assert stamp["python"] == platform.python_version()
        assert stamp["numpy"] == np.__version__
        if hasattr(os, "sched_getaffinity"):
            assert stamp["affinity"] == sorted(os.sched_getaffinity(0))


class TestCommittedReports:
    def test_one_report_per_suite(self):
        reports = sorted(p.name for p in ROOT.glob("BENCH_*.json"))
        assert reports == sorted(f"BENCH_{suite}.json" for suite in perf.SUITES)

    @pytest.mark.parametrize("suite", sorted(perf.SUITES))
    def test_report_is_a_median_over_repetitions(self, suite):
        payload = json.loads((ROOT / f"BENCH_{suite}.json").read_text())
        assert payload["suite"] == suite
        assert payload["repetitions"] >= 5
        assert payload["host"]["cpu_count"] >= 1 and payload["host"]["python"]
        for row in [*payload["legs"].values(), *payload["metrics"].values()]:
            low, high = row["iqr"]
            assert low <= row["median"] <= high
        gate = payload["gate"]
        assert gate["median"] == payload["metrics"][gate["metric"]]["median"]
        bound = gate["bound"]
        assert gate["passed"] == (bound is None or gate["median"] >= bound)
