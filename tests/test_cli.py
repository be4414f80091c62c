"""Tests for the ``python -m repro`` command-line interface."""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro import scenarios
from repro.cli import _parse_params, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``(scenario, --param flag)`` pairs the schema rejects: ``abc`` for
#: every param of every scenario, then structured values of the wrong
#: shape and flags that are not booleans.
BAD_FLAGS = [
    *((spec.name, f"{name}=abc") for spec in scenarios.specs() for name in spec.schema),
    ("lulesh-sedov", "maintain_field=1"),
    ("wdmerger-detonation", "maintain_grid=1"),
    ("lulesh-sedov", "thresholds=()"),
    ("oscillator-ringdown", "lags=()"),
    ("heat-diffusion", "window=(1,2,3)"),
]


class TestList:
    def test_plain_listing_names_every_scenario(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("heat-diffusion", "lulesh-sedov", "wdmerger-detonation"):
            assert name in out

    def test_names_json_is_the_ci_matrix_payload(self, capsys):
        assert main(["list", "--names", "--json"]) == 0
        names = json.loads(capsys.readouterr().out)
        assert isinstance(names, list)
        assert len(names) >= 5
        assert "advection-front" in names

    def test_json_listing_carries_spec_metadata(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = {row["name"]: row for row in payload["scenarios"]}
        assert rows["heat-diffusion"]["providers"] == ["temperature_provider"]
        assert rows["oscillator-ringdown"]["tolerance"] == 5.0
        window = rows["heat-diffusion"]["params"]["window"]
        assert window["kind"] == "[integer, integer] pair"
        assert window["default"] == [8, 31] and window["quick"] == [6, 21]
        lags = rows["oscillator-ringdown"]["params"]["lags"]
        assert lags["kind"] == "non-empty list of integers" and lags["low"] == 1


class TestRun:
    def test_quick_serial_run_passes(self, capsys):
        assert main(["run", "oscillator-ringdown", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_distributed_run_crosschecks(self, capsys, tmp_path):
        report = tmp_path / "run.json"
        status = main(
            [
                "run",
                "heat-diffusion",
                "--quick",
                "--ranks",
                "2",
                "--json",
                str(report),
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "crosscheck" in out
        payload = json.loads(report.read_text())
        assert payload["ok"] is True
        assert payload["ranks"] == 2
        assert payload["crosscheck"]["max_coefficient_delta"] <= 1e-12

    def test_mp_run_reports_backend(self, capsys, tmp_path):
        report = tmp_path / "run.json"
        status = main(
            [
                "run",
                "heat-diffusion",
                "--quick",
                "--ranks",
                "2",
                "--backend",
                "mp",
                "--json",
                str(report),
            ]
        )
        assert status == 0
        assert "2 ranks (multiprocessing)" in capsys.readouterr().out
        payload = json.loads(report.read_text())
        assert payload["backend"] == "multiprocessing"
        assert payload["crosscheck"]["ok"] is True

    def test_transport_rejected_on_simcomm(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "run",
                    "heat-diffusion",
                    "--quick",
                    "--ranks",
                    "2",
                    "--transport",
                    "pickle",
                ]
            )
        assert excinfo.value.code == 2
        assert "--transport" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_pipeline_flag_rejected(self, capsys, command):
        for flag, value in (("--pipeline", "on"), ("--kernels", "numpy")):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "heat-diffusion", "--ranks", "2", flag, value])
            assert excinfo.value.code == 2
            assert flag in capsys.readouterr().err

    def test_param_overrides_reach_the_scenario(self, capsys):
        status = main(
            [
                "run",
                "heat-diffusion",
                "--quick",
                "--param",
                "n_iterations=120",
                "--param",
                "train_iterations=96",
            ]
        )
        assert status == 0
        assert "@96" in capsys.readouterr().out

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["run", "no-such-scenario"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_param_exits_2(self, capsys):
        assert main(["run", "heat-diffusion", "--param", "zzz=1"]) == 2
        assert "no parameter" in capsys.readouterr().err

    def test_malformed_param_exits_2(self, capsys):
        assert main(["run", "heat-diffusion", "--param", "novalue"]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_non_integer_size_exits_2(self, capsys):
        # Run as 40 nodes, window [6, 40] would pass its check and crash.
        argv = ["run", "heat-diffusion", "--quick", "--param", "n_nodes=40.5"]
        assert main(argv + ["--param", "window=[6,40]"]) == 2
        assert "error: n_nodes must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("drop:rank=1,chunk=2", "error: unknown fault type 'drop'"),
            ("slow:rank=1,per_iter=nan", "error: delay fault seconds must be finite"),
            ("slow:rank=0,per_iter=inf", "error: delay fault seconds must be finite"),
        ],
    )
    def test_bad_faults_exit_2(self, capsys, spec, message):
        argv = ["run", "heat-diffusion", "--quick", "--ranks", "2", "--backend", "mp"]
        assert main(argv + ["--faults", spec]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "scenario, param, message",
        [
            ("advection-front", "speed=abc", "speed must be a finite real"),
            ("oscillator-ringdown", "gamma=abc", "gamma must be a finite real"),
            ("heat-diffusion", "n_iterations=abc", "n_iterations must be an integer"),
            ("heat-diffusion", "modes=5", "modes must be a non-empty list"),
            ("heat-diffusion", "modes=[[1,1.0],[1,-1.0]]", "cancels"),
            ("lulesh-sedov", "size=abc", "size must be an integer"),
            ("wdmerger-detonation", "resolution=7.5", "resolution must be an integer"),
        ],
    )
    def test_malformed_scenario_param_exits_2(self, capsys, scenario, param, message):
        assert main(["run", scenario, "--quick", "--param", param]) == 2
        err = capsys.readouterr().err
        assert "error: " in err and message in err


    @pytest.mark.parametrize("ranks", ["1", "2"])
    @pytest.mark.parametrize("scenario, flag", BAD_FLAGS)
    def test_bad_param_exits_2_before_any_step(self, capsys, scenario, flag, ranks):
        argv = ["run", scenario, "--quick", "--ranks", ranks, "--backend", "mp"]
        assert main(argv + ["--param", flag]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag.partition('=')[0]} must be")
        assert multiprocessing.active_children() == []


class TestParamParsing:
    @pytest.mark.parametrize(
        "raw, value",
        [
            ("false", False),
            ("true", True),
            ("True", True),
            ("[8,263]", [8, 263]),
            ("(1,40)", (1, 40)),
            ("0.25", 0.25),
            ("abc", "abc"),
        ],
    )
    def test_json_first_then_literal_then_string(self, raw, value):
        parsed = _parse_params([f"key={raw}"])["key"]
        assert parsed == value and type(parsed) is type(value)

    @pytest.mark.parametrize("raw, on", [("false", False), ("true", True)])
    def test_booleans_reach_the_field(self, raw, on):
        params = _parse_params([f"maintain_field={raw}", "size=8"])
        sim = scenarios.build_sim("lulesh-sedov", **params)
        assert sim.domain.maintain_field is on


class TestBench:
    def test_bench_renders_table_and_json(self, capsys, tmp_path):
        report = tmp_path / "bench.json"
        status = main(
            [
                "bench",
                "oscillator-ringdown",
                "--quick",
                "--ranks",
                "2",
                "--json",
                str(report),
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "Scenario bench" in out
        assert "oscillator-ringdown" in out
        payload = json.loads(report.read_text())
        assert payload["ranks"] == 2
        assert payload["backend"] == "simcomm"
        assert payload["rows"][0]["ok"] is True
        assert payload["rows"][0]["distributed_seconds"] is not None

    def test_bench_mp_backend(self, capsys, tmp_path):
        report = tmp_path / "bench.json"
        status = main(
            [
                "bench",
                "heat-diffusion",
                "--quick",
                "--ranks",
                "2",
                "--backend",
                "mp",
                "--json",
                str(report),
            ]
        )
        assert status == 0
        payload = json.loads(report.read_text())
        assert payload["backend"] == "multiprocessing"
        assert payload["rows"][0]["ok"] is True
        assert "transport" not in payload["rows"][0]


@pytest.mark.parametrize(
    "command",
    [
        [sys.executable, "-m", "repro", "list", "--names", "--json"],
        [sys.executable, "repro.py", "list", "--names", "--json"],
    ],
)
def test_cli_works_from_plain_checkout(command):
    """No PYTHONPATH, cwd = repo root: the launcher bootstraps src/."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "heat-diffusion" in json.loads(proc.stdout)
