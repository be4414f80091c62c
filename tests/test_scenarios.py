"""Tests for the scenario platform: registry, specs, runner.

The acceptance core: every registered scenario must round-trip
``ScenarioSpec -> serial engine run -> distributed run`` bit-identically
(<= 1e-12 on fitted coefficients, equal stop iterations), its fitted
prediction must match the scenario's ground truth within the spec's
tested tolerance, and registering a duplicate or malformed spec must
raise a clear :class:`repro.errors.ScenarioError`.
"""

import json
import multiprocessing
import pathlib

import numpy as np
import pytest

from repro import scenarios
from repro.engine import (
    DistributedEngine,
    ReplayApp,
    as_simulation_app,
    register_adapter,
)
from repro.engine.workload import _ADAPTERS
from repro.errors import ConfigurationError, ScenarioError
from repro.scenarios import Param, ScenarioSpec
from repro.scenarios.spec import DIVERGENCE_TOL

BUILTINS = (
    "advection-front",
    "heat-diffusion",
    "lulesh-sedov",
    "oscillator-ringdown",
    "wdmerger-detonation",
)

#: Params that crashed with a traceback on ``abc`` before the schema.
UNCHECKED_BEFORE_SCHEMA = {
    "advection-front": (
        "window",
        "train_iterations",
        "order",
        "lag",
        "batch_size",
        "learning_rate",
        "epochs_per_batch",
        "threshold",
    ),
    "heat-diffusion": ("train_iterations", "window", "order", "lag", "batch_size"),
    "lulesh-sedov": (
        "thresholds",
        "spatial_window",
        "train_begin",
        "train_fraction",
        "lag",
        "order",
    ),
    "oscillator-ringdown": ("train_iterations", "lags", "order", "batch_size"),
    "wdmerger-detonation": (
        "initial_separation",
        "order",
        "batch_size",
        "learning_rate",
    ),
}

#: ``(scenario, params, message)``: each must be rejected with a
#: ConfigurationError matching ``message`` before any step or spawn.
MALFORMED_PARAMS = [
    ("heat-diffusion", {"n_nodes": 40.5, "window": (6, 40)}, "n_nodes"),
    ("advection-front", {"n_cells": 40.5, "window": (0, 40)}, "n_cells"),
    ("oscillator-ringdown", {"n_channels": 4.5}, "n_channels"),
    ("heat-diffusion", {"n_nodes": "abc"}, "n_nodes"),
    ("oscillator-ringdown", {"n_channels": True}, "n_channels"),
    ("heat-diffusion", {"r": "abc"}, "r must be a finite real"),
    ("advection-front", {"n_cells": "abc"}, "n_cells"),
    ("oscillator-ringdown", {"n_channels": "abc"}, "n_channels"),
    ("heat-diffusion", {"modes": ((0, 1.0),)}, r"wavenumber.*\[1, 32\]"),
    # Mode 33 of 32 nodes aliases to zero.
    ("heat-diffusion", {"modes": ((33, 1.0),)}, r"wavenumber.*\[1, 32\]"),
    ("heat-diffusion", {"modes": ((1, 0.0), (3, 0))}, "nonzero amplitude"),
    ("advection-front", {"speed": "abc"}, "speed must be a finite real"),
    ("oscillator-ringdown", {"gamma": "abc"}, "gamma must be a finite real"),
    ("heat-diffusion", {"n_iterations": "abc"}, "n_iterations must be an int"),
    ("advection-front", {"n_iterations": "abc"}, "n_iterations must be an int"),
    ("oscillator-ringdown", {"n_iterations": "abc"}, "n_iterations must"),
    ("heat-diffusion", {"modes": 5}, "modes must be a non-empty list"),
    ("heat-diffusion", {"modes": ((1, 1.0), (1, -1.0))}, "cancels"),
    ("lulesh-sedov", {"size": "abc"}, "size must be an integer"),
    ("wdmerger-detonation", {"resolution": 7.5}, "resolution must be an int"),
    *(
        (name, {param: "abc"}, f"{param} must be")
        for name, names in UNCHECKED_BEFORE_SCHEMA.items()
        for param in names
    ),
    ("lulesh-sedov", {"maintain_field": "abc"}, r"maintain_field .* bool"),
    ("wdmerger-detonation", {"maintain_grid": 1}, r"maintain_grid .* bool"),
    ("lulesh-sedov", {"thresholds": ()}, "thresholds must be a non-empty"),
    ("oscillator-ringdown", {"lags": ()}, "lags must be a non-empty"),
    ("heat-diffusion", {"window": (1, 2, 3)}, "window must be a .* pair"),
    ("heat-diffusion", {"window": (9, 8)}, "ends before it begins"),
    ("heat-diffusion", {"r": 0.0}, r"r must be .* in \(0, 0.5\]"),
    ("heat-diffusion", {"order": float("nan")}, "order must be an integer"),
    ("advection-front", {"speed": 0}, "speed must be .* > 0"),
    ("advection-front", {"learning_rate": float("inf")}, "learning_rate"),
    ("lulesh-sedov", {"thresholds": (0.1, -0.2)}, "thresholds must be"),
    ("lulesh-sedov", {"train_fraction": 1.5}, r"train_fraction .* \(0, 1\]"),
    ("oscillator-ringdown", {"lags": (1, 0)}, "lags must be .* >= 1"),
    ("wdmerger-detonation", {"variable": "entropy"}, "variable must be"),
]

#: perfbench's tiny ``bigsim-mp`` request, as ``RunConfig`` fields.
TINY_BIGSIM_RUN = {
    "adaptive": True,
    "params": {
        "n_nodes": 4000,
        "n_iterations": 150,
        "train_iterations": 128,
        "window": (6, 69),
    },
}


def _dummy_spec(**overrides):
    fields = dict(
        name="dummy",
        physics="p",
        ground_truth="g",
        providers=("x",),
        app_factory=lambda **_: ReplayApp(np.ones((4, 2))),
        analysis_factory=lambda **_: [],
        validator=lambda app, analyses, result, **_: {"error": 0.0},
        schema={"a": Param(int, 1, quick=2, low=1)},
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def _reject(value):
    """A spec ``check`` hook that rejects ``a == value``."""

    def check(params):
        if params["a"] == value:
            raise ConfigurationError(f"a={value} does not fit")

    return check


# ----------------------------------------------------------------------
# registry contract
# ----------------------------------------------------------------------


class TestRegistry:
    def test_builtins_registered(self):
        assert set(BUILTINS) <= set(scenarios.names())
        assert len(scenarios.names()) >= 5

    def test_specs_sorted_and_resolvable(self):
        listed = scenarios.specs()
        assert [spec.name for spec in listed] == scenarios.names()
        for spec in listed:
            assert scenarios.get(spec.name) is spec

    def test_unknown_name_raises_with_available(self):
        with pytest.raises(ScenarioError, match="registered scenarios"):
            scenarios.get("no-such-scenario")

    def test_duplicate_registration_raises(self):
        with pytest.raises(ScenarioError, match="already registered"):
            scenarios.register(_dummy_spec(name="heat-diffusion"))

    def test_register_and_unregister_roundtrip(self):
        spec = _dummy_spec(name="throwaway-scenario")
        try:
            assert scenarios.register(spec) is spec
            assert "throwaway-scenario" in scenarios.names()
        finally:
            scenarios.unregister("throwaway-scenario")
        assert "throwaway-scenario" not in scenarios.names()

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"name": ""}, "non-empty"),
            ({"app_factory": None}, "callable"),
            ({"analysis_factory": 3}, "callable"),
            ({"validator": "nope"}, "callable"),
            ({"policy": "sometimes"}, "policy"),
            ({"schema": {"a": 1}}, "Param"),
            ({"schema": {"a": Param(int, 1.5)}}, "default params.*a must be"),
            ({"schema": {"a": Param(int, 1, quick=0, low=1)}}, "quick params"),
            ({"check": _reject(2)}, "quick params.*does not fit"),
            ({"tolerance": -1.0}, "tolerance"),
            ({"tolerance": True}, "tolerance"),
            ({"schema": [1, 2]}, "Param"),
            ({"schema": {"a": Param(dict, {})}}, "unknown param kind"),
            ({"check": 3}, "not callable"),
            ({"check": _reject(1)}, "default params.*does not fit"),
        ],
    )
    def test_malformed_spec_rejected(self, overrides, match):
        with pytest.raises(ScenarioError, match=match):
            scenarios.register(_dummy_spec(**overrides))

    def test_non_spec_rejected(self):
        with pytest.raises(ScenarioError, match="ScenarioSpec"):
            scenarios.register({"name": "dict-not-spec"})

    def test_unknown_param_override_rejected(self):
        spec = scenarios.get("heat-diffusion")
        with pytest.raises(ScenarioError, match="no parameter"):
            spec.params(overrides={"n_nodez": 10})

    def test_params_layering(self):
        spec = scenarios.get("heat-diffusion")
        base = spec.params()
        quick = spec.params(quick=True)
        custom = spec.params(quick=True, overrides={"n_nodes": 25})
        assert base["n_nodes"] == spec.schema["n_nodes"].default == 48
        assert quick["n_nodes"] == spec.schema["n_nodes"].quick == 32
        assert custom["n_nodes"] == 25

    def test_params_come_back_canonical(self):
        # Lists from JSON, numpy ints and ints for float params resolve
        # to one form, so equal requests share one cache key.
        spec = scenarios.get("heat-diffusion")
        params = spec.params(
            overrides={
                "n_nodes": np.int64(40),
                "window": [6, 21],
                "modes": [[1, 1], [3, 0.4]],
            }
        )
        assert params["window"] == (6, 21)
        assert params["modes"] == ((1, 1.0), (3, 0.4))
        assert type(params["modes"][0][1]) is float
        assert type(params["n_nodes"]) is int
        ints = scenarios.RunConfig(quick=True, params={"modes": [[1, 1], [3, 0.4]]})
        default = scenarios.RunConfig(quick=True)
        assert ints.cache_key("heat-diffusion") == default.cache_key("heat-diffusion")
        speed = scenarios.get("advection-front").params(overrides={"speed": 1})["speed"]
        assert speed == 1.0 and type(speed) is float

    def test_every_param_declared_once(self):
        # The factories and validators declare no defaults of their own.
        import inspect

        for spec in scenarios.specs():
            for fn in (spec.app_factory, spec.analysis_factory, spec.validator):
                for arg in inspect.signature(fn).parameters.values():
                    if arg.kind is arg.KEYWORD_ONLY:
                        assert arg.default is arg.empty, (spec.name, arg.name)
                        assert arg.name in spec.schema, (spec.name, arg.name)

    def test_wdmerger_variable_choices_match_the_simulator(self):
        from repro.wdmerger import DIAGNOSTIC_NAMES

        schema = scenarios.get("wdmerger-detonation").schema
        assert schema["variable"].choices == DIAGNOSTIC_NAMES

    def test_describe_is_json_ready(self):
        import json

        for spec in scenarios.specs():
            payload = spec.describe()
            json.dumps(payload)
            assert payload["name"] == spec.name
            assert payload["providers"]
            assert list(payload["params"]) == list(spec.schema)
        n_nodes = scenarios.get("heat-diffusion").describe()["params"]["n_nodes"]
        assert json.loads(json.dumps(n_nodes)) == {
            "kind": "integer",
            "low": 3,
            "high": None,
            "strict": False,
            "choices": [],
            "default": 48,
            "quick": 32,
        }


# ----------------------------------------------------------------------
# runner semantics
# ----------------------------------------------------------------------


class TestRunner:
    def test_backend_alias_resolution(self):
        assert scenarios.resolve_backend("mp") == "multiprocessing"
        assert scenarios.resolve_backend("simcomm") == "simcomm"
        with pytest.raises(ScenarioError, match="unknown backend"):
            scenarios.resolve_backend("mpi")

    def test_nonpositive_ranks_rejected(self):
        with pytest.raises(ScenarioError, match="n_ranks"):
            scenarios.run_scenario(
                "heat-diffusion", config=scenarios.RunConfig(n_ranks=0)
            )

    @pytest.mark.parametrize("n_ranks", [1, 2])
    @pytest.mark.parametrize("name, params, message", MALFORMED_PARAMS)
    def test_malformed_params_rejected_before_any_step(
        self, name, params, message, n_ranks
    ):
        # Two ranks run on mp, which spawns workers.
        config = scenarios.RunConfig(
            quick=True,
            n_ranks=n_ranks,
            backend="mp" if n_ranks > 1 else "simcomm",
            params=params,
        )
        with pytest.raises(ConfigurationError, match=message):
            scenarios.run_scenario(name, config=config)
        assert multiprocessing.active_children() == []

    def test_validator_must_report_error(self):
        spec = _dummy_spec(
            name="no-error-metric",
            validator=lambda app, analyses, result, **_: {"score": 1.0},
        )
        scenarios.register(spec)
        try:
            with pytest.raises(ScenarioError, match="'error' metric"):
                scenarios.run_scenario("no-error-metric")
        finally:
            scenarios.unregister("no-error-metric")

    def test_run_json_payload(self):
        import json

        run = scenarios.run_scenario(
            "oscillator-ringdown", config=scenarios.RunConfig(quick=True)
        )
        payload = run.to_json()
        json.dumps(payload)
        assert payload["scenario"] == "oscillator-ringdown"
        assert payload["backend"] == "serial"
        assert payload["ok"] is True
        assert payload["crosscheck"] is None

    def test_failed_run_payload_is_strict_json(self):
        import json

        # An uncrossable threshold leaves no front events; the validator
        # reports error=inf, which must not leak a bare Infinity token.
        run = scenarios.run_scenario(
            "advection-front",
            config=scenarios.RunConfig(quick=True, params={"threshold": 2.0}),
        )
        assert not run.ok
        payload = run.to_json()
        encoded = json.dumps(payload, allow_nan=False)
        assert json.loads(encoded)["metrics"]["error"] == "inf"

    def test_json_safe_values(self):
        assert scenarios.json_safe(1.5) == 1.5
        assert scenarios.json_safe(float("inf")) == "inf"
        assert scenarios.json_safe(float("nan")) == "nan"
        assert scenarios.json_safe(np.float64(2.0)) == 2.0
        assert scenarios.json_safe(True) is True
        assert scenarios.json_safe("x") == "x"
        assert scenarios.json_safe(None) is None

    def test_crosscheck_counts_modelless_analyses(self):
        # Analyses without a .model cannot be compared; the report must
        # say so instead of defaulting to a vacuous zero delta.
        class Opaque:
            pass

        report = scenarios.crosscheck_analyses([Opaque()], [Opaque()])
        assert report["compared"] == 0
        assert report["analyses"] == 1
        assert report["max_coefficient_delta"] == 0.0


# ----------------------------------------------------------------------
# acceptance: every scenario round-trips serial -> distributed
# ----------------------------------------------------------------------


class TestRoundTrip:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_distributed_matches_serial_and_ground_truth(self, name):
        run = scenarios.run_scenario(
            name, config=scenarios.RunConfig(n_ranks=2, quick=True)
        )
        # Ground truth within the spec's tested tolerance.
        assert np.isfinite(run.error)
        assert run.error <= run.tolerance
        # Serial and distributed runs agree bit-identically.
        report = run.crosscheck
        assert report is not None
        assert report["max_coefficient_delta"] <= DIVERGENCE_TOL
        assert report["updates_match"]
        assert report["stops_match"]
        assert report["iterations_match"]
        assert report["compared"] == len(run.analyses)
        assert run.ok

    def test_serial_run_skips_crosscheck_by_default(self):
        run = scenarios.run_scenario(
            "heat-diffusion", config=scenarios.RunConfig(quick=True)
        )
        assert run.crosscheck is None
        assert run.to_json()["backend"] == "serial"
        assert run.ok

    def test_multiprocessing_backend_roundtrip(self):
        run = scenarios.run_scenario(
            "heat-diffusion",
            config=scenarios.RunConfig(n_ranks=2, backend="mp", quick=True),
        )
        payload = run.to_json()
        assert payload["backend"] == "multiprocessing"
        assert "transport" not in payload
        assert run.ok

    def test_wdmerger_runs_on_multiprocessing(self):
        # Its diagnostic provider pickles, so worker ranks can gather it.
        run = scenarios.run_scenario(
            "wdmerger-detonation",
            config=scenarios.RunConfig(n_ranks=2, backend="mp", quick=True),
        )
        assert run.to_json()["backend"] == "multiprocessing"
        assert run.crosscheck["max_coefficient_delta"] == 0.0
        assert run.crosscheck["compared"] == len(run.analyses) == 1
        assert run.ok

    def test_multiprocessing_pickle_transport_roundtrip(self):
        # Shard rows travel as one pickled payload per worker chunk.
        run = scenarios.run_scenario(
            "heat-diffusion",
            config=scenarios.RunConfig(n_ranks=2, backend="mp", quick=True),
        )
        stats = run.result.transport_stats
        assert stats["total_bytes_moved"] > 0
        assert all(rank["bytes_moved"] > 0 for rank in stats["per_rank"][1:])
        assert run.ok

    @pytest.mark.parametrize(
        "n_ranks, overrides, halo",
        [
            # perfbench's tiny bigsim-mp shape block-steps 16 chunks.  A
            # worker gets 8 ghost cells a side (none past the domain
            # end) and sends 8 + 8 edge cells back: 192 B a chunk for
            # the last worker, 256 B for one in the middle.
            (2, TINY_BIGSIM_RUN, [0, 3072]),
            (3, TINY_BIGSIM_RUN, [0, 4096, 3072]),
            # Rebalancing keeps the replica path, which swaps no halos.
            (2, {"quick": True, "rebalance": True}, [0, 0]),
        ],
        ids=["block-stepped", "block-stepped-3", "replica"],
    )
    def test_halo_bytes_counted_beside_row_bytes(self, n_ranks, overrides, halo):
        config = scenarios.RunConfig(
            n_ranks=n_ranks, backend="mp", crosscheck=False, **overrides
        )
        run = scenarios.run_scenario("heat-diffusion", config=config)
        stats = run.result.transport_stats
        assert [rank["halo_bytes"] for rank in stats["per_rank"]] == halo
        assert stats["total_halo_bytes"] == sum(halo)
        assert stats["total_bytes_moved"] > 0

    def test_advection_wavefront_ranks_span_decomposition(self):
        # The threshold events must carry the owner rank of the moving
        # front: early events belong to rank 0's block, late ones to
        # rank 1's.
        spec = scenarios.get("advection-front")
        params = spec.params(quick=True)
        engine = DistributedEngine(
            spec.app_factory(**params), n_ranks=2, policy=spec.policy
        )
        for analysis in spec.analysis_factory(**params):
            engine.add_analysis(analysis)
        engine.run()
        ranks = {e.wavefront_rank for e in engine.broadcaster.history}
        assert ranks == {0, 1}


# ----------------------------------------------------------------------
# workload adapter registry
# ----------------------------------------------------------------------


class _ToySim:
    def __init__(self):
        self.t = 0


class _ToyApp:
    def __init__(self, sim):
        self.sim = sim

    def step(self):
        self.sim.t += 1

    @property
    def domain(self):
        return self.sim

    @property
    def done(self):
        return self.sim.t >= 3

    @property
    def max_iterations(self):
        return 3


class TestAdapterRegistry:
    def test_custom_adapter_resolves(self):
        try:
            register_adapter(_ToySim, _ToyApp)
            app = as_simulation_app(_ToySim())
            assert isinstance(app, _ToyApp)
        finally:
            _ADAPTERS.pop(_ToySim, None)

    def test_duplicate_adapter_rejected(self):
        try:
            register_adapter(_ToySim, _ToyApp)
            with pytest.raises(ConfigurationError, match="already registered"):
                register_adapter(_ToySim, _ToyApp)
        finally:
            _ADAPTERS.pop(_ToySim, None)

    def test_non_type_rejected(self):
        with pytest.raises(ConfigurationError, match="type"):
            register_adapter("not-a-type", _ToyApp)

    def test_unadaptable_object_rejected(self):
        with pytest.raises(ConfigurationError, match="SimulationApp"):
            as_simulation_app(object())

    def test_builtin_simulations_still_adapt(self):
        from repro.engine import LuleshApp
        from repro.lulesh import LuleshSimulation

        app = as_simulation_app(LuleshSimulation(8, maintain_field=False))
        assert isinstance(app, LuleshApp)


# ----------------------------------------------------------------------
# RunConfig: the request object behind run_scenario and repro serve
# ----------------------------------------------------------------------


class TestRunConfig:
    def test_normalizes_aliases_at_construction(self):
        config = scenarios.RunConfig(n_ranks=2, backend="mp")
        assert config.backend == "multiprocessing"

    def test_validates_eagerly(self):
        with pytest.raises(ScenarioError, match="n_ranks"):
            scenarios.RunConfig(n_ranks=0)
        with pytest.raises(ScenarioError, match="distributed"):
            scenarios.RunConfig(faults="kill:rank=1,iter=4")
        # Flags are never coerced: bool("false") would flip the knob.
        for flag in ("quick", "adaptive", "rebalance", "crosscheck"):
            with pytest.raises(ScenarioError, match=flag):
                scenarios.RunConfig(**{flag: "false"})
            with pytest.raises(ScenarioError, match=flag):
                scenarios.RunConfig(**{flag: 1})
        for limit in (2.5, True, "5", -1):
            with pytest.raises(ScenarioError, match="max_iterations"):
                scenarios.RunConfig(max_iterations=limit)

    def test_json_round_trip(self):
        config = scenarios.RunConfig(
            n_ranks=4,
            backend="mp",
            quick=True,
            params={"train_iterations": 64},
            faults="kill:rank=2,iter=40",
            max_iterations=100,
        )
        assert scenarios.RunConfig.from_json(config.to_json()) == config

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ScenarioError, match="no field"):
            scenarios.RunConfig.from_json({"warp_factor": 9})

    def test_committed_bench_configs_load(self):
        # A committed benchmark report's config block must be a request
        # the current RunConfig accepts, or the report cannot be replayed.
        root = pathlib.Path(__file__).resolve().parents[1]
        for path in sorted(root.glob("BENCH_*.json")):
            config = json.loads(path.read_text()).get("config")
            if config is not None:
                scenarios.RunConfig.from_json(config)

    def test_frozen(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            scenarios.RunConfig().quick = True

    def test_legacy_kwargs_rejected(self):
        with pytest.raises(TypeError):
            scenarios.run_scenario("heat-diffusion", quick=True)

    def test_config_and_kwargs_are_exclusive(self):
        with pytest.raises(TypeError):
            scenarios.run_scenario(
                "heat-diffusion",
                config=scenarios.RunConfig(quick=True),
                quick=True,
            )

    def test_unknown_kwargs_rejected(self):
        with pytest.raises(TypeError):
            scenarios.run_scenario("heat-diffusion", turbo=True)

    def test_config_must_be_runconfig(self):
        with pytest.raises(ScenarioError, match="RunConfig"):
            scenarios.run_scenario("heat-diffusion", config={"quick": True})


class TestCrosscheckConfigPartition:
    def test_every_field_is_inherited_or_overridden(self):
        # The anti-drift regression: a knob added to RunConfig must be
        # explicitly classified — either the serial cross-check twin
        # inherits it, or it is in the override set.  Forgetting both
        # fails here; claiming both fails here too.
        import dataclasses

        fields = {f.name for f in dataclasses.fields(scenarios.RunConfig)}
        overrides = scenarios.CROSSCHECK_OVERRIDES
        inherited = scenarios.CROSSCHECK_INHERITED
        assert overrides | inherited == fields
        assert overrides & inherited == frozenset()

    def test_crosscheck_config_overrides_exactly_the_declared_set(self):
        config = scenarios.RunConfig(
            n_ranks=4,
            backend="mp",
            quick=True,
            params={"train_iterations": 64},
            faults="kill:rank=2,iter=40",
            rebalance=True,
            max_iterations=100,
        )
        twin = config.crosscheck_config()
        changed = {
            name
            for name in (f.name for f in __import__("dataclasses").fields(config))
            if getattr(twin, name) != getattr(config, name)
        }
        assert changed <= scenarios.CROSSCHECK_OVERRIDES
        # and the twin is the serial, fault-free leg
        assert twin.n_ranks == 1
        assert twin.faults is None and not twin.rebalance
        assert not twin.want_crosscheck()
        # every inherited knob really is inherited
        for name in scenarios.CROSSCHECK_INHERITED:
            assert getattr(twin, name) == getattr(config, name)

    def test_adaptive_distributed_crosschecks_adaptively(self):
        run = scenarios.run_scenario(
            "heat-diffusion",
            config=scenarios.RunConfig(n_ranks=2, quick=True, adaptive=True),
        )
        assert run.crosscheck is not None and run.ok
        assert run.config.crosscheck_config().adaptive is True


class TestSchema2AndReplay:
    def test_payload_embeds_config_under_schema_2(self):
        config = scenarios.RunConfig(quick=True, crosscheck=False)
        run = scenarios.run_scenario("heat-diffusion", config=config)
        payload = run.to_json()
        assert payload["schema"] == scenarios.SCHEMA_VERSION == 4
        assert payload["config"] == config.to_json()
        assert scenarios.RunConfig.from_json(payload["config"]) == config

    def test_replay_reproduces_bit_identically(self):
        run = scenarios.run_scenario(
            "oscillator-ringdown",
            config=scenarios.RunConfig(quick=True),
        )
        fresh = run.replay()
        assert scenarios.replay_fingerprint(
            fresh.to_json()
        ) == scenarios.replay_fingerprint(run.to_json())

    def test_replay_report_from_stored_payload(self):
        run = scenarios.run_scenario(
            "heat-diffusion",
            config=scenarios.RunConfig(quick=True, max_iterations=32),
        )
        stored = run.to_json()
        fresh = scenarios.replay_report(stored)
        assert fresh.result.iterations == 32

    @pytest.mark.parametrize("knob", ["transport", "pipeline", "kernels"])
    def test_schema_2_config_with_removed_knob_rejected(self, knob):
        run = scenarios.run_scenario(
            "heat-diffusion", config=scenarios.RunConfig(quick=True)
        )
        stored = run.to_json()
        # transport and pipeline left with schema 3, kernels with 4.
        stored["schema"] = 3 if knob == "kernels" else 2
        stored["config"] = dict(stored["config"], **{knob: "auto"})
        with pytest.raises(ScenarioError, match=knob):
            scenarios.replay_report(stored)

    def test_replay_without_config_rejected(self):
        import dataclasses as _dc

        run = scenarios.run_scenario(
            "heat-diffusion", config=scenarios.RunConfig(quick=True)
        )
        legacy = _dc.replace(run, config=None)
        with pytest.raises(ScenarioError, match="RunConfig"):
            legacy.replay()

    def test_fingerprint_ignores_timing_only(self):
        run = scenarios.run_scenario(
            "heat-diffusion", config=scenarios.RunConfig(quick=True)
        )
        payload = run.to_json()
        slower = dict(payload, seconds=payload["seconds"] + 10.0)
        assert scenarios.replay_fingerprint(slower) == scenarios.replay_fingerprint(
            payload
        )
        drifted = dict(payload, iterations=payload["iterations"] + 1)
        assert scenarios.replay_fingerprint(drifted) != scenarios.replay_fingerprint(
            payload
        )
