"""Scenario specifications: declarative, registry-resolved workloads.

A *scenario* is everything the engine needs to run one in-situ
feature-extraction workload end to end — simulation factory, provider
set, analysis windows, termination policy and the reference quantities
the extracted features are validated against — captured as data in a
:class:`ScenarioSpec` instead of as a bespoke experiment script.  The
registry makes workloads name-addressable: the CLI, the experiment
drivers and CI all resolve ``"heat-diffusion"`` or ``"lulesh-sedov"``
through :func:`get` and drive them through the one runner,
:func:`run_scenario`.

Adding a workload is declarative: implement a
:class:`~repro.engine.workload.SimulationApp` (or register an adapter
for a raw simulation type), write module-level factories for the app
and its analyses, a validator comparing the fitted predictions against
the scenario's ground truth, and call :func:`register` with the
assembled spec — roughly a hundred lines, with the engine, the
vectorized data plane and the distributed runtime inherited for free.

Every spec must be runnable serial *and* distributed: the runner can
cross-check an ``n_ranks > 1`` run against a fresh serial run and
report any divergence, which is what the CI scenario-smoke matrix
fails on.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.curve_fitting import Analysis
from repro.engine import (
    BACKEND_MULTIPROCESSING,
    BACKEND_SIMCOMM,
    POLICIES,
    CadenceController,
    CadencePolicy,
    DistributedEngine,
    EngineResult,
    FaultPlan,
    InSituEngine,
    as_fault_plan,
)
from repro.errors import ConfigurationError, ScenarioError

#: CadencePolicy field names a spec's ``cadence`` mapping may override.
CADENCE_FIELDS = frozenset(CadencePolicy.__dataclass_fields__)

#: Serial-vs-distributed agreement bound the cross-check enforces.
DIVERGENCE_TOL = 1e-12

#: Aliases accepted anywhere a backend name is taken (CLI ``--backend mp``).
BACKEND_ALIASES = {
    "mp": BACKEND_MULTIPROCESSING,
    BACKEND_SIMCOMM: BACKEND_SIMCOMM,
    BACKEND_MULTIPROCESSING: BACKEND_MULTIPROCESSING,
}


def json_safe(value):
    """Coerce a metric value for strict-JSON output.

    Finite numbers pass through as floats; non-finite floats become
    their string form (``"inf"``/``"nan"``) because ``json.dump``
    would otherwise emit bare ``Infinity``/``NaN`` tokens that strict
    parsers (jq, ``JSON.parse``) reject.
    """
    if value is None:
        return value
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        number = float(value)
        return number if np.isfinite(number) else str(number)
    return value


_NOUNS = {int: "integer", float: "finite real number", bool: "bool", str: "string"}


def _noun(kind) -> str:
    if isinstance(kind, list):
        return f"non-empty list of {_noun(kind[0])}s"
    if isinstance(kind, tuple):
        return "[" + ", ".join(map(_noun, kind)) + "] pair"
    return _NOUNS[kind]


@dataclass(frozen=True)
class Param:
    """One scenario parameter: its kind, bounds, default and quick value.

    ``kind`` is ``int``, ``float`` (finite only), ``bool`` or ``str``,
    and a bool is neither an int nor a float.  A pair of kinds, such as
    ``(int, int)`` for a window, takes a value of exactly two items; a
    one-item list, such as ``[float]`` for thresholds or
    ``[(int, float)]`` for wavenumber/amplitude modes, takes a
    non-empty sequence of that kind.  ``low`` and ``high`` bound every
    number in the value, inclusive, except that ``strict`` makes ``low``
    exclusive; ``choices`` lists the values a ``str`` may take.
    ``quick`` is the ``--quick`` value; None keeps ``default``.
    """

    kind: object
    default: object
    quick: object = None
    low: Optional[float] = None
    high: Optional[float] = None
    strict: bool = False
    choices: Tuple[str, ...] = ()

    def check(self, name: str, value) -> object:
        """``value`` in canonical form, or a ConfigurationError naming it.

        Sequences come back as tuples and float params as floats, so
        equal requests hash to equal cache keys.
        """
        try:
            return self._cast(self.kind, value)
        except (ValueError, OverflowError):
            pass
        noun = _noun(self.kind)
        what = ("an " if noun[0] in "aeiou" else "a ") + noun
        low, high = self.low, self.high
        if self.choices:
            what += f" in {list(self.choices)}"
        elif low is not None and high is not None:
            what += f" in {'(' if self.strict else '['}{low}, {high}]"
        elif low is not None:
            what += f" {'>' if self.strict else '>='} {low}"
        raise ConfigurationError(f"{name} must be {what}, got {value!r}")

    def _cast(self, kind, value):
        """``value`` as ``kind``, sequences as tuples; ValueError if not."""
        if isinstance(kind, (tuple, list)):
            if not isinstance(value, (tuple, list)) or not value:
                raise ValueError(value)
            kinds = kind if isinstance(kind, tuple) else kind * len(value)
            if len(kinds) != len(value):
                raise ValueError(value)
            return tuple(map(self._cast, kinds, value))
        if kind is bool or kind is str:
            ok = isinstance(value, kind) and (not self.choices or value in self.choices)
        elif kind is int or kind is float:
            number = numbers.Integral if kind is int else numbers.Real
            low, high = self.low, self.high
            ok = (
                isinstance(value, number)
                and not isinstance(value, bool)
                and math.isfinite(value)
                and (low is None or value > low or (value == low and not self.strict))
                and (high is None or value <= high)
            )
        else:
            raise ScenarioError(f"unknown param kind {kind!r}")
        if not ok:
            raise ValueError(value)
        return kind(value)

    def describe(self) -> Dict[str, object]:
        """JSON-ready entry of ``ScenarioSpec.describe()``."""
        quick = self.default if self.quick is None else self.quick
        return dict(dataclasses.asdict(self), kind=_noun(self.kind), quick=quick)


def check_window(window, size: int, size_name: str) -> None:
    """Raise unless ``window`` (``[begin, end]``) lies inside ``[0, size)``."""
    if window[0] > window[1]:
        raise ConfigurationError(f"window {list(window)} ends before it begins")
    if window[1] >= size:
        raise ConfigurationError(
            f"window {list(window)} runs past the domain: {size_name} is "
            f"{size}, so locations must be in [0, {size - 1}]"
        )


def resolve_backend(name: str) -> str:
    """Canonical backend name for ``name`` (accepts the ``mp`` alias)."""
    backend = BACKEND_ALIASES.get(name)
    if backend is None:
        raise ScenarioError(
            f"unknown backend {name!r}; expected one of "
            f"{sorted(set(BACKEND_ALIASES))}"
        )
    return backend


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative binding of one workload to the in-situ engine.

    Parameters
    ----------
    name:
        Registry key (kebab-case by convention).
    physics:
        One-line description of the simulated system.
    ground_truth:
        One-line description of the reference quantities the fitted
        predictions are validated against.
    providers:
        Human-readable names of the variable providers the scenario's
        analyses read through (documentation; the callables themselves
        live in the factories).
    app_factory:
        ``app_factory(**params) -> SimulationApp-or-raw-simulation``.
        Must be a module-level callable (the multiprocessing backend
        ships it to worker ranks), and must build a *deterministic*
        simulation: distributed replicas must step bit-identically.
    analysis_factory:
        ``analysis_factory(**params) -> sequence of Analysis``.  Fresh
        analyses every call — the runner builds independent sets for
        the serial and distributed legs of a cross-check.
    validator:
        ``validator(app, analyses, result, **params) -> mapping`` of
        accuracy metrics.  Must include key ``"error"`` — the headline
        prediction-vs-ground-truth error (percent); the run passes when
        ``error <= tolerance``.
    schema:
        Every parameter the factories and validator take, each declared
        once as a :class:`Param`: kind, bounds, default and the value
        smoke runs (``--quick``) use.
    check:
        ``check(params)`` raises :class:`~repro.errors.ConfigurationError`
        when params that pass their own :class:`Param` do not fit
        together (a window past the domain's end), or None.
    policy, quorum:
        Scheduler termination policy for the scenario's analysis set.
    tolerance:
        Bound on the validator's ``"error"`` metric, in percent.
    cadence:
        Adaptive-cadence support.  ``None`` (the default) means the
        scenario must run at full cadence — e.g. its analyses extract
        features from post-convergence samples that a widened stride
        would skip.  A mapping (possibly empty) opts in and overrides
        :class:`~repro.engine.cadence.CadencePolicy` fields with the
        scenario's own tolerances.
    """

    name: str
    physics: str
    ground_truth: str
    providers: Tuple[str, ...]
    app_factory: Callable[..., object]
    analysis_factory: Callable[..., Sequence[Analysis]]
    validator: Callable[..., Mapping]
    schema: Mapping[str, Param] = field(default_factory=dict)
    check: Optional[Callable[[Mapping[str, object]], None]] = None
    policy: str = "all"
    quorum: Optional[Union[int, float]] = None
    tolerance: float = 5.0
    cadence: Optional[Mapping[str, object]] = None

    @property
    def adaptive_supported(self) -> bool:
        """True when the scenario opts into adaptive collection cadence."""
        return self.cadence is not None

    def cadence_controller(self) -> CadenceController:
        """A fresh controller configured with the spec's tolerances."""
        if self.cadence is None:
            raise ScenarioError(
                f"scenario {self.name!r} does not support adaptive cadence"
            )
        return CadenceController(CadencePolicy(**dict(self.cadence)))

    def params(
        self, *, quick: bool = False, overrides: Optional[Mapping] = None
    ) -> Dict[str, object]:
        """Checked parameter dict: defaults, quick values, user overrides.

        Each value passes its :class:`Param` and comes back canonical,
        then the merged set passes the spec's ``check``.  The first bad
        value raises :class:`~repro.errors.ConfigurationError`, before
        any factory runs.
        """
        overrides = overrides or {}
        unknown = sorted(set(overrides) - set(self.schema))
        if unknown:
            raise ScenarioError(
                f"scenario {self.name!r} has no parameter(s) {unknown}; "
                f"available: {sorted(self.schema)}"
            )
        merged = {}
        for name, param in self.schema.items():
            base = param.quick if quick and param.quick is not None else param.default
            merged[name] = param.check(name, overrides.get(name, base))
        if self.check is not None:
            self.check(merged)
        return merged

    def describe(self) -> Dict[str, object]:
        """JSON-ready metadata row (the CLI ``list`` payload)."""
        return {
            "name": self.name,
            "physics": self.physics,
            "ground_truth": self.ground_truth,
            "providers": list(self.providers),
            "policy": self.policy,
            "tolerance": self.tolerance,
            "adaptive": self.adaptive_supported,
            "cadence": dict(self.cadence) if self.cadence is not None else None,
            "params": {name: p.describe() for name, p in self.schema.items()},
        }


def _validate_spec(spec: ScenarioSpec) -> None:
    if not isinstance(spec, ScenarioSpec):
        raise ScenarioError(f"expected a ScenarioSpec, got {type(spec).__name__}")
    if not spec.name or not isinstance(spec.name, str):
        raise ScenarioError(f"scenario name must be a non-empty str, got {spec.name!r}")
    for label, fn in (
        ("app_factory", spec.app_factory),
        ("analysis_factory", spec.analysis_factory),
        ("validator", spec.validator),
    ):
        if not callable(fn):
            raise ScenarioError(
                f"scenario {spec.name!r}: {label} must be callable, "
                f"got {type(fn).__name__}"
            )
    if spec.policy not in POLICIES:
        raise ScenarioError(
            f"scenario {spec.name!r}: policy must be one of {POLICIES}, "
            f"got {spec.policy!r}"
        )
    if not isinstance(spec.schema, Mapping) or not all(
        isinstance(k, str) and isinstance(p, Param) for k, p in spec.schema.items()
    ):
        raise ScenarioError(
            f"scenario {spec.name!r}: schema must map each param name to a Param"
        )
    # Defaults and quick values must pass their own checks and the hook
    # (a TypeError: the hook is not callable).
    for quick in (False, True):
        try:
            spec.params(quick=quick)
        except (ConfigurationError, TypeError) as exc:
            label = "quick" if quick else "default"
            raise ScenarioError(
                f"scenario {spec.name!r}: {label} params are invalid: {exc}"
            ) from exc
    if not (
        isinstance(spec.tolerance, (int, float))
        and not isinstance(spec.tolerance, bool)
        and spec.tolerance > 0
    ):
        raise ScenarioError(
            f"scenario {spec.name!r}: tolerance must be a positive number, "
            f"got {spec.tolerance!r}"
        )
    if spec.cadence is not None:
        if not isinstance(spec.cadence, Mapping):
            raise ScenarioError(
                f"scenario {spec.name!r}: cadence must be a mapping of "
                f"CadencePolicy overrides or None, got {spec.cadence!r}"
            )
        unknown = sorted(set(spec.cadence) - CADENCE_FIELDS)
        if unknown:
            raise ScenarioError(
                f"scenario {spec.name!r}: cadence names no policy "
                f"field(s) {unknown} (valid: {sorted(CADENCE_FIELDS)})"
            )
        # Surface bad values at registration, not first --adaptive run.
        try:
            CadencePolicy(**dict(spec.cadence))
        except ConfigurationError as exc:
            raise ScenarioError(
                f"scenario {spec.name!r}: invalid cadence overrides: {exc}"
            ) from exc


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Validate ``spec`` and add it to the registry; returns it.

    Raises :class:`~repro.errors.ScenarioError` on a malformed spec or
    a duplicate name.
    """
    _validate_spec(spec)
    if spec.name in _REGISTRY:
        raise ScenarioError(
            f"a scenario named {spec.name!r} is already registered; "
            "scenario names must be unique (unregister it first to replace)"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove one scenario (primarily for tests registering throwaways)."""
    _REGISTRY.pop(name, None)


def get(name: str) -> ScenarioSpec:
    """Resolve a registered scenario by name."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ScenarioError(
            f"unknown scenario {name!r}; registered scenarios: {names()}",
        )
    return spec


def names() -> List[str]:
    """Sorted names of every registered scenario."""
    return sorted(_REGISTRY)


def specs() -> List[ScenarioSpec]:
    """Every registered spec, sorted by name."""
    return [_REGISTRY[name] for name in names()]


def build_sim(name: str, **overrides) -> object:
    """Build the scenario's simulation with default params + ``overrides``.

    Overrides the schema names are checked like any param.  Unlike
    :meth:`ScenarioSpec.params`, overrides here may also name a keyword
    the app factory declares outside the schema (e.g. the experiment
    drivers' recording arguments); any other key is rejected like an
    unknown param.
    """
    spec = get(name)
    factory = inspect.signature(spec.app_factory).parameters.values()
    named = {p.name for p in factory if p.kind is p.KEYWORD_ONLY}
    extra = {k: v for k, v in overrides.items() if k in named - set(spec.schema)}
    known = {k: v for k, v in overrides.items() if k not in extra}
    return spec.app_factory(**spec.params(overrides=known), **extra)


# ----------------------------------------------------------------------
# run configuration: the request API
# ----------------------------------------------------------------------

#: Schema version of ``ScenarioRun.to_json`` payloads.  Version 2 added
#: the embedded ``"config"`` (the resolved :class:`RunConfig`), making
#: every report replayable from its own JSON; version 3 dropped the
#: ``transport`` and ``pipeline`` knobs from that config (and the
#: report's ``"transport"`` key); version 4 dropped ``kernels`` from
#: both.
SCHEMA_VERSION = 4

#: RunConfig fields the cross-check leg overrides: the serial agreement
#: run keeps everything that shapes the fitted results and replaces only
#: the rank topology and the fault knobs (a serial leg has no ranks to
#: shard, kill or rebalance, and must not recurse into its own check).
#: Every other field is inherited verbatim —
#: ``tests/test_scenarios.py`` asserts the two sets partition
#: ``RunConfig``'s fields, so a newly added knob cannot silently
#: diverge the two legs.
CROSSCHECK_OVERRIDES = frozenset(
    {
        "n_ranks",
        "backend",
        "faults",
        "rebalance",
        "crosscheck",
    }
)

#: RunConfig fields the cross-check leg inherits unchanged.
CROSSCHECK_INHERITED = frozenset({"quick", "adaptive", "params", "max_iterations"})


def _tuplify(value):
    """Lists (from JSON round-trips) back to the tuples specs declare."""
    if isinstance(value, (list, tuple)):
        return tuple(_tuplify(v) for v in value)
    return value


@dataclass(frozen=True)
class RunConfig:
    """One scenario-run request: every engine knob, as data.

    This is the canonical request object behind :func:`run_scenario`
    and the ``repro serve`` analysis service.  It owns the knobs that
    used to sprawl across eleven loose keywords, validates their
    combination eagerly at construction (the same errors the runner
    used to raise mid-call), serializes to strict JSON
    (:meth:`to_json` / :meth:`from_json`) and hashes canonically
    (:meth:`cache_key`) so identical requests are identical keys.

    Cache-key semantics — which fields participate and why:

    * **All fields except** ``faults`` **participate**, because every
      one of them lands in the run report: two requests differing in
      any knob produce different ``ScenarioRun.to_json`` bytes even
      when the fitted numbers agree (e.g. ``backend`` is recorded, and
      ``crosscheck`` adds the agreement report).  That includes
      ``quick`` (it also reshapes the resolved parameters) and
      ``n_ranks`` (determinism makes the *fits* identical across rank
      counts, but the report is not).
    * ``params`` are hashed **after** resolution against the scenario's
      schema (defaults or ``quick`` values, canonical form), so
      explicitly passing a parameter at its default value, even as an
      int where the param is a float, hashes the same as omitting it.
    * ``faults`` forces a cache **bypass** (:attr:`cacheable` is
      False): fault injection exists to exercise recovery machinery,
      and timing-dependent recovery/rebalance events make the report
      non-reproducible byte-for-byte even though the fits are.

    Build variants with :meth:`replace`; the cross-check leg's serial
    twin comes from :meth:`crosscheck_config`.
    """

    n_ranks: int = 1
    backend: str = BACKEND_SIMCOMM
    quick: bool = False
    adaptive: bool = False
    params: Mapping[str, object] = field(default_factory=dict)
    crosscheck: Optional[bool] = None
    max_iterations: Optional[int] = None
    faults: Union[None, str, FaultPlan] = None
    rebalance: bool = False

    def __post_init__(self) -> None:
        # Normalise aliases and coercible forms first (frozen dataclass,
        # hence object.__setattr__), then validate the combination.
        object.__setattr__(self, "backend", resolve_backend(self.backend))
        object.__setattr__(self, "faults", as_fault_plan(self.faults))
        params = self.params
        if params is None:
            params = {}
        if not isinstance(params, Mapping) or not all(
            isinstance(k, str) for k in params
        ):
            raise ScenarioError(
                f"params must be a str-keyed mapping, got {params!r}"
            )
        object.__setattr__(
            self, "params", {k: _tuplify(v) for k, v in params.items()}
        )
        if isinstance(self.n_ranks, bool) or not isinstance(self.n_ranks, int):
            raise ScenarioError(
                f"n_ranks must be an int, got {self.n_ranks!r}"
            )
        if self.n_ranks <= 0:
            raise ScenarioError(
                f"n_ranks must be positive, got {self.n_ranks}"
            )
        limit = self.max_iterations
        if limit is not None and (
            isinstance(limit, bool) or not isinstance(limit, int) or limit < 0
        ):
            raise ScenarioError(
                f"max_iterations must be None or an int >= 0, got {limit!r}"
            )
        # Flags are never coerced: bool("false") is True, so a JSON
        # string would silently flip the knob (and its cache key).
        for flag in ("quick", "adaptive", "rebalance", "crosscheck"):
            value = getattr(self, flag)
            if flag == "crosscheck" and value is None:
                continue
            if not isinstance(value, bool):
                raise ScenarioError(f"{flag} must be a bool, got {value!r}")
        if self.n_ranks == 1 and (self.faults is not None or self.rebalance):
            raise ScenarioError(
                "faults/rebalance only apply to distributed runs "
                "(n_ranks > 1); a serial run has no ranks to kill, slow or "
                "rebalance"
            )

    # -- derived views ---------------------------------------------------

    @property
    def serial(self) -> bool:
        return self.n_ranks == 1

    @property
    def cacheable(self) -> bool:
        """False when the config bypasses the result cache (faulted runs)."""
        return self.faults is None

    def want_crosscheck(self) -> bool:
        """Effective cross-check decision (default: on for distributed)."""
        if self.crosscheck is None:
            return self.n_ranks > 1
        return self.crosscheck

    def replace(self, **changes) -> "RunConfig":
        """A copy with ``changes`` applied (re-validated on construction)."""
        return dataclasses.replace(self, **changes)

    def crosscheck_config(self) -> "RunConfig":
        """The serial agreement leg's config: this one, ranks collapsed.

        Inherits every field in :data:`CROSSCHECK_INHERITED` verbatim
        and overrides exactly :data:`CROSSCHECK_OVERRIDES` — the two
        legs can only diverge in rank topology, never in a knob that
        shapes the fit.
        """
        return self.replace(
            n_ranks=1,
            backend=BACKEND_SIMCOMM,
            faults=None,
            rebalance=False,
            crosscheck=False,
        )

    # -- serialization ---------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """Strict-JSON form; :meth:`from_json` round-trips it."""
        return {
            "n_ranks": self.n_ranks,
            "backend": self.backend,
            "quick": self.quick,
            "adaptive": self.adaptive,
            "params": {k: json_safe(v) for k, v in sorted(self.params.items())},
            "crosscheck": self.crosscheck,
            "max_iterations": self.max_iterations,
            "faults": self.faults.to_spec() if self.faults else None,
            "rebalance": self.rebalance,
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "RunConfig":
        """Rebuild a config from :meth:`to_json` output.

        Strict about unknown keys: a typo'd knob in a serve request must
        not silently run with defaults, and an older config carrying a
        removed knob (``transport``/``pipeline`` in schema 2,
        ``kernels`` in schema 3) is rejected rather than replayed under
        different semantics.  Missing keys take their defaults, so
        stored reports stay replayable as fields are added.
        """
        if not isinstance(data, Mapping):
            raise ScenarioError(
                f"RunConfig.from_json expects a mapping, got "
                f"{type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ScenarioError(
                f"RunConfig has no field(s) {unknown}; valid: {sorted(known)}"
            )
        return cls(**dict(data))

    # -- resolution and content addressing --------------------------------

    def resolve(self, scenario: str) -> Tuple[ScenarioSpec, Dict[str, object]]:
        """The spec this request runs and its checked params.

        Raises before any factory call, worker spawn or serve submit:
        on an unknown scenario, on ``adaptive`` for a spec that runs at
        full cadence only, and on a param that fails the spec's schema
        or its ``check``.
        """
        spec = get(scenario)
        if self.adaptive and not spec.adaptive_supported:
            raise ScenarioError(
                f"scenario {scenario!r} does not support adaptive cadence "
                "(its analyses need full-cadence collection); scenarios "
                "opting in declare ScenarioSpec.cadence"
            )
        return spec, spec.params(quick=self.quick, overrides=self.params)

    def cache_key(
        self, scenario: str, resolved: Optional[Mapping[str, object]] = None
    ) -> str:
        """Canonical content hash of (resolved scenario request).

        SHA-256 over the scenario name, the **resolved** parameter set
        (``resolved``, the params :meth:`resolve` returns, resolved
        here when not given) and every engine knob (see the class
        docstring for what participates and why).  Stable across
        processes and Python versions — the serving layer's
        content-addressed result cache is keyed by this.
        """
        if resolved is None:
            resolved = self.resolve(scenario)[1]
        knobs = self.to_json()
        knobs.pop("params", None)
        payload = {
            "scenario": scenario,
            "params": {k: repr(v) for k, v in sorted(resolved.items())},
            "config": knobs,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------


@dataclass
class ScenarioRun:
    """Outcome of one :func:`run_scenario` call.

    ``config`` is the request that produced the run; the report reads
    the rank count, backend and run flags from it (and embeds it, so
    every report is replayable from its own JSON).
    """

    name: str
    config: RunConfig
    params: Dict[str, object]
    result: EngineResult
    analyses: Tuple[Analysis, ...]
    metrics: Dict[str, object]
    tolerance: float
    seconds: float
    crosscheck: Optional[Dict[str, object]] = None

    @property
    def error(self) -> float:
        """Headline prediction-vs-ground-truth error (percent)."""
        return float(self.metrics["error"])

    @property
    def accuracy_ok(self) -> bool:
        return bool(np.isfinite(self.error) and self.error <= self.tolerance)

    @property
    def crosscheck_ok(self) -> bool:
        """True when no cross-check ran or the cross-check agreed."""
        return self.crosscheck is None or bool(self.crosscheck["ok"])

    @property
    def ok(self) -> bool:
        return self.accuracy_ok and self.crosscheck_ok

    def to_json(self) -> Dict[str, object]:
        """JSON-serialisable summary (the CLI ``run --json`` payload).

        Strictly valid JSON: non-finite floats (a validator reporting
        ``error: inf`` on a failed run) are rendered as strings, never
        as the bare ``Infinity`` token strict parsers reject.

        The payload embeds the resolved :class:`RunConfig` under
        ``"config"``, so a stored report alone is enough to re-run it
        (see :meth:`replay` / :func:`replay_report`).
        """
        config = self.config
        return {
            "schema": SCHEMA_VERSION,
            "scenario": self.name,
            "config": config.to_json(),
            "ranks": config.n_ranks,
            "backend": config.backend if config.n_ranks > 1 else "serial",
            "quick": config.quick,
            "adaptive": config.adaptive,
            "params": {k: repr(v) for k, v in sorted(self.params.items())},
            "iterations": self.result.iterations,
            "terminated_early": self.result.terminated_early,
            "stopped_at": dict(self.result.stopped_at),
            "metrics": {k: json_safe(v) for k, v in self.metrics.items()},
            "tolerance": self.tolerance,
            "seconds": self.seconds,
            "cadence": self.result.cadence,
            "faults": config.faults.to_spec() if config.faults else None,
            "rebalance": config.rebalance,
            "recovery_events": [
                event.to_json()
                for event in getattr(self.result, "recovery_events", [])
            ],
            "crosscheck": self.crosscheck,
            "ok": self.ok,
        }

    def replay(self) -> "ScenarioRun":
        """Re-run this run from its embedded config; assert bit-identity.

        The engines are deterministic (pinned by the golden suite), so
        a fresh run from the same :class:`RunConfig` must reproduce the
        report byte-for-byte up to wall-clock noise: the comparison is
        over :func:`replay_fingerprint` — the full ``to_json`` payload
        minus timing fields and the (timing-triggered)
        ``recovery_events`` audit trail.  Raises
        :class:`~repro.errors.ScenarioError` on any divergence and
        returns the fresh :class:`ScenarioRun` otherwise.
        """
        if self.config is None:
            raise ScenarioError("cannot replay: this ScenarioRun carries no RunConfig")
        fresh = run_scenario(self.name, config=self.config)
        mine = replay_fingerprint(self.to_json())
        theirs = replay_fingerprint(fresh.to_json())
        if mine != theirs:
            raise ScenarioError(
                f"replay of scenario {self.name!r} diverged from the "
                "original run; the engines are deterministic, so this "
                "means the code or the environment changed under the "
                "report"
            )
        return fresh


def replay_fingerprint(report: Mapping) -> str:
    """Canonical JSON of a run report minus its non-deterministic fields.

    Drops every key containing ``"seconds"`` (wall-clock noise) and the
    ``recovery_events`` trail (rebalance decisions are triggered by
    measured skew, so a faulted/rebalanced run records different events
    run to run even though its fits are bit-identical).  Everything
    else — fitted metrics, stop iterations, cadence counts, the
    embedded config — must reproduce exactly.
    """

    def strip(value):
        if isinstance(value, Mapping):
            return {
                k: strip(v)
                for k, v in value.items()
                if "seconds" not in k and k != "recovery_events"
            }
        if isinstance(value, (list, tuple)):
            return [strip(v) for v in value]
        return value

    return json.dumps(strip(dict(report)), sort_keys=True, default=str)


def replay_report(report: Mapping) -> "ScenarioRun":
    """Replay a stored report (the JSON alone, no live objects).

    Rebuilds the :class:`RunConfig` embedded under ``"config"``, re-runs
    the scenario, and asserts the fresh report matches the stored one
    via :func:`replay_fingerprint`.  Returns the fresh run.
    """
    if not isinstance(report, Mapping) or "scenario" not in report:
        raise ScenarioError(
            "replay_report expects a ScenarioRun.to_json payload"
        )
    config_json = report.get("config")
    if config_json is None:
        raise ScenarioError(
            f"report schema {report.get('schema', 1)!r} embeds no config; "
            f"only schema {SCHEMA_VERSION} reports are replayable"
        )
    config = RunConfig.from_json(config_json)
    fresh = run_scenario(str(report["scenario"]), config=config)
    if replay_fingerprint(report) != replay_fingerprint(fresh.to_json()):
        raise ScenarioError(
            f"replay of scenario {report['scenario']!r} diverged from "
            "the stored report"
        )
    return fresh


def crosscheck_analyses(
    serial: Sequence[Analysis], distributed: Sequence[Analysis]
) -> Dict[str, object]:
    """Divergence report between two analysis sets trained on one scenario.

    Compares fitted coefficients, intercepts and update counts pairwise
    (the sets come from :meth:`ScenarioSpec.analysis_factory`, so they
    align by construction).  The report carries ``compared`` — how many
    pairs actually had models to compare — so a spec whose analyses
    keep their fit elsewhere cannot sail through as a vacuous
    "max delta 0.0": the runner's ``ok`` requires every pair compared.
    """
    max_delta = 0.0
    updates_match = len(serial) == len(distributed)
    compared = 0
    for left, right in zip(serial, distributed):
        left_model = getattr(left, "model", None)
        right_model = getattr(right, "model", None)
        if left_model is None or right_model is None:
            continue
        compared += 1
        if left_model.is_trained != right_model.is_trained:
            updates_match = False
            continue
        if left_model.is_trained:
            deltas = np.abs(left_model.coefficients - right_model.coefficients)
            max_delta = max(
                max_delta,
                float(deltas.max()),
                abs(float(left_model.intercept - right_model.intercept)),
            )
        left_trainer = getattr(left, "trainer", None)
        right_trainer = getattr(right, "trainer", None)
        if left_trainer is not None and right_trainer is not None:
            both = left_trainer.updates == right_trainer.updates
            updates_match = updates_match and both
    return {
        "max_coefficient_delta": max_delta,
        "updates_match": updates_match,
        "compared": compared,
        "analyses": max(len(serial), len(distributed)),
        "tolerance": DIVERGENCE_TOL,
    }


def _execute_leg(
    spec: ScenarioSpec,
    config: RunConfig,
    merged: Mapping[str, object],
    progress: Optional[Callable[[dict], None]] = None,
):
    """Build the engine ``config`` asks for and run one leg end to end."""
    if config.n_ranks == 1:
        engine = InSituEngine(
            spec.app_factory(**merged),
            policy=spec.policy,
            quorum=spec.quorum,
            cadence=spec.cadence_controller() if config.adaptive else None,
            name=spec.name,
        )
    else:
        engine = DistributedEngine(
            backend=config.backend,
            n_ranks=config.n_ranks,
            app_factory=functools.partial(spec.app_factory, **merged),
            policy=spec.policy,
            quorum=spec.quorum,
            cadence=spec.cadence_controller() if config.adaptive else None,
            faults=config.faults,
            rebalance=config.rebalance,
            name=spec.name,
        )
    analyses = [
        engine.add_analysis(a) for a in spec.analysis_factory(**merged)
    ]
    result = engine.run(
        max_iterations=config.max_iterations, progress=progress
    )
    return engine, analyses, result


def run_scenario(
    name: str,
    config: Optional[RunConfig] = None,
    *,
    progress: Optional[Callable[[dict], None]] = None,
) -> ScenarioRun:
    """Resolve ``name`` and run it end to end (build, run, validate).

    The primary signature is ``run_scenario(name, config=RunConfig(...))``
    — every engine knob lives on the :class:`RunConfig` request object,
    which validates its combination eagerly, serializes to JSON and
    hashes canonically (the serving layer's cache key).  See
    :class:`RunConfig` for the knob semantics; in brief:

    * ``n_ranks == 1`` drives the serial
      :class:`~repro.engine.InSituEngine`; more ranks shard the
      scenario through :class:`~repro.engine.DistributedEngine` on
      ``config.backend``.
    * ``crosscheck`` (default: on for distributed runs) additionally
      runs a fresh **serial** leg built from
      :meth:`RunConfig.crosscheck_config` — the same config with only
      the rank-topology/fault fields overridden — and reports the
      divergence between the two fitted analysis sets; the CI smoke
      matrix fails a scenario whose report exceeds
      :data:`DIVERGENCE_TOL`.
    * ``faults`` / ``rebalance`` inject deterministic failures and
      skew-triggered shard migration into distributed runs; results
      stay bit-identical to serial, with the recovery audit trail in
      ``to_json()['recovery_events']``.

    ``progress`` (keyword-only, not part of the request) streams
    incremental analysis state: it receives a
    :func:`~repro.engine.driver.progress_snapshot` after every
    dispatched iteration of the main leg (never of the cross-check
    leg).  This is the seam ``repro serve`` threads its NDJSON
    subscribers through.
    """
    if config is None:
        config = RunConfig()
    elif not isinstance(config, RunConfig):
        raise ScenarioError(f"config must be a RunConfig, got {type(config).__name__}")

    spec, merged = config.resolve(name)

    start = time.perf_counter()
    engine, analyses, result = _execute_leg(
        spec, config, merged, progress=progress
    )
    seconds = time.perf_counter() - start

    metrics = dict(spec.validator(engine.app, analyses, result, **merged))
    if "error" not in metrics:
        raise ScenarioError(
            f"scenario {name!r}: validator returned no 'error' metric "
            f"(got keys {sorted(metrics)})"
        )

    report: Optional[Dict[str, object]] = None
    if config.want_crosscheck():
        # Both legs run from ONE config: the serial twin differs in
        # exactly CROSSCHECK_OVERRIDES, so a newly added knob is
        # inherited (or the partition regression test fails) and the
        # legs cannot silently diverge.
        _, serial_analyses, serial_result = _execute_leg(
            spec, config.crosscheck_config(), merged
        )
        report = crosscheck_analyses(serial_analyses, analyses)
        report["stops_match"] = serial_result.stopped_at == result.stopped_at
        report["iterations_match"] = serial_result.iterations == result.iterations
        report["ok"] = (
            report["max_coefficient_delta"] <= DIVERGENCE_TOL
            and report["updates_match"]
            and report["stops_match"]
            and report["iterations_match"]
            and report["compared"] == report["analyses"]
        )

    return ScenarioRun(
        name=name,
        config=config,
        params=merged,
        result=result,
        analyses=tuple(analyses),
        metrics=metrics,
        tolerance=spec.tolerance,
        seconds=seconds,
        crosscheck=report,
    )
