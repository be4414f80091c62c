"""Variable providers: how the collector reads diagnostic variables.

The paper's ``td_var_provider`` is a user function mapping ``(domain,
location)`` to a scalar value of the diagnostic variable (e.g. the x
velocity of a LULESH node).  Any Python callable with that signature
works; this module adds small adapters for common cases.

Batch protocol
--------------
A provider *may* additionally expose a ``batch`` attribute::

    provider.batch(domain, locations: np.ndarray) -> np.ndarray

returning the variable at every location of the (1-D integer) window in
one call.  The collector's hot path samples its whole spatial window
through :func:`batch_sample`, which uses ``batch`` when present and
falls back to one scalar call per location otherwise — so legacy
providers keep working unchanged, they just pay a Python call per
location.

Implement ``batch`` whenever the underlying data is already an array:
a fancy-index gather (``values[locations]``) replaces ``len(window)``
interpreter round-trips, which is the difference between O(window)
Python overhead and O(1) per collected iteration.  All adapters in this
module ship batch paths; :func:`batched` bolts a loop-based ``batch``
onto any legacy scalar provider.

Wrappers that decorate another provider (``checked``, ``batched``) set
``__wrapped__`` to the wrapped callable so the shared-collection layer
can group analyses by the *underlying* provider identity (see
:func:`provider_key`).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.core import kernels
from repro.errors import CollectionError, ConfigurationError

ProviderFn = Callable[[object, int], float]

#: Signature of the optional ``provider.batch`` attribute.
BatchFn = Callable[[object, np.ndarray], np.ndarray]


class VariableProvider(Protocol):
    """Protocol for variable providers: ``provider(domain, location)``."""

    def __call__(self, domain: object, location: int) -> float: ...


def batch_sample(
    provider: ProviderFn, domain: object, locations: np.ndarray
) -> np.ndarray:
    """Sample ``provider`` at every location of the window in one call.

    Uses the provider's vectorized ``batch`` attribute when it has one;
    otherwise falls back to one scalar call per location.  Always
    returns a fresh float64 array of ``locations.shape``.
    """
    locations = np.asarray(locations, dtype=np.int64)
    batch = getattr(provider, "batch", None)
    if batch is None:
        return np.array(
            [float(provider(domain, int(loc))) for loc in locations],
            dtype=np.float64,
        )
    values = np.asarray(batch(domain, locations), dtype=np.float64)
    if values.shape != locations.shape:
        raise CollectionError(
            f"batch provider returned shape {values.shape} for "
            f"{locations.shape[0]} locations"
        )
    return values


class ShardView:
    """A provider restricted to one rank's block of a spatial window.

    The rank-local sampling unit of the distributed runtime: rank ``r``
    holds a :class:`ShardView` over its slice of each declared window
    and gathers *only those locations* from the domain each matching
    iteration — the per-rank work that shrinks as ranks are added.  The
    view carries ``__wrapped__`` so shared-collection grouping still
    recognises the underlying provider, and it is picklable whenever
    the wrapped provider is (the multiprocessing backend ships one per
    worker).

    An empty shard (a rank owning no locations) is legal and samples to
    a ``(0,)`` array, so reductions can treat every rank uniformly.
    """

    def __init__(self, provider: ProviderFn, locations) -> None:
        self.provider = provider
        self.locations = np.asarray(locations, dtype=np.int64)
        if self.locations.ndim != 1:
            raise CollectionError(
                f"shard locations must be 1-D, got shape "
                f"{self.locations.shape}"
            )
        self.__wrapped__ = provider

    @property
    def n_locations(self) -> int:
        return int(self.locations.shape[0])

    def __call__(self, domain: object, location: int) -> float:
        return float(self.provider(domain, int(location)))

    def sample(self, domain: object) -> np.ndarray:
        """Gather the shard's locations from ``domain`` in one call."""
        return batch_sample(self.provider, domain, self.locations)


def provider_key(provider: ProviderFn) -> object:
    """Identity used to group analyses reading through one provider.

    Unwraps ``__wrapped__`` chains so ``checked(p)`` and ``batched(p)``
    group with a bare ``p`` — the wrappers change *how* the value is
    read, not *which* value, so their subscribers can share one sweep.
    """
    seen = set()
    while True:
        inner = getattr(provider, "__wrapped__", None)
        if inner is None or id(inner) in seen:
            return provider
        seen.add(id(provider))
        provider = inner


def batched(provider: ProviderFn, batch: "BatchFn | None" = None) -> ProviderFn:
    """Adapt a legacy scalar provider to the batch protocol.

    With ``batch`` given, attaches it as the vectorized path; without,
    attaches :func:`batch_sample` over the wrapped provider — which
    still uses the provider's own ``batch`` when it has one, and only
    then falls back to a loop over the scalar calls.  The original
    callable is untouched — a wrapper carrying ``__wrapped__`` is
    returned, so shared-collection grouping still recognises the
    underlying provider.
    """

    def _scalar(domain: object, location: int) -> float:
        return float(provider(domain, location))

    if batch is None:
        def batch(domain: object, locations: np.ndarray) -> np.ndarray:
            return batch_sample(provider, domain, locations)

    _scalar.batch = batch
    _scalar.__wrapped__ = provider
    return _scalar


def checked(provider: ProviderFn, name: str = "provider") -> ProviderFn:
    """Wrap ``provider`` so non-finite values raise :class:`CollectionError`.

    A NaN escaping from a diverging simulation would otherwise silently
    corrupt the running normalisation statistics of the AR trainer.
    The wrapper preserves the batch protocol: the vectorized path is
    validated with one ``isfinite`` reduction instead of per-value
    checks.
    """

    def _checked(domain: object, location: int) -> float:
        value = float(provider(domain, location))
        if not math.isfinite(value):
            raise CollectionError(
                f"{name} returned non-finite value {value!r} at "
                f"location {location}"
            )
        return value

    def _checked_batch(domain: object, locations: np.ndarray) -> np.ndarray:
        values = batch_sample(provider, domain, locations)
        finite = np.isfinite(values)
        if not finite.all():
            bad = int(np.asarray(locations)[~finite][0])
            raise CollectionError(
                f"{name} returned non-finite value at location {bad}"
            )
        return values

    _checked.batch = _checked_batch
    _checked.__wrapped__ = provider
    return _checked


def array_provider(values: Sequence[float]) -> ProviderFn:
    """Provider reading from a per-location array attribute-free source.

    Useful for tests and for simulations whose state is a plain array:
    the ``domain`` argument is ignored, ``location`` indexes ``values``.
    The batch path is a single fancy-index gather over ``values``.
    """

    def _provider(domain: object, location: int) -> float:
        return float(values[location])

    def _batch(domain: object, locations: np.ndarray) -> np.ndarray:
        return kernels.gather(
            np.asarray(values, dtype=np.float64), locations
        )

    _provider.batch = _batch
    return _provider


def attribute_provider(attribute: str) -> ProviderFn:
    """Provider reading ``getattr(domain, attribute)[location]``.

    Mirrors the LULESH example in the paper, where the provider body is
    ``locDom->xd(loc)``: the domain object owns a per-location array and
    the provider simply indexes it.  The batch path gathers the whole
    window from that array in one numpy indexing call.
    """

    def _provider(domain: object, location: int) -> float:
        return float(getattr(domain, attribute)[location])

    def _batch(domain: object, locations: np.ndarray) -> np.ndarray:
        return kernels.gather(
            np.asarray(getattr(domain, attribute), dtype=np.float64),
            locations,
        )

    _provider.batch = _batch
    return _provider


class HarmonicProvider:
    """Synthetic *expensive* per-location provider for scaling studies.

    Reads ``domain.row[location]`` (the replay-domain convention) and
    refines each value with an ``n_harmonics``-term sine sum, so a
    gather costs work proportional to the number of locations sampled
    — the profile that lets a rank decomposition divide sampling time.
    The refinement is location-local, which makes shard gathers
    bit-identical to full-window sweeps; instances are picklable, so
    the multiprocessing backend can ship them to worker ranks.  Used by
    ``benchmarks/perf_distributed.py`` and the scaling cross-check.
    """

    def __init__(self, n_harmonics: int = 256) -> None:
        if n_harmonics <= 0:
            raise ConfigurationError(
                f"n_harmonics must be positive, got {n_harmonics}"
            )
        self.harmonics = np.arange(1.0, float(n_harmonics) + 1.0)

    def transform(self, values) -> np.ndarray:
        x = np.atleast_1d(np.asarray(values, dtype=np.float64))
        if x.size == 0:
            return x.copy()
        phases = np.sin(x[:, None] * self.harmonics[None, :])
        return x + phases.sum(axis=1) / self.harmonics.shape[0]

    def __call__(self, domain: object, location: int) -> float:
        return float(self.transform(domain.row[int(location)])[0])

    def batch(self, domain: object, locations: np.ndarray) -> np.ndarray:
        return self.transform(
            domain.row[np.asarray(locations, dtype=np.int64)]
        )


def _scalar(attribute: str, domain: object, location: int) -> float:
    return float(getattr(domain, attribute))


def _scalar_batch(attribute: str, domain: object, locations: np.ndarray) -> np.ndarray:
    return np.full(
        np.asarray(locations).shape,
        float(getattr(domain, attribute)),
        dtype=np.float64,
    )


def scalar_provider(attribute: str) -> ProviderFn:
    """Provider reading a domain-global scalar, ignoring the location.

    The wdmerger diagnostics (total mass, total energy, ...) are
    domain-global reductions rather than per-location values; spatial
    windows over them use a single location 0.  The batch path reads
    the attribute once and broadcasts it over the window.  Both paths
    are module-level functions bound with :func:`functools.partial`,
    so the provider pickles and the multiprocessing backend can ship
    it to worker ranks.
    """
    provider = functools.partial(_scalar, attribute)
    provider.batch = functools.partial(_scalar_batch, attribute)
    return provider
