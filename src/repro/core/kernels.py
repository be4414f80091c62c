"""Kernel dispatch registry: the data plane's three hottest inner loops.

The vectorized data plane (PR 2) removed the per-sample Python loops,
but every matching iteration still crosses the interpreter a handful of
times: the batch provider gather, the temporal feature-window
construction feeding ``DataCollector._emit_temporal``, Chan's batched
merge in :class:`~repro.core.ar_model.RunningStats`, and the AR model's
mini-batch update / normal-equation solve.  This module puts those
loops behind ONE seam with two interchangeable backends:

``numpy``
    The existing pure-NumPy implementations, moved here verbatim —
    always available, bit-identical to the pre-kernel code (the golden
    driver-parity suite pins this).

``numba``
    Optional ``@njit(cache=True)`` mirrors of the same loops
    (:mod:`repro.core._kernels_numba`), auto-detected at import time
    and JIT-warmed once at backend construction so compilation cost
    never lands inside a timed region.  Tier-1 never requires the
    toolchain: without numba, ``auto`` quietly resolves to ``numpy``
    and only an *explicit* ``kernels="numba"`` request fails (eagerly,
    at engine construction).

Selection: :func:`resolve_kernels` collapses ``"auto"`` to a concrete
backend name, :func:`use` installs a backend process-wide (worker
ranks call it so a distributed run trains every shard on the same
backend), and :func:`activated` scopes a backend to one engine run.
Hot paths fetch the installed backend per call via :func:`active` — a
dict lookup, far below the cost of the loops it dispatches.

Numerical contract: the two backends agree on fitted AR coefficients
within 1e-12 over every registered scenario (``tests/test_kernels.py``
asserts this, serial and 2-rank, whenever numba is importable).  The
compiled loops use straight-line accumulation where NumPy uses pairwise
summation, so agreement is to rounding, not bit-exact — the same
contract the Chan merge already makes with the scalar Welford seed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Canonical backend names (``KERNEL_AUTO`` resolves to one of them).
KERNEL_NUMPY = "numpy"
KERNEL_NUMBA = "numba"
KERNEL_AUTO = "auto"
KERNELS = (KERNEL_NUMPY, KERNEL_NUMBA)

#: Names accepted anywhere a kernel backend is selected
#: (CLI ``--kernels jit``).
KERNEL_ALIASES = {
    KERNEL_AUTO: KERNEL_AUTO,
    KERNEL_NUMPY: KERNEL_NUMPY,
    "np": KERNEL_NUMPY,
    "interpreted": KERNEL_NUMPY,
    KERNEL_NUMBA: KERNEL_NUMBA,
    "jit": KERNEL_NUMBA,
    "compiled": KERNEL_NUMBA,
}

_numba_probe: Optional[bool] = None


def numba_available() -> bool:
    """True when the numba toolchain imports here.

    Probed once and cached; tests reset ``_numba_probe`` to re-probe
    under a monkeypatched import.
    """
    global _numba_probe
    if _numba_probe is None:
        try:
            import numba  # noqa: F401

            _numba_probe = True
        except Exception:
            _numba_probe = False
    return _numba_probe


def resolve_kernels(name: str) -> str:
    """Collapse a kernel-backend request to a concrete backend name.

    ``"auto"`` prefers the compiled backend when numba is importable
    and quietly falls back to ``"numpy"`` otherwise; an *explicit*
    ``"numba"`` request without the toolchain is a
    :class:`~repro.errors.ConfigurationError` — eagerly, so a bad knob
    fails at engine construction, never mid-run.
    """
    canonical = KERNEL_ALIASES.get(name)
    if canonical is None:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; expected one of "
            f"{sorted(set(KERNEL_ALIASES))}"
        )
    if canonical == KERNEL_AUTO:
        return KERNEL_NUMBA if numba_available() else KERNEL_NUMPY
    if canonical == KERNEL_NUMBA and not numba_available():
        raise ConfigurationError(
            "kernels='numba' requested but the numba toolchain is not "
            "importable here; install numba or use kernels='auto' (which "
            "falls back to the pure-NumPy kernels)"
        )
    return canonical


# ----------------------------------------------------------------------
# the numpy backend: the existing hot-loop bodies, verbatim
# ----------------------------------------------------------------------


def _np_gather(values: np.ndarray, locations: np.ndarray) -> np.ndarray:
    """Batch provider gather: one fancy-index read per window sweep."""
    return values[locations]


def _np_temporal_features(
    matrix: np.ndarray, anchor: int, order: int
) -> np.ndarray:
    """Feature windows for ``DataCollector._emit_temporal``.

    Rows ``anchor-order+1 .. anchor`` of the (iterations x locations)
    series matrix, most-recent-first, one feature row per location.
    The NumPy variant is a zero-copy strided view — the mini-batch
    buffer copies out of it; the compiled variant materialises the
    same values contiguously.
    """
    window = matrix[anchor - order + 1: anchor + 1]
    return window[::-1].T


def _np_chan_update(
    mean: np.ndarray, m2: np.ndarray, count: int, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Chan's parallel merge of a row block into a (mean, M2) aggregate."""
    k = rows.shape[0]
    if k == 0:
        return mean, m2, count
    block_mean = rows.mean(axis=0)
    centered = rows - block_mean
    block_m2 = np.einsum("ij,ij->j", centered, centered)
    delta = block_mean - mean
    total = count + k
    mean = mean + delta * (k / total)
    m2 = m2 + block_m2 + delta * delta * (count * k / total)
    return mean, m2, total


def _np_std(mean: np.ndarray, m2: np.ndarray, count: int) -> np.ndarray:
    """Running std with the mean-relative floor of ``RunningStats.std``."""
    if count < 2:
        return np.ones(mean.shape[0], dtype=np.float64)
    std = np.sqrt(m2 / (count - 1))
    floor = 1e-3 * np.abs(mean) + 1e-12
    std = np.maximum(std, floor)
    return np.where(std > 1e-12, std, 1.0)


def _np_ar_batch_update(
    x: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    b: float,
    prior: np.ndarray,
    x_mean: np.ndarray,
    x_m2: np.ndarray,
    x_count: int,
    y_mean: np.ndarray,
    y_m2: np.ndarray,
    y_count: int,
    learning_rate: float,
    epochs: int,
    l2: float,
    clip: float,
    max_coefficient_sum: float,
) -> tuple:
    """One AR mini-batch update: fold stats, standardise, GD epochs.

    The fused body of ``ARModel.partial_fit`` on plain arrays: the
    normalisation statistics are folded in before the gradient steps,
    each step is clipped by norm and projected back onto the
    stationarity bound (``max_coefficient_sum <= 0`` disables the
    projection).  Returns ``(w, b, pre_mse, x_mean, x_m2, x_count,
    y_mean, y_m2, y_count)``; the caller writes the stats back into its
    :class:`~repro.core.ar_model.RunningStats` aggregates.
    """
    x_mean, x_m2, x_count = _np_chan_update(x_mean, x_m2, x_count, x)
    y_mean, y_m2, y_count = _np_chan_update(
        y_mean, y_m2, y_count, y.reshape(-1, 1)
    )
    x_std = _np_std(x_mean, x_m2, x_count)
    y_std = _np_std(y_mean, y_m2, y_count)

    xs = (x - x_mean) / x_std
    ys = (y - y_mean[0]) / y_std[0]

    w = w.copy()
    pre_residual = xs @ w + b - ys
    pre_mse = float(np.mean(pre_residual**2))

    k = xs.shape[0]
    for _ in range(epochs):
        residual = xs @ w + b - ys
        grad_w = 2.0 * (xs.T @ residual) / k + 2.0 * l2 * (w - prior)
        grad_b = 2.0 * float(np.mean(residual))
        norm = float(np.sqrt(np.dot(grad_w, grad_w) + grad_b * grad_b))
        if norm > clip:
            scale = clip / norm
            grad_w = grad_w * scale
            grad_b = grad_b * scale
        w -= learning_rate * grad_w
        b -= learning_rate * grad_b
        if max_coefficient_sum > 0.0:
            scale = float(y_std[0]) / x_std
            total = float(np.sum(w * scale))
            if total > max_coefficient_sum:
                prior_total = float(np.sum(prior * scale))
                deviation_total = total - prior_total
                if (
                    deviation_total <= 0.0
                    or prior_total >= max_coefficient_sum
                ):
                    w *= max_coefficient_sum / total
                else:
                    shrink = (
                        max_coefficient_sum - prior_total
                    ) / deviation_total
                    w = prior + shrink * (w - prior)

    return w, float(b), pre_mse, x_mean, x_m2, x_count, y_mean, y_m2, y_count


def _np_normal_solve(
    xs: np.ndarray, ys: np.ndarray, prior: np.ndarray, l2: float
) -> np.ndarray:
    """Normal-equation accumulation + ridge solve of ``ARModel.fit_exact``.

    Builds the Gram matrix of the intercept-augmented design and solves
    the (ridge-regularised, prior-shrunk) system; returns the
    ``order+1`` coefficient vector with the intercept first.
    """
    order = xs.shape[1]
    design = np.hstack([np.ones((xs.shape[0], 1)), xs])
    gram = design.T @ design
    rhs = design.T @ ys
    if l2 > 0:
        penalty = l2 * np.eye(order + 1)
        penalty[0, 0] = 0.0
        gram = gram + penalty
        rhs = rhs + l2 * np.concatenate([[0.0], prior])
    coef, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    return np.asarray(coef, dtype=np.float64)


# ----------------------------------------------------------------------
# the backend object and the registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KernelBackend:
    """One resolved set of hot-loop implementations.

    ``warmup_seconds`` is the one-time JIT compilation cost paid at
    construction (zero for the interpreted backend); benchmarks report
    it instead of letting it pollute timed regions.
    """

    name: str
    gather: Callable[[np.ndarray, np.ndarray], np.ndarray]
    temporal_features: Callable[[np.ndarray, int, int], np.ndarray]
    chan_update: Callable[
        [np.ndarray, np.ndarray, int, np.ndarray],
        Tuple[np.ndarray, np.ndarray, int],
    ]
    ar_batch_update: Callable[..., tuple]
    normal_solve: Callable[
        [np.ndarray, np.ndarray, np.ndarray, float], np.ndarray
    ]
    warmup_seconds: float = field(default=0.0, compare=False)


_NUMPY_BACKEND = KernelBackend(
    name=KERNEL_NUMPY,
    gather=_np_gather,
    temporal_features=_np_temporal_features,
    chan_update=_np_chan_update,
    ar_batch_update=_np_ar_batch_update,
    normal_solve=_np_normal_solve,
)

_backends: Dict[str, KernelBackend] = {KERNEL_NUMPY: _NUMPY_BACKEND}


def _build_numba_backend() -> KernelBackend:
    """Import the compiled module and JIT-warm every kernel once.

    The warmup calls run each ``@njit(cache=True)`` function on tiny
    inputs so compilation (or the cache load) happens here — at
    backend construction, i.e. engine construction time — and never
    inside a timed region.  A numba backend that survives construction
    is fully compiled.
    """
    from repro.core import _kernels_numba as nb

    tick = time.perf_counter()
    values = np.arange(4, dtype=np.float64)
    locations = np.array([2, 0], dtype=np.int64)
    nb.gather(values, locations)
    matrix = np.arange(8, dtype=np.float64).reshape(4, 2)
    nb.temporal_features(matrix, 2, 2)
    mean = np.zeros(2)
    m2 = np.zeros(2)
    nb.chan_update(mean, m2, 0, matrix)
    w = np.array([1.0, 0.0])
    prior = np.array([1.0, 0.0])
    nb.ar_batch_update(
        matrix,
        np.arange(4, dtype=np.float64),
        w,
        0.0,
        prior,
        mean.copy(),
        m2.copy(),
        0,
        np.zeros(1),
        np.zeros(1),
        0,
        0.05,
        2,
        0.0,
        10.0,
        1.05,
    )
    nb.normal_solve(
        matrix, np.arange(4, dtype=np.float64), prior, 0.1
    )
    warmup = time.perf_counter() - tick
    return KernelBackend(
        name=KERNEL_NUMBA,
        gather=nb.gather,
        temporal_features=nb.temporal_features,
        chan_update=nb.chan_update,
        ar_batch_update=nb.ar_batch_update,
        normal_solve=nb.normal_solve,
        warmup_seconds=warmup,
    )


def get_backend(name: str = KERNEL_AUTO) -> KernelBackend:
    """Resolve ``name`` and return the (cached) backend object."""
    concrete = resolve_kernels(name)
    backend = _backends.get(concrete)
    if backend is None:
        backend = _build_numba_backend()
        _backends[concrete] = backend
    return backend


# The process-wide installed backend.  Defaults to the interpreted
# kernels: "auto" upgrades to numba only where a knob asked for it
# (engine construction, CLI, benchmarks), so importing numba into an
# environment never silently changes the numerics of code that did not
# opt in.
_active: KernelBackend = _NUMPY_BACKEND


def active() -> KernelBackend:
    """The currently installed backend (what the hot paths dispatch to)."""
    return _active


def use(name: str = KERNEL_AUTO) -> KernelBackend:
    """Resolve and install a backend process-wide; returns it.

    Worker ranks call this with the task's resolved backend name so a
    distributed run trains every shard on the same kernels as the
    parent.
    """
    global _active
    _active = get_backend(name)
    return _active


@contextmanager
def activated(name: str):
    """Scope a kernel backend to a ``with`` block, restoring on exit.

    The engine driver wraps each ``run()`` in this so two engines with
    different ``kernels=`` knobs can coexist in one process (the
    scenario runner's serial-vs-distributed cross-check legs, the
    parity tests' back-to-back runs).
    """
    global _active
    previous = _active
    _active = get_backend(name)
    try:
        yield _active
    finally:
        _active = previous
