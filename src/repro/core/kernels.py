"""The data plane's hot inner loops, one NumPy implementation each.

The vectorized data plane removed the per-sample Python loops, but
every matching iteration still crosses the interpreter a handful of
times: the batch provider gather, the temporal feature-window
construction feeding ``DataCollector._emit_temporal``, Chan's batched
merge in :class:`~repro.core.ar_model.RunningStats`, and the AR model's
mini-batch update / normal-equation solve.  Those loops live here as
plain functions that :mod:`repro.core.providers`,
:mod:`repro.core.collector` and :mod:`repro.core.ar_model` call
directly; the golden driver-parity suite pins their numerics.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError


def resolve_kernels(name: str) -> str:
    """Name the hot-loop implementation a run uses: always ``"numpy"``.

    ``"auto"`` and ``"numpy"`` resolve to ``"numpy"``; any other name
    is a :class:`~repro.errors.ConfigurationError`.
    """
    if name not in ("auto", "numpy"):
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; expected 'auto' or 'numpy'"
        )
    return "numpy"


def gather(values: np.ndarray, locations: np.ndarray) -> np.ndarray:
    """Batch provider gather: one fancy-index read per window sweep."""
    return values[locations]


def temporal_features(
    matrix: np.ndarray, anchor: int, order: int
) -> np.ndarray:
    """Feature windows for ``DataCollector._emit_temporal``.

    Rows ``anchor-order+1 .. anchor`` of the (iterations x locations)
    series matrix, most-recent-first, one feature row per location.
    A zero-copy strided view — the mini-batch buffer copies out of it.
    """
    window = matrix[anchor - order + 1: anchor + 1]
    return window[::-1].T


def chan_update(
    mean: np.ndarray, m2: np.ndarray, count: int, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Chan's parallel merge of a row block into a (mean, M2) aggregate."""
    k = rows.shape[0]
    if k == 0:
        return mean, m2, count
    block_mean = np.add.reduce(rows, axis=0) / k
    centered = rows - block_mean
    block_m2 = np.einsum("ij,ij->j", centered, centered)
    delta = block_mean - mean
    total = count + k
    mean = mean + delta * (k / total)
    m2 = m2 + block_m2 + delta * delta * (count * k / total)
    return mean, m2, total


def std(mean: np.ndarray, m2: np.ndarray, count: int) -> np.ndarray:
    """Running std with the mean-relative floor of ``RunningStats.std``."""
    if count < 2:
        return np.ones(mean.shape[0], dtype=np.float64)
    std = np.sqrt(m2 / (count - 1))
    floor = 1e-3 * np.abs(mean) + 1e-12
    std = np.maximum(std, floor)
    return np.where(std > 1e-12, std, 1.0)


def ar_batch_update(
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
    x_mean, x_m2, x_count = chan_update(x_mean, x_m2, x_count, x)
    y_mean, y_m2, y_count = chan_update(
        y_mean, y_m2, y_count, y.reshape(-1, 1)
    )
    x_std = std(x_mean, x_m2, x_count)
    y_std = std(y_mean, y_m2, y_count)

    xs = (x - x_mean) / x_std
    ys = (y - y_mean[0]) / y_std[0]

    # At order 3 an epoch is a dozen operations on 3- and k-element
    # arrays, so its cost is per-call overhead, not arithmetic.  The
    # body computes the straight-line reference in tests/test_kernels.py
    # with fewer or cheaper calls and the same bits:
    # - ndarray.dot reaches the same BLAS routines as ``@``;
    # - ``v / (k * 0.5)`` is ``2.0 * v / k``: doubling is exact and
    #   ``k * 0.5`` is representable, so both round 2v/k once;
    # - np.add.reduce is the reduction ``.sum()`` and ``.mean()`` run;
    # - the first epoch's residual is the pre-update one;
    # - the ridge term is skipped when l2 is zero: it is then a signed
    #   zero, so adding it changes at most the sign of a zero gradient
    #   entry, which ``w -= learning_rate * grad_w`` cannot carry into
    #   a w that holds no -0.0.
    k = xs.shape[0]
    half_k = k * 0.5
    ridge = 2.0 * l2
    xs_t = xs.T
    w = w.copy()
    residual = xs.dot(w) + b - ys
    pre_mse = float(np.add.reduce(residual * residual)) / k

    # The projection sums the coefficients in the original data scale,
    # where a growth-locked fit's amplification lives, and where it can
    # shrinks their deviation from the persistence prior: scaling the
    # whole vector would erode the persistence weight into a lagging
    # moving average.
    project = max_coefficient_sum > 0.0
    if project:
        proj_scale = float(y_std[0]) / x_std
        prior_total = float(np.add.reduce(prior * proj_scale))
    for epoch in range(epochs):
        if epoch:
            residual = xs.dot(w) + b - ys
        grad_w = xs_t.dot(residual) / half_k
        if l2:
            grad_w += ridge * (w - prior)
        grad_b = 2.0 * (float(np.add.reduce(residual)) / k)
        norm = math.sqrt(grad_w.dot(grad_w) + grad_b * grad_b)
        if norm > clip:
            scale = clip / norm
            grad_w *= scale
            grad_b = grad_b * scale
        w -= learning_rate * grad_w
        b -= learning_rate * grad_b
        if project:
            total = float(np.add.reduce(w * proj_scale))
            if total > max_coefficient_sum:
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


def normal_solve(
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
