"""Linear auto-regressive model trained with mini-batch gradient descent.

The paper's model is

    V(l, t) = b0 + b1*V(l-1, t-lag) + ... + bn*V(l-n, t-lag) + eps

i.e. an order-``n`` linear regression over the ``n`` preceding values of
the diagnostic variable along a chosen axis (space or time), with a
temporal ``lag`` between the predictors and the target.  Training uses
plain gradient descent on mean-squared error, one step per mini-batch,
so the cost added to each simulation iteration is a handful of numpy
operations.

Two practical details matter for a *streaming* setting and are part of
this implementation:

* **Running normalisation.**  Hydrodynamics variables vary over orders
  of magnitude during a run; raw GD on them diverges or crawls.  The
  model keeps Welford-style running mean/variance of features and
  targets and performs GD in standardised space, unscaling on
  prediction.  This keeps a single fixed learning rate stable across
  LULESH velocities and wdmerger energies alike.
* **Gradient clipping.**  A shock arriving in a mini-batch can produce a
  transiently enormous gradient; clipping the per-step update keeps the
  coefficients finite without tuning per-variable learning rates.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core import kernels
from repro.errors import ConfigurationError, NotTrainedError


class RunningStats:
    """Welford running mean/variance over vectors of fixed width."""

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise ConfigurationError(f"width must be positive, got {width}")
        self.width = width
        self.count = 0
        self._mean = np.zeros(width, dtype=np.float64)
        self._m2 = np.zeros(width, dtype=np.float64)
        self._std_cache: "np.ndarray | None" = None

    def update(self, rows: np.ndarray) -> None:
        """Fold a block of rows (shape ``(k, width)``) into the stats.

        Uses Chan's parallel merge: the block's own mean/M2 are computed
        vectorized and merged with the running aggregate in O(width),
        instead of the per-row Welford recurrence (a Python loop over
        the block).  Numerically this matches the scalar recurrence to
        machine rounding — the regression tests pin coefficients of the
        two variants within 1e-9.  The merge itself is
        :func:`repro.core.kernels.chan_update`.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        self._assign(*kernels.chan_update(self._mean, self._m2, self.count, rows))

    def _assign(self, mean: np.ndarray, m2: np.ndarray, count: int) -> None:
        """Replace the aggregate, and the std cached from it."""
        self._mean, self._m2, self.count = mean, m2, int(count)
        self._std_cache = None

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Fold another partial aggregate into this one (Chan's merge).

        This is the rank-reduction counterpart of :meth:`update`: two
        aggregates built over disjoint sample sets combine into the
        aggregate of their union, in O(width), without revisiting any
        sample.  Merging an empty partial is the identity; merging into
        an empty aggregate copies the other side.  Returns ``self`` so
        reductions can fold left.
        """
        if not isinstance(other, RunningStats):
            raise ConfigurationError(
                f"can only merge RunningStats, got {type(other).__name__}"
            )
        if other.width != self.width:
            raise ConfigurationError(
                f"width mismatch: {self.width} vs {other.width}"
            )
        if other.count == 0:
            return self
        if self.count == 0:
            self._assign(other._mean.copy(), other._m2.copy(), other.count)
        else:
            self._assign(*kernels.chan_merge(
                self._mean, self._m2, self.count,
                other._mean, other._m2, other.count,
            ))
        return self

    @classmethod
    def merged(cls, parts: "Sequence[RunningStats]") -> "RunningStats":
        """Reduce a sequence of partial aggregates, left to right.

        The distributed runtime merges per-rank partials in rank order;
        Chan's merge is associative to rounding, so any bracketing
        agrees within ~1e-12 (pinned by the regression tests).
        """
        parts = list(parts)
        if not parts:
            raise ConfigurationError("need at least one partial to merge")
        out = cls(parts[0].width)
        for part in parts:
            out.merge(part)
        return out

    @property
    def mean(self) -> np.ndarray:
        return self._mean.copy()

    @property
    def std(self) -> np.ndarray:
        """Running standard deviation with a mean-relative floor.

        The floor (0.1% of the running |mean|) prevents a pathological
        amplification: standardising a near-constant series by its
        machine-noise std would turn that noise into unit-variance
        "signal" and let gradient descent destroy the persistence
        initialisation on data that carries no information.
        """
        if self._std_cache is None:
            self._std_cache = kernels.std(self._mean, self._m2, self.count)
        return self._std_cache


class ARModel:
    """Order-``n`` linear auto-regressive model with streaming training.

    Parameters
    ----------
    order:
        Number of past values used as predictors (``n`` in the paper).
    lag:
        Temporal lag, in iterations, between predictors and target.  The
        lag is *not* used inside the regression itself — it tells the
        data collector how to pair samples and a :class:`Forecast` how
        far back its predictors sit — but it is stored with the model
        that was trained on it.
    learning_rate:
        Gradient-descent step size in standardised space.
    epochs_per_batch:
        Number of GD passes over each mini-batch.  The paper performs
        the update "within the current iteration"; a handful of passes
        keeps that property while converging noticeably faster.
    l2:
        Optional ridge penalty shrinking the coefficients toward the
        *persistence prior* (weight 1 on the nearest predecessor, 0
        elsewhere) rather than toward zero — for smooth physical series
        persistence is the natural null model, and shrinking toward it
        damps the coefficient blow-ups a short exponential-growth
        window would otherwise cause.
    clip:
        Maximum L2 norm of a single gradient step.
    max_coefficient_sum:
        Stationarity projection bound: after each update, if the
        coefficients sum past this value they are rescaled onto it.  A
        coefficient sum above 1 makes the AR recursion explosive; a
        short window of clean exponential growth (e.g. a pre-ignition
        heating curve) would otherwise lock the model into projecting
        that growth onto regimes 50x larger.  Set to ``None`` to
        disable.
    seed:
        Seed for the coefficient initialisation.
    """

    def __init__(
        self,
        order: int,
        *,
        lag: int = 1,
        learning_rate: float = 0.05,
        epochs_per_batch: int = 8,
        l2: float = 0.0,
        clip: float = 10.0,
        max_coefficient_sum: Optional[float] = 1.05,
        seed: int = 0,
    ) -> None:
        # Every check fails on NaN.  A NaN learning rate or l2 would
        # leave each coefficient NaN, and a NaN clip or coefficient-sum
        # bound would turn clipping or the projection off, all silently.
        if not order > 0:
            raise ConfigurationError(f"order must be positive, got {order}")
        if not lag > 0:
            raise ConfigurationError(f"lag must be positive, got {lag}")
        if not 0 < learning_rate < np.inf:
            raise ConfigurationError(
                f"learning_rate must be positive and finite, got {learning_rate}"
            )
        if not epochs_per_batch > 0:
            raise ConfigurationError(
                f"epochs_per_batch must be positive, got {epochs_per_batch}"
            )
        if not 0 <= l2 < np.inf:
            raise ConfigurationError(f"l2 must be finite and >= 0, got {l2}")
        if not clip > 0:
            raise ConfigurationError(f"clip must be positive, got {clip}")
        if max_coefficient_sum is not None and not max_coefficient_sum > 0:
            raise ConfigurationError(
                "max_coefficient_sum must be positive or None, got "
                f"{max_coefficient_sum}"
            )
        self.order = order
        self.lag = lag
        self.learning_rate = learning_rate
        self.epochs_per_batch = epochs_per_batch
        self.l2 = l2
        self.clip = clip
        self.max_coefficient_sum = max_coefficient_sum
        rng = np.random.default_rng(seed)
        # Persistence initialisation: start at "predict the nearest
        # predecessor" (weight 1 on feature 0, in standardised space).
        # For smooth physical series this is already a strong model, so
        # mini-batches refine a good solution instead of climbing out
        # of a random one — and when a training window carries no
        # variance (a flat pre-event diagnostic) the model stays at
        # persistence rather than collapsing to the window mean.
        self._w = rng.normal(0.0, 1e-3, size=order)
        self._w[0] += 1.0
        self._b = 0.0
        self._prior = np.zeros(order)
        self._prior[0] = 1.0
        self._x_stats = RunningStats(order)
        self._y_stats = RunningStats(1)
        self._updates = 0
        # Original-scale (coefficients, intercept), until a write clears it.
        self._scaled: "tuple[np.ndarray, float] | None" = None

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------

    @property
    def updates(self) -> int:
        """Number of completed mini-batch updates."""
        return self._updates

    @property
    def x_stats(self) -> RunningStats:
        """The feature normalisation aggregate (mergeable partial state).

        Exposed so distributed reductions can fold per-rank partials via
        :meth:`RunningStats.merge` into an aggregate of their own; the
        model's copy changes only in its training methods, which also
        refresh the memoised :attr:`coefficients`.
        """
        return self._x_stats

    @property
    def y_stats(self) -> RunningStats:
        """The target normalisation aggregate (mergeable partial state)."""
        return self._y_stats

    @property
    def is_trained(self) -> bool:
        return self._updates > 0

    @property
    def coefficients(self) -> np.ndarray:
        """Trained coefficients ``b1..bn`` in the *original* data scale
        (read-only: the array is reused until the model next changes)."""
        return self._original_scale()[0]

    @property
    def intercept(self) -> float:
        """Trained intercept ``b0`` in the original data scale."""
        return self._original_scale()[1]

    def _original_scale(self) -> "tuple[np.ndarray, float]":
        if self._scaled is None:
            self._require_trained()
            y_std = float(self._y_stats.std[0])
            coef = self._w * (y_std / self._x_stats.std)
            coef.flags.writeable = False
            intercept = float(self._y_stats.mean[0]) + y_std * self._b - float(
                np.dot(coef, self._x_stats.mean)
            )
            self._scaled = (coef, intercept)
        return self._scaled

    def partial_fit(self, x: np.ndarray, y: np.ndarray) -> float:
        """One mini-batch update; returns the pre-update batch MSE.

        ``x`` has shape ``(k, order)`` and ``y`` shape ``(k,)``.  The
        running normalisation statistics are folded in *before* the
        gradient step so the very first batch already trains in a sane
        scale.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.ravel(np.asarray(y, dtype=np.float64))
        if x.shape[1] != self.order:
            raise ConfigurationError(
                f"expected {self.order} features, got {x.shape[1]}"
            )
        if x.shape[0] != y.shape[0]:
            raise ConfigurationError(
                f"feature/target count mismatch: {x.shape[0]} vs {y.shape[0]}"
            )
        if x.shape[0] == 0:
            raise ConfigurationError("cannot update on an empty batch")
        # The whole update — stats fold, standardisation, GD epochs with
        # clipping and the stationarity projection — is one fused call
        # to kernels.ar_batch_update; the stats aggregates (x's, then
        # y's) are written back so merge/serialisation semantics are
        # unchanged.
        self._w, self._b, pre_mse, *stats = kernels.ar_batch_update(
            x,
            y,
            self._w,
            self._b,
            self._prior,
            self._x_stats._mean,
            self._x_stats._m2,
            self._x_stats.count,
            self._y_stats._mean,
            self._y_stats._m2,
            self._y_stats.count,
            self.learning_rate,
            self.epochs_per_batch,
            self.l2,
            self.clip,
            -1.0 if self.max_coefficient_sum is None
            else self.max_coefficient_sum,
        )
        self._x_stats._assign(*stats[:3])
        self._y_stats._assign(*stats[3:])
        self._scaled = None

        self._updates += 1
        return float(pre_mse)

    def fit_exact(self, x: np.ndarray, y: np.ndarray) -> float:
        """Closed-form least-squares fit (ablation baseline).

        Replaces the streaming coefficients with the exact ridge
        solution over the given block and returns its MSE.  Used by the
        ablation benchmark comparing GD against exact fitting.
        """
        # C order, as in predict_many: bits can depend on memory order.
        x = np.ascontiguousarray(np.atleast_2d(x), dtype=np.float64)
        y = np.ravel(np.asarray(y, dtype=np.float64))
        self._x_stats = RunningStats(self.order)
        self._y_stats = RunningStats(1)
        self._x_stats.update(x)
        self._y_stats.update(y.reshape(-1, 1))
        xs = (x - self._x_stats.mean) / self._x_stats.std
        ys = (y - self._y_stats.mean[0]) / self._y_stats.std[0]
        # Normal-equation accumulation + ridge solve.
        coef = kernels.normal_solve(xs, ys, self._prior, self.l2)
        self._b = float(coef[0])
        self._w = np.asarray(coef[1:], dtype=np.float64)
        self._scaled = None
        self._updates += 1
        residual = xs @ self._w + self._b - ys
        return float(np.mean(residual**2))

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------

    def predict(self, past: Sequence[float]) -> float:
        """Predict ``V(l, t)`` from its ``order`` predecessors.

        ``past[0]`` is ``V(l-1, ·)`` — the most recent predecessor —
        matching the coefficient layout of the paper's equation.  A
        one-row :meth:`predict_many`.
        """
        return float(self.predict_many(np.reshape(past, (1, -1)))[0])

    def predict_many(self, past: np.ndarray) -> np.ndarray:
        """:meth:`predict` for every row of ``past``, copied to C order
        first: a matvec's bits can depend on its input's memory order
        (and on its row count, which callers keep)."""
        self._require_trained()
        rows = np.ascontiguousarray(np.atleast_2d(past), dtype=np.float64)
        if rows.shape[1] != self.order:
            raise ConfigurationError(
                f"expected {self.order} past values per row, got {rows.shape[1]}"
            )
        xs = (rows - self._x_stats.mean) / self._x_stats.std
        ys = xs @ self._w + self._b
        return ys * float(self._y_stats.std[0]) + float(self._y_stats.mean[0])

    def one_step_series(
        self, series: Sequence[float], *, stride: int = 1
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """One-step-ahead predictions over a full-resolution series.

        The series is resampled at ``stride`` (matching the temporal
        collection step) and each resampled point is predicted from its
        ``order`` real predecessors — the paper's evaluation of curve
        fitting against the complete simulation dataset (Fig. 7,
        Tables I and V).  Returns ``(indices, predicted, real)`` where
        ``indices`` are positions in the original series.
        """
        if stride <= 0:
            raise ConfigurationError(f"stride must be positive, got {stride}")
        self._require_trained()
        arr = np.asarray(series, dtype=np.float64)[::stride]
        lag_rows = max(1, self.lag // stride)
        start = self.order - 1 + lag_rows
        if arr.size <= start:
            raise ConfigurationError(
                f"series too short ({arr.size} strided samples) for "
                f"order {self.order} and lag {self.lag}"
            )
        # Point i's features end lag_rows back: window i - start.
        features = kernels.windows(arr, self.order)[: arr.size - start]
        predicted = self.predict_many(features)
        indices = np.arange(start, arr.size) * stride
        return indices, predicted, arr[start:]

    def _require_trained(self) -> None:
        if not self.is_trained:
            raise NotTrainedError(
                "model has no completed updates; train on at least one "
                "mini-batch before predicting"
            )


class Forecast:
    """Rolls a trained AR model forward, one row per temporal-grid step.

    Each forecast row feeds back as a predictor for the next — the
    paper's "replace V(l, t) by V(l, t+1)".  ``rows`` seeds it: trailing
    series rows, oldest first, one step apart, the newest at
    ``iteration``.  Predictors sit ``lag_rows`` back, paired along
    ``axis`` as the collector pairs them; space-axis edge locations
    without a full window hold their lagged value (behind a travelling
    front the edge is saturated: persistence is exact there).
    """

    def __init__(
        self,
        model: ARModel,
        rows: np.ndarray,
        *,
        axis: str = "time",
        lag_rows: int = 1,
        include_self: bool = True,
        step: int = 1,
        iteration: int = 0,
    ) -> None:
        if axis == "time":
            self.first, reach = 0, lag_rows + model.order - 1
        else:
            self.first = model.order - 1 if include_self else model.order
            reach = lag_rows
        self._rows = np.array(rows, dtype=np.float64)
        if self._rows.ndim != 2 or self._rows.shape[0] < reach:
            raise ConfigurationError(
                f"a forecast needs at least {reach} seed rows of a 2-D "
                f"series, got shape {self._rows.shape}"
            )
        self.model = model
        self.axis = axis
        self.lag_rows = lag_rows
        self.step = step
        #: Iteration the newest row stands for.
        self.iteration = iteration

    def _step(self) -> np.ndarray:
        rows = self._rows
        order = self.model.order
        if self.axis == "time":
            anchor = rows.shape[0] - self.lag_rows
            row = self.model.predict_many(
                kernels.temporal_features(rows, anchor, order)
            )
        else:
            lagged = rows[-self.lag_rows]
            row = lagged.copy()
            row[self.first:] = self.model.predict_many(
                kernels.windows(lagged, order)[: row.shape[0] - self.first]
            )
        rows[:-1] = rows[1:]
        rows[-1] = row
        self.iteration += self.step
        return row

    def roll(self, steps: int) -> np.ndarray:
        """The next ``steps`` forecast rows, shape ``(steps, locations)``."""
        if steps < 0:
            raise ConfigurationError(f"steps must be >= 0, got {steps}")
        rows = [self._step() for _ in range(steps)]
        return np.array(rows, dtype=np.float64).reshape(steps, self._rows.shape[1])

    def advance_to(self, iteration: int) -> None:
        """Roll forward until the newest row stands for ``iteration``."""
        while self.iteration < iteration:
            self._step()

    def residual(self, sampled: np.ndarray) -> float:
        """Mean |forecast - sample| of the newest row over the predicted
        locations, relative to the sample's mean magnitude; ``inf`` for
        a non-finite forecast (an explosive model rolled too far), so it
        reads as drift rather than vanishing in a NaN comparison."""
        forecast = self._rows[-1, self.first:]
        sampled = sampled[self.first:]
        diff = float(np.mean(np.abs(forecast - sampled)))
        scale = float(np.mean(np.abs(sampled)))
        value = diff if scale <= 1e-12 else diff / scale
        return value if np.isfinite(value) else float("inf")
