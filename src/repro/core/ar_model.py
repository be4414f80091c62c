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
        if rows.shape[0] == 0:
            return
        self._mean, self._m2, count = kernels.chan_update(
            self._mean, self._m2, self.count, rows
        )
        self.count = int(count)
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
            self.count = other.count
            self._mean = other._mean.copy()
            self._m2 = other._m2.copy()
            self._std_cache = None
            return self
        n, k = self.count, other.count
        total = n + k
        delta = other._mean - self._mean
        self._mean = self._mean + delta * (k / total)
        self._m2 = self._m2 + other._m2 + delta * delta * (n * k / total)
        self.count = total
        self._std_cache = None
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
        if self.count < 2:
            return np.ones(self.width, dtype=np.float64)
        if self._std_cache is None:
            std = np.sqrt(self._m2 / (self.count - 1))
            floor = 1e-3 * np.abs(self._mean) + 1e-12
            std = np.maximum(std, floor)
            self._std_cache = np.where(std > 1e-12, std, 1.0)
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
        data collector how to pair samples — but it is stored here
        because prediction forwarding must honour it.
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
        :meth:`RunningStats.merge`; mutate only through ``update``/
        ``merge`` or the fitted coefficients lose their scale.
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
        """Trained coefficients ``b1..bn`` in the *original* data scale."""
        self._require_trained()
        x_std = self._x_stats.std
        y_std = float(self._y_stats.std[0])
        return self._w * (y_std / x_std)

    @property
    def intercept(self) -> float:
        """Trained intercept ``b0`` in the original data scale."""
        self._require_trained()
        x_mean = self._x_stats.mean
        y_mean = float(self._y_stats.mean[0])
        return y_mean + float(self._y_stats.std[0]) * self._b - float(
            np.dot(self.coefficients, x_mean)
        )

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
        # to kernels.ar_batch_update; the stats aggregates are written
        # back so merge/serialisation semantics are unchanged.
        (
            self._w,
            self._b,
            pre_mse,
            x_mean,
            x_m2,
            x_count,
            y_mean,
            y_m2,
            y_count,
        ) = kernels.ar_batch_update(
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
        self._x_stats._mean = x_mean
        self._x_stats._m2 = x_m2
        self._x_stats.count = int(x_count)
        self._x_stats._std_cache = None
        self._y_stats._mean = y_mean
        self._y_stats._m2 = y_m2
        self._y_stats.count = int(y_count)
        self._y_stats._std_cache = None

        self._updates += 1
        return float(pre_mse)

    def _project_stationary(self) -> None:
        """Rescale the coefficients if their sum is explosive.

        The sum is evaluated in the *original* data scale (the
        standardised weights are multiplied by the target/feature std
        ratios), because the explosive amplification of a growth-locked
        fit lives in those scale ratios, not in the raw weights.
        """
        if self.max_coefficient_sum is None:
            return
        scale = float(self._y_stats.std[0]) / self._x_stats.std
        total = float(np.sum(self._w * scale))
        if total <= self.max_coefficient_sum:
            return
        # Shrink the *deviation from the persistence prior* until the
        # original-scale coefficient sum sits on the bound.  Scaling the
        # whole vector instead would erode the dominant persistence
        # weight and smear the model into a lagging moving average.
        prior_total = float(np.sum(self._prior * scale))
        deviation_total = total - prior_total
        if deviation_total <= 0.0 or prior_total >= self.max_coefficient_sum:
            self._w *= self.max_coefficient_sum / total
            return
        shrink = (self.max_coefficient_sum - prior_total) / deviation_total
        self._w = self._prior + shrink * (self._w - self._prior)

    def fit_exact(self, x: np.ndarray, y: np.ndarray) -> float:
        """Closed-form least-squares fit (ablation baseline).

        Replaces the streaming coefficients with the exact ridge
        solution over the given block and returns its MSE.  Used by the
        ablation benchmark comparing GD against exact fitting.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
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
        self._updates += 1
        residual = xs @ self._w + self._b - ys
        return float(np.mean(residual**2))

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------

    def predict(self, past: Sequence[float]) -> float:
        """Predict ``V(l, t)`` from its ``order`` predecessors.

        ``past[0]`` is ``V(l-1, ·)`` — the most recent predecessor —
        matching the coefficient layout of the paper's equation.
        """
        self._require_trained()
        row = np.asarray(past, dtype=np.float64)
        if row.shape != (self.order,):
            raise ConfigurationError(
                f"expected {self.order} past values, got shape {row.shape}"
            )
        xs = (row - self._x_stats.mean) / self._x_stats.std
        ys = float(np.dot(xs, self._w) + self._b)
        return ys * float(self._y_stats.std[0]) + float(self._y_stats.mean[0])

    def predict_many(self, past: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`predict` over rows of ``past``."""
        self._require_trained()
        rows = np.atleast_2d(np.asarray(past, dtype=np.float64))
        if rows.shape[1] != self.order:
            raise ConfigurationError(
                f"expected {self.order} past values per row, got {rows.shape[1]}"
            )
        xs = (rows - self._x_stats.mean) / self._x_stats.std
        ys = xs @ self._w + self._b
        return ys * float(self._y_stats.std[0]) + float(self._y_stats.mean[0])

    def forward_time(self, history: Sequence[float], steps: int) -> np.ndarray:
        """Roll the model forward in time from a trailing ``history``.

        ``history`` must contain at least ``order`` values ordered oldest
        to newest; each forecast feeds back as a predictor for the next,
        mirroring the paper's "replace V(l, t) by V(l, t+1)".
        """
        self._require_trained()
        if steps < 0:
            raise ConfigurationError(f"steps must be >= 0, got {steps}")
        window = list(np.asarray(history, dtype=np.float64)[-self.order:])
        if len(window) < self.order:
            raise ConfigurationError(
                f"history must hold at least order={self.order} values, "
                f"got {len(window)}"
            )
        out = np.empty(steps, dtype=np.float64)
        for i in range(steps):
            # predictors ordered most-recent-first
            out[i] = self.predict(window[::-1])
            window.pop(0)
            window.append(out[i])
        return out

    def forward_space(self, profile: Sequence[float], steps: int) -> np.ndarray:
        """Extend a spatial ``profile`` outward by ``steps`` locations.

        Identical recursion to :meth:`forward_time` along the location
        axis — the paper's "replace V(l, t) by V(l+1, t)".
        """
        return self.forward_time(profile, steps)

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
        features = np.stack(
            [
                arr[i - lag_rows - self.order + 1: i - lag_rows + 1][::-1]
                for i in range(start, arr.size)
            ]
        )
        predicted = self.predict_many(features)
        indices = np.arange(start, arr.size) * stride
        return indices, predicted, arr[start:]

    def _require_trained(self) -> None:
        if not self.is_trained:
            raise NotTrainedError(
                "model has no completed updates; train on at least one "
                "mini-batch before predicting"
            )
