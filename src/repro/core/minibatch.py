"""Mini-batch buffer and the streaming trainer built on it.

The paper trains the auto-regressive model "with mini-batches of
generated data during simulation": samples accumulate in a fixed-size
buffer; as soon as the buffer fills, one gradient-descent update runs
inside the current simulation iteration, the buffer is reset, and the
optimiser sits idle until the next batch fills.  :class:`MiniBatch`
models the buffer and :class:`MiniBatchTrainer` models that
fill → update → reset loop.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


class MiniBatch:
    """Fixed-capacity buffer of (features, target) training samples.

    Parameters
    ----------
    capacity:
        Number of samples that triggers an update.
    n_features:
        Dimensionality of each feature vector (the AR model order).
    """

    def __init__(self, capacity: int, n_features: int) -> None:
        if capacity <= 0:
            raise ConfigurationError(
                f"capacity must be positive, got {capacity}"
            )
        if n_features <= 0:
            raise ConfigurationError(
                f"n_features must be positive, got {n_features}"
            )
        self.capacity = capacity
        self.n_features = n_features
        self._x = np.empty((capacity, n_features), dtype=np.float64)
        self._y = np.empty(capacity, dtype=np.float64)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def full(self) -> bool:
        """True when the next :meth:`add` would exceed capacity."""
        return self._size >= self.capacity

    def add(self, features: Sequence[float], target: float) -> bool:
        """Append one sample; return True when the batch just filled.

        Adding to a full batch raises — the caller must drain first; the
        in-situ loop guarantees this by training the moment a batch
        fills.
        """
        if self.full:
            raise ConfigurationError(
                "mini-batch is full; call reset() before adding more samples"
            )
        row = np.asarray(features, dtype=np.float64)
        if row.shape != (self.n_features,):
            raise ConfigurationError(
                f"expected {self.n_features} features, got shape {row.shape}"
            )
        self._x[self._size] = row
        self._y[self._size] = float(target)
        self._size += 1
        return self.full

    def add_block(self, features: np.ndarray, targets: np.ndarray) -> int:
        """Copy as many leading rows as fit; return the number accepted.

        The block counterpart of :meth:`add`: rows land in the buffer
        by array slicing rather than one ``add`` call each.  Unlike
        :meth:`add`, a full buffer does not raise — zero rows are
        accepted and the caller drains (trains + resets) before
        offering the remainder again.
        """
        x = np.atleast_2d(np.asarray(features, dtype=np.float64))
        y = np.ravel(np.asarray(targets, dtype=np.float64))
        if x.shape[1] != self.n_features:
            raise ConfigurationError(
                f"expected {self.n_features} features, got {x.shape[1]}"
            )
        if x.shape[0] != y.shape[0]:
            raise ConfigurationError(
                f"feature/target count mismatch: {x.shape[0]} vs {y.shape[0]}"
            )
        take = min(self.capacity - self._size, y.shape[0])
        if take > 0:
            self._x[self._size: self._size + take] = x[:take]
            self._y[self._size: self._size + take] = y[:take]
            self._size += take
        return take

    def reset(self) -> None:
        """Empty the buffer for the next collection round."""
        self._size = 0

    def view(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only views of the currently buffered samples."""
        x = self._x[: self._size]
        y = self._y[: self._size]
        x.flags.writeable = False
        y.flags.writeable = False
        return x, y


class MiniBatchTrainer:
    """Couples a :class:`MiniBatch` with a model's gradient updates.

    The trainer owns the fill/update/reset cycle and records per-batch
    training loss so that convergence (used for early termination) can be
    monitored without a separate validation pass.

    Parameters
    ----------
    model:
        Any object exposing ``partial_fit(x, y) -> float`` returning the
        batch mean-squared error *before* the update.
    capacity:
        Mini-batch size.
    n_features:
        Feature dimensionality, forwarded to the batch buffer.
    drain_partial:
        When True, :meth:`finalize` trains on a final partially-filled
        batch instead of discarding it.
    """

    def __init__(
        self,
        model,
        capacity: int,
        n_features: int,
        *,
        drain_partial: bool = True,
    ) -> None:
        self.model = model
        self.batch = MiniBatch(capacity, n_features)
        self.drain_partial = drain_partial
        self._losses: List[float] = []
        self._samples_seen = 0
        self._updates = 0

    @property
    def losses(self) -> List[float]:
        """Per-update batch losses, oldest first."""
        return list(self._losses)

    @property
    def updates(self) -> int:
        """Number of gradient updates performed so far."""
        return self._updates

    @property
    def samples_seen(self) -> int:
        """Total samples pushed through the trainer."""
        return self._samples_seen

    @property
    def last_loss(self) -> Optional[float]:
        """Most recent batch loss, or None before the first update."""
        return self._losses[-1] if self._losses else None

    def push(self, features: Sequence[float], target: float) -> Optional[float]:
        """Add one sample; run an update if the batch filled.

        Returns the batch loss when an update ran, else None.  This is
        the call sites embed inside the simulation iteration: it is O(1)
        except on the iteration where a batch fills.
        """
        self._samples_seen += 1
        filled = self.batch.add(features, target)
        if not filled:
            return None
        return self._train_and_reset()

    def push_block(self, features: np.ndarray, targets: np.ndarray) -> List[float]:
        """Vectorised push: copy a block straight into the batch buffer.

        Semantically identical to calling :meth:`push` per row, but the
        per-sample Python overhead collapses into array slicing — this
        is the hot path the in-situ collector calls once per matching
        iteration.  Each full batch trains through
        ``model.partial_fit``, whose Chan statistics merge and gradient
        epochs are :func:`repro.core.kernels.ar_batch_update`.
        """
        y = np.ravel(np.asarray(targets, dtype=np.float64))
        x = np.asarray(features, dtype=np.float64)
        if x.size == 0 and y.size == 0:
            return []
        x = np.atleast_2d(x)
        if x.shape[1] != self.batch.n_features:
            raise ConfigurationError(
                f"expected {self.batch.n_features} features, got {x.shape[1]}"
            )
        if x.shape[0] != y.shape[0]:
            raise ConfigurationError(
                f"feature/target count mismatch: {x.shape[0]} vs {y.shape[0]}"
            )
        losses: List[float] = []
        offset = 0
        while offset < y.shape[0]:
            took = self.batch.add_block(x[offset:], y[offset:])
            offset += took
            self._samples_seen += took
            if self.batch.full:
                losses.append(self._train_and_reset())
        return losses

    def finalize(self) -> Optional[float]:
        """Flush a trailing partial batch at end of collection."""
        if len(self.batch) == 0 or not self.drain_partial:
            self.batch.reset()
            return None
        return self._train_and_reset()

    def _train_and_reset(self) -> float:
        x, y = self.batch.view()
        loss = float(self.model.partial_fit(x, y))
        self._losses.append(loss)
        self._updates += 1
        self.batch.reset()
        return loss
