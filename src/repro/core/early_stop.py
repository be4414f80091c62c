"""Early termination of the simulation once the model is accurate enough.

The paper terminates the simulation "once the auto-regressive model
reached a predefined accuracy threshold".  The monitor watches the
stream of mini-batch losses (already normalised by the trainer's
running target variance, so they are scale-free) and declares
convergence when the recent mean loss sits below the accuracy threshold
and has stopped improving.  A minimum number of updates guards against
declaring victory on the first lucky batch.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.errors import ConfigurationError


class EarlyStopMonitor:
    """Convergence detector over a stream of batch losses.

    Parameters
    ----------
    accuracy_threshold:
        Upper bound on the recent mean normalised loss for the model to
        count as "trained".  Because the AR trainer standardises
        targets, a loss of 0.01 corresponds to explaining about 99% of
        target variance.
    window:
        Number of most recent batch losses averaged.
    min_updates:
        Updates required before the monitor may fire.
    patience:
        Number of consecutive windows that must satisfy the threshold.
    """

    def __init__(
        self,
        accuracy_threshold: float = 0.01,
        *,
        window: int = 5,
        min_updates: int = 10,
        patience: int = 2,
    ) -> None:
        if accuracy_threshold <= 0:
            raise ConfigurationError(
                f"accuracy_threshold must be positive, got {accuracy_threshold}"
            )
        if window <= 0:
            raise ConfigurationError(f"window must be positive, got {window}")
        if min_updates < 0:
            raise ConfigurationError(
                f"min_updates must be >= 0, got {min_updates}"
            )
        if patience <= 0:
            raise ConfigurationError(f"patience must be positive, got {patience}")
        self.accuracy_threshold = accuracy_threshold
        self.window = window
        self.min_updates = min_updates
        self.patience = patience
        self._recent: Deque[float] = deque(maxlen=window)
        self._updates = 0
        self._streak = 0
        self._fired_at: Optional[int] = None

    @property
    def converged(self) -> bool:
        """True once the stop condition has fired (it latches)."""
        return self._fired_at is not None

    @property
    def fired_at_update(self) -> Optional[int]:
        """Update index at which convergence fired, or None."""
        return self._fired_at

    @property
    def recent_loss(self) -> Optional[float]:
        """Mean of the most recent window of losses, or None if empty."""
        if not self._recent:
            return None
        return sum(self._recent) / len(self._recent)

    def observe(self, loss: float) -> bool:
        """Fold one batch loss in; returns True if now converged."""
        self._updates += 1
        self._recent.append(float(loss))
        if self.converged:
            return True
        enough_history = (
            self._updates >= self.min_updates and len(self._recent) == self.window
        )
        if enough_history and self.recent_loss <= self.accuracy_threshold:
            self._streak += 1
        else:
            self._streak = 0
        if self._streak >= self.patience:
            self._fired_at = self._updates
            return True
        return False

    def reset(self) -> None:
        self._recent.clear()
        self._updates = 0
        self._streak = 0
        self._fired_at = None
