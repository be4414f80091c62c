"""A simulated MPI communicator with an accounted cost model.

The feature-extraction library needs two things from MPI: a broadcast
of small status payloads, and an allreduce (the stop agreement, and
the distributed engine's row reduction).  :class:`SimComm` provides
those over in-process Python objects while *charging* each call's
modelled wall-clock cost to an internal ledger, so the experiment
harness can fold communication time into the measured overhead the way
the paper's real MPI runs do.

The communicator is deliberately synchronous and deterministic: a
collective returns its result at once and advances the simulated clock
by the tree cost.  It keeps no payload; the status events a broadcast
carries are recorded once, in the broadcaster's ``history``.
"""

from __future__ import annotations

import pickle
from typing import Any, Optional

import numpy as np

from repro.errors import CommunicatorError
from repro.parallel.cost_model import CommCostModel

#: Elementwise reducers for array collectives, keyed by op name.
_ARRAY_REDUCERS = {
    "sum": lambda stack: stack.sum(axis=0),
    "max": lambda stack: stack.max(axis=0),
    "min": lambda stack: stack.min(axis=0),
}


class SimComm:
    """Simulated communicator covering ``size`` ranks.

    One :class:`SimComm` object stands for the whole communicator.  All
    modelled time lands in :attr:`charged_seconds`;
    :attr:`broadcast_count` and :attr:`allreduce_count` count the calls.

    Parameters
    ----------
    size:
        Number of ranks.
    cost_model:
        Communication cost model; defaults to intra-node parameters.
    """

    def __init__(
        self, size: int, cost_model: Optional[CommCostModel] = None
    ) -> None:
        if size <= 0:
            raise CommunicatorError(f"size must be positive, got {size}")
        self.size = size
        self.cost_model = cost_model or CommCostModel()
        self.reset_accounting()

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------

    def broadcast(self, payload: Any, root: int = 0) -> Any:
        """Broadcast ``payload`` from ``root`` to every rank.

        Returns the payload (as MPI_Bcast does on every rank) and keeps
        no reference to it.  The modelled cost covers the pickled
        payload size through a binomial tree.
        """
        if not 0 <= root < self.size:
            raise CommunicatorError(
                f"rank {root} out of range for size {self.size}"
            )
        size_bytes = len(pickle.dumps(payload))
        self.charged_seconds += self.cost_model.broadcast(size_bytes, self.size)
        self.broadcast_count += 1
        return payload

    def allreduce(self, value, op: str = "sum"):
        """Reduce a scalar or ndarray across ranks.

        With a single in-process producer the reduction over "all ranks"
        sees the same value from each; ``sum`` multiplies by size,
        ``max``/``min`` return the value.  The point of the call is the
        charged cost, which covers the *actual payload bytes* — 8 for a
        scalar double, ``value.nbytes`` for an ndarray — instead of a
        fixed probe.  Scalars return floats (backward compatible);
        arrays return fresh float64 arrays reduced elementwise.
        """
        if op not in _ARRAY_REDUCERS:
            raise CommunicatorError(
                f"unsupported reduction {op!r}; expected one of "
                f"{sorted(_ARRAY_REDUCERS)}"
            )
        if isinstance(value, np.ndarray):
            arr = np.asarray(value, dtype=np.float64)
            self._charge_allreduce(arr.nbytes)
            if op == "sum":
                return arr * self.size
            return arr.copy()
        self._charge_allreduce(8)
        if op == "sum":
            return float(value) * self.size
        return float(value)

    def allreduce_array(
        self, contributions, op: str = "sum"
    ) -> np.ndarray:
        """Elementwise reduction of per-rank array contributions.

        ``contributions`` is either a sequence of ``size`` same-shaped
        arrays — one per rank, reduced elementwise across the rank axis
        — or a single ndarray standing for every rank's identical
        contribution (single-producer semantics, matching
        :meth:`allreduce`).  The charged cost covers an allreduce of
        one contribution's bytes through the tree model.
        """
        if op not in _ARRAY_REDUCERS:
            raise CommunicatorError(
                f"unsupported reduction {op!r}; expected one of "
                f"{sorted(_ARRAY_REDUCERS)}"
            )
        if isinstance(contributions, np.ndarray):
            return self.allreduce(contributions, op)
        parts = [np.asarray(p, dtype=np.float64) for p in contributions]
        if len(parts) != self.size:
            raise CommunicatorError(
                f"expected one contribution per rank ({self.size}), "
                f"got {len(parts)}"
            )
        shapes = {p.shape for p in parts}
        if len(shapes) != 1:
            raise CommunicatorError(
                f"contributions must share one shape, got {sorted(shapes)}"
            )
        stack = np.stack(parts)
        self._charge_allreduce(parts[0].nbytes)
        return _ARRAY_REDUCERS[op](stack)

    def barrier(self) -> None:
        """Synchronisation point: charged as a zero-byte allreduce."""
        self.charged_seconds += self.cost_model.allreduce(0, self.size)

    def reset_accounting(self) -> None:
        """Zero the charged-time ledger and the call counts."""
        self.charged_seconds = 0.0
        self.broadcast_count = 0
        self.allreduce_count = 0

    def _charge_allreduce(self, message_bytes: int) -> None:
        self.charged_seconds += self.cost_model.allreduce(
            message_bytes, self.size
        )
        self.allreduce_count += 1
