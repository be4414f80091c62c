"""Analytic communication and threading cost models.

The paper measures the overhead of "MPI broadcasting required to keep
all processes updated on the threshold detection status" on a real
40-core node.  Our communicator is simulated, so costs come from a
standard latency/bandwidth (Hockney) model instead: a message of ``n``
bytes between two ranks costs ``alpha + n * beta``, and a broadcast to
``p`` ranks costs ``ceil(log2 p)`` such stages (binomial tree).

The defaults are intra-node MPI numbers of the paper's hardware class
(Xeon Gold, shared memory transport): ~1 microsecond latency,
~10 GB/s effective per-pair bandwidth.  Absolute values only shift the
overhead percentages; the *shape* (overhead growing mildly with rank
count, staying <5% of iteration time) is what the reproduction needs.

:class:`ThreadingModel` provides the OpenMP side: an Amdahl speedup
curve used to scale the simulated compute time of a rank when the
paper's configurations multiply MPI ranks by OpenMP threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CommCostModel:
    """Hockney-style point-to-point cost with tree collectives.

    Parameters
    ----------
    latency_s:
        Per-message start-up cost (alpha), seconds.
    bandwidth_bytes_per_s:
        Effective pairwise bandwidth (1/beta), bytes/second.
    """

    latency_s: float = 1.0e-6
    bandwidth_bytes_per_s: float = 10.0e9

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ConfigurationError(
                f"latency_s must be >= 0, got {self.latency_s}"
            )
        if self.bandwidth_bytes_per_s <= 0:
            raise ConfigurationError(
                "bandwidth_bytes_per_s must be positive, got "
                f"{self.bandwidth_bytes_per_s}"
            )

    def point_to_point(self, message_bytes: int) -> float:
        """Cost of one message of ``message_bytes`` between two ranks."""
        if message_bytes < 0:
            raise ConfigurationError(
                f"message_bytes must be >= 0, got {message_bytes}"
            )
        return self.latency_s + message_bytes / self.bandwidth_bytes_per_s

    def tree_stages(self, n_ranks: int) -> int:
        """Stages of a binomial-tree collective over ``n_ranks``."""
        if n_ranks <= 0:
            raise ConfigurationError(
                f"n_ranks must be positive, got {n_ranks}"
            )
        return max(0, math.ceil(math.log2(n_ranks)))

    def broadcast(self, message_bytes: int, n_ranks: int) -> float:
        """Cost of broadcasting one message to all ranks."""
        return self.tree_stages(n_ranks) * self.point_to_point(message_bytes)

    def allreduce(self, message_bytes: int, n_ranks: int) -> float:
        """Cost of an allreduce (reduce + broadcast tree)."""
        return 2.0 * self.broadcast(message_bytes, n_ranks)


@dataclass(frozen=True)
class ThreadingModel:
    """Amdahl speedup for the OpenMP dimension of a configuration.

    ``parallel_fraction`` is the share of per-iteration work that
    threads across cores; LULESH-class loops are highly parallel, so
    the default is 0.95.
    """

    parallel_fraction: float = 0.95

    def __post_init__(self) -> None:
        if not 0.0 <= self.parallel_fraction <= 1.0:
            raise ConfigurationError(
                "parallel_fraction must be in [0, 1], got "
                f"{self.parallel_fraction}"
            )

    def speedup(self, n_threads: int) -> float:
        """Amdahl speedup at ``n_threads``."""
        if n_threads <= 0:
            raise ConfigurationError(
                f"n_threads must be positive, got {n_threads}"
            )
        serial = 1.0 - self.parallel_fraction
        return 1.0 / (serial + self.parallel_fraction / n_threads)

    def scaled_time(self, serial_time: float, n_threads: int) -> float:
        """Wall time of ``serial_time`` worth of work on ``n_threads``."""
        if serial_time < 0:
            raise ConfigurationError(
                f"serial_time must be >= 0, got {serial_time}"
            )
        return serial_time / self.speedup(n_threads)
