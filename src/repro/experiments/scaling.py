"""Modeled MPI x OpenMP scaling used by the performance tables.

The paper measures wall-clock on real MPI ranks and OpenMP threads; our
substrate executes serially and *models* the parallel dimension (see
README.md).  A configuration's reported time combines:

* the measured serial compute time divided by a communication-aware
  MPI speedup (halo exchange per iteration grows with rank count while
  the per-rank work shrinks — so small problems stop scaling, exactly
  the paper's size-16 wdmerger rows where more ranks run *slower*);
* an Amdahl OpenMP speedup on the remaining per-rank work;
* the per-iteration broadcast charges accumulated by the simulated
  communicator (the feature-extraction overhead channel).

Since the distributed runtime landed, the model is no longer the only
source of scaling numbers: :func:`distributed_crosscheck` runs the
SimComm-backed :class:`~repro.engine.distributed.DistributedEngine` on
a synthetic wide-spatial scenario and compares the *measured* sharded
sampling time (the slowest rank's gather seconds plus the charged
communication ledger) against the model's ideal-division prediction,
so modeled and measured speedups validate each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.providers import HarmonicProvider
from repro.errors import ConfigurationError
from repro.parallel.cost_model import CommCostModel, ThreadingModel


@dataclass(frozen=True)
class ScalingModel:
    """Maps measured serial seconds to a (ranks, threads) configuration.

    Parameters
    ----------
    elements:
        Total work items per iteration (size^3 or resolution^3).
    iterations:
        Iteration count of the run being scaled.
    halo_seconds_per_element:
        Cost per halo-surface element exchanged per iteration.
    comm:
        Latency/bandwidth model for collective start-ups.
    threading:
        Amdahl model for the OpenMP dimension.
    """

    elements: int
    iterations: int
    halo_seconds_per_element: float = 2.0e-8
    comm: CommCostModel = CommCostModel()
    threading: ThreadingModel = ThreadingModel()

    def __post_init__(self) -> None:
        if self.elements <= 0:
            raise ConfigurationError(
                f"elements must be positive, got {self.elements}"
            )
        if self.iterations <= 0:
            raise ConfigurationError(
                f"iterations must be positive, got {self.iterations}"
            )

    def halo_time(self, ranks: int) -> float:
        """Per-run halo-exchange cost for a 3-D block decomposition."""
        if ranks <= 0:
            raise ConfigurationError(f"ranks must be positive, got {ranks}")
        if ranks == 1:
            return 0.0
        per_rank_elements = self.elements / ranks
        surface = 6.0 * per_rank_elements ** (2.0 / 3.0)
        per_iteration = (
            surface * self.halo_seconds_per_element
            + self.comm.latency_s * np.ceil(np.log2(ranks))
        )
        return float(per_iteration * self.iterations)

    def configured_time(
        self, serial_seconds: float, ranks: int, threads: int
    ) -> float:
        """Wall time of the run on ``ranks`` x ``threads``."""
        if serial_seconds < 0:
            raise ConfigurationError(
                f"serial_seconds must be >= 0, got {serial_seconds}"
            )
        compute = serial_seconds / ranks
        compute = self.threading.scaled_time(compute, threads)
        return compute + self.halo_time(ranks)


# ----------------------------------------------------------------------
# measured distributed runs vs the model
# ----------------------------------------------------------------------

#: Synthetic heavy provider: per-location harmonic refinement whose
#: cost is proportional to the gathered block width (location-local,
#: so shard gathers are bit-identical to full-window sweeps).
_crosscheck_provider = HarmonicProvider(256)


def distributed_crosscheck(
    *,
    n_locations: int = 256,
    n_iterations: int = 160,
    ranks: Sequence[int] = (1, 2, 4, 8),
    order: int = 3,
    seed: int = 11,
) -> List[dict]:
    """Cross-check modeled speedups against measured distributed runs.

    Runs one wide-spatial scenario through the SimComm-backed
    :class:`~repro.engine.distributed.DistributedEngine` at each rank
    count.  Per configuration the row reports:

    * ``measured_sample_seconds`` — the slowest rank's gather wall time
      (the parallel sampling time of an iteration-synchronous run);
    * ``comm_seconds`` — the Hockney charges for the per-iteration row
      allreduce and the collective stop agreement;
    * ``measured_speedup`` vs ``modeled_speedup`` — the first divides
      the 1-rank sampling time by (measured max-rank + comm), the
      second by the model's ideal division (serial / ranks + comm).

    Fit coefficients are asserted against the 1-rank run within 1e-12,
    so a row can only be reported for runs that reproduce the serial
    result exactly.
    """
    from repro.core.curve_fitting import CurveFitting
    from repro.engine.distributed import DistributedEngine
    from repro.engine.workload import ReplayApp

    rng = np.random.default_rng(seed)
    history = (
        np.cumsum(rng.standard_normal((n_iterations, n_locations)), axis=0)
        + 10.0
    )

    def run(n_ranks: int):
        engine = DistributedEngine(ReplayApp(history), n_ranks=n_ranks)
        analysis = engine.add_analysis(
            CurveFitting(
                _crosscheck_provider,
                (0, n_locations - 1, 1),
                (1, n_iterations, 1),
                order=order,
                lag=1,
                batch_size=max(64, n_locations),
                epochs_per_batch=2,
            )
        )
        result = engine.run()
        return analysis, result

    baseline_analysis, baseline = run(1)
    serial_sample = float(baseline.rank_sample_seconds.sum())
    rows = []
    for n_ranks in ranks:
        analysis, result = run(n_ranks)
        delta = float(
            np.max(
                np.abs(
                    analysis.model.coefficients
                    - baseline_analysis.model.coefficients
                )
            )
        )
        if delta > 1e-12:
            raise ConfigurationError(
                f"{n_ranks}-rank run diverged from serial by {delta:.3e}"
            )
        measured = float(result.max_rank_sample_seconds)
        comm = float(result.comm_seconds)
        rows.append(
            {
                "ranks": n_ranks,
                "serial_sample_seconds": round(serial_sample, 6),
                "measured_sample_seconds": round(measured, 6),
                "comm_seconds": round(comm, 6),
                "measured_speedup": round(
                    serial_sample / (measured + comm), 3
                ),
                "modeled_speedup": round(
                    serial_sample / (serial_sample / n_ranks + comm), 3
                ),
                "max_coefficient_delta": delta,
            }
        )
    return rows
