"""Distributed in-situ extraction on the LULESH Sedov blast.

Runs the break-point threshold sweep of the material-deformation case
through the rank-parallel :class:`~repro.engine.DistributedEngine` and
shows the three things the distributed runtime guarantees:

1. **Determinism** — fit coefficients, stop iterations and extracted
   break radii at every rank count equal the serial
   :class:`~repro.engine.InSituEngine` bit for bit: each rank gathers
   only its shard of the velocity window, and the reduced rows are
   exactly the serial provider sweeps.
2. **One copy of each row** — the rank shards reduce into the group
   store every analysis reads, row for row equal to the serial store,
   and `collection_stats` folds each of its values once.
3. **Accounted communication** — the per-iteration row reduction and
   the collective stop agreement charge Hockney-model time to the
   `SimComm` ledger, which is how modeled scaling numbers stay tied to
   measured runs.

The workload itself is resolved by name from the scenario registry —
the spec's factories build the simulation and the threshold sweep, so
this example only owns the distributed-runtime walkthrough.

Run:  python examples/distributed_sedov.py [size] [ranks]
"""

import _bootstrap  # noqa: F401  (makes src/ importable from a checkout)

import sys

import numpy as np

from repro import scenarios
from repro.engine import DistributedEngine, InSituEngine

THRESHOLDS = (0.002, 0.02, 0.2)


def main():
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 30
    n_ranks = int(sys.argv[2]) if len(sys.argv) > 2 else 4

    spec = scenarios.get("lulesh-sedov")
    params = spec.params(
        overrides={
            "size": size,
            "thresholds": THRESHOLDS,
            "spatial_window": (1, 10),
            "train_begin": 50,
        }
    )
    print(f"domain size {size}^3, {n_ranks} ranks (scenario 'lulesh-sedov')")

    serial_engine = InSituEngine(spec.app_factory(**params), policy="all")
    serial = [
        serial_engine.add_analysis(a)
        for a in spec.analysis_factory(**params)
    ]
    serial_result = serial_engine.run()

    engine = DistributedEngine(
        spec.app_factory(**params),
        n_ranks=n_ranks,
        policy="all",
        name="distributed-sedov",
    )
    dist = [engine.add_analysis(a) for a in spec.analysis_factory(**params)]
    result = engine.run()

    print()
    header = (
        f"{'threshold':>10} {'radius':>7} {'stopped at':>11} "
        f"{'coef delta':>12}"
    )
    print(header)
    print("-" * len(header))
    for serial_analysis, dist_analysis in zip(serial, dist):
        delta = float(
            np.max(
                np.abs(
                    serial_analysis.model.coefficients
                    - dist_analysis.model.coefficients
                )
            )
        )
        assert delta <= 1e-12, f"distributed run diverged by {delta:.3e}"
        name = dist_analysis.name
        assert result.stopped_at[name] == serial_result.stopped_at[name]
        print(
            f"{name.split('-t')[-1]:>10} "
            f"{dist_analysis.final_feature().radius:>7} "
            f"{result.stopped_at[name]:>11} {delta:>12.1e}"
        )

    # One copy of each row: the group store, laid out over the ranks.
    plan = engine.driver.plans[0]
    full = plan.store.matrix()
    assert np.array_equal(full, serial_engine.driver.plans[0].store.matrix())
    stats = result.collection_stats[0]
    widths = [shard.shape[0] for shard in plan.shards]

    print()
    print(
        f"shards per rank: {widths} locations of the {full.shape} group "
        "store, equal to the serial store"
    )
    print(
        f"collection stats: {stats.count} samples, "
        f"mean {stats.mean[0]:.4f} (store mean {full.mean():.4f})"
    )
    print(
        f"communication ledger: {result.comm_seconds * 1e3:.3f} ms across "
        f"{engine.comm.allreduce_count} allreduces and "
        f"{engine.comm.broadcast_count} broadcasts"
    )
    print(
        "per-rank sampling seconds: "
        + ", ".join(f"{s:.4f}" for s in result.rank_sample_seconds)
    )
    print()
    print("distributed run is bit-identical to the serial engine; the")
    print("ledger carries the modelled cost of keeping it collective.")


if __name__ == "__main__":
    main()
