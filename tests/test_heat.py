"""Tests for the heat-diffusion step: bit-identical, allocation-free.

The step writes into buffers allocated once, so its cost does not
depend on whether the allocator reuses or re-maps large temporaries:
two state-sized arrays and one tile of Laplacian scratch.  The initial
state and the step must still produce exactly the plain expressions.
A sharded step, with ghost cells refreshed once per chunk, must produce
exactly the unsharded states on the cells it owns.  The step walks its
range in ``heat.TILE``-node tiles; tests patch ``TILE`` down to a few
nodes to put tile edges everywhere on small domains.  The validator
must give the per-location loop's metrics bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from repro.scenarios import RunConfig, heat
from repro.scenarios.heat import HeatDiffusionApp
from repro.scenarios.spec import _execute_leg

#: ``(n_nodes, TILE)`` cases.  Tiles of 1, 2 and 5 nodes put tile edges
#: inside blocks, on block edges, inside ghost zones and at both domain
#: ends.  A tile loop costs ~10 us, so they run on the small domains.
SIZES = [pytest.param(n, heat.TILE, id=str(n)) for n in (3, 32, 48, 4000)] + [
    pytest.param(n, tile, id=f"{n}-tile{tile}")
    for n in (3, 32, 48)
    for tile in (1, 2, 5)
]


def _app(n_nodes, n_iterations):
    """The scenario's default diffusion number and modes."""
    return HeatDiffusionApp(
        n_nodes=n_nodes,
        r=0.4,
        modes=((1, 1.0), (3, 0.4)),
        n_iterations=n_iterations,
    )


def _reference_step(u, r):
    lap = np.empty_like(u)
    lap[1:-1] = u[:-2] - 2.0 * u[1:-1] + u[2:]
    lap[0] = -2.0 * u[0] + u[1]
    lap[-1] = u[-2] - 2.0 * u[-1]
    return u + r * lap


@pytest.mark.parametrize("n_nodes, tile", SIZES)
def test_step_bit_identical_to_reference(n_nodes, tile, monkeypatch):
    monkeypatch.setattr(heat, "TILE", tile)
    app = _app(n_nodes, 200)
    reference = app.u.copy()
    for step in range(200):
        reference = _reference_step(reference, app.r)
        app.step()
        assert np.array_equal(
            app.u.view(np.uint64), reference.view(np.uint64)
        ), f"state diverged at step {step + 1}"
    assert app.iteration == 200


@pytest.mark.parametrize(
    "n_nodes, modes",
    [
        (3, ((1, 1.0), (3, 0.4))),
        (48, ((1, 1), (3, -0.4), (7, 2.5))),
        (4001, ((np.int64(5), np.float32(0.3)), (2, 1.0))),
        (100_000, ((1, 1.0), (3, 0.4))),
    ],
    ids=["3", "48-three-modes", "4001-numpy-scalars", "100000"],
)
def test_initial_state_bit_identical_to_expression(n_nodes, modes):
    app = HeatDiffusionApp(n_nodes=n_nodes, r=0.4, modes=modes, n_iterations=1)
    j = np.arange(1, n_nodes + 1, dtype=np.float64)
    shapes = np.stack([a * np.sin(k * np.pi * j / (n_nodes + 1)) for k, a in modes])
    assert np.array_equal(app._shapes.view(np.uint64), shapes.view(np.uint64))
    assert np.array_equal(app.u.view(np.uint64), shapes.sum(axis=0).view(np.uint64))


def test_app_holds_two_states_plus_its_mode_shapes():
    tracemalloc.start()
    try:
        app = _app(100_000, 20)
        for _ in range(10):
            app.step()
        current, peak = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # NumPy's own trace domain counts array buffers only: the state and
    # next state, one closed-form row per mode and one tile of
    # Laplacian scratch.  A state-sized Laplacian would be a fifth state.
    buffers = snapshot.filter_traces(
        [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    )
    retained = sum(trace.size for trace in buffers.traces)
    state = app.u.nbytes
    assert retained <= (len(app.modes) + 2) * state + heat.TILE * app.u.itemsize
    # Built in place: no state-sized temporary outlived its operation,
    # so building and stepping never held more than the app keeps.
    assert peak - current < 0.5 * state


def test_step_allocates_no_state_sized_temporaries():
    app = _app(100_000, 20)
    app.step()
    tracemalloc.start()
    try:
        for _ in range(10):
            app.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * app.u.nbytes


def _blocks(n_nodes, n_ranks, layout):
    """Non-empty ``(lo, hi)`` blocks: an even split, or rank 0 owning
    all but one cell per other rank (blocks narrower than a ghost)."""
    if layout == "even":
        bounds = np.linspace(0, n_nodes, n_ranks + 1).astype(int)
    else:
        start = max(0, n_nodes - (n_ranks - 1))
        bounds = [0] + list(range(start, n_nodes + 1))
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


@pytest.mark.parametrize("layout", ["even", "narrow"])
@pytest.mark.parametrize("chunk", [1, 8])
@pytest.mark.parametrize("n_ranks", [2, 3, 4])
@pytest.mark.parametrize("n_nodes, tile", SIZES)
def test_sharded_step_matches_unsharded(
    n_nodes, tile, n_ranks, chunk, layout, monkeypatch
):
    monkeypatch.setattr(heat, "TILE", tile)
    steps = 40
    whole = _app(n_nodes, steps)
    blocks = _blocks(n_nodes, n_ranks, layout)
    ghost = HeatDiffusionApp.stencil_radius * chunk
    shards = []
    for lo, hi in blocks:
        app = _app(n_nodes, steps)
        app.shard(max(0, lo - ghost), min(n_nodes, hi + ghost))
        shards.append(app)
    for step in range(steps):
        if step % chunk == 0:
            # Swap halos by hand: every ghost cell comes from its owner.
            owned = np.concatenate(
                [app.state[lo:hi] for app, (lo, hi) in zip(shards, blocks)]
            )
            for app, (lo, hi) in zip(shards, blocks):
                left = max(0, lo - ghost)
                app.state[left:lo] = owned[left:lo]
                app.state[hi:hi + ghost] = owned[hi:hi + ghost]
        whole.step()
        for app, (lo, hi) in zip(shards, blocks):
            app.step()
            assert np.array_equal(
                app.state[lo:hi].view(np.uint64),
                whole.state[lo:hi].view(np.uint64),
            ), f"block [{lo}, {hi}) diverged at step {step + 1}"


def test_real_tiles_bit_identical_to_reference():
    # Four tiles a step, the last one 5 nodes wide; an even 2-rank split
    # puts the block edge mid-tile, and each shard's tiles start at its
    # own ghost edge.  Ghost cells come from the reference state.
    n_nodes, steps, chunk = 3 * heat.TILE + 5, 40, 8
    whole = _app(n_nodes, steps)
    reference = whole.u.copy()
    blocks = _blocks(n_nodes, 2, "even")
    assert all(lo % heat.TILE for lo, _ in blocks[1:])
    ghost = HeatDiffusionApp.stencil_radius * chunk
    shards = []
    for lo, hi in blocks:
        app = _app(n_nodes, steps)
        app.shard(max(0, lo - ghost), min(n_nodes, hi + ghost))
        shards.append(app)
    for step in range(steps):
        if step % chunk == 0:
            for app, (lo, hi) in zip(shards, blocks):
                left = max(0, lo - ghost)
                app.state[left:lo] = reference[left:lo]
                app.state[hi : hi + ghost] = reference[hi : hi + ghost]
        reference = _reference_step(reference, whole.r)
        whole.step()
        assert np.array_equal(
            whole.state.view(np.uint64), reference.view(np.uint64)
        ), f"state diverged at step {step + 1}"
        for app, (lo, hi) in zip(shards, blocks):
            app.step()
            assert np.array_equal(
                app.state[lo:hi].view(np.uint64),
                reference[lo:hi].view(np.uint64),
            ), f"block [{lo}, {hi}) diverged at step {step + 1}"


def _validate_per_location(app, analysis):
    """The validator's metrics, one location at a time (the reference)."""
    store = analysis.collector.store
    model = analysis.model
    step = analysis.collector.temporal.step
    lag_rows = model.lag // step
    abs_errors, scales, delta = [], [], 0.0
    for location in store.locations:
        iters, series = store.series(int(location))
        valid = store.lag_exact_rows(lag_rows=lag_rows, order=model.order, step=step)
        features = series[(valid - lag_rows)[:, None] - np.arange(model.order)]
        predicted = model.predict_many(features)
        exact = app.exact([int(location)], iters[valid])[:, 0]
        abs_errors.append(np.abs(predicted - exact))
        scales.append(np.abs(exact))
        delta = max(delta, float(np.max(np.abs(series[valid] - exact))))
    scale = float(np.mean(np.concatenate(scales)))
    return {
        "error": 100.0 * float(np.mean(np.concatenate(abs_errors))) / scale,
        "fit_error_vs_collected": analysis.fit_error(),
        "simulation_vs_closed_form": delta,
    }


WIDE = {"n_nodes": 600, "window": (8, 263)}


@pytest.mark.parametrize(
    "config",
    [
        RunConfig(quick=True, crosscheck=False),
        # Cadence gaps: 21 of its 30 rows are lag-exact.
        RunConfig(quick=True, crosscheck=False, adaptive=True),
        RunConfig(quick=True, crosscheck=False, adaptive=True, params=WIDE),
        RunConfig(quick=True, crosscheck=False, n_ranks=2, backend="mp"),
    ],
    ids=["serial", "adaptive", "adaptive-wide", "mp2"],
)
def test_validator_matches_per_location_reference(config):
    # One closed-form call and one lag-exact mask for the whole window
    # must give the per-location loop's metrics bit for bit.
    spec, params = config.resolve("heat-diffusion")
    engine, analyses, result = _execute_leg(spec, config, params)
    metrics = heat.validate(engine.app, analyses, result, **params)
    reference = _validate_per_location(engine.app, analyses[0])
    for key, value in reference.items():
        assert np.float64(metrics[key]).tobytes() == np.float64(value).tobytes(), key
