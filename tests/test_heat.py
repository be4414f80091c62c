"""Tests for the heat-diffusion step: bit-identical, allocation-free.

The step writes into buffers allocated once, so its cost does not
depend on whether the allocator reuses or re-maps large temporaries.
It must still produce exactly the states of the plain expression.
A sharded step, with ghost cells refreshed once per chunk, must produce
exactly the unsharded states on the cells it owns.  The step walks its
range in ``heat.TILE``-node tiles; tests patch ``TILE`` down to a few
nodes to put tile edges everywhere on small domains.
"""

import tracemalloc

import numpy as np
import pytest

from repro.scenarios import heat
from repro.scenarios.heat import HeatDiffusionApp

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
