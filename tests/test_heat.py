"""Tests for the heat-diffusion step: bit-identical, allocation-free.

The step writes into buffers allocated once, so its cost does not
depend on whether the allocator reuses or re-maps large temporaries.
It must still produce exactly the states of the plain expression.
"""

import tracemalloc

import numpy as np
import pytest

from repro.scenarios.heat import HeatDiffusionApp


def _reference_step(u, r):
    lap = np.empty_like(u)
    lap[1:-1] = u[:-2] - 2.0 * u[1:-1] + u[2:]
    lap[0] = -2.0 * u[0] + u[1]
    lap[-1] = u[-2] - 2.0 * u[-1]
    return u + r * lap


@pytest.mark.parametrize("n_nodes", [3, 32, 48, 4000])
def test_step_bit_identical_to_reference(n_nodes):
    app = HeatDiffusionApp(n_nodes=n_nodes, n_iterations=200)
    reference = app.u.copy()
    for step in range(200):
        reference = _reference_step(reference, app.r)
        app.step()
        assert np.array_equal(
            app.u.view(np.uint64), reference.view(np.uint64)
        ), f"state diverged at step {step + 1}"
    assert app.iteration == 200


def test_step_allocates_no_state_sized_temporaries():
    app = HeatDiffusionApp(n_nodes=100_000, n_iterations=20)
    app.step()
    tracemalloc.start()
    try:
        for _ in range(10):
            app.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * app.u.nbytes
