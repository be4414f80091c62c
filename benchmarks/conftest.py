"""Shared configuration for the benchmark suite.

Each benchmark regenerates one table or figure of the paper, prints it,
and asserts the reproduced *shape* (who wins, where the crossovers
fall).  Set ``REPRO_BENCH_FULL=1`` to run every benchmark at the
paper's full parameter grid (several minutes); the default trims the
heaviest sweeps so the whole suite finishes quickly.

Path setup is centralised: pytest runs import ``repro`` through the
repository-root ``conftest.py`` (which inserts ``src/``), and the
directly-executed timing script ``perf.py`` goes through
``benchmarks/_bootstrap.py`` — no ``PYTHONPATH`` preparation needed
anywhere.
"""

import os

import pytest


FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"


@pytest.fixture(scope="session")
def full_grid() -> bool:
    return FULL


def emit(table) -> None:
    """Print a rendered table under pytest -s / captured output."""
    print()
    print(table.render())
