"""Block-sharded stepping on the multiprocessing backend.

Heat-diffusion can shard its cell array, so each mp rank steps only its
own block and swaps halo cells through rank 0 once per chunk.  Rank 0's
block holds every sampled location, so every stored row must equal the
serial run's bit for bit.  Runs that need worker-sampled shards
(rebalancing, a slowed worker) and apps that cannot shard keep the
replica path.  Every run must leave no child process behind.  Forked
workers start from rank 0's built app; only spawned workers and the
replay after a worker death build one from ``app_factory``.
"""

import functools
import multiprocessing
import os

import numpy as np
import pytest

from repro import scenarios
from repro.engine import DistributedEngine, InSituEngine
from repro.errors import ConfigurationError
from repro.scenarios import heat

from test_distributed import _replay_analysis, _replay_app

TINY_BIGSIM = {
    "n_nodes": 4000,
    "n_iterations": 150,
    "train_iterations": 128,
    "window": (6, 69),
}

#: The test's own process: an app built anywhere else is a rebuild.
_TEST_PID = os.getpid()


def _built_here(factory):
    """``factory()`` in the test's process; an error in any other."""
    if os.getpid() != _TEST_PID:
        raise RuntimeError(f"process {os.getpid()} called app_factory")
    return factory()


def _heat(n_ranks, *, adaptive=False, params=None, wrap=None, **engine_kwargs):
    spec = scenarios.get("heat-diffusion")
    merged = spec.params(quick=True, overrides=params or {})
    cadence = spec.cadence_controller() if adaptive else None
    if n_ranks == 1:
        engine = InSituEngine(
            spec.app_factory(**merged), policy=spec.policy, cadence=cadence
        )
    else:
        factory = functools.partial(spec.app_factory, **merged)
        engine = DistributedEngine(
            backend="multiprocessing",
            n_ranks=n_ranks,
            app_factory=factory if wrap is None else functools.partial(wrap, factory),
            policy=spec.policy,
            cadence=cadence,
            **engine_kwargs,
        )
    analyses = [engine.add_analysis(a) for a in spec.analysis_factory(**merged)]
    result = engine.run()
    assert multiprocessing.active_children() == []
    return engine, analyses, result


def _assert_rows_identical(serial, sharded):
    (_, serial_analyses, serial_result) = serial
    (_, analyses, result) = sharded
    assert result.stopped_at == serial_result.stopped_at
    assert result.iterations == serial_result.iterations
    for left, right in zip(serial_analyses, analyses):
        a, b = left.collector.store, right.collector.store
        assert np.array_equal(a.iterations, b.iterations)
        assert np.array_equal(
            a.matrix().view(np.uint64), b.matrix().view(np.uint64)
        )


def _block_stepped(engine, result):
    # Every sampled shard is rank 0's and no chunk was speculated.
    plans = engine.driver.plans
    return result.transport_stats["pipeline"]["chunks_speculated"] == 0 and all(
        shard.size == 0 for plan in plans for shard in plan.shards[1:]
    )


@pytest.mark.parametrize(
    "params, tile",
    [
        pytest.param(None, heat.TILE, id="quick"),
        pytest.param(TINY_BIGSIM, heat.TILE, id="bigsim"),
        # Tile edges inside every rank's block and ghost zones; forked
        # workers inherit the patched TILE.
        pytest.param(None, 5, id="quick-tile5"),
    ],
)
@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("n_ranks", [2, 3, 4])
def test_rows_bit_identical_to_serial(n_ranks, adaptive, params, tile, monkeypatch):
    serial = _heat(1, adaptive=adaptive, params=params)
    monkeypatch.setattr(heat, "TILE", tile)
    sharded = _heat(n_ranks, adaptive=adaptive, params=params)
    _assert_rows_identical(serial, sharded)
    engine, _, result = sharded
    assert _block_stepped(engine, result)
    # No rows move: each chunk ack carries an empty payload.
    assert result.transport_stats["total_bytes_moved"] < 1024


@pytest.mark.parametrize("chunk", [1, 3])
def test_short_chunks_refresh_every_ghost_cell(chunk):
    # Worker blocks of 3-4 cells, with ghosts not clipped at the domain
    # end: a stale ghost cell reaches rank 0's sampled cells in the run.
    sharded = _heat(4, chunk=chunk)
    _assert_rows_identical(_heat(1), sharded)
    assert _block_stepped(*sharded[::2])


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rebalance": True},
        {"faults": "slow:rank=1,per_sample=1e-4"},
    ],
    ids=["rebalance", "slow-worker"],
)
def test_worker_sampled_shards_keep_the_replica_path(kwargs):
    # The same run block-steps without the knob that needs worker shards.
    assert _block_stepped(*_heat(2)[::2])
    engine, _, result = _heat(2, **kwargs)
    assert result.transport_stats["pipeline"]["chunks_speculated"] > 0
    assert not _block_stepped(engine, result)


def test_app_without_shard_keeps_the_replica_path():
    engine = DistributedEngine(
        backend="multiprocessing",
        n_ranks=2,
        app_factory=_replay_app,
        policy="all",
    )
    engine.add_analysis(_replay_analysis())
    result = engine.run()
    assert multiprocessing.active_children() == []
    assert result.transport_stats["pipeline"]["chunks_speculated"] > 0


def test_forked_workers_never_call_app_factory():
    serial = _heat(1)
    sharded = _heat(2, wrap=_built_here)
    _assert_rows_identical(serial, sharded)
    engine, _, result = sharded
    assert result.recovery_events == []
    assert _block_stepped(engine, result)


def test_forked_replica_workers_never_call_app_factory():
    serial = InSituEngine(_replay_app(), policy="all")
    expected = serial.add_analysis(_replay_analysis())
    serial_result = serial.run()
    engine = DistributedEngine(
        backend="multiprocessing",
        n_ranks=2,
        app_factory=functools.partial(_built_here, _replay_app),
        policy="all",
    )
    analysis = engine.add_analysis(_replay_analysis())
    result = engine.run()
    assert multiprocessing.active_children() == []
    assert result.recovery_events == []
    assert result.transport_stats["pipeline"]["chunks_speculated"] > 0
    _assert_rows_identical(
        (serial, [expected], serial_result), (engine, [analysis], result)
    )


def test_spawned_workers_build_from_app_factory(monkeypatch):
    serial = _heat(1)
    methods = []
    get_context = multiprocessing.get_context

    def spy(method=None):
        methods.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context", spy)
    sharded = _heat(2)
    assert methods == ["spawn"]
    _assert_rows_identical(serial, sharded)
    engine, _, result = sharded
    assert _block_stepped(engine, result)
    assert result.transport_stats["total_halo_bytes"] > 0
    assert result.recovery_events == []


def test_worker_death_replays_and_stays_bit_identical():
    serial = _heat(1)
    faulted = _heat(4, faults="kill:rank=2,iter=10")
    _assert_rows_identical(serial, faulted)
    events = faulted[2].recovery_events
    assert [event.kind for event in events] == ["rank_death", "reshard"]
    death, reshard = events
    assert death.rank == 2
    # The death surfaces at the boundary after the chunk it died in.
    assert death.iteration == reshard.iteration == 16
    assert "replayed a fresh replica to iteration 16" in reshard.detail


@pytest.mark.parametrize("n_ranks", [1, 2])
@pytest.mark.parametrize(
    "name, window, size",
    [
        ("heat-diffusion", (6, 40), "n_nodes is 32"),
        ("advection-front", (0, 80), "n_cells is 48"),
    ],
)
def test_window_past_the_domain_is_rejected(name, window, size, n_ranks):
    config = scenarios.RunConfig(
        quick=True,
        n_ranks=n_ranks,
        backend="multiprocessing" if n_ranks > 1 else "simcomm",
        params={"window": window},
    )
    expected = rf"window \[{window[0]}, {window[1]}\].*{size}"
    with pytest.raises(ConfigurationError, match=expected):
        scenarios.run_scenario(name, config=config)
    assert multiprocessing.active_children() == []
