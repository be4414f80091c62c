"""Serving layer: protocol, cache, pool supervision, streaming server.

The server tests run against ONE module-scoped :class:`ServerThread`
(real asyncio server, real spawn-started worker pool, loopback
sockets) so the spawn warm-up is paid once; tests that mutate pool
state (worker kills) assert on the *deltas* they cause.  Shutdown
draining gets its own dedicated server.
"""

import asyncio
import json
import logging
import multiprocessing
import os
import pickle
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro import scenarios
from repro.engine import driver
from repro.engine.faults import KILL_EXIT_CODE
from repro.errors import ServeError
from repro.scenarios import RunConfig, replay_fingerprint, run_scenario
from repro.serve import (
    ResultCache,
    ServerThread,
    event_line,
    parse_run_request,
    result_line,
    split_result_line,
)
from repro.serve import pool as pool_module

QUICK = RunConfig(quick=True, crosscheck=False)


@pytest.fixture(scope="module")
def server():
    with ServerThread(workers=2) as harness:
        yield harness


@pytest.fixture()
def client(server):
    return server.client(timeout=120)


# ----------------------------------------------------------------------
# protocol units (no server)
# ----------------------------------------------------------------------


class TestProtocol:
    def test_parse_round_trips_config(self):
        body = json.dumps({
            "scenario": "heat-diffusion",
            "config": {"quick": True, "n_ranks": 2},
            "stream_every": 4,
        }).encode()
        request = parse_run_request(body)
        assert request.scenario == "heat-diffusion"
        assert request.config == RunConfig(quick=True, n_ranks=2)
        assert request.stream_every == 4
        assert request.stream and not request.no_cache
        assert request.cacheable

    @pytest.mark.parametrize("body, match", [
        (b"not json", "not valid JSON"),
        (b"[1]", "JSON object"),
        (b"{}", "scenario"),
        (b'{"scenario": "x", "bogus": 1}', "unknown key"),
        (b'{"scenario": "x", "config": {"warp": 9}}', "bad run config"),
        (b'{"scenario": "x", "stream_every": 0}', "stream_every"),
        (b'{"scenario": "x", "stream_every": true}', "stream_every"),
        (b'{"scenario": "x", "inject": "slow:rank=0,per_iter=1"}', "kill"),
    ])
    def test_parse_rejects_malformed(self, body, match):
        with pytest.raises(ServeError, match=match):
            parse_run_request(body)

    def test_result_line_splices_raw_bytes(self):
        raw = b'{"b":1,"a":[2,3]}'  # NOT key-sorted: must survive verbatim
        line = result_line(raw, cached=True, seconds=0.5)
        envelope, recovered = split_result_line(line)
        assert recovered == raw
        assert envelope["cached"] is True
        assert envelope["report"] == {"b": 1, "a": [2, 3]}

    def test_event_line_is_one_json_line(self):
        line = event_line("progress", iteration=3)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert json.loads(line) == {"event": "progress", "iteration": 3}


# ----------------------------------------------------------------------
# cache units (no server)
# ----------------------------------------------------------------------


class TestResultCache:
    def test_lru_eviction_respects_byte_budget(self):
        cache = ResultCache(max_bytes=100)
        assert cache.put("a", b"x" * 40)
        assert cache.put("b", b"y" * 40)
        assert cache.get("a") == b"x" * 40  # refresh a: b is now LRU
        assert cache.put("c", b"z" * 40)  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["bytes"] == 80 and stats["entries"] == 2

    def test_oversized_payload_not_stored(self):
        cache = ResultCache(max_bytes=10)
        assert not cache.put("big", b"x" * 11)
        assert cache.get("big") is None
        assert len(cache) == 0

    def test_replacement_does_not_leak_bytes(self):
        cache = ResultCache(max_bytes=100)
        cache.put("k", b"a" * 60)
        cache.put("k", b"b" * 30)
        assert cache.stats()["bytes"] == 30
        assert cache.get("k") == b"b" * 30


# ----------------------------------------------------------------------
# cache keys: every RunConfig field moves the digest
# ----------------------------------------------------------------------


class TestCacheKey:
    # (field, base config, variant config) — each pair differs in
    # exactly the named field, both sides valid.
    VARIANTS = [
        ("n_ranks", RunConfig(quick=True), RunConfig(quick=True, n_ranks=2)),
        ("backend", RunConfig(quick=True), RunConfig(quick=True, backend="mp")),
        ("quick", RunConfig(quick=True), RunConfig(quick=False)),
        ("adaptive", RunConfig(quick=True), RunConfig(quick=True, adaptive=True)),
        ("params",
         RunConfig(quick=True),
         RunConfig(quick=True, params={"train_iterations": 96})),
        ("crosscheck", RunConfig(quick=True), RunConfig(quick=True, crosscheck=True)),
        ("max_iterations",
         RunConfig(quick=True),
         RunConfig(quick=True, max_iterations=17)),
        ("rebalance",
         RunConfig(quick=True, n_ranks=2),
         RunConfig(quick=True, n_ranks=2, rebalance=True)),
    ]

    @pytest.mark.parametrize("field, base, variant",
                             VARIANTS, ids=[v[0] for v in VARIANTS])
    def test_each_field_changes_the_key(self, field, base, variant):
        assert base.cache_key("heat-diffusion") != variant.cache_key("heat-diffusion")

    def test_every_cache_participating_field_is_covered(self):
        # faults is the one deliberate absentee: it forces cache bypass.
        import dataclasses

        covered = {v[0] for v in self.VARIANTS}
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert fields - covered == {"faults"}

    def test_key_is_deterministic_and_scenario_scoped(self):
        config = RunConfig(quick=True)
        assert config.cache_key("heat-diffusion") == config.cache_key("heat-diffusion")
        assert config.cache_key("heat-diffusion") != config.cache_key("advection-front")

    def test_faulted_config_is_not_cacheable(self):
        faulted = RunConfig(n_ranks=2, backend="mp", faults="kill:rank=1,iter=9")
        assert not faulted.cacheable
        assert RunConfig(quick=True).cacheable


# ----------------------------------------------------------------------
# server: round-trip, streaming, cache
# ----------------------------------------------------------------------


class TestServerRoundTrip:
    def test_health_and_scenarios(self, client):
        health = client.get("/healthz")
        assert health["ok"] is True and health["workers"] == 2
        listing = client.get("/scenarios")
        names = [s["name"] for s in listing["scenarios"]]
        assert names == scenarios.names()

    def test_run_matches_local_run(self, client):
        response = client.run("heat-diffusion", QUICK)
        assert response.status == 200
        assert response.events[0]["event"] == "accepted"
        assert response.report["scenario"] == "heat-diffusion"
        assert response.report["ok"] is True
        assert response.report["config"] == QUICK.to_json()
        # Same run locally: identical modulo timing (replay fingerprint
        # strips wall-clock fields).
        local = run_scenario("heat-diffusion", config=QUICK)
        assert replay_fingerprint(response.report) == replay_fingerprint(
            local.to_json()
        )

    def test_ndjson_stream_matches_iteration_order(self, client):
        response = client.run("heat-diffusion", QUICK, no_cache=True)
        iterations = [e["iteration"] for e in response.progress]
        assert iterations == sorted(iterations)
        assert iterations == list(range(1, len(iterations) + 1))
        # coefficients appear incrementally once the model trains, and
        # evolve across the stream
        fitted = [e for e in response.progress
                  if e["analyses"] and "coefficients" in e["analyses"][0]]
        assert len(fitted) >= 2
        assert fitted[0]["analyses"][0]["coefficients"] != \
            fitted[-1]["analyses"][0]["coefficients"]
        # events bracket the run: accepted first, result last
        assert response.events[0]["event"] == "accepted"
        assert response.events[-1]["event"] == "result"

    def test_stream_every_thins_progress(self, client):
        full = client.run("heat-diffusion", QUICK, no_cache=True)
        thinned = client.run(
            "heat-diffusion", QUICK, no_cache=True, stream_every=8
        )
        assert 0 < len(thinned.progress) < len(full.progress)
        assert thinned.report == full.report or replay_fingerprint(
            thinned.report
        ) == replay_fingerprint(full.report)

    def test_stream_false_suppresses_progress(self, client):
        response = client.run("heat-diffusion", QUICK, no_cache=True, stream=False)
        assert response.progress == []
        assert response.report["ok"] is True

    def test_bad_requests_rejected(self, client):
        unknown = client.run("no-such-scenario", QUICK)
        assert unknown.status == 400 and "no-such-scenario" in unknown.error
        bad_configs = (
            {"warp": 9}, {"transport": "shm"}, {"kernels": "numba"},
            {"quick": "false"}, {"adaptive": "true"}, {"rebalance": 0},
            {"crosscheck": "false"}, {"max_iterations": 2.5},
            {"max_iterations": True}, {"max_iterations": "5"},
        )
        for config in bad_configs:
            bad_config = client._request(
                "POST", "/run",
                json.dumps({"scenario": "heat-diffusion",
                            "config": config}).encode(),
            )
            assert bad_config[0] == 400, config
        bad_flag = client._request(
            "POST", "/run",
            json.dumps({"scenario": "heat-diffusion", "config": {"quick": True},
                        "no_cache": "false"}).encode(),
        )
        assert bad_flag[0] == 400
        assert client._request("GET", "/nope")[0] == 404
        assert client._request("GET", "/run")[0] == 405


    def test_bad_params_rejected_before_any_worker(self, client):
        # Every param of every scenario fails on "abc", as do structured
        # values of the wrong shape and unknown names: each is a 400
        # whether or not faults make the request uncacheable, and no
        # worker sees one.
        cases = [
            (spec.name, {name: "abc"}) for spec in scenarios.specs()
            for name in spec.schema
        ] + [
            ("heat-diffusion", {"n_nodez": 5}),
            ("heat-diffusion", {"order": "abc"}),
            ("lulesh-sedov", {"maintain_field": 1}),
            ("lulesh-sedov", {"thresholds": []}),
            ("oscillator-ringdown", {"lags": []}),
            ("heat-diffusion", {"window": [1, 2, 3]}),
            ("heat-diffusion", {"window": [6, 40]}),
        ]
        faulted = {
            "n_ranks": 2,
            "backend": "multiprocessing",
            "faults": "kill:rank=1,iter=5",
        }
        jobs = client.get("/stats")["pool"]["jobs"]
        for scenario, params in cases:
            for knobs in ({}, faulted):
                config = dict(knobs, quick=True, params=params)
                status, body = client._request(
                    "POST", "/run",
                    json.dumps({"scenario": scenario, "config": config}).encode(),
                )
                assert status == 400, (scenario, config)
                assert json.loads(body)["error"], (scenario, config)
        assert client.get("/stats")["pool"]["jobs"] == jobs


class TestServerCache:
    def test_cache_hit_is_byte_identical_and_counted(self, client):
        config = RunConfig(quick=True, crosscheck=False,
                           params={"train_iterations": 112})
        before = client.get("/stats")["cache"]
        first = client.run("heat-diffusion", config)
        assert not first.cached
        second = client.run("heat-diffusion", config)
        assert second.cached
        assert second.raw_report == first.raw_report  # bit-identical
        assert second.progress == []  # cache hits skip the pool
        after = client.get("/stats")["cache"]
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"] + 1
        assert after["bytes"] > before["bytes"]

    def test_no_cache_bypasses_without_touching_stats(self, client):
        config = RunConfig(quick=True, crosscheck=False, max_iterations=77)
        client.run("heat-diffusion", config)  # populate
        before = client.get("/stats")["cache"]
        response = client.run("heat-diffusion", config, no_cache=True)
        assert not response.cached
        after = client.get("/stats")["cache"]
        assert (after["hits"], after["misses"]) == (
            before["hits"], before["misses"]
        )

    def test_different_field_requests_get_different_entries(self, client):
        a = client.run("heat-diffusion", RunConfig(
            quick=True, crosscheck=False, max_iterations=41))
        b = client.run("heat-diffusion", RunConfig(
            quick=True, crosscheck=False, max_iterations=42))
        assert a.events[0]["cache_key"] != b.events[0]["cache_key"]
        assert a.report["iterations"] == 41
        assert b.report["iterations"] == 42


class TestServerConcurrency:
    def test_concurrent_streams_do_not_interleave(self, server):
        # Four concurrent clients, each with a distinct iteration cap —
        # with 2 workers this also exercises queueing.  Every response
        # must be a self-consistent stream answering ITS OWN request.
        caps = [30, 40, 50, 60]
        responses = [None] * len(caps)

        def fire(slot, cap):
            config = RunConfig(quick=True, crosscheck=False,
                               max_iterations=cap)
            responses[slot] = server.client(timeout=120).run(
                "heat-diffusion", config, no_cache=True
            )

        threads = [threading.Thread(target=fire, args=(i, cap))
                   for i, cap in enumerate(caps)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for cap, response in zip(caps, responses):
            assert response.status == 200
            assert response.report["config"]["max_iterations"] == cap
            iterations = [e["iteration"] for e in response.progress]
            assert iterations == list(range(1, cap + 1))
            assert response.events[-1]["event"] == "result"


class TestWorkerSupervision:
    def test_pool_survives_worker_death(self, server, client):
        workers = _workers(server)
        before = client.get("/stats")["pool"]
        response = client.run(
            "heat-diffusion", QUICK, inject="kill:rank=0,iter=40"
        )
        # The doomed run streamed up to the kill point, then reported
        # the death (exit code from the shared fault harness).
        assert response.report is None
        assert str(KILL_EXIT_CODE) in response.error
        assert response.progress, "no progress before the kill"
        assert max(e["iteration"] for e in response.progress) < 40 + 1
        after = client.get("/stats")["pool"]
        assert after["restarts"] == before["restarts"] + 1
        assert all(w["alive"] for w in after["workers"])
        _assert_one_reader_per_worker(server, gone=workers)
        # The pool is immediately serviceable again.
        healthy = client.run("heat-diffusion", QUICK, no_cache=True)
        assert healthy.report["ok"] is True

    def test_client_hang_up_replaces_worker(self, server, client):
        before = _workers(server)
        restarts = client.get("/stats")["pool"]["restarts"]
        # Long enough to still be streaming when the client goes away.
        config = RunConfig(
            quick=True,
            crosscheck=False,
            params={"n_iterations": 4000, "train_iterations": 3900},
        )
        body = json.dumps({
            "scenario": "heat-diffusion",
            "config": config.to_json(),
            "no_cache": True,
        }).encode()
        with socket.create_connection((server.host, server.port), timeout=60) as sock:
            sock.sendall(
                b"POST /run HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
                + body
            )
            with sock.makefile("rb") as stream:
                line = stream.readline()
                while line and b'"progress"' not in line:
                    line = stream.readline()
            assert line, "the stream ended before its first progress line"
            # Reset rather than linger: the server's next write fails.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        deadline = time.monotonic() + 60
        while client.get("/stats")["pool"]["restarts"] == restarts:
            assert time.monotonic() < deadline, "hung-up request kept its worker"
            time.sleep(0.05)
        _assert_one_reader_per_worker(server, gone=before)
        assert client.run("heat-diffusion", QUICK, no_cache=True).report["ok"]


class TestGracefulShutdown:
    def test_drain_completes_inflight_streams(self):
        with ServerThread(workers=1) as harness:
            config = RunConfig(quick=True, crosscheck=False)
            result = {}

            def fire():
                result["response"] = harness.client(timeout=120).run(
                    "heat-diffusion", config, no_cache=True
                )

            thread = threading.Thread(target=fire)
            thread.start()
            # Let the request reach the pool, then begin shutdown while
            # it is (plausibly) still streaming.
            time.sleep(0.05)
            harness.stop()
            thread.join(timeout=120)
            response = result["response"]
            assert response.status == 200
            assert response.events[-1]["event"] == "result"
            assert response.report["ok"] is True


# ----------------------------------------------------------------------
# the stream path: pipes read on the event loop, snapshots kept current
# ----------------------------------------------------------------------


def _on_loop(harness, fn):
    """``fn()`` run on the server's event-loop thread."""

    async def call():
        return fn()

    return asyncio.run_coroutine_threadsafe(call(), harness._loop).result(30)


def _workers(harness):
    return _on_loop(harness, lambda: list(harness._server.pool._workers))


def _assert_one_reader_per_worker(harness, gone):
    """Each live worker's pipe, and no pipe of the ``gone`` workers, has
    a reader on the server loop; the replaced workers' pipes are closed."""
    pool = harness._server.pool

    def collect():
        workers = list(pool._workers)
        owners = {id(w.transport): w for w in workers + list(gone)}
        readers = {}
        for key in asyncio.get_running_loop()._selector.get_map().values():
            owner = getattr(getattr(key.data[0], "_callback", None), "__self__", None)
            if id(owner) in owners:
                readers[key.fd] = owners[id(owner)]
        return readers, workers

    readers, workers = _on_loop(harness, collect)
    assert sorted(readers) == sorted(w.conn.fileno() for w in workers)
    assert all(readers[w.conn.fileno()] is w for w in workers)
    replaced = [w for w in gone if w not in workers]
    assert replaced, "no worker was replaced"
    for worker in replaced:
        assert worker.conn.closed
        assert worker not in readers.values()


def _write_all(fd, data) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _scripted_worker(conn) -> None:
    """Pool worker stand-in: each job says what it sends back.

    ``burst`` progress messages (``pause`` seconds apart), then a
    ``result_bytes``-long result whose frame is written in two halves
    ``stall`` seconds apart.  A ``die`` job ends the worker with exit
    code 3.  Either way it closes its pipe and lingers 0.3 s before it
    exits, as a worker freeing a large heap does, so a join on the
    server loop would hold the loop that long.
    """
    conn.send(("ready", {"pid": os.getpid()}))
    code = 0
    while True:
        job = conn.recv()
        if job is None:
            break
        if job.get("die"):
            code = 3
            break
        for i in range(job.get("burst", 0)):
            conn.send(("progress", {"iteration": i + 1, "pad": "p" * 200}))
            time.sleep(job.get("pause", 0.0))
        result = pickle.dumps(("result", b"r" * job.get("result_bytes", 8)))
        frame = struct.pack("!i", len(result)) + result
        _write_all(conn.fileno(), frame[: len(frame) // 2])
        time.sleep(job.get("stall", 0.0))
        _write_all(conn.fileno(), frame[len(frame) // 2:])
    conn.close()
    time.sleep(0.3)
    os._exit(code)


def _dying_worker(conn) -> None:
    os._exit(3)


@pytest.fixture(scope="module")
def scripted():
    """A server whose pool runs :func:`_scripted_worker` processes.

    The pool picks its worker body when it spawns, so the patch spans
    the start only and no other server inherits it.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pool_module, "_worker_main", _scripted_worker)
        harness = ServerThread(workers=2).start()
    try:
        yield harness
    finally:
        harness.stop()


def _submit_all(harness, jobs):
    """Submit ``jobs`` at once on the server loop.

    Returns, per job, its result bytes, the iterations its progress
    carried and the ``time.monotonic()`` it finished at.
    """

    async def one(job):
        seen = []

        async def sink(snapshot):
            seen.append(snapshot["iteration"])

        payload = await harness._server.pool.submit(job, on_progress=sink)
        return payload, seen, time.monotonic()

    async def every():
        return await asyncio.gather(*(one(job) for job in jobs))

    return asyncio.run_coroutine_threadsafe(every(), harness._loop).result(120)


def _slow_callbacks(caplog):
    """What asyncio's debug mode logged as callbacks over 100 ms."""
    return [
        r.getMessage()
        for r in caplog.records
        if r.name == "asyncio" and r.getMessage().startswith("Executing")
    ]


class TestStreamPath:
    # Under PYTHONASYNCIODEBUG=1 (a CI step) the loop logs any callback
    # that holds it over slow_callback_duration (100 ms), and the tests
    # that check _slow_callbacks fail on it.

    def test_burst_arrives_complete_and_in_order(self, scripted, caplog):
        # A pipe read that waited out the result's 0.3 s stall would
        # hold the loop.
        caplog.set_level(logging.WARNING, logger="asyncio")
        assert scripted._loop.slow_callback_duration == 0.1
        [(payload, seen, _)] = _submit_all(
            scripted, [{"burst": 1500, "result_bytes": 64, "stall": 0.3}]
        )
        assert seen == list(range(1, 1501))
        assert payload == b"r" * 64
        assert _slow_callbacks(caplog) == []

    def test_large_result_arrives_while_another_stream_moves(self, scripted):
        big = {"result_bytes": 300_000, "stall": 1.0}
        small = {"burst": 50, "pause": 0.002}
        (payload, _, big_done), (small_payload, seen, small_done) = _submit_all(
            scripted, [big, small]
        )
        assert payload == b"r" * 300_000
        assert small_payload == b"r" * 8 and seen == list(range(1, 51))
        # The small stream finished while half the big frame waited.
        assert big_done - small_done > 0.5

    def test_job_larger_than_the_pipe_buffer_arrives(self, scripted):
        [(payload, _, _)] = _submit_all(
            scripted, [{"pad": "j" * 1_000_000, "result_bytes": 5}]
        )
        assert payload == b"r" * 5

    def test_replacement_and_close_keep_the_loop_free(self, caplog):
        # A worker takes longer to exit than the loop may be held, so
        # the pool joins its processes off the loop.
        caplog.set_level(logging.WARNING, logger="asyncio")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pool_module, "_worker_main", _scripted_worker)
            harness = ServerThread(workers=1).start()
            try:
                [doomed] = _workers(harness)
                with pytest.raises(ServeError, match="exit code 3"):
                    _submit_all(harness, [{"die": True}])
                [fresh] = _workers(harness)
                assert fresh.generation == doomed.generation + 1
                assert _submit_all(harness, [{}])[0][0] == b"r" * 8
            finally:
                harness.stop()
        assert not doomed.process.is_alive() and not fresh.process.is_alive()
        assert _slow_callbacks(caplog) == []

    def test_failed_start_releases_its_workers(self, monkeypatch, caplog):
        # Worker 0 dies before it is ready; worker 1 warms up and must
        # be retired with it rather than left running.
        caplog.set_level(logging.WARNING, logger="asyncio")
        pool = pool_module.WorkerPool(size=2)
        spawned = []
        spawn = pool._spawn

        async def recording(index, **kwargs):
            body = _scripted_worker if index else _dying_worker
            monkeypatch.setattr(pool_module, "_worker_main", body)
            spawned.append(await spawn(index, **kwargs))
            return spawned[-1]

        async def start():
            pool._spawn = recording
            with pytest.raises(ServeError, match="worker 0 exited with code 3"):
                await pool.start()

        asyncio.run(start())
        assert [w.process.exitcode for w in spawned] == [3, 0]
        assert all(w.conn.closed and w.transport.is_closing() for w in spawned)
        assert _slow_callbacks(caplog) == []

    def test_start_with_every_worker_dead_names_each(
        self, monkeypatch, caplog
    ):
        # Both workers die before they are ready: the start waits for
        # both reads, names both exit codes in one error, leaves no task
        # pending and logs nothing; the harness closes its loop.
        caplog.set_level(logging.WARNING, logger="asyncio")
        monkeypatch.setattr(pool_module, "_worker_main", _dying_worker)
        pool = pool_module.WorkerPool(size=2)
        pending = []

        async def start():
            with pytest.raises(ServeError) as info:
                await pool.start()
            pending.extend(
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            )
            return str(info.value)

        message = asyncio.run(start())
        assert "worker 0 exited with code 3" in message
        assert "worker 1 exited with code 3" in message
        assert pending == []
        assert [r.getMessage() for r in caplog.records] == []

        loops = []
        new_event_loop = asyncio.new_event_loop
        monkeypatch.setattr(
            asyncio,
            "new_event_loop",
            lambda: loops.append(new_event_loop()) or loops[-1],
        )
        with pytest.raises(ServeError, match="exited with code 3"):
            ServerThread(workers=2).start()
        assert [loop.is_closed() for loop in loops] == [True]
        assert [r.getMessage() for r in caplog.records] == []

    def test_stream_makes_no_executor_call(self, client, monkeypatch):
        calls = []
        real = asyncio.BaseEventLoop.run_in_executor

        def counting(loop, *args, **kwargs):
            calls.append(args)
            return real(loop, *args, **kwargs)

        monkeypatch.setattr(asyncio.BaseEventLoop, "run_in_executor", counting)
        response = client.run("heat-diffusion", QUICK, no_cache=True)
        assert len(response.progress) > 100
        assert calls == []


def _drive_worker(job):
    """Run ``job`` through ``_worker_main`` in this process; return
    every message it sent."""
    parent, child = multiprocessing.Pipe()
    parent.send(job)
    parent.send(None)
    thread = threading.Thread(target=pool_module._worker_main, args=(child,))
    thread.start()
    messages = []
    try:
        while True:
            messages.append(parent.recv())
    except EOFError:
        pass
    thread.join(timeout=60)
    assert not thread.is_alive()
    parent.close()
    return messages


class TestWorkerHook:
    def test_non_streaming_job_builds_no_snapshot(self, monkeypatch):
        built = []
        real = driver.progress_snapshot

        def counting(*args):
            built.append(args[1])
            return real(*args)

        monkeypatch.setattr(driver, "progress_snapshot", counting)
        # A frozen clock makes the report's timings, so its bytes, repeat.
        monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
        job = {
            "scenario": "heat-diffusion",
            "config": QUICK.to_json(),
            "stream": False,
            "stream_every": 1,
            "inject": None,
        }
        quiet = _drive_worker(job)
        assert [kind for kind, _ in quiet] == ["ready", "result"]
        assert built == []
        streamed = _drive_worker(dict(job, stream=True))
        assert [kind for kind, _ in streamed[1:-1]] == ["progress"] * len(built)
        assert len(built) > 100
        assert quiet[-1] == streamed[-1]  # the same report bytes


def _memo_free_snapshot(scheduler, iteration, terminated):
    """``progress_snapshot`` computed afresh: every fit in the
    original scale recomputed, every event list copied."""
    analyses = []
    for state in scheduler.states:
        analysis = state.analysis
        entry = {
            "name": analysis.name,
            "stopped_at": state.stopped_at,
            "converged": bool(analysis.converged),
        }
        model = getattr(analysis, "model", None)
        if model is not None and model.is_trained:
            y_std = float(model.y_stats.std[0])
            coef = model._w * (y_std / model.x_stats.std)
            entry["coefficients"] = [float(c) for c in coef]
            entry["intercept"] = float(
                float(model.y_stats.mean[0])
                + y_std * model._b
                - float(np.dot(coef, model.x_stats.mean))
            )
        trainer = getattr(analysis, "trainer", None)
        if trainer is not None:
            entry["updates"] = int(trainer.updates)
        events = getattr(analysis, "threshold_events", None)
        if events:
            last = events[-1]
            entry["wavefront"] = {
                "iteration": int(last.iteration),
                "location": int(last.location),
                "value": float(last.value),
                "rank": analysis.wavefront_rank(last.location),
            }
        analyses.append(entry)
    return {
        "iteration": int(iteration),
        "terminated": bool(terminated),
        "analyses": analyses,
    }


STREAM_CASES = [
    pytest.param(spec.name, config, id=f"{spec.name}-{label}")
    for spec in scenarios.specs()
    for label, config in (
        ("serial", QUICK),
        ("adaptive", QUICK.replace(adaptive=True) if spec.adaptive_supported else None),
        ("mp2", QUICK.replace(n_ranks=2, backend="mp")),
    )
    if config is not None
]


@pytest.mark.parametrize("name, config", STREAM_CASES)
def test_progress_lines_match_memo_free_rendering(name, config, monkeypatch):
    real = driver.progress_snapshot
    lines = []

    def both(scheduler, iteration, terminated):
        snapshot = real(scheduler, iteration, terminated)
        fresh = _memo_free_snapshot(scheduler, iteration, terminated)
        lines.append(
            (event_line("progress", **snapshot), event_line("progress", **fresh))
        )
        return snapshot

    monkeypatch.setattr(driver, "progress_snapshot", both)
    run_scenario(name, config=config, progress=lambda snapshot: None)
    assert lines
    for memoised, fresh in lines:
        assert memoised == fresh
