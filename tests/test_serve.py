"""Serving layer: protocol, cache, pool supervision, streaming server.

The server tests run against ONE module-scoped :class:`ServerThread`
(real asyncio server, real spawn-started worker pool, loopback
sockets) so the spawn warm-up is paid once; tests that mutate pool
state (worker kills) assert on the *deltas* they cause.  Shutdown
draining gets its own dedicated server.
"""

import json
import threading
import time

import pytest

from repro import scenarios
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
    def test_pool_survives_worker_death(self, client):
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
        # The pool is immediately serviceable again.
        healthy = client.run("heat-diffusion", QUICK, no_cache=True)
        assert healthy.report["ok"] is True


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
