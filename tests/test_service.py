"""Campaign service tests: content-addressed cache, job engine, HTTP API.

Pins the ROADMAP item 5 acceptance criteria (docs/service.md): a repeated
campaign is served entirely from the result cache with a summary
bit-identical to the cold run, the cache key covers every measurement
input plus the code-version fingerprint, and concurrent duplicate
submissions coalesce onto one computation.
"""

import asyncio
import dataclasses
import json
import os
import socket

import pytest

from repro.core.campaign import Axes, run_table_iv_campaign
from repro.core.results import shard_report_from_dict, shard_report_to_dict
from repro.errors import ConfigurationError
from repro.service import (
    CampaignService,
    ResultCache,
    cell_key,
    cell_key_payload,
    cells_from_spec,
    code_version,
    comparable_summary,
    serve_in_background,
)
from repro.service.client import (
    ServiceError,
    get_json,
    request_json,
    stream_events,
    submit_and_wait,
)
from repro.testgen.config import SolutionKind

KINDS = (SolutionKind.SOFTWARE, SolutionKind.METHOD1)
SAMPLES = 12


def _cells(fmt="decimal64", op="multiply", **overrides):
    options = dict(num_samples=SAMPLES, kinds=KINDS, verify_functionally=False,
                   formats=(fmt,), operations=(op,))
    options.update(overrides)
    return Axes(**options).cells()


class TestCellKey:
    def test_key_is_deterministic(self):
        first, second = _cells()[0], _cells()[0]
        assert cell_key(first) == cell_key(second)
        assert len(cell_key(first)) == 64  # full sha256 hex digest

    def test_key_covers_every_measurement_input(self):
        # Unlike BatchRunner._key (which may omit vector provenance because
        # vectors are rebound on every hit), the persistent cache key must
        # hash the *full* provenance: cached cycle reports are never
        # recomputed, so anything that can change them must change the key.
        base = _cells()[0]
        variants = [
            _cells(num_samples=SAMPLES + 1)[0],
            _cells(seed=99)[0],
            _cells(repetitions=2)[0],
            _cells(operand_classes=("zero",))[0],
            _cells(fmt="decimal128")[0],
            _cells(op="add")[0],
            _cells(verify_functionally=True)[0],
            _cells(kinds=(SolutionKind.METHOD1, SolutionKind.SOFTWARE))[0],
        ]
        keys = {cell_key(cell) for cell in variants}
        assert cell_key(base) not in keys
        assert len(keys) == len(variants)

    def test_shard_plan_is_part_of_the_key(self):
        cell = _cells()[0]
        assert cell_key(cell, shards_per_cell=1) != cell_key(
            cell, shards_per_cell=3
        )

    def test_code_version_bump_invalidates(self):
        cell = _cells()[0]
        assert cell_key(cell, version="deadbeef") != cell_key(
            cell, version="cafef00d"
        )
        # The default version is the real fingerprint of src/repro — stable
        # within a process, 64 hex chars, and embedded in the payload.
        payload = cell_key_payload(cell)
        assert payload["code_version"] == code_version()
        assert len(code_version()) == 64

    def test_payload_is_canonical_json(self):
        payload = cell_key_payload(_cells()[0])
        round_tripped = json.loads(
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
        )
        assert round_tripped == payload
        for field in ("schema", "code_version", "seed", "solution",
                      "workload", "fmt", "op", "rocket", "shard_plan"):
            assert field in payload


class TestResultCache:
    def test_store_load_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        shard = shard_report_from_dict(dict(
            shard_index=0, start=0, stop=3, raw_cycle_samples=[5, 6, 7],
            hw_cycles=30, sw_cycles=100, icache_accesses=50, icache_hits=40,
            dcache_accesses=20, dcache_hits=10, sim_wall_seconds=0.25,
            check_total=3, verified=True,
        ))
        cache.store("ab" * 32, [shard])
        loaded = cache.load("ab" * 32)
        assert loaded is not None
        assert dataclasses.asdict(loaded[0]) == dataclasses.asdict(shard)
        assert cache.hits == 1 and len(cache) == 1

    def test_corrupt_and_foreign_entries_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        path = cache._entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write("not json{")
        assert cache.load(key) is None
        with open(path, "w") as handle:
            json.dump({"schema": 9999, "shards": []}, handle)
        assert cache.load(key) is None
        assert cache.misses == 2 and cache.hits == 0

    def test_stats_and_bypass_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load("ef" * 32) is None
        cache.bypass(2)
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["bypasses"] == 2
        assert stats["entries"] == 0 and cache.hit_rate == 0.0

    def test_version_scoped_store(self, tmp_path):
        # Entries written under one code version are invisible to a cache
        # constructed with another: the version participates in the key.
        cell = _cells()[0]
        old = ResultCache(tmp_path, version="old")
        new = ResultCache(tmp_path, version="new")
        assert old.key_for(cell) != new.key_for(cell)
        assert not new.contains(old.key_for(cell))


class TestRunCampaignCache:
    def test_warm_rerun_is_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        options = dict(num_samples=SAMPLES, kinds=KINDS, cache=cache)
        cold = run_table_iv_campaign(**options)
        assert cold.cache_misses == len(KINDS) and cold.cache_hits == 0
        warm = run_table_iv_campaign(**options)
        assert warm.cache_hits == len(KINDS) and warm.cache_misses == 0
        assert comparable_summary(cold.to_summary()) == comparable_summary(
            warm.to_summary()
        )
        # Everything but the campaign's own wall clock matches — including
        # sim_wall_seconds, which warm runs inherit from the cached shards.
        assert cold.to_summary()["sim_wall_seconds"] == (
            warm.to_summary()["sim_wall_seconds"]
        )
        assert cache.hits == len(KINDS) and cache.misses == len(KINDS)

    def test_sharded_warm_rerun_matches(self, tmp_path):
        cache = ResultCache(tmp_path)
        options = dict(
            num_samples=SAMPLES, kinds=KINDS, shards_per_cell=3, cache=cache
        )
        cold = run_table_iv_campaign(**options)
        warm = run_table_iv_campaign(**options)
        assert warm.cache_hits == len(KINDS)
        assert comparable_summary(cold.to_summary()) == comparable_summary(
            warm.to_summary()
        )
        assert warm.to_summary()["workers"] == cold.to_summary()["workers"]
        assert warm.total_shards == cold.total_shards == 3 * len(KINDS)


class TestCellsFromSpec:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            cells_from_spec({"samples": 10, "smaples": 20})

    def test_table_iv_spec(self):
        cells = cells_from_spec(
            {"samples": 10, "kinds": list(KINDS), "verify": False}
        )
        assert [cell.solution.kind for cell in cells] == list(KINDS)
        assert all(cell.num_samples == 10 for cell in cells)

    def test_non_object_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            cells_from_spec(["samples", 10])


class TestCampaignService:
    SPEC = {"samples": SAMPLES, "kinds": list(KINDS), "verify": False}

    def test_concurrent_duplicates_coalesce_then_cache(self, tmp_path):
        async def scenario():
            service = CampaignService(ResultCache(tmp_path))
            try:
                first = await service.submit(self.SPEC)
                second = await service.submit(self.SPEC)
                await asyncio.gather(service.wait(first), service.wait(second))
                third = await service.submit(self.SPEC)
                await service.wait(third)
            finally:
                service.shutdown()
            return first, second, third

        first, second, third = asyncio.run(scenario())
        cells = len(KINDS)
        assert first.status == second.status == third.status == "done"
        # Exactly one job computed each cell; its concurrent twin either
        # latched onto the in-flight future (coalesced) or, if a cell had
        # already landed, read it back from the store (cached).
        assert first.cells_computed + second.cells_computed == cells
        assert (second.cells_coalesced + second.cells_cached
                + second.cells_computed) == cells
        # The sequential third submission is a pure cache hit.
        assert third.cells_cached == cells and third.cells_computed == 0
        assert comparable_summary(first.summary) == comparable_summary(
            third.summary
        )

    def test_bad_specs_rejected_at_submit(self, tmp_path):
        async def scenario():
            service = CampaignService(ResultCache(tmp_path))
            try:
                with pytest.raises(ConfigurationError):
                    await service.submit({"samples": 10, "typo_field": 1})
                with pytest.raises(ConfigurationError):
                    await service.submit(
                        {"samples": SAMPLES, "workload": "no-such-workload"}
                    )
            finally:
                service.shutdown()

        asyncio.run(scenario())

    def test_runtime_failure_marks_job_failed(self, tmp_path, monkeypatch):
        from repro.service import engine

        def explode(task):
            raise RuntimeError("simulator caught fire")

        monkeypatch.setattr(engine, "_run_shard_task", explode)

        async def scenario():
            service = CampaignService(ResultCache(tmp_path))
            try:
                job = await service.submit(self.SPEC)
                await service.wait(job)
            finally:
                service.shutdown()
            return job

        job = asyncio.run(scenario())
        assert job.status == "failed"
        assert "simulator caught fire" in job.error
        assert job.summary is None

    def test_busy_time_excludes_executor_queue_wait(self, tmp_path):
        # One worker and three shards per cell: all six shards are handed
        # to the executor at once and five of them queue behind another.
        async def scenario():
            service = CampaignService(ResultCache(tmp_path), workers=1)
            try:
                job = await service.submit(
                    dict(self.SPEC, samples=30, shards_per_cell=3)
                )
                await service.wait(job)
                return job, service.stats()
            finally:
                service.shutdown()

        job, stats = asyncio.run(scenario())
        assert job.status == "done"
        shard_sim = [event["sim_wall_seconds"] for event in job.events
                     if event["event"] == "shard_done"]
        assert len(shard_sim) == 3 * len(KINDS)
        busy = stats["busy_seconds"]
        assert busy <= stats["uptime_seconds"]
        assert stats["worker_utilization"] <= 1.0
        # Busy time is the shards' own work: their simulation time plus
        # program build and checking, not a multiple of it.
        assert sum(shard_sim) <= busy < 2 * sum(shard_sim)

    def test_cache_bypass_spec(self, tmp_path):
        async def scenario():
            cache = ResultCache(tmp_path)
            service = CampaignService(cache)
            try:
                spec = dict(self.SPEC, cache=False)
                job = await service.submit(spec)
                await service.wait(job)
                rerun = await service.submit(spec)
                await service.wait(rerun)
            finally:
                service.shutdown()
            return cache, job, rerun

        cache, job, rerun = asyncio.run(scenario())
        assert job.status == rerun.status == "done"
        assert rerun.cells_cached == 0  # nothing stored, nothing served
        assert cache.bypasses == 2 * len(KINDS)
        assert len(cache) == 0


class TestHttpService:
    SPEC = {"samples": SAMPLES, "kinds": list(KINDS), "verify": False,
            "label": "http-e2e"}

    def test_end_to_end_cold_then_warm(self, tmp_path):
        cache = ResultCache(tmp_path)
        with serve_in_background(cache) as server:
            health = get_json(f"{server.base_url}/healthz")
            assert health["status"] == "ok"

            cold = submit_and_wait(server.base_url, self.SPEC)
            assert cold["status"] == "done"
            assert cold["cache"]["computed"] == len(KINDS)

            warm = submit_and_wait(server.base_url, self.SPEC)
            assert warm["cache"]["hits"] == len(KINDS)
            assert warm["cache"]["computed"] == 0
            assert comparable_summary(cold["summary"]) == comparable_summary(
                warm["summary"]
            )

            cold_events = stream_events(server.base_url, cold["job"])
            cold_names = [event["event"] for event in cold_events]
            assert cold_names[0] == "submitted" and cold_names[-1] == "done"
            assert "cell_done" in cold_names and "shard_done" in cold_names

            warm_events = stream_events(server.base_url, warm["job"])
            warm_names = [event["event"] for event in warm_events]
            assert warm_names[0] == "submitted" and warm_names[-1] == "done"
            assert warm_names.count("cell_cached") == len(KINDS)
            assert "shard_done" not in warm_names

            stats = get_json(f"{server.base_url}/stats")
            assert stats["cache"]["hits"] == len(KINDS)
            assert stats["jobs"]["done"] == 2
        assert cache.hit_rate == 0.5

    def test_error_responses(self, tmp_path):
        with serve_in_background(ResultCache(tmp_path)) as server:
            status, payload = request_json(f"{server.base_url}/status/job-99")
            assert status == 404
            status, payload = request_json(
                f"{server.base_url}/submit", {"smaples": 10}
            )
            assert status == 400 and "smaples" in payload["error"]
            with pytest.raises(ServiceError) as excinfo:
                get_json(f"{server.base_url}/no-such-route")
            assert excinfo.value.status == 404

    def test_invalid_specs_are_400(self, tmp_path):
        # Specs go through the CLI's validators: each of these is the
        # caller's mistake, rejected before a job exists.
        invalid = [
            {"samples": 4, "kinds": "method1"},
            {"samples": 4, "kinds": ["method2"]},
            {"samples": "abc"},
            {"samples": 4, "classes": ["normal", "no-such-class"]},
            {"samples": 4, "workload": "telco-billing",
             "workloads": ["carry-stress"]},
            {"samples": 4, "workloads": ["telco-billing"],
             "classes": ["normal"]},
            {"samples": 4, "workloads": ["telco-billing", "telco-billing"]},
        ]
        with serve_in_background(ResultCache(tmp_path)) as server:
            for spec in invalid:
                status, payload = request_json(
                    f"{server.base_url}/submit", spec
                )
                assert status == 400, (spec, payload)
                assert payload["error"]
            stats = get_json(f"{server.base_url}/stats")
            assert stats["jobs"]["total"] == 0
            status, health = request_json(f"{server.base_url}/healthz")
            assert status == 200 and health["status"] == "ok"

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_400(self, tmp_path, length):
        with serve_in_background(ResultCache(tmp_path)) as server:
            with socket.create_connection((server.host, server.port),
                                          timeout=10) as raw:
                raw.sendall(
                    b"POST /submit HTTP/1.1\r\nHost: localhost\r\n"
                    b"Content-Length: " + length.encode() + b"\r\n\r\n{}"
                )
                reply = b""
                while chunk := raw.recv(4096):
                    reply += chunk
            status_line, _, rest = reply.partition(b"\r\n")
            assert status_line.split()[1] == b"400"
            body = json.loads(rest.partition(b"\r\n\r\n")[2])
            assert "Content-Length" in body["error"]
            # The connection handler survived: the server still answers.
            assert get_json(f"{server.base_url}/healthz")["status"] == "ok"

    def test_result_while_running_is_409(self, tmp_path):
        with serve_in_background(ResultCache(tmp_path)) as server:
            ticket = json.loads(json.dumps(self.SPEC))
            ticket["samples"] = 60  # slow enough to catch mid-flight
            submitted, _ = None, None
            status, payload = request_json(
                f"{server.base_url}/submit", ticket
            )
            assert status == 202
            job_id = payload["job"]
            early, early_payload = request_json(
                f"{server.base_url}/result/{job_id}"
            )
            # Either we caught it running (409) or it already finished (200)
            # on a fast machine; both are correct, never a 5xx.
            assert early in (200, 409)
            final = submit_and_wait(server.base_url, ticket)
            assert final["status"] == "done"


class TestSerialization:
    def test_shard_report_dict_round_trip_preserves_models(self):
        shard = shard_report_from_dict(dict(
            shard_index=1, start=3, stop=5, raw_cycle_samples=[1, 2],
            hw_cycles=3, sw_cycles=4, icache_accesses=5, icache_hits=4,
            dcache_accesses=3, dcache_hits=2, sim_wall_seconds=0.1,
            check_total=2, verified=True, models=["spike", "rocket"],
        ))
        assert shard.models == ("spike", "rocket")
        again = shard_report_from_dict(shard_report_to_dict(shard))
        assert dataclasses.asdict(again) == dataclasses.asdict(shard)
