"""Tests for the asyncio HTTP front-end (raw-socket clients, no extra deps)."""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

import repro.cache.http as http_module
import repro.cache.service as service_module
from repro.cache.fingerprint import cache_key
from repro.cache.http import ConsensusHTTPServer, run_server
from repro.cache.service import ConsensusCacheService, compute_consensus_payload
from repro.cache.store import ResultCache
from repro.core.ranking_set import RankingSet
from repro.fair.registry import describe_fair_methods
from repro.io.csv_io import write_candidate_table, write_ranking_set
from repro.io.serialization import (
    candidate_table_to_dict,
    ranking_set_to_dict,
    to_jsonable,
)
from tests.cache.faults import ManualClock, run_scenario, yield_until

DELTA = 0.35


async def http_request(host, port, verb, path, body=None):
    """Issue one HTTP/1.1 request with a raw asyncio socket, return (status, json)."""
    reader, writer = await asyncio.open_connection(host, port)
    payload = b"" if body is None else json.dumps(body).encode()
    head = (
        f"{verb} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    raw = await reader.read()  # server always closes the connection
    writer.close()
    await writer.wait_closed()
    header_text, _, body_bytes = raw.partition(b"\r\n\r\n")
    status = int(header_text.split()[1])
    return status, json.loads(body_bytes)


def with_server(scenario, service=None, max_requests=None):
    """Run ``scenario(host, port)`` against a fresh server on a free port."""

    async def main():
        server = ConsensusHTTPServer(
            service or ConsensusCacheService(), port=0, max_requests=max_requests
        )
        host, port = await server.start()
        serve_task = asyncio.create_task(server.serve())
        try:
            return await scenario(host, port), serve_task.done()
        finally:
            server.request_stop()
            await serve_task

    return asyncio.run(main())


@pytest.fixture
def query_body(tiny_table, tiny_rankings):
    return {
        "rankings": ranking_set_to_dict(tiny_rankings),
        "candidates": candidate_table_to_dict(tiny_table),
        "delta": DELTA,
    }


class TestEndpoints:
    def test_aggregate_miss_then_hit(self, query_body, tiny_table, tiny_rankings):
        cold = compute_consensus_payload(tiny_rankings, tiny_table, delta=DELTA)

        async def scenario(host, port):
            first = await http_request(host, port, "POST", "/aggregate", query_body)
            second = await http_request(host, port, "POST", "/aggregate", query_body)
            return first, second

        (first, second), _ = with_server(scenario)
        assert first[0] == second[0] == 200
        assert first[1]["cached"] is False
        assert second[1]["cached"] is True
        assert first[1]["result"] == second[1]["result"] == cold

    def test_fairness_projection_shares_the_cache_entry(self, query_body):
        async def scenario(host, port):
            await http_request(host, port, "POST", "/aggregate", query_body)
            return await http_request(host, port, "POST", "/fairness", query_body)

        (status, payload), _ = with_server(scenario)
        assert status == 200
        assert payload["cached"] is True  # /aggregate already populated the entry
        assert payload["method_label"] == "Fair-Borda"
        assert "IRP" in payload["fairness"]
        assert set(payload) == {
            "key", "cached", "method", "method_label", "pd_loss", "parity", "fairness",
        }

    def test_csv_path_inputs(self, tmp_path, tiny_table, tiny_rankings):
        candidates_csv = tmp_path / "candidates.csv"
        rankings_csv = tmp_path / "rankings.csv"
        write_candidate_table(tiny_table, candidates_csv)
        write_ranking_set(tiny_rankings, tiny_table, rankings_csv)
        body = {
            "rankings_csv": str(rankings_csv),
            "candidates_csv": str(candidates_csv),
            "delta": DELTA,
        }

        async def scenario(host, port):
            return await http_request(host, port, "POST", "/aggregate", body)

        (status, payload), _ = with_server(scenario)
        assert status == 200
        assert payload["result"]["method_label"] == "Fair-Borda"

    def test_stats_counters(self, query_body):
        service = ConsensusCacheService()

        async def scenario(host, port):
            await http_request(host, port, "POST", "/aggregate", query_body)
            await http_request(host, port, "POST", "/aggregate", query_body)
            return await http_request(host, port, "GET", "/stats")

        (status, payload), _ = with_server(scenario, service=service)
        assert status == 200
        assert payload["cache"]["hits"] == 1
        assert payload["cache"]["misses"] == 1
        assert payload["server"]["requests"] == 2  # responses completed before /stats
        assert payload["server"]["endpoints"] == {"/aggregate": 2, "/stats": 1}
        assert "fair-borda-insertion" in payload["methods"]

class TestErrors:
    def test_unknown_path_is_404(self):
        async def scenario(host, port):
            return await http_request(host, port, "GET", "/nope")

        (status, payload), _ = with_server(scenario)
        assert status == 404
        assert payload["paths"] == [
            "/aggregate", "/consensus", "/fairness", "/healthz", "/readyz",
            "/stats", "/update",
        ]

    def test_wrong_verb_is_405(self):
        async def scenario(host, port):
            return await http_request(host, port, "GET", "/aggregate")

        (status, _), _ = with_server(scenario)
        assert status == 405

    def test_invalid_json_is_400(self):
        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            body = b"{not json"
            writer.write(
                f"POST /aggregate HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return int(raw.split()[1]), json.loads(raw.partition(b"\r\n\r\n")[2])

        (status, payload), _ = with_server(scenario)
        assert status == 400
        assert "not valid JSON" in payload["error"]

    def test_missing_inputs_is_400(self):
        async def scenario(host, port):
            return await http_request(host, port, "POST", "/aggregate", {"delta": 0.1})

        (status, payload), _ = with_server(scenario)
        assert status == 400
        assert "rankings" in payload["error"]

    def test_unknown_method_is_400(self, query_body):
        async def scenario(host, port):
            return await http_request(
                host, port, "POST", "/aggregate", {**query_body, "method": "nope"}
            )

        (status, payload), _ = with_server(scenario)
        assert status == 400
        assert "unknown fair consensus method" in payload["error"]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_ranking_weight_is_400(self, query_body, bad):
        rankings = dict(query_body["rankings"])
        rankings["weights"] = [bad] + rankings["weights"][1:]

        async def scenario(host, port):
            return await http_request(
                host, port, "POST", "/aggregate", {**query_body, "rankings": rankings}
            )

        (status, payload), _ = with_server(scenario)
        assert status == 400
        assert "finite" in payload["error"]

    def test_out_of_range_delta_is_400(self, query_body):
        async def scenario(host, port):
            return await http_request(
                host, port, "POST", "/aggregate", {**query_body, "delta": 2.0}
            )

        (status, payload), _ = with_server(scenario)
        assert status == 400
        assert "error" in payload

    def test_malformed_request_line_is_400(self):
        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GIBBERISH\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return int(raw.split()[1])

        status, _ = with_server(scenario)
        assert status == 400


class TestLifecycle:
    def test_max_requests_triggers_clean_shutdown(self, query_body):
        async def scenario(host, port):
            await http_request(host, port, "POST", "/aggregate", query_body)
            await http_request(host, port, "GET", "/stats")
            # Give the serve loop a tick to observe the exhausted budget.
            await asyncio.sleep(0.05)
            return None

        _, serve_done = with_server(scenario, max_requests=2)
        assert serve_done  # serve() returned on its own, no request_stop needed

    def test_run_server_blocks_until_budget_spent(self, query_body):
        """The blocking entry point behind ``mani-rank serve`` exits cleanly."""
        responses = {}
        threads = []

        def client(address):
            import urllib.request

            host, port = address
            data = json.dumps(query_body).encode()
            request = urllib.request.Request(
                f"http://{host}:{port}/aggregate", data=data, method="POST"
            )
            with urllib.request.urlopen(request) as response:
                responses["aggregate"] = json.loads(response.read())
            with urllib.request.urlopen(f"http://{host}:{port}/stats") as response:
                responses["stats"] = json.loads(response.read())

        def on_ready(address):
            thread = threading.Thread(target=client, args=(address,), daemon=True)
            threads.append(thread)
            thread.start()

        exit_code = run_server(port=0, max_requests=2, on_ready=on_ready)
        threads[0].join(timeout=10)
        assert exit_code == 0
        assert responses["aggregate"]["cached"] is False
        assert responses["stats"]["cache"]["misses"] == 1


async def raw_post(host, port, path, data: bytes):
    """POST pre-encoded body bytes; return (status, raw response body bytes)."""
    reader, writer = await asyncio.open_connection(host, port)
    head = f"POST {path} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {len(data)}\r\n\r\n"
    writer.write(head.encode() + data)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    header_text, _, body_bytes = raw.partition(b"\r\n\r\n")
    return int(header_text.split()[1]), body_bytes


class CountingSpy:
    """Wrap a callable, counting calls while ``armed``."""

    def __init__(self, target):
        self.target = target
        self.armed = False
        self.calls = 0

    def __call__(self, *args, **kwargs):
        if self.armed:
            self.calls += 1
        return self.target(*args, **kwargs)


class BlockingService(ConsensusCacheService):
    """Real cache service whose ``aggregate`` can be held on a gate."""

    def __init__(self, cache=None):
        super().__init__(cache)
        self.block = False
        self.gate = threading.Event()
        self.started = threading.Event()

    def aggregate(self, *args, **kwargs):
        if self.block:
            self.started.set()
            assert self.gate.wait(timeout=30), "BlockingService gate never released"
        return super().aggregate(*args, **kwargs)


class TestHitFastPath:
    def test_repeat_skips_decode_build_fingerprint_and_executor(
        self, monkeypatch, query_body
    ):
        spies = {
            "json.loads": CountingSpy(json.loads),
            "ranking_set_from_dict": CountingSpy(http_module.ranking_set_from_dict),
            "candidate_table_from_dict": CountingSpy(http_module.candidate_table_from_dict),
            "cache_key": CountingSpy(service_module.cache_key),
        }
        monkeypatch.setattr(json, "loads", spies["json.loads"])
        monkeypatch.setattr(
            http_module, "ranking_set_from_dict", spies["ranking_set_from_dict"]
        )
        monkeypatch.setattr(
            http_module, "candidate_table_from_dict", spies["candidate_table_from_dict"]
        )
        monkeypatch.setattr(service_module, "cache_key", spies["cache_key"])
        data = json.dumps(query_body).encode()

        async def scenario(server, host, port):
            loop = asyncio.get_running_loop()
            executor_spy = CountingSpy(loop.run_in_executor)
            monkeypatch.setattr(loop, "run_in_executor", executor_spy)
            first = await raw_post(host, port, "/aggregate", data)
            for spy in (*spies.values(), executor_spy):
                spy.armed = True
            second = await raw_post(host, port, "/aggregate", data)
            for spy in (*spies.values(), executor_spy):
                spy.armed = False
            return first, second, executor_spy.calls

        first, second, submissions = run_scenario(scenario)[0]
        assert first[0] == second[0] == 200
        assert json.loads(second[1])["cached"] is True
        assert {name: spy.calls for name, spy in spies.items()} == dict.fromkeys(spies, 0)
        assert submissions == 0

    @pytest.mark.parametrize("path", ["/aggregate", "/fairness"])
    def test_fast_hit_bytes_equal_the_decoded_hit(self, query_body, path):
        data = json.dumps(query_body).encode()
        # Same query, different bytes: always takes the decode path.
        respaced = json.dumps(query_body, indent=1).encode()

        async def scenario(server, host, port):
            miss = await raw_post(host, port, path, data)
            decoded_hit = await raw_post(host, port, path, respaced)
            fast_hit = await raw_post(host, port, path, data)
            stats = await http_request(host, port, "GET", "/stats")
            return miss, decoded_hit, fast_hit, stats[1]

        miss, decoded_hit, fast_hit, stats = run_scenario(scenario)[0]
        assert json.loads(miss[1])["cached"] is False
        assert json.loads(decoded_hit[1])["cached"] is True
        assert fast_hit == decoded_hit
        assert stats["server"]["alias_hits"] == 1
        assert stats["server"]["alias_entries"] == 2
        assert stats["cache"]["hits"] == 2 and stats["cache"]["misses"] == 1

    def test_csv_bodies_are_never_aliased(self, tmp_path, tiny_table, tiny_rankings):
        candidates_csv = tmp_path / "candidates.csv"
        rankings_csv = tmp_path / "rankings.csv"
        write_candidate_table(tiny_table, candidates_csv)
        write_ranking_set(tiny_rankings, tiny_table, rankings_csv)
        rewritten = RankingSet.from_orders([[5, 4, 3, 2, 1, 0], [4, 5, 2, 3, 0, 1]])
        body = {
            "rankings_csv": str(rankings_csv),
            "candidates_csv": str(candidates_csv),
            "delta": DELTA,
        }

        async def scenario(server, host, port):
            before = await http_request(host, port, "POST", "/aggregate", body)
            write_ranking_set(rewritten, tiny_table, rankings_csv)
            after = await http_request(host, port, "POST", "/aggregate", body)
            stats = await http_request(host, port, "GET", "/stats")
            return before[1], after[1], stats[1]["server"]

        before, after, server_stats = run_scenario(scenario)[0]
        assert before["result"] == compute_consensus_payload(
            tiny_rankings, tiny_table, delta=DELTA
        )
        assert after["cached"] is False
        assert after["result"] == compute_consensus_payload(
            rewritten, tiny_table, delta=DELTA
        )
        assert server_stats["alias_entries"] == 0
        assert server_stats["alias_hits"] == 0

    def test_evicted_entry_falls_through_as_one_miss(self, query_body):
        data = json.dumps(query_body).encode()
        other = json.dumps({**query_body, "delta": 0.5}).encode()

        async def scenario(server, host, port):
            await raw_post(host, port, "/aggregate", data)
            await raw_post(host, port, "/aggregate", other)  # evicts the first entry
            before = (await http_request(host, port, "GET", "/stats"))[1]
            repeat = await raw_post(host, port, "/aggregate", data)
            after = (await http_request(host, port, "GET", "/stats"))[1]
            return before, json.loads(repeat[1]), after

        service = ConsensusCacheService(ResultCache(memory_capacity=1))
        before, repeat, after = run_scenario(scenario, service)[0]
        assert before["cache"]["evictions"] == 1
        assert repeat["cached"] is False
        assert after["cache"]["misses"] - before["cache"]["misses"] == 1
        assert after["cache"]["hits"] == before["cache"]["hits"] == 0
        assert after["server"]["alias_hits"] == 0

    def test_expired_entry_falls_through_as_one_miss(self, query_body):
        clock = ManualClock()
        data = json.dumps(query_body).encode()

        async def scenario(server, host, port):
            await raw_post(host, port, "/aggregate", data)
            clock.advance(61.0)
            repeat = await raw_post(host, port, "/aggregate", data)
            stats = (await http_request(host, port, "GET", "/stats"))[1]
            return json.loads(repeat[1]), stats

        service = ConsensusCacheService(ResultCache(ttl=60.0, clock=clock))
        repeat, stats = run_scenario(scenario, service)[0]
        assert repeat["cached"] is False
        assert stats["cache"]["misses"] == 2
        assert stats["cache"]["hits"] == 0
        assert stats["cache"]["expirations"] == 1
        assert stats["server"]["alias_hits"] == 0

    def test_invalidated_entry_falls_through_as_one_miss(
        self, query_body, tiny_table, tiny_rankings
    ):
        data = json.dumps(query_body).encode()
        add = [
            {"ranking": [tiny_table.name_of(c) for c in ranking]}
            for ranking in tiny_rankings
        ]
        first_update = {
            "candidates": query_body["candidates"],
            "delta": DELTA,
            "add": add,
        }

        async def scenario(server, host, port):
            await raw_post(host, port, "/aggregate", data)
            await http_request(host, port, "POST", "/update", first_update)
            served = (await http_request(host, port, "GET", "/consensus"))[1]
            await http_request(host, port, "POST", "/update", {"add": add[:1]})
            before = (await http_request(host, port, "GET", "/stats"))[1]
            repeat = await raw_post(host, port, "/aggregate", data)
            after = (await http_request(host, port, "GET", "/stats"))[1]
            return served, before, json.loads(repeat[1]), after

        served, before, repeat, after = run_scenario(scenario)[0]
        assert served["cached"] is True  # /consensus shares the batch entry
        assert before["cache"]["invalidations"] == 1
        assert repeat["cached"] is False
        assert repeat["key"] == served["key"]
        assert after["cache"]["misses"] - before["cache"]["misses"] == 1
        assert after["server"]["alias_hits"] == 0

    def test_full_admission_budget_sheds_a_would_be_fast_hit(self, query_body):
        data = json.dumps(query_body).encode()
        other = json.dumps({**query_body, "delta": 0.5}).encode()
        service = BlockingService()

        async def scenario(server, host, port):
            loop = asyncio.get_running_loop()
            await raw_post(host, port, "/aggregate", data)
            service.block = True
            held = asyncio.create_task(raw_post(host, port, "/aggregate", other))
            assert await loop.run_in_executor(None, lambda: service.started.wait(10))
            shed = await raw_post(host, port, "/aggregate", data)
            service.gate.set()
            await held
            return shed, server._alias_hits, server._admission.snapshot()

        shed, alias_hits, admission = run_scenario(
            scenario, service, max_inflight=1, queue_depth=0
        )[0]
        assert shed[0] == 503
        assert "overloaded" in json.loads(shed[1])["error"]
        assert alias_hits == 0
        assert admission["shed"] == 1
        assert admission["admitted"] == 2

    def test_draining_sheds_a_would_be_fast_hit(self, query_body):
        data = json.dumps(query_body).encode()
        other = json.dumps({**query_body, "delta": 0.5}).encode()
        service = BlockingService()

        async def scenario(server, host, port):
            loop = asyncio.get_running_loop()
            await raw_post(host, port, "/aggregate", data)
            service.block = True
            held = asyncio.create_task(raw_post(host, port, "/aggregate", other))
            assert await loop.run_in_executor(None, lambda: service.started.wait(10))
            server.request_stop()
            await yield_until(lambda: server.draining)
            shed = await raw_post(host, port, "/aggregate", data)
            service.gate.set()
            await held
            return shed, server._alias_hits

        shed, alias_hits = run_scenario(scenario, service, drain_timeout=30.0)[0]
        assert shed[0] == 503
        assert "draining" in json.loads(shed[1])["error"]
        assert alias_hits == 0

    def test_alias_map_never_exceeds_its_bound(self, monkeypatch, query_body):
        monkeypatch.setattr(http_module, "_ALIAS_CAPACITY", 2)
        bodies = [
            json.dumps({**query_body, "delta": delta}).encode()
            for delta in (0.3, 0.35, 0.4, 0.45)
        ]

        async def scenario(server, host, port):
            sizes = []
            for data in bodies:
                await raw_post(host, port, "/aggregate", data)
                sizes.append(len(server._aliases))
            await raw_post(host, port, "/aggregate", bodies[0])  # aged out: decoded
            await raw_post(host, port, "/aggregate", bodies[-1])  # still aliased
            return sizes, len(server._aliases), server._alias_hits

        sizes, final_size, alias_hits = run_scenario(scenario)[0]
        assert sizes == [1, 2, 2, 2]
        assert final_size == 2
        assert alias_hits == 1


class TestResponseEncoding:
    """The ``default=`` encoder writes the same bytes as the full tree walk."""

    @staticmethod
    def legacy_bytes(payload) -> bytes:
        return json.dumps(to_jsonable(payload)).encode()

    def test_every_method_payload_matches_the_tree_walk(self, tiny_table, tiny_rankings):
        methods = sorted(describe_fair_methods())
        bodies = [
            {
                "rankings": ranking_set_to_dict(tiny_rankings),
                "candidates": candidate_table_to_dict(tiny_table),
                "method": method,
                "delta": DELTA,
            }
            for method in methods
        ]

        async def scenario(server, host, port):
            return [
                await raw_post(host, port, "/aggregate", json.dumps(body).encode())
                for body in bodies
            ]

        responses = run_scenario(scenario)[0]
        for method, (status, raw) in zip(methods, responses):
            assert status == 200, method
            expected = {
                "key": cache_key(tiny_rankings, tiny_table, method=method, delta=DELTA).digest,
                "cached": False,
                "result": compute_consensus_payload(
                    tiny_rankings, tiny_table, method=method, delta=DELTA
                ),
            }
            assert raw == self.legacy_bytes(expected), method

    def test_stats_and_error_bodies_match_the_tree_walk(self, query_body, tiny_rankings):
        update = {
            "candidates": query_body["candidates"],
            "delta": DELTA,
            "add": [ranking.to_list() for ranking in tiny_rankings],
        }

        async def scenario(server, host, port):
            await http_request(host, port, "POST", "/aggregate", query_body)
            await http_request(host, port, "POST", "/aggregate", query_body)
            await http_request(host, port, "POST", "/update", update)
            stats = await server._handle_stats({})
            missing = await raw_post(host, port, "/nope", b"")
            return stats, missing

        stats, (status, raw) = run_scenario(scenario)[0]
        assert json.dumps(stats, default=to_jsonable).encode() == self.legacy_bytes(stats)
        assert status == 404
        assert raw == self.legacy_bytes(
            {
                "error": "unknown path '/nope'",
                "paths": [
                    "/aggregate", "/consensus", "/fairness", "/healthz", "/readyz",
                    "/stats", "/update",
                ],
            }
        )

