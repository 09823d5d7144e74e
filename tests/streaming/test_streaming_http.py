"""Tests for the streaming HTTP endpoints (/update, /consensus) and /stats."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cache.http import ConsensusHTTPServer
from repro.cache.service import ConsensusCacheService
from repro.io.serialization import candidate_table_to_dict

DELTA = 0.35

RANKING_A = [0, 1, 2, 3, 4, 5]
RANKING_B = [5, 4, 3, 2, 1, 0]
RANKING_C = [1, 0, 3, 2, 5, 4]


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


def with_server(scenario, service=None):
    """Run ``scenario(host, port)`` against a fresh server on a free port."""

    async def main():
        server = ConsensusHTTPServer(service or ConsensusCacheService(), port=0)
        host, port = await server.start()
        serve_task = asyncio.create_task(server.serve())
        try:
            return await scenario(host, port)
        finally:
            server.request_stop()
            await serve_task

    return asyncio.run(main())


@pytest.fixture
def first_update(tiny_table):
    return {
        "candidates": candidate_table_to_dict(tiny_table),
        "delta": DELTA,
        "add": [
            {"ranking": RANKING_A, "label": "j1"},
            {"ranking": RANKING_C},
        ],
    }


class TestStreamingEndpoints:
    def test_update_then_consensus_then_invalidate(self, first_update):
        async def scenario(host, port):
            update = await http_request(host, port, "POST", "/update", first_update)
            cold = await http_request(host, port, "GET", "/consensus")
            warm = await http_request(host, port, "GET", "/consensus")
            second = await http_request(
                host, port, "POST", "/update", {"add": [{"ranking": RANKING_B}]}
            )
            refreshed = await http_request(host, port, "GET", "/consensus")
            stats = await http_request(host, port, "GET", "/stats")
            return update, cold, warm, second, refreshed, stats

        update, cold, warm, second, refreshed, stats = with_server(scenario)
        assert update[0] == 200
        assert update[1]["profile_version"] == 1 and update[1]["n_rankings"] == 2
        assert cold[0] == warm[0] == 200
        assert cold[1]["cached"] is False and warm[1]["cached"] is True
        assert cold[1]["result"] == warm[1]["result"]
        assert second[1]["invalidated"] == 1
        assert refreshed[1]["cached"] is False
        assert refreshed[1]["key"] != cold[1]["key"]
        assert stats[1]["streaming"]["n_rankings"] == 3
        assert stats[1]["streaming"]["profile_version"] == 2
        assert stats[1]["cache"]["invalidations"] == 1
        assert stats[1]["cache"]["profile_version"] == 2

    def test_streamed_consensus_is_bit_identical_to_aggregate(
        self, first_update, tiny_table
    ):
        async def scenario(host, port):
            await http_request(host, port, "POST", "/update", first_update)
            streamed = await http_request(host, port, "GET", "/consensus")
            server_profile = await http_request(host, port, "GET", "/stats")
            return streamed, server_profile

        service = ConsensusCacheService()
        streamed, _ = with_server(scenario, service=service)

        from repro.core.ranking import Ranking
        from repro.core.ranking_set import RankingSet

        profile = RankingSet([Ranking(RANKING_A), Ranking(RANKING_C)])
        batch = ConsensusCacheService().aggregate(profile, tiny_table, delta=DELTA)
        assert streamed[1]["key"] == batch["key"]
        assert streamed[1]["result"] == batch["result"]

    def test_first_update_requires_the_candidate_table(self):
        async def scenario(host, port):
            return await http_request(
                host, port, "POST", "/update", {"add": [{"ranking": RANKING_A}]}
            )

        status, payload = with_server(scenario)
        assert status == 400
        assert "candidate table" in payload["error"]

    def test_consensus_before_any_update_is_a_client_error(self):
        async def scenario(host, port):
            return await http_request(host, port, "GET", "/consensus")

        status, payload = with_server(scenario)
        assert status == 400
        assert "/update" in payload["error"]

    def test_malformed_update_entries_are_client_errors(self, first_update, tiny_table):
        async def scenario(host, port):
            await http_request(host, port, "POST", "/update", first_update)
            bad_entry = await http_request(
                host, port, "POST", "/update", {"add": [{"weight": 2}]}
            )
            bad_remove = await http_request(
                host, port, "POST", "/update", {"remove": [{"ranking": RANKING_B}]}
            )
            empty = await http_request(host, port, "POST", "/update", {})
            return bad_entry, bad_remove, empty

        bad_entry, bad_remove, empty = with_server(scenario)
        assert bad_entry[0] == 400
        assert bad_remove[0] == 400  # RANKING_B was never submitted
        assert empty[0] == 400

    def test_stats_reports_no_streaming_profile_before_first_update(self):
        async def scenario(host, port):
            return await http_request(host, port, "GET", "/stats")

        status, payload = with_server(scenario)
        assert status == 200
        assert payload["streaming"] is None


class TestUpdateContract:
    def test_rejected_update_changes_nothing(self, first_update):
        async def scenario(host, port):
            await http_request(host, port, "POST", "/update", first_update)
            rejected = await http_request(
                host,
                port,
                "POST",
                "/update",
                {
                    "add": [{"ranking": RANKING_B}],
                    "remove": [{"ranking": RANKING_B, "weight": 3}],
                },
            )
            stats = await http_request(host, port, "GET", "/stats")
            return rejected, stats

        rejected, stats = with_server(scenario)
        assert rejected[0] == 400
        assert stats[1]["streaming"]["n_rankings"] == 2
        assert stats[1]["streaming"]["profile_version"] == 1

    def test_rejected_first_update_binds_no_configuration(self, first_update):
        async def scenario(host, port):
            rejected = await http_request(
                host,
                port,
                "POST",
                "/update",
                {
                    **first_update,
                    "method": "fair-copeland",
                    "delta": 0.5,
                    "remove": [{"ranking": RANKING_B}],
                },
            )
            unbound = await http_request(host, port, "GET", "/stats")
            accepted = await http_request(host, port, "POST", "/update", first_update)
            bound = await http_request(host, port, "GET", "/stats")
            return rejected, unbound, accepted, bound

        rejected, unbound, accepted, bound = with_server(scenario)
        assert rejected[0] == 400
        assert unbound[1]["streaming"] is None
        assert accepted[0] == 200
        streaming = bound[1]["streaming"]
        assert streaming["method"] == "fair-borda"
        assert streaming["delta"]["default"] == DELTA
        assert streaming["n_rankings"] == 2 and streaming["profile_version"] == 1

    @pytest.mark.parametrize(
        "setting", [{"strategy": "insertion"}, {"delta": 0.2}, {"method": "fair-schulze"}]
    )
    def test_contradicting_configuration_is_rejected(self, first_update, setting):
        async def scenario(host, port):
            await http_request(host, port, "POST", "/update", first_update)
            contradicting = await http_request(
                host, port, "POST", "/update", {"add": [RANKING_B], **setting}
            )
            restated = await http_request(
                host,
                port,
                "POST",
                "/update",
                {"add": [RANKING_B], "method": "fair-borda", "strategy": None, "delta": DELTA},
            )
            stats = await http_request(host, port, "GET", "/stats")
            return contradicting, restated, stats

        contradicting, restated, stats = with_server(scenario)
        assert contradicting[0] == 400
        assert next(iter(setting)) in contradicting[1]["error"]
        assert restated[0] == 200
        assert stats[1]["streaming"]["n_rankings"] == 3

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight_is_a_client_error(self, first_update, bad):
        async def scenario(host, port):
            await http_request(host, port, "POST", "/update", first_update)
            rejected = await http_request(
                host, port, "POST", "/update", {"add": [{"ranking": RANKING_B, "weight": bad}]}
            )
            stats = await http_request(host, port, "GET", "/stats")
            return rejected, stats

        rejected, stats = with_server(scenario)
        assert rejected[0] == 400
        assert "finite" in rejected[1]["error"]
        assert stats[1]["streaming"]["n_rankings"] == 2
        assert stats[1]["streaming"]["profile_version"] == 1
