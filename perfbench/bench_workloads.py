"""The four workloads: seeded request streams and the cold computes that check them.

Each workload function turns ``(seed, size)`` into a :class:`Plan`: the server's
command-line flags, the priming requests sent during set-up, the timed
request stream, one :class:`Query` per response to check, and the cache
counters the stream must produce.  Inputs are Mallows profiles from
:mod:`repro.datagen`; the server only ever sees the request bytes (or the
CSV files they name).  The same seed always yields the same plan.

The stream length is part of the plan, not a deadline: a run sends a fixed
number of requests, sized from the workload's rate at the baseline so that
one run takes about ``--seconds``.  That keeps the cache counters a pure
function of the seed, so they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.cache.fingerprint import cache_key
from repro.cache.service import compute_consensus_payload
from repro.cache.store import ResultCache
from repro.core.candidates import CandidateTable
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.datagen.attributes import scalability_table
from repro.datagen.fair_modal import calibrated_modal_ranking
from repro.datagen.mallows import sample_mallows
from repro.fairness.parity import evaluate_mani_rank
from repro.io.csv_io import (
    read_candidate_table,
    read_ranking_set,
    write_candidate_table,
    write_ranking_set,
)
from repro.io.serialization import candidate_table_to_dict, ranking_set_to_dict

#: Modal-ranking parity targets, as in the in-process perf benchmarks: mildly
#: unfair modal rankings, so Make-MR-Fair has real work to do.
MODAL_TARGETS = {"Race": 0.3, "Gender": 0.5}
#: The MFCR methods the batch workloads rotate through.
METHODS = ("fair-borda", "fair-copeland", "fair-borda-insertion")
DELTA = 0.1
#: Seed of every workload's candidate table and modal ranking.
UNIVERSE_SEED = 7
#: Requests per stratified block of the Zipf trace (every query appears).
ZIPF_BLOCK = 100


@dataclass(frozen=True)
class Request:
    """One HTTP request; ``ref`` names the :class:`Query` that checks its response."""

    verb: str
    path: str
    body: bytes = b""
    ref: int = -1

    @property
    def is_read(self) -> bool:
        """Reads are classified as hits or misses by their ``cached`` flag."""
        return self.path in ("/aggregate", "/consensus")


@dataclass(frozen=True)
class Query:
    """The inputs behind one checked response, small enough to send to a worker.

    The profile is either a seeded Mallows draw over the ``n``-candidate
    universe, an explicit order matrix, or a pair of CSV files.
    """

    method: str
    delta: float
    n: int = 200
    m: int = 500
    theta: float = 0.6
    seed: tuple[int, ...] = ()
    orders: np.ndarray | None = None
    rankings_csv: str | None = None
    candidates_csv: str | None = None


@dataclass(frozen=True)
class Expected:
    """What a correct server answers for one :class:`Query`."""

    payload: dict
    digest: str
    profile: str
    feasible: bool


@dataclass
class Plan:
    """Everything one workload needs: server flags, streams, checks, counters."""

    server_args: list[str]
    #: ``ResultCache`` keyword arguments mirroring the server's flags (a
    #: ``directory`` value of ``True`` asks the replay for a fresh directory).
    cache_options: dict
    priming: list[Request]
    requests: list[Request]
    queries: dict[int, Query]
    #: Cache counters ``/stats`` must show once priming and requests are served.
    counters: dict[str, int]
    #: Fields every ``/update`` response must carry, by request ``ref``.
    updates: dict[int, dict] = field(default_factory=dict)


@functools.lru_cache(maxsize=None)
def universe(n_candidates: int) -> tuple[CandidateTable, Ranking]:
    """The candidate table and modal ranking of a workload, fixed like ``n``.

    The seed draws the profiles, not the universe: the group layout and the
    modal ranking's bias set how much correction and repair a query needs,
    and re-drawing them per seed moves the per-query cost by up to 8x.
    """
    table = scalability_table(n_candidates, rng=UNIVERSE_SEED)
    modal = calibrated_modal_ranking(table, MODAL_TARGETS, rng=UNIVERSE_SEED)
    return table, modal


def inputs(query: Query) -> tuple[RankingSet, CandidateTable]:
    """Rebuild the ``(rankings, table)`` a query describes."""
    if query.rankings_csv is not None:
        table = read_candidate_table(query.candidates_csv)
        return read_ranking_set(query.rankings_csv, table), table
    table, modal = universe(query.n)
    if query.orders is not None:
        return RankingSet.from_orders(query.orders.tolist()), table
    return sample_mallows(modal, query.theta, query.m, rng=np.random.default_rng(query.seed)), table


def cold_reference(query: Query) -> Expected:
    """Cold compute of one query: payload, cache digest, MANI-Rank feasibility."""
    rankings, table = inputs(query)
    payload = compute_consensus_payload(rankings, table, method=query.method, delta=query.delta)
    key = cache_key(rankings, table, method=query.method, delta=query.delta)
    order = Ranking(payload["consensus"]["order"])
    feasible = evaluate_mani_rank(order, table, query.delta).satisfied
    return Expected(payload, key.digest, key.profile, feasible)


def check(plan: Plan, request: Request, response: dict, expected: Expected) -> str | None:
    """``None`` when a 200 response is correct, else the reason it is not."""
    if request.path == "/update":
        fields = {**plan.updates[request.ref], "profile": expected.profile}
        for name, value in fields.items():
            if response.get(name) != value:
                return f"{name} is {response.get(name)!r}, expected {value!r}"
        return None
    if not isinstance(response.get("cached"), bool):
        return "no cached flag"
    if response.get("key") != expected.digest:
        return "cache key differs from the cold key"
    if response.get("result") != expected.payload:
        return "result differs from the cold compute"
    if not expected.feasible:
        return "consensus violates MANI-Rank at the requested delta"
    return None


def _aggregate_body(query: Query, rankings: RankingSet, candidates: dict) -> bytes:
    return json.dumps(
        {
            "rankings": ranking_set_to_dict(rankings),
            "candidates": candidates,
            "method": query.method,
            "delta": query.delta,
        }
    ).encode()


def _zipf_stream(n_queries: int, count: int) -> list[int]:
    """``count`` query ids with Zipf(s=1.1) popularity, in a fixed order.

    Each block of :data:`ZIPF_BLOCK` requests holds every query exactly as
    often as its Zipf share of the block (largest remainders round), in a
    shuffled order.  Popularity ranks map to queries through a fixed
    permutation, so the heavy hitters are not the first-built configurations.

    The trace is part of the workload, like the cache capacity: the seed
    draws the profiles, not the order.  A seeded order moves the number of
    misses, and which methods miss, enough to swing throughput by ~16% from
    seed to seed, more than the changes the benchmark must resolve.
    """
    rng = np.random.default_rng([UNIVERSE_SEED, 4])
    popularity = np.arange(1, n_queries + 1, dtype=float) ** -1.1
    quota = popularity / popularity.sum() * ZIPF_BLOCK
    counts = np.floor(quota).astype(int)
    shortfall = ZIPF_BLOCK - int(counts.sum())
    counts[np.argsort(counts - quota, kind="stable")[:shortfall]] += 1
    rank_to_query = rng.permutation(n_queries)
    block = np.repeat(rank_to_query, counts)
    stream: list[int] = []
    while len(stream) < count:
        stream.extend(int(q) for q in rng.permutation(block))
    return stream[:count]


def zipf_replay(seed: int, count: int, work_dir: Path) -> Plan:
    """18 distinct queries (3 profiles x 3 methods x 2 deltas) under Zipf s=1.1."""
    queries = dict(
        enumerate(
            Query(method, delta, theta=theta, seed=(seed, 3, profile))
            for profile, theta in enumerate((0.3, 0.6, 1.0))
            for method in METHODS
            for delta in (0.05, 0.1)
        )
    )
    table = universe(200)[0]
    candidates = candidate_table_to_dict(table)
    profiles = {query.seed: inputs(query)[0] for query in queries.values()}
    bodies = {
        ref: _aggregate_body(query, profiles[query.seed], candidates)
        for ref, query in queries.items()
    }
    stream = _zipf_stream(len(queries), count)
    requests = [Request("POST", "/aggregate", bodies[ref], ref) for ref in stream]

    capacity = 8
    digests = {
        ref: cache_key(profiles[query.seed], table, method=query.method, delta=query.delta).digest
        for ref, query in queries.items()
    }
    model = ResultCache(memory_capacity=capacity)
    for ref in stream:
        if model.get(digests[ref]) is None:
            model.put(digests[ref], {})
    stats = model.stats()
    return Plan(
        server_args=["--memory-capacity", str(capacity)],
        cache_options={"memory_capacity": capacity},
        priming=[],
        requests=requests,
        queries=queries,
        counters={
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "invalidations": 0,
        },
    )


def cold_distinct(seed: int, count: int, work_dir: Path) -> Plan:
    """A fresh n=200/m=500 profile per request; methods rotate; disk tier on."""
    candidates = candidate_table_to_dict(universe(200)[0])
    queries = {
        index: Query(METHODS[index % len(METHODS)], DELTA, seed=(seed, 5, index))
        for index in range(count)
    }
    requests = [
        Request("POST", "/aggregate", _aggregate_body(query, inputs(query)[0], candidates), ref)
        for ref, query in queries.items()
    ]
    capacity = 256
    return Plan(
        server_args=["--memory-capacity", str(capacity), "--cache-dir", str(work_dir / "cache")],
        cache_options={"memory_capacity": capacity, "directory": True},
        priming=[],
        requests=requests,
        queries=queries,
        counters={
            "hits": 0,
            "misses": count,
            "evictions": max(0, count - capacity),
            "invalidations": 0,
        },
    )


def stream_churn(seed: int, rounds: int, work_dir: Path) -> Plan:
    """500 primed rankings; per round one update (+5/-5) and three reads."""
    table, modal = universe(200)
    live = sample_mallows(modal, 0.6, 500, rng=np.random.default_rng([seed, 6])).to_order_lists()
    priming = Request(
        "POST",
        "/update",
        json.dumps(
            {
                "candidates": candidate_table_to_dict(table),
                "method": METHODS[0],
                "delta": DELTA,
                "add": live,
            }
        ).encode(),
    )
    arrivals = sample_mallows(
        modal, 0.6, 5 * rounds, rng=np.random.default_rng([seed, 7])
    ).to_order_lists()
    rng = np.random.default_rng([seed, 8])
    requests: list[Request] = []
    queries: dict[int, Query] = {}
    updates: dict[int, dict] = {}
    for ref in range(rounds):
        added = arrivals[5 * ref : 5 * ref + 5]
        live.extend(added)
        leaving = sorted(rng.choice(len(live), size=5, replace=False).tolist(), reverse=True)
        removed = [live.pop(index) for index in leaving]
        # The harness's own copy of the live profile after this round.
        queries[ref] = Query(METHODS[0], DELTA, orders=np.asarray(live, dtype=np.int32))
        # The first round's update finds no consensus served yet to invalidate.
        updates[ref] = {"added": 5, "removed": 5, "n_rankings": len(live), "invalidated": min(ref, 1)}
        body = json.dumps({"add": added, "remove": removed}).encode()
        requests.append(Request("POST", "/update", body, ref))
        requests.extend(Request("GET", "/consensus", b"", ref) for _ in range(3))
    return Plan(
        server_args=[],
        cache_options={},
        priming=[priming],
        requests=requests,
        queries=queries,
        counters={
            "hits": 2 * rounds,
            "misses": rounds,
            "evictions": 0,
            "invalidations": max(0, rounds - 1),
        },
        updates=updates,
    )


def large_n(seed: int, count: int, work_dir: Path) -> Plan:
    """Distinct n=1000/m=100 Fair-Borda profiles sent as CSV paths."""
    table, modal = universe(1000)
    candidates_csv = (work_dir / "candidates.csv").resolve()
    write_candidate_table(table, candidates_csv)
    queries: dict[int, Query] = {}
    requests = []
    for ref in range(count):
        path = (work_dir / f"rankings-{ref}.csv").resolve()
        profile = sample_mallows(modal, 0.6, 100, rng=np.random.default_rng([seed, 9, ref]))
        write_ranking_set(profile, table, path)
        queries[ref] = Query(
            METHODS[0], DELTA, rankings_csv=str(path), candidates_csv=str(candidates_csv)
        )
        body = {
            "rankings_csv": str(path),
            "candidates_csv": str(candidates_csv),
            "method": METHODS[0],
            "delta": DELTA,
        }
        requests.append(Request("POST", "/aggregate", json.dumps(body).encode(), ref))
    return Plan(
        server_args=[],
        cache_options={},
        priming=[],
        requests=requests,
        queries=queries,
        counters={"hits": 0, "misses": count, "evictions": 0, "invalidations": 0},
    )


WORKLOADS = {
    "zipf-replay": zipf_replay,
    "cold-distinct": cold_distinct,
    "stream-churn": stream_churn,
    "large-n": large_n,
}
