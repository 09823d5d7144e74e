"""In-process replay of a request stream, with per-layer spans.

:func:`replay` serves the same request bytes the HTTP run sent, in the same
order, through the same public functions the server calls: ``json.loads``,
the :mod:`repro.io` dictionary loaders or CSV readers, then
:meth:`ConsensusCacheService.aggregate` /
:meth:`StreamingConsensusService.update` / ``.aggregate`` on a fresh cache
configured like the server's, then the response encode.

With a :class:`Tracer`, :func:`instrument` wraps the layer functions those
services call (looked up where the caller resolves them, so the program's
own code path runs unchanged) and every call records a span: name, start,
end, parent span and request id.  Spans stay in memory until the run ends.
A layer's self time is its spans' durations minus the time their child
spans cover; the root ``request`` span's self time is harness glue, and the
share of request time the phases account for is the trace's closure.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import repro.aggregation.base
import repro.cache.fingerprint
import repro.cache.service
import repro.cache.store
import repro.fair.base
import repro.fair.local_repair
import repro.fair.seeded
import repro.io.csv_io
import repro.streaming.engine
from repro.cache.service import ConsensusCacheService
from repro.cache.store import ResultCache
from repro.io.csv_io import read_candidate_table, read_ranking_set
from repro.io.serialization import candidate_table_from_dict, ranking_set_from_dict, to_jsonable
from repro.streaming.engine import StreamingConsensusEngine
from repro.streaming.replay import StreamEvent, resolve_order
from repro.streaming.service import StreamingConsensusService

#: Span name of one whole request; everything below it is a phase.
ROOT = "request"

#: ``(owner, attribute, span name)``: the layer calls :func:`instrument` wraps.
#: Module attributes are patched in the module that *calls* them, so only
#: the serving path's calls are timed.
LAYER_CALLS = (
    (repro.cache.service, "cache_key", "cache.fingerprint"),
    (repro.cache.fingerprint.CacheKey, "digest", "cache.fingerprint"),
    (repro.cache.store.ResultCache, "get", "cache.lookup"),
    (repro.cache.store.ResultCache, "put", "cache.put"),
    (repro.cache.store.ResultCache, "invalidate", "cache.invalidate"),
    (repro.cache.service, "compute_consensus_payload", "service.compute"),
    (repro.aggregation.base.RankAggregator, "aggregate_with_diagnostics", "aggregation.seed"),
    (repro.fair.seeded, "make_mr_fair", "fair.make_mr_fair"),
    (repro.fair.local_repair, "fair_local_search", "fair.local_search"),
    (repro.fair.base, "mani_rank_violations", "fairness.parity"),
    (repro.cache.service, "pd_loss", "fairness.pd_loss"),
    (repro.cache.service, "parity_scores", "fairness.parity"),
    (repro.cache.service, "fairness_row", "fairness.parity"),
    (repro.cache.service, "canonical_json", "service.canonical"),
    (repro.streaming.engine.StreamingConsensusEngine, "consensus", "streaming.consensus"),
    (repro.streaming.engine, "kemeny_objective", "fairness.pd_loss"),
    (repro.streaming.engine, "parity_scores", "fairness.parity"),
    (repro.streaming.engine, "fairness_row", "fairness.parity"),
    (repro.streaming.engine, "canonical_json", "service.canonical"),
    (repro.io.csv_io, "Ranking", "io.build"),
    (repro.io.csv_io, "RankingSet", "io.build"),
    (repro.io.csv_io, "CandidateTable", "io.build"),
)


@dataclass
class Span:
    """One timed call: ``parent`` indexes the enclosing span (-1 for a root)."""

    name: str
    start_ns: int
    end_ns: int
    parent: int
    request: int


class Tracer:
    """Collects spans in memory; :attr:`request` tags the spans that follow."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = -1
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the enclosed block as a child of the innermost open span."""
        index = len(self.spans)
        record = Span(name, time.perf_counter_ns(), 0, self._open[-1] if self._open else -1, self.request)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            record.end_ns = time.perf_counter_ns()

    def wrap(self, function, name: str):
        """``function`` with every call recorded as a span called ``name``."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every :data:`LAYER_CALLS` entry that exists; restore them on exit."""
    restore = []
    try:
        for owner, attribute, name in LAYER_CALLS:
            original = vars(owner).get(attribute)
            if original is None:
                continue
            if isinstance(original, property):
                replacement = property(tracer.wrap(original.fget, name))
            else:
                replacement = tracer.wrap(original, name)
            setattr(owner, attribute, replacement)
            restore.append((owner, attribute, original))
        yield
    finally:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)


@contextlib.contextmanager
def _untimed(name: str):
    yield


@dataclass
class Replay:
    """Outcome of one in-process replay."""

    #: The ``cached`` flag of every request's response (``None`` for updates).
    flags: list[bool | None]
    #: Wall seconds of every request.
    seconds: list[float]
    #: Cache counters once the stream is served.
    cache_stats: dict


def replay(plan, work_dir: Path, tracer: Tracer | None = None) -> Replay:
    """Serve ``plan.priming + plan.requests`` in-process, as the server does."""
    options = dict(plan.cache_options)
    if options.get("directory"):
        options["directory"] = work_dir / f"replay-cache-{time.perf_counter_ns()}"
    service = ConsensusCacheService(ResultCache(**options))
    streaming: StreamingConsensusService | None = None
    span = tracer.span if tracer is not None else _untimed
    flags: list[bool | None] = []
    seconds: list[float] = []
    with instrument(tracer) if tracer is not None else contextlib.nullcontext():
        for index, request in enumerate([*plan.priming, *plan.requests]):
            if tracer is not None:
                tracer.request = index
            started = time.perf_counter()
            with span(ROOT):
                body = {}
                if request.body:
                    with span("http.decode"):
                        body = json.loads(request.body)
                if request.path == "/aggregate":
                    response = _aggregate(service, body, span)
                elif request.path == "/update":
                    streaming, response = _update(service, streaming, body, span)
                else:
                    with span("service.aggregate"):
                        response = streaming.aggregate()
                with span("http.encode"):
                    json.dumps(to_jsonable(response)).encode()
            seconds.append(time.perf_counter() - started)
            flags.append(response.get("cached"))
    return Replay(flags, seconds, service.stats())


def _aggregate(service: ConsensusCacheService, body: dict, span) -> dict:
    if "rankings_csv" in body:
        with span("io.csv_read"):
            table = read_candidate_table(body["candidates_csv"])
            rankings = read_ranking_set(body["rankings_csv"], table)
    else:
        with span("io.build"):
            table = candidate_table_from_dict(body["candidates"])
            rankings = ranking_set_from_dict(body["rankings"])
    with span("service.aggregate"):
        return service.aggregate(
            rankings,
            table,
            method=str(body.get("method", "fair-borda")),
            strategy=body.get("strategy"),
            delta=body.get("delta", 0.1),
        )


def _update(service, streaming, body: dict, span):
    with span("io.build"):
        if streaming is None:
            engine = StreamingConsensusEngine(
                candidate_table_from_dict(body["candidates"]),
                method=str(body.get("method", "fair-borda")),
                strategy=body.get("strategy"),
                delta=body.get("delta", 0.1),
            )
            streaming = StreamingConsensusService(engine, cache=service.cache)
        table = streaming.engine.table
        events = {
            field: [
                StreamEvent(op=field, order=tuple(resolve_order(ranking, table)))
                for ranking in body.get(field, [])
            ]
            for field in ("add", "remove")
        }
    with span("streaming.update"):
        response = streaming.update(add=events["add"], remove=events["remove"])
    return streaming, response


def self_times(spans: list[Span]) -> dict[int, Counter]:
    """Per request, the nanoseconds of self time spent in each span name."""
    covered = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end_ns - span.start_ns
    per_request: dict[int, Counter] = defaultdict(Counter)
    for index, span in enumerate(spans):
        per_request[span.request][span.name] += span.end_ns - span.start_ns - covered[index]
    return per_request


def call_counts(spans: list[Span]) -> Counter:
    """How many times each span name was entered."""
    return Counter(span.name for span in spans)
