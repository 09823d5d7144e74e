"""Asyncio HTTP front-end for the consensus cache (``mani-rank serve``).

A deliberately small HTTP/1.1 server on :func:`asyncio.start_server` — no
``http.server``, no third-party framework — exposing JSON endpoints:

``POST /aggregate``
    Body: ``{"rankings": ..., "candidates": ..., "method", "strategy",
    "delta"}`` with the inputs either inline (the
    :mod:`repro.io.serialization` dictionaries) or as CSV paths
    (``rankings_csv``/``candidates_csv``, resolved server-side).  Responds
    with the full cached-or-computed consensus payload plus the cache key
    digest and a ``cached`` flag.

``POST /fairness``
    Same body; responds with the fairness projection of the same cache entry
    (per-group FPR row, parity scores, PD loss), so a ``/fairness`` call
    after ``/aggregate`` for the same query is a cache hit.

``POST /update``
    Streaming profile mutation: ``{"add": [...], "remove": [...]}`` where
    each entry is ``{"ranking": [names or ids best-to-worst], "weight",
    "label"}`` (or a bare ranking list).  The first call must carry the
    candidate table (inline ``candidates`` or ``candidates_csv``) plus the
    optional ``method``/``strategy``/``delta`` configuration; it initialises
    the server's :class:`~repro.streaming.service.StreamingConsensusService`
    sharing the batch cache.  Later calls that name a different
    configuration get a 400.  Every update patches the profile matrices
    incrementally and invalidates the cache entries served for the old
    profile, keyed on the new profile version.  A rejected update (400)
    changes nothing: no ranking is applied, the version is not bumped, and
    a rejected first call binds no configuration.

``GET /consensus``
    The streaming profile's consensus — served under the exact batch cache
    key, so it is bit-identical to ``POST /aggregate`` on the materialized
    profile and a cache hit when unchanged.

``GET /stats``
    Cache counters (hits/misses/evictions/sizes, disk-breaker state,
    invalidations and the streaming profile version), server
    request/shed/timeout counters, latency percentiles, the streaming
    profile state, and the servable method registry.

``GET /healthz`` / ``GET /readyz``
    Liveness (200 while the process serves, even disk-degraded) and
    readiness (503 once draining has begun, so load balancers stop routing
    new traffic before in-flight work finishes).

Resilience contract (see ``docs/serving.md`` for the full status-code table):
every read phase (request line, headers, body) runs under a deadline — slow
clients get 408 instead of a leaked connection — and pathological header
blocks get 431.  The compute endpoints pass through an
:class:`~repro.cache.resilience.AdmissionController`; beyond the in-flight
budget plus queue depth, requests are shed as 503 + ``Retry-After``.
Shutdown (SIGINT/SIGTERM, or the ``max_requests`` budget used by the CI
smoke) is a *graceful drain*: readiness flips false, new compute requests are
shed, in-flight connections get up to ``drain_timeout`` seconds to finish,
then the listener closes and :meth:`ConsensusHTTPServer.serve` returns.

Cache misses are computed on a worker thread (``run_in_executor``) so slow
aggregations do not stall other connections; the
:class:`~repro.cache.store.ResultCache` lock keeps the tiers consistent.
Responses always carry ``Content-Length`` and ``Connection: close``.  All
timeouts are taken through an injectable
:class:`~repro.cache.resilience.AsyncClock`, so the adversarial-client tests
never sleep on real time.

Hit fast path: the SHA-256 of every successful inline ``/aggregate`` or
``/fairness`` body is remembered (a bounded LRU of ``_ALIAS_CAPACITY``
entries) with the cache digest it produced.  A byte-identical repeat is
answered on the event loop from the memory tier
(:meth:`~repro.cache.store.ResultCache.get_memory`) without decoding,
building, or fingerprinting the body.  The digest is a pure function of the
body bytes, so an alias never goes stale; the cache still decides hit or
miss, and any fast-path miss falls through to the ordinary path.  Bodies
naming CSV paths are never aliased — the files can change.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import json
import math
import signal
from collections import OrderedDict
from collections.abc import Callable

from repro.aggregation.search import get_strategy
from repro.cache.resilience import (
    AdmissionController,
    AsyncClock,
    LatencyRecorder,
    ServerLimits,
)
from repro.cache.service import ConsensusCacheService
from repro.exceptions import ReproError
from repro.fair.registry import canonical_fair_method_name, describe_fair_methods
from repro.fairness.thresholds import FairnessThresholds
from repro.io.csv_io import read_candidate_table, read_ranking_set
from repro.io.serialization import (
    candidate_table_from_dict,
    ranking_set_from_dict,
    to_jsonable,
)
from repro.streaming.engine import StreamingConsensusEngine
from repro.streaming.replay import StreamEvent, resolve_order
from repro.streaming.service import StreamingConsensusService

__all__ = ["ConsensusHTTPServer", "run_server"]

#: asyncio.TimeoutError is a distinct class on 3.10 and an alias of the
#: builtin from 3.11 on; catching both keeps the matrix green.
_TIMEOUT_ERRORS = (asyncio.TimeoutError, TimeoutError)

#: Most request-body aliases kept for the hit fast path (each is a 32-byte
#: body hash and a 64-character digest).
_ALIAS_CAPACITY = 1024

#: Endpoints whose inline bodies are aliased to their cache digest.
_ALIASED_PATHS = frozenset({"/aggregate", "/fairness"})


class _BadRequest(Exception):
    """Client error carrying the message served as a 400 response."""


class _PhaseTimeout(Exception):
    """A read phase exhausted its deadline (served as 408)."""

    def __init__(self, phase: str) -> None:
        """Record which read phase (request line / headers / body) timed out."""
        super().__init__(phase)
        self.phase = phase


def _fairness_view(response: dict) -> dict:
    """Project an ``/aggregate`` response to the ``/fairness`` view."""
    result = response["result"]
    return {
        "key": response["key"],
        "cached": response["cached"],
        "method": result["method"],
        "method_label": result["method_label"],
        "pd_loss": result["pd_loss"],
        "parity": result["parity"],
        "fairness": result["fairness"],
    }


def _parse_inputs(body: dict):
    """Build the (rankings, table) pair from an endpoint request body."""
    if "candidates_csv" in body or "rankings_csv" in body:
        try:
            table = read_candidate_table(body["candidates_csv"])
            rankings = read_ranking_set(body["rankings_csv"], table)
        except KeyError as exc:
            raise _BadRequest(
                "CSV inputs need both 'rankings_csv' and 'candidates_csv'"
            ) from exc
        except OSError as exc:
            raise _BadRequest(f"cannot read CSV input: {exc}") from exc
        return rankings, table
    try:
        table = candidate_table_from_dict(body["candidates"])
        rankings = ranking_set_from_dict(body["rankings"])
    except KeyError as exc:
        raise _BadRequest(
            "request body needs 'rankings' and 'candidates' (inline payloads) "
            "or 'rankings_csv' and 'candidates_csv' (server-side paths)"
        ) from exc
    return rankings, table


class ConsensusHTTPServer:
    """The ``mani-rank serve`` listener bound to one consensus cache service.

    Parameters
    ----------
    service:
        The cache-backed service answering the queries.
    host, port:
        Bind address; port 0 asks the OS for a free port (the bound address
        is available as :attr:`address` after :meth:`start`).
    max_requests:
        Optional request budget; after responding to this many requests the
        server initiates a graceful drain.  Used by smoke tests for a clean,
        signal-free exit.
    max_inflight, queue_depth:
        Admission-control budget for the compute endpoints: up to
        ``max_inflight`` concurrent requests, up to ``queue_depth`` more
        waiting; the rest are shed as 503 + ``Retry-After``.
    limits:
        Per-connection read deadlines and header caps
        (:class:`~repro.cache.resilience.ServerLimits`).
    drain_timeout:
        Seconds granted to in-flight connections during shutdown before they
        are cancelled.
    clock:
        Injectable time source for every deadline; tests substitute a
        virtual clock so nothing sleeps.
    """

    def __init__(
        self,
        service: ConsensusCacheService | None = None,
        host: str = "127.0.0.1",
        port: int = 8340,
        max_requests: int | None = None,
        max_inflight: int = 64,
        queue_depth: int = 16,
        limits: ServerLimits | None = None,
        drain_timeout: float = 5.0,
        clock: AsyncClock | None = None,
    ) -> None:
        """See the class docstring for the parameter contract."""
        self.service = service if service is not None else ConsensusCacheService()
        self._host = host
        self._port = port
        self._max_requests = max_requests
        self._limits = limits if limits is not None else ServerLimits()
        self._drain_timeout = drain_timeout
        self._clock = clock if clock is not None else AsyncClock()
        self._admission = AdmissionController(max_inflight, queue_depth)
        self._latency = LatencyRecorder()
        self._requests = 0
        self._endpoint_counts: dict[str, int] = {}
        self._status_counts: dict[int, int] = {}
        self._read_timeouts = 0
        self._drain_cancelled = 0
        self._draining = False
        self._connections: set[asyncio.Task] = set()
        self._streaming: StreamingConsensusService | None = None
        self._aliases: OrderedDict[bytes, str] = OrderedDict()
        self._alias_hits = 0
        self._server: asyncio.AbstractServer | None = None
        self._stop_event: asyncio.Event | None = None
        self.address: tuple[str, int] | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind the listener and return the (host, port) actually bound."""
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    def request_stop(self) -> None:
        """Ask the serve loop to drain and exit (idempotent, handler-safe)."""
        if self._stop_event is not None:
            self._stop_event.set()

    @property
    def draining(self) -> bool:
        """``True`` once shutdown has begun (readiness is already false)."""
        return self._draining

    @property
    def drain_cancelled(self) -> int:
        """Connections cancelled because they outlived the drain timeout."""
        return self._drain_cancelled

    async def serve(self) -> None:
        """Run until :meth:`request_stop` (or the request budget), then drain.

        Drain order: readiness flips false and new compute requests are shed
        first; in-flight connections then get up to ``drain_timeout`` seconds
        to finish (stragglers are cancelled and counted); only then does the
        listener close and this coroutine return.
        """
        if self._server is None:
            await self.start()
        assert self._server is not None and self._stop_event is not None
        try:
            await self._stop_event.wait()
        finally:
            self._draining = True
            await self._drain_connections()
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _drain_connections(self) -> None:
        """Wait (bounded) for in-flight connection tasks; cancel stragglers."""
        pending = {task for task in self._connections if not task.done()}
        if not pending:
            return
        # shield() keeps a drain timeout from cancelling the connection tasks
        # behind our back — stragglers are cancelled explicitly so they are
        # counted in drain_cancelled.
        finished = asyncio.gather(*pending, return_exceptions=True)
        try:
            await self._clock.wait_for(asyncio.shield(finished), self._drain_timeout)
        except _TIMEOUT_ERRORS:
            for task in pending:
                if not task.done():
                    task.cancel()
                    self._drain_cancelled += 1
            await asyncio.gather(*pending, return_exceptions=True)

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        started = self._clock.monotonic()
        extra_headers: dict[str, str] = {}
        try:
            try:
                status, payload, extra_headers = await self._respond(reader)
            except Exception as exc:  # noqa: BLE001 - a handler crash must not kill the server
                status, payload = 500, {"error": f"internal error: {exc}"}
            body = json.dumps(payload, default=to_jsonable).encode()
            header_lines = [
                f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
                "Connection: close",
            ]
            header_lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
            head = ("\r\n".join(header_lines) + "\r\n\r\n").encode()
            try:
                writer.write(head + body)
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover - client hangup
                pass
            self._requests += 1
            self._status_counts[status] = self._status_counts.get(status, 0) + 1
            self._latency.record(self._clock.monotonic() - started)
            if self._max_requests is not None and self._requests >= self._max_requests:
                self.request_stop()
        finally:
            if task is not None:
                self._connections.discard(task)

    async def _read_phase(self, awaitable, phase: str, deadline: float):
        """Await one read under the phase deadline, mapping timeout to 408."""
        remaining = deadline - self._clock.monotonic()
        if remaining <= 0:
            if asyncio.iscoroutine(awaitable):
                awaitable.close()
            raise _PhaseTimeout(phase)
        try:
            return await self._clock.wait_for(awaitable, remaining)
        except _TIMEOUT_ERRORS as exc:
            raise _PhaseTimeout(phase) from exc

    async def _respond(self, reader: asyncio.StreamReader) -> tuple[int, dict, dict]:
        limits = self._limits
        try:
            deadline = self._clock.monotonic() + limits.read_timeout
            raw_line = await self._read_phase(reader.readline(), "request line", deadline)
        except _PhaseTimeout:
            self._read_timeouts += 1
            return 408, {"error": "timed out reading the request line"}, {}
        except ValueError:
            return 431, {"error": "request line too long"}, {}
        request_line = raw_line.decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) < 2:
            return 400, {"error": "malformed request line"}, {}
        verb, path = parts[0].upper(), parts[1]

        headers: dict[str, str] = {}
        deadline = self._clock.monotonic() + limits.read_timeout
        while True:
            try:
                line = await self._read_phase(reader.readline(), "headers", deadline)
            except _PhaseTimeout:
                self._read_timeouts += 1
                return 408, {"error": "timed out reading headers"}, {}
            except ValueError:
                return 431, {"error": "header line too long"}, {}
            if line in (b"\r\n", b"\n", b""):
                break
            if len(line) > limits.max_header_bytes:
                return 431, {"error": "header line too long"}, {}
            if len(headers) >= limits.max_header_count:
                return 431, {"error": "too many headers"}, {}
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

        raw_length = headers.get("content-length", "0") or "0"
        try:
            content_length = int(raw_length)
        except ValueError:
            return 400, {"error": f"invalid Content-Length: {raw_length!r}"}, {}
        if content_length < 0:
            return 400, {"error": f"negative Content-Length: {content_length}"}, {}
        if content_length > limits.max_body_bytes:
            return 413, {"error": "request body too large"}, {}
        raw_body = b""
        if content_length:
            deadline = self._clock.monotonic() + limits.read_timeout
            try:
                raw_body = await self._read_phase(
                    reader.readexactly(content_length), "body", deadline
                )
            except _PhaseTimeout:
                self._read_timeouts += 1
                return 408, {"error": "timed out reading the request body"}, {}
            except asyncio.IncompleteReadError as exc:
                return 400, {
                    "error": (
                        f"truncated request body: expected {content_length} bytes, "
                        f"got {len(exc.partial)}"
                    )
                }, {}

        route = _ROUTES.get(path)
        if route is None:
            return 404, {"error": f"unknown path {path!r}", "paths": sorted(_ROUTES)}, {}
        expected_verb, handler, sheddable = route
        if verb != expected_verb:
            return 405, {"error": f"{path} expects {expected_verb}, got {verb}"}, {}

        self._endpoint_counts[path] = self._endpoint_counts.get(path, 0) + 1
        body_hash = None
        if path in _ALIASED_PATHS:
            body_hash = hashlib.sha256(raw_body).digest()
            digest = self._aliases.get(body_hash)
            if digest is not None:
                self._aliases.move_to_end(body_hash)
                return await self._dispatch_guarded(
                    functools.partial(self._answer_repeat, path, digest, handler, raw_body)
                )
        try:
            body = json.loads(raw_body) if raw_body else {}
            if not isinstance(body, dict):
                raise _BadRequest("request body must be a JSON object")
        except json.JSONDecodeError as exc:
            return 400, {"error": f"request body is not valid JSON: {exc}"}, {}
        except _BadRequest as exc:
            return 400, {"error": str(exc)}, {}

        call = functools.partial(handler, self, body)
        if not sheddable:
            return await self._dispatch(call)
        response = await self._dispatch_guarded(call)
        if body_hash is not None and response[0] == 200:
            self._remember_alias(body_hash, body, response[1]["key"])
        return response

    def _remember_alias(self, body_hash: bytes, body: dict, digest: str) -> None:
        """Alias an inline query body to its cache digest (bounded LRU)."""
        if "rankings_csv" in body or "candidates_csv" in body:
            return
        self._aliases[body_hash] = digest
        self._aliases.move_to_end(body_hash)
        while len(self._aliases) > _ALIAS_CAPACITY:
            self._aliases.popitem(last=False)

    async def _answer_repeat(
        self, path: str, digest: str, handler: Callable, raw_body: bytes
    ) -> dict:
        """Serve an aliased body from the memory tier, else the ordinary path.

        The hit runs on the event loop on purpose: it costs microseconds, and
        an executor submit arriving right behind the previous task can spawn
        an extra worker thread (with its own malloc arena), raising peak
        memory.
        """
        payload = self.service.cache.get_memory(digest)
        if payload is None:
            return await handler(self, json.loads(raw_body))
        self._alias_hits += 1
        response = {"key": digest, "cached": True, "result": payload}
        return _fairness_view(response) if path == "/fairness" else response

    async def _dispatch(self, call: Callable) -> tuple[int, dict, dict]:
        """Run one handler call, mapping domain errors to 400."""
        try:
            result = call()
            if asyncio.iscoroutine(result):
                result = await result
        except (_BadRequest, ReproError, ValueError) as exc:
            return 400, {"error": str(exc)}, {}
        if isinstance(result, tuple):
            status, payload = result
            return status, payload, {}
        return 200, result, {}

    def _retry_after_seconds(self) -> int:
        """Back-off hint for shed responses, proportional to actual pressure.

        The queue must drain ``queued + 1`` requests before a retry can be
        admitted, and each drains in roughly one p90 service time — so the
        hint is ``ceil((queued + 1) x p90)``, floored at 1 s (the pre-fix
        constant) so cold servers without latency samples still tell clients
        to wait a beat rather than hammer.
        """
        p90_seconds = self._latency.snapshot()["p90_ms"] / 1000.0
        backlog = self._admission.queued + 1
        return max(1, math.ceil(backlog * p90_seconds))

    async def _dispatch_guarded(self, call: Callable) -> tuple[int, dict, dict]:
        """Admission-controlled dispatch for the compute endpoints."""
        if self._draining:
            return (
                503,
                {"error": "server is draining; retry against another instance"},
                {"Retry-After": str(self._retry_after_seconds())},
            )
        if not await self._admission.acquire():
            return (
                503,
                {"error": "server overloaded: in-flight budget and queue are full"},
                {"Retry-After": str(self._retry_after_seconds())},
            )
        try:
            return await self._dispatch(call)
        finally:
            self._admission.release()

    async def _run_query(self, body: dict) -> dict:
        """Resolve inputs and run the cached aggregation off the event loop."""
        rankings, table = _parse_inputs(body)
        query = functools.partial(
            self.service.aggregate,
            rankings,
            table,
            method=str(body.get("method", "fair-borda")),
            strategy=body.get("strategy"),
            delta=body.get("delta", 0.1),
        )
        return await asyncio.get_running_loop().run_in_executor(None, query)

    async def _handle_aggregate(self, body: dict) -> dict:
        """``POST /aggregate``: full cached-or-computed consensus payload."""
        return await self._run_query(body)

    async def _handle_fairness(self, body: dict) -> dict:
        """``POST /fairness``: fairness projection of the same cache entry."""
        return _fairness_view(await self._run_query(body))

    def _streaming_service(self, body: dict) -> StreamingConsensusService:
        """Return the streaming service, initialising it on the first /update.

        The first call must carry the candidate table; the engine is bound to
        that universe and configuration for the server's lifetime, and later
        calls must not contradict it.  The streaming service shares the batch
        cache, so streamed and batch results for one profile share entries.
        """
        if self._streaming is None:
            if "candidates_csv" in body:
                try:
                    table = read_candidate_table(body["candidates_csv"])
                except OSError as exc:
                    raise _BadRequest(f"cannot read CSV input: {exc}") from exc
            elif "candidates" in body:
                table = candidate_table_from_dict(body["candidates"])
            else:
                raise _BadRequest(
                    "the first /update must carry the candidate table "
                    "('candidates' inline or 'candidates_csv')"
                )
            engine = StreamingConsensusEngine(
                table,
                method=str(body.get("method", "fair-borda")),
                strategy=body.get("strategy"),
                delta=body.get("delta", 0.1),
            )
            self._streaming = StreamingConsensusService(
                engine, cache=self.service.cache
            )
            return self._streaming
        engine = self._streaming.engine
        # Canonicalise each named setting the way the engine did on the first
        # call, so only a genuinely different configuration is rejected.
        bound_settings = (
            ("method", engine.method, lambda value: canonical_fair_method_name(str(value))),
            (
                "strategy",
                engine.strategy,
                lambda value: None if value is None else get_strategy(value).name,
            ),
            ("delta", engine.thresholds, FairnessThresholds.coerce),
        )
        for setting, bound, canonical in bound_settings:
            if setting in body and canonical(body[setting]) != bound:
                raise _BadRequest(
                    f"the streaming profile is configured for {setting} "
                    f"{bound!r}; restart the server to change it"
                )
        return self._streaming

    @staticmethod
    def _streaming_events(entries: object, table, field: str) -> list[StreamEvent]:
        """Parse one ``add``/``remove`` list from an ``/update`` body."""
        if not isinstance(entries, list):
            raise _BadRequest(f"'{field}' must be a list of rankings")
        events: list[StreamEvent] = []
        for entry in entries:
            if isinstance(entry, list):
                entry = {"ranking": entry}
            if not isinstance(entry, dict) or "ranking" not in entry:
                raise _BadRequest(
                    f"each '{field}' entry must be a ranking list or an object "
                    "with a 'ranking' field"
                )
            ranking = entry["ranking"]
            if not isinstance(ranking, list) or not ranking:
                raise _BadRequest(f"'{field}' rankings must be non-empty lists")
            label = entry.get("label")
            if label is not None and not isinstance(label, str):
                raise _BadRequest(f"'{field}' labels must be strings")
            try:
                weight = float(entry.get("weight", 1.0))
            except (TypeError, ValueError) as exc:
                raise _BadRequest(f"'{field}' weights must be numbers") from exc
            events.append(
                StreamEvent(
                    op="add" if field == "add" else "remove",
                    order=tuple(resolve_order(ranking, table)),
                    weight=weight,
                    label=label,
                )
            )
        return events

    async def _handle_update(self, body: dict) -> dict:
        """``POST /update``: apply one add/remove batch to the streaming profile."""
        created = self._streaming is None
        streaming = self._streaming_service(body)
        try:
            table = streaming.engine.table
            add = self._streaming_events(body.get("add", []), table, "add")
            remove = self._streaming_events(body.get("remove", []), table, "remove")
            operation = functools.partial(streaming.update, add=add, remove=remove)
            return await asyncio.get_running_loop().run_in_executor(None, operation)
        except Exception:
            # A rejected first update must not bind its configuration.  The
            # engine rolled back, so version 0 means no update has landed.
            if created and self._streaming is streaming and streaming.engine.profile_version == 0:
                self._streaming = None
            raise

    async def _handle_consensus(self, body: dict) -> dict:
        """``GET /consensus``: the streaming profile's cached consensus."""
        if self._streaming is None:
            raise _BadRequest(
                "no streaming profile: POST /update with rankings first"
            )
        operation = self._streaming.aggregate
        return await asyncio.get_running_loop().run_in_executor(None, operation)

    async def _handle_stats(self, body: dict) -> dict:
        """``GET /stats``: cache, admission, latency, and registry counters."""
        return {
            "cache": self.service.stats(),
            "streaming": (
                self._streaming.describe() if self._streaming is not None else None
            ),
            "server": {
                "requests": self._requests,
                "endpoints": dict(sorted(self._endpoint_counts.items())),
                "responses_by_status": {
                    str(status): count
                    for status, count in sorted(self._status_counts.items())
                },
                "admission": self._admission.snapshot(),
                "read_timeouts": self._read_timeouts,
                "drain_cancelled": self._drain_cancelled,
                "draining": self._draining,
                "latency": self._latency.snapshot(),
                "alias_entries": len(self._aliases),
                "alias_hits": self._alias_hits,
            },
            "methods": describe_fair_methods(),
        }

    def _handle_healthz(self, body: dict) -> dict:
        """``GET /healthz``: liveness — 200 while the process can answer at all."""
        return {"status": "ok", **self.service.health()}

    def _handle_readyz(self, body: dict) -> tuple[int, dict]:
        """``GET /readyz``: readiness — 503 once draining has begun."""
        if self._draining or (self._stop_event is not None and self._stop_event.is_set()):
            return 503, {"ready": False, "reason": "draining"}
        return 200, {"ready": True}


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: path → (verb, handler, sheddable).  The compute endpoints are admission
#: controlled; stats/health/readiness must answer even under load or drain.
_ROUTES: dict[str, tuple[str, Callable, bool]] = {
    "/aggregate": ("POST", ConsensusHTTPServer._handle_aggregate, True),
    "/fairness": ("POST", ConsensusHTTPServer._handle_fairness, True),
    "/update": ("POST", ConsensusHTTPServer._handle_update, True),
    "/consensus": ("GET", ConsensusHTTPServer._handle_consensus, True),
    "/stats": ("GET", ConsensusHTTPServer._handle_stats, False),
    "/healthz": ("GET", ConsensusHTTPServer._handle_healthz, False),
    "/readyz": ("GET", ConsensusHTTPServer._handle_readyz, False),
}


def run_server(
    service: ConsensusCacheService | None = None,
    host: str = "127.0.0.1",
    port: int = 8340,
    max_requests: int | None = None,
    on_ready: Callable[[tuple[str, int]], None] | None = None,
    max_inflight: int = 64,
    queue_depth: int = 16,
    read_timeout: float = 10.0,
    drain_timeout: float = 5.0,
) -> int:
    """Blocking entry point behind ``mani-rank serve``.

    Binds, reports the bound address through ``on_ready`` (the CLI prints it;
    tests use it to launch client threads), installs SIGINT/SIGTERM handlers
    when running on the main thread, and serves until stopped — draining
    in-flight requests (bounded by ``drain_timeout``) before returning.
    Returns the process exit code (0 on clean shutdown).
    """

    async def _main() -> None:
        server = ConsensusHTTPServer(
            service,
            host=host,
            port=port,
            max_requests=max_requests,
            max_inflight=max_inflight,
            queue_depth=queue_depth,
            limits=ServerLimits(read_timeout=read_timeout),
            drain_timeout=drain_timeout,
        )
        address = await server.start()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGINT, server.request_stop)
            loop.add_signal_handler(signal.SIGTERM, server.request_stop)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-main thread
            pass
        if on_ready is not None:
            on_ready(address)
        await server.serve()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race fallback
        pass
    return 0
