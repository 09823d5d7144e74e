"""End-to-end serving benchmark for ``mani-rank serve``.

Run from the repository root::

    python3 perfbench/run.py --workload zipf-replay --seed 1 --seconds 10 --trace 0

One run builds the workload's inputs from ``--seed``, spawns the server
(three times, to time set-up), drives it with one closed-loop client over
loopback, checks every response against a cold compute, reconciles the
server's ``/stats`` with the client's tally, and prints every metric by name
with its unit.  ``--trace 1`` additionally replays the same stream
in-process with per-layer spans (see ``bench_trace.py``) and reports the
per-layer metrics.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and the metrics ``BENCHMARK.json``
lists for the mode.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from bench_report import MetricSet, error_rate, median, read_vmhwm_mb, result_line

if TYPE_CHECKING:
    from bench_workloads import Request

#: Server spawns per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Worker processes for the cold computes that check the responses.
ORACLE_WORKERS = 2
#: Share of in-process request time the phase spans must account for.
CLOSURE_BOUND = 0.95
#: Tracing overhead above which the traced run prints a warning.
OVERHEAD_WARN = 0.05
#: Requests (rounds, for stream-churn) per second of ``--seconds`` — about
#: each workload's rate at the baseline, so one run lasts about that long.
RATES = {
    "zipf-replay": 10.0,
    "cold-distinct": 5.5,
    "stream-churn": 13.0,
    "large-n": 0.37,
}
#: Layers whose per-request self time is reported (``<layer>_ms``, ``<layer>.share``).
LAYERS = (
    "http.decode",
    "io.build",
    "io.csv_read",
    "cache.fingerprint",
    "cache.lookup",
    "aggregation.seed",
    "fair.make_mr_fair",
    "fair.local_search",
    "fairness.pd_loss",
    "fairness.parity",
    "service.canonical",
    "cache.put",
    "cache.invalidate",
    "streaming.update",
    "streaming.consensus",
    "service.compute",
    "service.aggregate",
    "http.encode",
)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RATES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


@dataclass
class Outcome:
    """One timed request and what came back."""

    request: Request
    #: HTTP status, or ``None`` if the request never completed.
    status: int | None
    #: Raw response bytes, replaced by the parsed JSON once checked.
    response: bytes | dict | None
    #: Client-side latency in seconds.
    seconds: float | None
    #: Why the response is wrong, or ``None`` if it is correct.
    reason: str | None = None


@contextlib.contextmanager
def _pinned():
    """Run the block, and the processes it starts, on one CPU.

    The client and the server share one CPU.  With one request in flight and
    a GIL-bound server nothing runs in parallel, so this costs no
    parallelism; it keeps every wake-up on a running CPU.  Across two vCPUs
    a wake-up can wait for the host to schedule the idle one, which put some
    runs into a mode with 1.6x the hit latency.  The in-process replays run
    on the same CPU, so they compare with the server's timings.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def _serve(plan, root: Path, work_dir: Path):
    """Spawn the server ``SETUP_REPEATS`` times; keep the last one running."""
    from bench_server import Client, ServerProcess

    setup_seconds = []
    server = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            server = ServerProcess(root, plan.server_args, work_dir / "server.log")
            server.start()
            client = Client(server.port)
            client.wait_ready()
            for request in plan.priming:
                status, raw, _ = client.request(request.verb, request.path, request.body)
                if status != 200:
                    raise RuntimeError(f"priming {request.path} returned {status}: {raw[:200]!r}")
            setup_seconds.append(time.perf_counter() - started)
    except BaseException:
        if server is not None:
            server.stop()
        raise
    return server, client, setup_seconds


def _drive(plan, client) -> tuple[list[Outcome], float]:
    """The timed phase: send every request, one at a time."""
    outcomes = []
    started = time.perf_counter()
    for request in plan.requests:
        try:
            status, raw, seconds = client.request(request.verb, request.path, request.body)
        except OSError as error:
            outcomes.append(Outcome(request, None, None, None, f"transport error: {error}"))
            continue
        outcomes.append(Outcome(request, status, raw, seconds))
    return outcomes, time.perf_counter() - started


def _cold_references(queries: list, work_dir: Path) -> list:
    """Cold-compute ``queries`` on ``ORACLE_WORKERS`` child processes.

    Each worker is a plain ``bench_oracle.py`` subprocess that this function
    waits for (or kills and then waits for), so none outlives the run.
    """
    oracle = Path(__file__).with_name("bench_oracle.py")
    shares = [queries[k::ORACLE_WORKERS] for k in range(ORACLE_WORKERS)]
    shares = [share for share in shares if share]
    workers = []
    try:
        for k, share in enumerate(shares):
            source, target = work_dir / f"oracle-{k}.in", work_dir / f"oracle-{k}.out"
            source.write_bytes(pickle.dumps(share))
            workers.append(
                (subprocess.Popen([sys.executable, str(oracle), str(source), str(target)],
                                  stdin=subprocess.DEVNULL), target)
            )
        results = []
        for worker, target in workers:
            if worker.wait() != 0:
                raise RuntimeError(f"cold-compute worker exited with code {worker.returncode}")
            results.append(pickle.loads(target.read_bytes()))
    finally:
        for worker, _ in workers:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
    expected = [None] * len(queries)
    for k, share in enumerate(results):
        expected[k::len(shares)] = share
    return expected


def _check(plan, outcomes: list[Outcome], work_dir: Path) -> list[str]:
    """Check every response against a cold compute; return the failure reasons.

    The cold computes run after the timed phase, on two worker processes.
    """
    from bench_workloads import check

    refs = sorted({outcome.request.ref for outcome in outcomes})
    expected = dict(zip(refs, _cold_references([plan.queries[r] for r in refs], work_dir)))
    reasons = []
    for outcome in outcomes:
        if outcome.status is not None:
            try:
                outcome.response = json.loads(outcome.response)
                if outcome.status != 200:
                    outcome.reason = f"HTTP {outcome.status}: {outcome.response.get('error')}"
                else:
                    outcome.reason = check(
                        plan, outcome.request, outcome.response, expected[outcome.request.ref]
                    )
            except Exception as error:  # noqa: BLE001 - a bad response is a failed operation
                outcome.reason = f"unreadable response: {error!r}"
        if outcome.reason is not None:
            reasons.append(f"{outcome.request.path}: {outcome.reason}")
    return reasons


def _reconcile(plan, stats: dict, client, outcomes: list[Outcome]) -> list[str]:
    """Compare ``/stats`` with the client's tally and the plan's cache model.

    The ``/stats`` response itself is in the client's tally but not yet in
    the server's request and status counts (it is counted once written).
    """
    problems = []
    server = stats["server"]
    statuses = dict(client.statuses)
    statuses[200] -= 1
    if server["requests"] != sum(statuses.values()):
        problems.append(f"server counted {server['requests']} requests, client {sum(statuses.values())}")
    if server["responses_by_status"] != {str(k): v for k, v in sorted(statuses.items()) if v}:
        problems.append(f"status counts differ: server {server['responses_by_status']}, client {statuses}")
    if server["endpoints"] != dict(sorted(client.paths.items())):
        problems.append(f"endpoint counts differ: server {server['endpoints']}, client {dict(client.paths)}")
    cache = stats["cache"]
    reads = [o for o in outcomes if o.request.is_read]
    cached = sum(1 for o in reads if isinstance(o.response, dict) and o.response.get("cached") is True)
    if cache["hits"] + cache["misses"] != len(reads):
        problems.append(f"cache hits+misses {cache['hits'] + cache['misses']} != {len(reads)} reads")
    if cache["hits"] != cached:
        problems.append(f"cache hits {cache['hits']} != {cached} cached responses")
    for name, value in plan.counters.items():
        if cache[name] != value:
            problems.append(f"cache {name} is {cache[name]}, the seed's stream predicts {value}")
    return problems


def _e2e_metrics(setup_seconds, outcomes, wall, rss_mb, failed) -> MetricSet:
    metrics = MetricSet()
    metrics.add("setup_s", median(setup_seconds), "s", len(setup_seconds))
    completed = sum(1 for o in outcomes if o.status is not None)
    metrics.add("throughput_rps", completed / wall, "1/s", completed)
    classes: dict[str, list[float]] = {"read": [], "hit": [], "miss": [], "update": []}
    for outcome in outcomes:
        if outcome.reason is not None:
            continue
        milliseconds = outcome.seconds * 1000.0
        if outcome.request.is_read:
            classes["read"].append(milliseconds)
            classes["hit" if outcome.response["cached"] else "miss"].append(milliseconds)
        else:
            classes["update"].append(milliseconds)
    for name, samples in classes.items():
        metrics.add_latency(name, samples)
    metrics.add("error_rate", error_rate(failed, len(outcomes)), "ratio", len(outcomes))
    metrics.add("server_rss_mb", rss_mb, "MiB")
    return metrics


def _diagnostic_counts(outcomes, stats: dict, metrics: MetricSet) -> None:
    """Per-layer counts read from response diagnostics and ``/stats``."""
    computed = [
        o.response["result"]["diagnostics"]
        for o in outcomes
        if o.reason is None and o.request.is_read and not o.response["cached"]
    ]
    swaps = [float(d.get("n_swaps", 0)) for d in computed]
    moves = [
        float(d.get("repair_swaps", 0) + d.get("repair_moves", 0))
        for d in computed
        if "repair_strategy" in d
    ]
    metrics.add("fair.swaps", median(swaps) if swaps else 0.0, "count", len(swaps))
    metrics.add("fair.repair_moves", median(moves) if moves else 0.0, "count", len(moves))
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    metrics.add("cache.hit_ratio", cache["hits"] / lookups if lookups else 0.0, "ratio", lookups)
    metrics.add("cache.evictions", cache["evictions"], "count")
    metrics.add("cache.invalidations", cache["invalidations"], "count")


def _trace_metrics(plan, outcomes, work_dir: Path, trace_path: Path, metrics: MetricSet) -> list[str]:
    """Replay in-process (traced, untraced, traced); add per-layer metrics.

    Returns the failed trace checks.
    """
    from bench_trace import ROOT, Tracer, call_counts, replay, self_times

    timed = range(len(plan.priming), len(plan.priming) + len(plan.requests))
    tracers = [Tracer(), Tracer()]
    first = replay(plan, work_dir, tracers[0])
    plain = replay(plan, work_dir)
    traced = [first, replay(plan, work_dir, tracers[1])]
    tracers[0].write(trace_path)
    problems = []

    # 1. The replay must see the server's hit/miss sequence.
    server_flags = [o.response.get("cached") if isinstance(o.response, dict) else None for o in outcomes]
    mismatched = sum(1 for i, flag in zip(timed, server_flags) if traced[0].flags[i] != flag)
    metrics.add("trace.flag_mismatches", mismatched, "count", len(server_flags))
    if mismatched:
        problems.append(f"{mismatched} replayed cached flags differ from the server's")

    # 2. Phases must account for the request time.
    per_request = self_times(tracers[0].spans)
    total_ns = sum(sum(per_request[i].values()) for i in timed)
    glue_ns = sum(per_request[i][ROOT] for i in timed)
    closure = 1.0 - glue_ns / total_ns
    metrics.add("trace.closure", closure, "ratio", len(timed))
    if closure < CLOSURE_BOUND:
        problems.append(f"phases cover {closure:.4f} of request time, below {CLOSURE_BOUND}")

    # 3. Tracing overhead: the untraced replay runs between the two traced
    # ones, so drift in machine speed cancels to first order; compared
    # request by request, so one slow outlier does not decide it.
    ratios = [(traced[0].seconds[i] + traced[1].seconds[i]) / (2 * plain.seconds[i]) for i in timed]
    metrics.add("trace.overhead", median(ratios) - 1.0, "ratio", len(ratios))

    # 4. Two traced replays must count the same work.
    counts = [call_counts(tracer.spans) for tracer in tracers]
    counters = [
        {name: r.cache_stats[name] for name in ("hits", "misses", "evictions", "invalidations")}
        for r in traced
    ]
    if counts[0] != counts[1] or counters[0] != counters[1]:
        problems.append(f"two traced replays counted different work: {counters}")
    metrics.add("trace.spans", sum(counts[0].values()), "count")

    for layer in LAYERS:
        ran = [per_request[i][layer] / 1e6 for i in timed if layer in per_request[i]]
        metrics.add(f"{layer}_ms", median(ran) if ran else 0.0, "ms", len(ran))
        metrics.add(f"{layer}.share", sum(ran) * 1e6 / total_ns, "ratio", len(ran))
    http_ms = [o.seconds * 1000.0 for o in outcomes if o.seconds is not None]
    replay_ms = [plain.seconds[i] * 1000.0 for i in timed]
    metrics.add("http.transport_ms", median(http_ms) - median(replay_ms), "ms", len(http_ms))
    kib = [len(request.body) / 1024.0 for request in plan.requests]
    metrics.add("http.request_kib", sum(kib) / len(kib), "KiB", len(kib))
    return problems


def _declared_metrics(root: Path, trace: bool) -> list[str]:
    declaration = json.loads((root / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in declaration["per_layer" if trace else "end_to_end"]]


def run(args: argparse.Namespace, root: Path) -> int:
    """Run one workload; print the report and the result line."""
    from bench_workloads import WORKLOADS

    declared = _declared_metrics(root, bool(args.trace))
    size = max(1, round(args.seconds * RATES[args.workload]))
    work_dir = root / "perfbench" / "_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        plan = WORKLOADS[args.workload](args.seed, size, work_dir)
        with _pinned():
            server, client, setup_seconds = _serve(plan, root, work_dir)
            try:
                outcomes, wall = _drive(plan, client)
                rss_mb = read_vmhwm_mb(server.pid)
                time.sleep(0.05)  # let the server count the last response
                stats = client.get_json("/stats")
            finally:
                server.stop()
        reasons = _check(plan, outcomes, work_dir)
        problems = _reconcile(plan, stats, client, outcomes)
        metrics = _e2e_metrics(setup_seconds, outcomes, wall, rss_mb, len(reasons))
        _diagnostic_counts(outcomes, stats, metrics)
        if args.trace:
            trace_dir = root / "perfbench" / "traces"
            trace_dir.mkdir(exist_ok=True)
            trace_path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
            with _pinned():
                problems += _trace_metrics(plan, outcomes, work_dir, trace_path, metrics)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()

    print(f"workload {args.workload}  seed {args.seed}  requests {len(plan.requests)}  "
          f"timed phase {wall:.3f} s  closed loop, 1 client")
    for line in metrics.lines():
        print(line)
    for reason in reasons[:10]:
        print(f"FAILED {reason}")
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    if args.trace and metrics["trace.overhead"].value > OVERHEAD_WARN:
        print(f"WARNING tracing overhead {metrics['trace.overhead'].value:.4f} above {OVERHEAD_WARN}")
    correct = not reasons and not problems
    print(result_line(correct, len(outcomes), len(reasons), metrics, declared))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; exits 2 when the checkout holds no program to measure."""
    args = _parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"no program under {root / 'src' / 'repro'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # Turn SIGTERM into SystemExit so the cleanup that stops the server runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
