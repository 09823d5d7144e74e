"""Self-tests of the benchmark's reporting helper and span accounting.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bench_report import (  # noqa: E402
    MIN_P90_SAMPLES,
    MetricSet,
    check_name,
    error_rate,
    median,
    percentile,
    read_vmhwm_mb,
    result_line,
)


def test_percentile_interpolates_like_numpy():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 4.0
    assert median(values) == 2.5
    assert percentile(values, 0.9) == pytest.approx(3.7)
    assert median([7.0]) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_latency_reports_p90_only_from_enough_samples():
    metrics = MetricSet()
    metrics.add_latency("hit", [float(i) for i in range(MIN_P90_SAMPLES - 1)])
    metrics.add_latency("miss", [float(i) for i in range(MIN_P90_SAMPLES)])
    metrics.add_latency("update", [])
    assert "hit_p50_ms" in metrics and "hit_p90_ms" not in metrics
    assert metrics["hit_p50_ms"].samples == MIN_P90_SAMPLES - 1
    assert metrics["miss_p90_ms"].value == pytest.approx(percentile(list(map(float, range(100))), 0.9))
    assert metrics["miss_p90_ms"].unit == "ms"
    assert "update_p50_ms" not in metrics


def test_error_rate_counts_against_attempted():
    assert error_rate(0, 10) == 0.0
    assert error_rate(3, 12) == 0.25
    with pytest.raises(ValueError):
        error_rate(0, 0)
    with pytest.raises(ValueError):
        error_rate(5, 4)


@pytest.mark.parametrize("name", ["", "has space", "_leading", "a" * 65, "slash/name", "é"])
def test_invalid_names_are_rejected(name):
    with pytest.raises(ValueError):
        check_name(name)
    with pytest.raises(ValueError):
        MetricSet().add(name, 1.0, "ms")


def test_metrics_need_a_unit_and_a_unique_finite_value():
    metrics = MetricSet()
    metrics.add("cache.hit_ratio", 0.5, "ratio")
    with pytest.raises(ValueError):
        metrics.add("cache.hit_ratio", 0.6, "ratio")
    with pytest.raises(ValueError):
        metrics.add("x_ms", 1.0, "")
    with pytest.raises(ValueError):
        metrics.add("y_ms", float("nan"), "ms")


def test_result_line_carries_exactly_the_declared_metrics():
    metrics = MetricSet()
    metrics.add("setup_s", 0.81, "s", 3)
    metrics.add("throughput_rps", 12.5, "1/s", 100)
    line = json.loads(result_line(True, 100, 0, metrics, ["throughput_rps"]))
    assert line == {
        "correct": True,
        "attempted": 100,
        "failed": 0,
        "metrics": {"throughput_rps": {"value": 12.5, "unit": "1/s"}},
    }
    with pytest.raises(ValueError):
        result_line(True, 100, 0, metrics, ["server_rss_mb"])


def test_vmhwm_is_read_in_mib(tmp_path):
    status = tmp_path / "42" / "status"
    status.parent.mkdir()
    status.write_text("Name:\tpython3\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n")
    assert read_vmhwm_mb(42, proc=tmp_path) == 200.0
    status.write_text("Name:\tpython3\n")
    with pytest.raises(ValueError):
        read_vmhwm_mb(42, proc=tmp_path)


def test_own_vmhwm_is_positive():
    import os

    assert read_vmhwm_mb(os.getpid()) > 0


def test_declared_metric_names_are_valid():
    declaration = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declaration["end_to_end"] + declaration["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        check_name(name)
    assert "setup_s" in [m["name"] for m in declaration["end_to_end"]]


def test_self_time_subtracts_children():
    pytest.importorskip("repro")
    from bench_trace import Span, self_times

    spans = [
        Span("request", 0, 100, -1, 0),
        Span("http.decode", 10, 30, 0, 0),
        Span("service.compute", 30, 90, 0, 0),
        Span("fair.make_mr_fair", 40, 70, 2, 0),
        Span("request", 200, 210, -1, 1),
    ]
    per_request = self_times(spans)
    assert per_request[0] == {
        "request": 20,
        "http.decode": 20,
        "service.compute": 30,
        "fair.make_mr_fair": 30,
    }
    assert per_request[1] == {"request": 10}
