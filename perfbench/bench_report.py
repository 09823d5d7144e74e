"""Reporting helper: percentiles with sample counts, named metrics, server RSS.

Every figure the benchmark prints goes through :class:`MetricSet`, which
checks the name against ``[A-Za-z0-9_.-]+``, attaches a unit, and records how
many samples the value summarises.  Latency classes with fewer than
:data:`MIN_P90_SAMPLES` samples report only their median: below that, the
90th percentile has fewer than ten samples beyond it and moves with single
requests.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

#: Metric names: letters, digits, ``_``, ``.`` and ``-``, starting with a
#: letter or digit, at most 64 characters.
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Units: ``ms``, ``s``, ``1/s``, ``MiB``, ``count``, ``ratio``, ...
UNIT_PATTERN = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Smallest sample for which a p90 is reported (ten samples beyond it).
MIN_P90_SAMPLES = 100


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ``ValueError``."""
    if not NAME_PATTERN.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def percentile(values: list[float], fraction: float) -> float:
    """Linearly interpolated percentile (numpy's default) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float:
    """Median of a non-empty sample."""
    return percentile(values, 0.5)


def error_rate(failed: int, attempted: int) -> float:
    """Failed or incorrect operations as a share of those attempted."""
    if attempted < 1:
        raise ValueError("error_rate needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} must lie in [0, attempted={attempted}]")
    return failed / attempted


def read_vmhwm_mb(pid: int, proc: Path = Path("/proc")) -> float:
    """Peak resident set size (``VmHWM``) of process ``pid`` in MiB."""
    for line in (proc / str(pid) / "status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            amount, unit = line.split()[1:3]
            if unit != "kB":
                raise ValueError(f"unexpected VmHWM unit {unit!r}")
            return int(amount) / 1024.0
    raise ValueError(f"no VmHWM line in {proc / str(pid) / 'status'}")


@dataclass(frozen=True)
class Metric:
    """One named figure with its unit and the number of samples behind it."""

    name: str
    value: float
    unit: str
    samples: int | None = None

    def __post_init__(self) -> None:
        check_name(self.name)
        if not UNIT_PATTERN.fullmatch(self.unit):
            raise ValueError(f"invalid unit {self.unit!r} for metric {self.name!r}")
        if not math.isfinite(self.value):
            raise ValueError(f"metric {self.name!r} is not finite: {self.value}")

    def line(self) -> str:
        """Human-readable ``name = value unit (n=...)`` line."""
        count = "" if self.samples is None else f"  (n={self.samples})"
        return f"{self.name:<34} {self.value:>14.6f} {self.unit}{count}"


class MetricSet:
    """Ordered collection of uniquely named metrics."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def add(self, name: str, value: float, unit: str, samples: int | None = None) -> None:
        """Record one metric; a name may be recorded once."""
        if name in self._metrics:
            raise ValueError(f"metric {name!r} recorded twice")
        self._metrics[name] = Metric(name, float(value), unit, samples)

    def add_latency(self, prefix: str, samples_ms: list[float]) -> None:
        """Record ``<prefix>_p50_ms``, plus ``_p90_ms`` once the sample supports it."""
        if not samples_ms:
            return
        count = len(samples_ms)
        self.add(f"{prefix}_p50_ms", median(samples_ms), "ms", count)
        if count >= MIN_P90_SAMPLES:
            self.add(f"{prefix}_p90_ms", percentile(samples_ms, 0.9), "ms", count)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str) -> Metric:
        return self._metrics[name]

    def __iter__(self):
        return iter(self._metrics.values())

    def lines(self) -> list[str]:
        """One human-readable line per metric, in recording order."""
        return [metric.line() for metric in self]


def result_line(
    correct: bool, attempted: int, failed: int, metrics: MetricSet, names: list[str]
) -> str:
    """The final JSON line: the verdict plus exactly the metrics named in ``names``."""
    missing = [name for name in names if name not in metrics]
    if missing:
        raise ValueError(f"metrics not measured: {missing}")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": metrics[name].value, "unit": metrics[name].unit}
                for name in names
            },
        }
    )
