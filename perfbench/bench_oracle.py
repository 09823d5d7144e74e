"""Cold computes for the response checks, run as a child process of ``run.py``.

Usage: ``python3 perfbench/bench_oracle.py <queries.pickle> <expected.pickle>``

Reads a pickled list of :class:`bench_workloads.Query`, computes each one
cold with :func:`bench_workloads.cold_reference`, and writes the pickled list
of :class:`bench_workloads.Expected` in the same order.  ``run.py`` starts
these workers itself and waits for each, so no process outlives a run.
"""

from __future__ import annotations

import pickle
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench_workloads import cold_reference  # noqa: E402


def main(queries_path: str, expected_path: str) -> int:
    queries = pickle.loads(Path(queries_path).read_bytes())
    expected = [cold_reference(query) for query in queries]
    Path(expected_path).write_bytes(pickle.dumps(expected))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
