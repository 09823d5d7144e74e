"""Performance benchmark of the insertion (block-move) local-search strategy.

Times the engine-backed insertion search
(:func:`repro.aggregation.search.local_search` with ``strategy="insertion"``,
i.e. :class:`~repro.aggregation.search.InsertionStrategy` on the
:class:`~repro.aggregation.incremental.KemenyDeltaEngine`) against the
retained from-scratch ground truth
(:func:`repro.aggregation.search.insertion_local_search_reference`), and the
fairness-constrained insertion repair
(:func:`repro.fair.local_repair.fair_local_search` with
``strategy="insertion"``) against *its*
from-scratch reference, on the synthetic-experiment regimes.

Results are written to ``benchmarks/results/perf_insertion.{json,txt}``,
extending the PR-2 hot-path / PR-3 datagen / PR-4 local-search perf
trajectory.  Set ``MANI_RANK_PERF_SCALE=smoke`` for the reduced CI
configuration (asserts without persisting unless
``MANI_RANK_PERF_RESULTS_DIR`` redirects the output).

Each unconstrained configuration is timed from two seeds, as in
``test_perf_local_search``: the Borda consensus (near locally optimal) and
the *cold* reversed-Borda seed (an adversarially bad upstream ranking, the
acceptance workload).  Hard assertions guarding the tentpole:

* the engine-backed insertion search returns the **identical** ranking to
  the from-scratch reference from both seeds;
* its final objective is never worse than the adjacent-swap strategy's on
  the same seed (the dominance guarantee of the variable-neighbourhood
  schedule);
* at the acceptance configuration (n = 200 candidates, m = 500 rankings at
  full scale) the cold-seed insertion search is >= 5x faster than the
  reference (>= 2x at smoke scale, where fixed per-call overheads weigh
  more);
* the fairness-constrained insertion repair matches its reference's final
  ranking and move counts, and is >= 5x faster at its largest configuration
  (the reference rescoring is O(n^2) Kemeny evaluations per pass, so it is
  benchmarked on smaller grids).
"""

from __future__ import annotations

import json
import os
import timeit

import numpy as np

from repro.aggregation.borda import BordaAggregator
from repro.aggregation.search import (
    insertion_local_search_reference,
    local_search,
)
from repro.core.distances import kemeny_objective
from repro.core.ranking import Ranking
from repro.datagen.attributes import scalability_table
from repro.datagen.fair_modal import calibrated_modal_ranking
from repro.datagen.mallows import sample_mallows
from repro.experiments.reporting import render_table
from repro.fair.local_repair import (
    fair_insertion_kemenization_reference,
    fair_local_search,
)
from repro.fair.make_mr_fair import make_mr_fair

_SCALE_PARAMETERS = {
    "full": {
        "configurations": ((100, 200), (200, 500)),
        "fair_configurations": ((30, 60), (50, 100)),
        "theta": 0.3,
        "min_speedup": 5.0,
        "fair_min_speedup": 5.0,
    },
    "smoke": {
        "configurations": ((40, 60), (60, 100)),
        "fair_configurations": ((15, 25), (20, 40)),
        "theta": 0.3,
        "min_speedup": 2.0,
        "fair_min_speedup": 2.0,
    },
}

#: Generous pass budget so both implementations always run to convergence.
_MAX_PASSES = 1000

#: Modal-ranking parity targets and threshold of the fair-repair benchmark.
_REPAIR_TARGETS = {"Race": 0.3, "Gender": 0.5}
_REPAIR_DELTA = 0.05


def _best_of(function, repeat: int = 5) -> float:
    """Minimum wall-clock seconds over ``repeat`` single runs."""
    return min(timeit.repeat(function, number=1, repeat=repeat))


def test_perf_insertion(results_directory, perf_output_directory):
    scale = os.environ.get("MANI_RANK_PERF_SCALE", "full")
    parameters = _SCALE_PARAMETERS[scale]
    theta = parameters["theta"]

    # ------------------------------------------------------------------
    # insertion search: engine strategy vs from-scratch reference
    # ------------------------------------------------------------------
    search_rows = []
    for n_candidates, n_rankings in parameters["configurations"]:
        modal = Ranking(
            np.random.default_rng(n_candidates).permutation(n_candidates)
        )
        rankings = sample_mallows(modal, theta, n_rankings, rng=17)
        rankings.precedence_matrix()  # warm the shared cached kernel
        borda = BordaAggregator().aggregate(rankings)
        cold = Ranking(borda.order[::-1].copy())

        for seed_label, seed in (("borda", borda), ("cold", cold)):
            engine_ranking = local_search(
                rankings, seed, strategy="insertion", max_passes=_MAX_PASSES
            )
            reference_ranking = insertion_local_search_reference(
                rankings, seed, max_passes=_MAX_PASSES
            )
            assert engine_ranking == reference_ranking
            # Dominance: never worse than the adjacent-swap strategy.
            adjacent_ranking = local_search(
                rankings, seed, strategy="adjacent-swap", max_passes=_MAX_PASSES
            )
            assert kemeny_objective(engine_ranking, rankings) <= kemeny_objective(
                adjacent_ranking, rankings
            )

            engine_s = _best_of(
                lambda: local_search(
                    rankings, seed, strategy="insertion", max_passes=_MAX_PASSES
                )
            )
            reference_s = _best_of(
                lambda: insertion_local_search_reference(
                    rankings, seed, max_passes=_MAX_PASSES
                )
            )
            search_rows.append(
                {
                    "n_candidates": n_candidates,
                    "n_rankings": n_rankings,
                    "seed": seed_label,
                    "engine_s": engine_s,
                    "reference_s": reference_s,
                    "speedup": reference_s / engine_s,
                }
            )

    # The speedup gate applies at the acceptance configuration: the largest
    # cold-seed workload timed.  MANI_RANK_PERF_MIN_SPEEDUP loosens the gate
    # where timings are noisy but the run should still regenerate results.
    min_speedup = float(
        os.environ.get("MANI_RANK_PERF_MIN_SPEEDUP", parameters["min_speedup"])
    )
    acceptance = max(
        (row for row in search_rows if row["seed"] == "cold"),
        key=lambda row: row["n_candidates"] * row["n_rankings"],
    )
    assert acceptance["speedup"] >= min_speedup, (
        f"engine-backed insertion search only {acceptance['speedup']:.1f}x "
        f"faster than the from-scratch reference at "
        f"n={acceptance['n_candidates']}, m={acceptance['n_rankings']} "
        f"(required {min_speedup}x)"
    )

    # ------------------------------------------------------------------
    # fairness-constrained insertion repair vs from-scratch reference
    # ------------------------------------------------------------------
    repair_rows = []
    for n_candidates, n_rankings in parameters["fair_configurations"]:
        table = scalability_table(n_candidates, rng=7)
        modal = calibrated_modal_ranking(table, _REPAIR_TARGETS, rng=7)
        rankings = sample_mallows(modal, theta, n_rankings, rng=11)
        rankings.precedence_matrix()
        corrected = make_mr_fair(
            BordaAggregator().aggregate(rankings), table, _REPAIR_DELTA
        ).ranking

        engine_repair = fair_local_search(
            rankings,
            corrected,
            table,
            _REPAIR_DELTA,
            strategy="insertion",
            max_passes=_MAX_PASSES,
        )
        reference_repair = fair_insertion_kemenization_reference(
            rankings, corrected, table, _REPAIR_DELTA, max_passes=_MAX_PASSES
        )
        assert engine_repair.ranking == reference_repair.ranking
        assert engine_repair.n_swaps == reference_repair.n_swaps
        assert engine_repair.n_moves == reference_repair.n_moves

        engine_s = _best_of(
            lambda: fair_local_search(
                rankings,
                corrected,
                table,
                _REPAIR_DELTA,
                strategy="insertion",
                max_passes=_MAX_PASSES,
            )
        )
        reference_s = _best_of(
            lambda: fair_insertion_kemenization_reference(
                rankings, corrected, table, _REPAIR_DELTA, max_passes=_MAX_PASSES
            ),
            repeat=3,
        )
        repair_rows.append(
            {
                "n_candidates": n_candidates,
                "n_rankings": n_rankings,
                "n_swaps": engine_repair.n_swaps,
                "n_moves": engine_repair.n_moves,
                "engine_s": engine_s,
                "reference_s": reference_s,
                "speedup": reference_s / engine_s,
            }
        )

    fair_min_speedup = float(
        os.environ.get(
            "MANI_RANK_PERF_MIN_SPEEDUP", parameters["fair_min_speedup"]
        )
    )
    fair_acceptance = max(
        repair_rows, key=lambda row: row["n_candidates"] * row["n_rankings"]
    )
    assert fair_acceptance["speedup"] >= fair_min_speedup, (
        f"fair insertion repair only {fair_acceptance['speedup']:.1f}x faster "
        f"than the from-scratch reference at "
        f"n={fair_acceptance['n_candidates']}, "
        f"m={fair_acceptance['n_rankings']} (required {fair_min_speedup}x)"
    )

    # ------------------------------------------------------------------
    # persist the trajectory — full scale only, so a smoke run (CI, quick
    # local checks) never overwrites the committed full-scale baseline;
    # MANI_RANK_PERF_RESULTS_DIR redirects persistence (any scale) to a
    # scratch directory the CI perf-smoke job uploads and compares
    # ------------------------------------------------------------------
    if perf_output_directory is not None:
        results_directory = perf_output_directory
    elif scale != "full":
        return
    payload = {
        "benchmark": "perf_insertion",
        "scale": scale,
        "parameters": {
            "configurations": [list(pair) for pair in parameters["configurations"]],
            "fair_configurations": [
                list(pair) for pair in parameters["fair_configurations"]
            ],
            "theta": theta,
            "max_passes": _MAX_PASSES,
            "repair_targets": _REPAIR_TARGETS,
            "repair_delta": _REPAIR_DELTA,
        },
        "insertion_search": search_rows,
        "fair_insertion_repair": repair_rows,
    }
    (results_directory / "perf_insertion.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    text = "\n\n".join(
        [
            f"perf_insertion (scale={scale})",
            "Insertion local search (delta engine vs from-scratch reference)\n"
            + render_table(search_rows, digits=4),
            "Fair insertion repair (incremental engines vs from-scratch)\n"
            + render_table(repair_rows, digits=4),
        ]
    )
    (results_directory / "perf_insertion.txt").write_text(text + "\n")
