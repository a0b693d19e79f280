"""Fig. 17 — scalability across population sizes (Section 7.3).

The paper compares 103,625 vs 23,366 online hosts (ratio 4.434): after
dividing by the ratio, ASAP's quality-path CDF keeps its shape while
DEDI/RAND/MIX stay at their fixed absolute counts (≤30 per-capita-
normalized quality paths).  We re-run the identical latent calling
pattern on the full population and on a 1/4.434 subsample.
"""

import numpy as np

from repro.evaluation.report import render_kv_table, render_series
from repro.evaluation.scalability import PAPER_POPULATION_RATIO, run_scalability


def test_fig17_scalability(eval_scenario):
    result = run_scalability(
        eval_scenario,
        ratio=PAPER_POPULATION_RATIO,
        session_count=3000,
        latent_target=80,
        max_latent_sessions=80,
        seed=0,
    )

    methods = ("DEDI", "RAND", "MIX", "ASAP")
    print()
    print(
        render_kv_table(
            "=== Fig. 17 — populations ===",
            [
                ("large population", result.large_population),
                ("small population", result.small_population),
                ("ratio", result.ratio),
            ],
        )
    )
    print(
        render_series(
            "\nsmall-population one-hop quality paths:",
            [(m, result.small.series(m, "one_hop_quality_paths")) for m in methods],
        )
    )
    print(
        render_series(
            "\nlarge-population one-hop quality paths ÷ ratio:",
            [(m, result.normalized_large_series(m)) for m in methods],
        )
    )
    print(
        render_kv_table(
            "\nper-session scaling factor (scalable ⇒ ≈ ratio; fixed ⇒ ≈ 1):",
            [(m, result.scaling_factor(m)) for m in methods]
            + [(f"{m} error", result.scalability_error(m)) for m in methods],
        )
    )

    asap_err = result.scalability_error("ASAP")
    baseline_errs = [result.scalability_error(m) for m in ("DEDI", "RAND", "MIX")]
    # ASAP's candidate sets grow with the population — its scaling
    # factor tracks the population ratio.
    assert asap_err < min(baseline_errs)
    assert asap_err < 0.45
    # Fixed-probe methods stay near factor 1 (error ≈ 1 − 1/ratio).
    assert all(err > 0.5 for err in baseline_errs)
    assert all(result.scaling_factor(m) < 2.0 for m in ("DEDI", "RAND", "MIX"))
