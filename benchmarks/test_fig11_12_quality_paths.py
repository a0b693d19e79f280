"""Figs. 11-12 — number of quality paths per latent session (Section 7.2).

Paper shape: DEDI/RAND/MIX never exceed ~500 quality paths per session,
while 90% of ASAP sessions find 1-2 orders of magnitude more (10^4 at
the paper's population; proportionally fewer at our scaled population).
"""

import numpy as np

from repro.evaluation.report import render_kv_table, render_series


def test_fig11_12_quality_paths(section7_result):
    result = section7_result

    methods = ("DEDI", "RAND", "MIX", "ASAP")
    print()
    print(f"latent sessions evaluated: {len(result.latent_sessions)}")
    print(
        render_series(
            "=== Figs. 11-12 — quality paths per session (CDF quantiles) ===",
            [(m, result.series(m, "quality_paths")) for m in methods],
        )
    )

    medians = {m: float(np.median(result.series(m, "quality_paths"))) for m in methods}
    best_baseline = max(medians[m] for m in ("DEDI", "RAND", "MIX"))
    print(
        render_kv_table(
            "medians:",
            [(m, medians[m]) for m in methods]
            + [("ASAP ÷ best baseline", medians["ASAP"] / max(best_baseline, 1.0))],
        )
    )

    # Paper shape: ASAP finds order(s) of magnitude more quality paths.
    assert medians["ASAP"] > 10 * best_baseline
    # Baselines are capped by their probe budgets.
    assert best_baseline <= 500
