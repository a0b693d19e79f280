"""Fig. 3 — RTT reduction by the optimal one-hop relay (Section 3.3).

(a) the reduction ratio r = (direct − opt1hop)/direct over improved
    sessions, evenly spread across (0, 1);
(b) for *latent* sessions (direct > 300 ms), the optimal one-hop RTT —
    the paper's headline: every latent session gets below 300 ms.
"""

import numpy as np

from repro.evaluation.report import render_cdf_row, render_kv_table
from repro.evaluation.section3 import run_section3


def test_fig03_rtt_reduction(eval_scenario, workload):
    result = run_section3(eval_scenario, workload=workload)

    print()
    print("=== Fig. 3(a) — RTT reduction ratio of improved sessions ===")
    print(render_cdf_row("reduction", result.reduction_ratios))
    spread = float(np.percentile(result.reduction_ratios, 90) - np.percentile(result.reduction_ratios, 10))
    print(render_kv_table("spread check (paper: evenly distributed):", [("p90 - p10", spread)]))

    print()
    print("=== Fig. 3(b) — latent sessions: direct vs optimal one-hop ===")
    print(render_cdf_row("direct", result.latent_direct, "ms"))
    print(render_cdf_row("opt 1-hop", result.latent_optimal, "ms"))
    print(
        render_kv_table(
            "rescue rate (paper: 100%):",
            [
                ("latent sessions", int(result.latent_direct.size)),
                ("fraction rescued (<300 ms via 1-hop)", result.rescued_fraction),
            ],
        )
    )

    assert result.latent_direct.size > 10
    # Paper: all latent sessions rescued; we assert the overwhelming majority.
    assert result.rescued_fraction > 0.9
    # Reduction ratios spread broadly, not clumped.
    assert spread > 0.2
