"""Fig. 2 — RTT distribution of random sessions (paper Section 3.3).

(a) the distribution of direct IP routing RTTs;
(b) direct vs optimal one-hop relay RTT per session.

Paper shape: most sessions below 200 ms; ~1-10% above the 200-300 ms
range (a small minority extremely slow); ~60% of sessions improved by
the optimal one-hop relay; most optimal one-hop RTTs under ~100-150 ms.
"""

import numpy as np

from repro.evaluation.report import render_cdf_row, render_kv_table
from repro.evaluation.section3 import run_section3
from repro.util.stats import fraction_above


def test_fig02_rtt_distribution(eval_scenario, workload):
    result = run_section3(eval_scenario, workload=workload)

    direct = result.direct_rtts
    optimal = result.optimal_one_hop
    finite = np.isfinite(direct)

    print()
    print("=== Fig. 2(a) — direct IP routing RTT distribution ===")
    print(render_cdf_row("direct", direct, "ms"))
    print(
        render_kv_table(
            "tail fractions:",
            [
                ("P[direct > 200 ms]", fraction_above(direct[finite], 200.0)),
                ("P[direct > 300 ms]", fraction_above(direct[finite], 300.0)),
                ("P[direct > 1 s]", fraction_above(direct[finite], 1000.0)),
                ("unreachable fraction", float(np.mean(~finite))),
            ],
        )
    )

    print()
    print("=== Fig. 2(b) — direct vs optimal one-hop relay ===")
    print(render_cdf_row("direct", direct, "ms"))
    print(render_cdf_row("opt 1-hop", optimal, "ms"))
    print(
        render_kv_table(
            "paper targets (~60% improved; optimal mostly fast):",
            [
                ("fraction improved by 1-hop", result.improved_fraction),
                ("P[opt 1-hop < 150 ms]", 1.0 - fraction_above(optimal[np.isfinite(optimal)], 150.0)),
            ],
        )
    )

    # Shape assertions (loose: shapes, not absolutes).
    assert 0.001 < result.latent_fraction < 0.4
    assert result.improved_fraction > 0.15
