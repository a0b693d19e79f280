"""Figs. 13-14 — shortest relay RTT per latent session (Section 7.2).

Paper shape: ASAP's shortest RTTs track OPT's closely (all sessions
below ~115 ms in the paper's dataset); DEDI/RAND/MIX leave >5% of
sessions above 1 second.
"""

import numpy as np

from repro.evaluation.report import render_kv_table, render_series


def test_fig13_14_shortest_rtt(section7_result):
    result = section7_result
    methods = ("DEDI", "RAND", "MIX", "ASAP", "OPT")

    print()
    print(
        render_series(
            "=== Figs. 13-14 — shortest relay-path RTT per session (ms) ===",
            [(m, result.series(m, "best_rtt_ms")) for m in methods],
        )
    )

    def med(m):
        series = result.series(m, "best_rtt_ms")
        finite = series[np.isfinite(series)]
        return float(np.median(finite)) if finite.size else float("inf")

    def frac_rescued(m):
        series = result.series(m, "best_rtt_ms")
        return float(np.mean(np.isfinite(series) & (series < 300.0)))

    print(
        render_kv_table(
            "ASAP vs OPT closeness (paper: ASAP ≈ OPT):",
            [
                ("median OPT (ms)", med("OPT")),
                ("median ASAP (ms)", med("ASAP")),
                ("ASAP/OPT median ratio", med("ASAP") / med("OPT")),
                ("ASAP sessions rescued (<300 ms)", frac_rescued("ASAP")),
                ("OPT sessions rescued", frac_rescued("OPT")),
                ("best baseline rescued", max(frac_rescued(m) for m in ("DEDI", "RAND", "MIX"))),
            ],
        )
    )

    # ASAP tracks the offline optimum closely.
    assert med("ASAP") <= 1.25 * med("OPT")
    # OPT is a valid lower bound.
    for m in ("DEDI", "RAND", "MIX", "ASAP"):
        assert med("OPT") <= med(m) + 1e-9
    # ASAP rescues the overwhelming majority of latent sessions.
    assert frac_rescued("ASAP") > 0.9
