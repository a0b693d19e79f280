"""Fig. 18 — relay-selection message overhead per session (Section 7.3).

Paper shape: DEDI/RAND/MIX pay a fixed probe cost per session (160 /
400 / 320 messages at 2 per probe); ASAP needs just 2 messages for
one-hop selection, more only when two-hop search runs — over 80% of
sessions stay under 300 messages.
"""

import numpy as np

from repro.evaluation.report import render_kv_table, render_series


def test_fig18_overhead(section7_result):
    result = section7_result
    methods = ("DEDI", "RAND", "MIX", "ASAP")

    print()
    print(
        render_series(
            "=== Fig. 18 — protocol messages per session ===",
            [(m, result.series(m, "messages")) for m in methods],
        )
    )

    asap = result.series("ASAP", "messages")
    print(
        render_kv_table(
            "ASAP overhead profile (paper: >80% of sessions ≤300 messages):",
            [
                ("P[ASAP ≤ 2 messages] (pure one-hop)", float(np.mean(asap <= 2))),
                ("P[ASAP ≤ 300 messages]", float(np.mean(asap <= 300))),
                ("max ASAP messages", float(asap.max())),
                ("median DEDI messages", float(np.median(result.series("DEDI", "messages")))),
                ("median RAND messages", float(np.median(result.series("RAND", "messages")))),
                ("median MIX messages", float(np.median(result.series("MIX", "messages")))),
            ],
        )
    )

    # Paper shape assertions.
    assert float(np.mean(asap <= 300)) > 0.8
    assert float(np.median(asap)) < float(np.median(result.series("DEDI", "messages")))
    # Baselines pay fixed budgets (2 messages per probe).
    assert float(np.median(result.series("RAND", "messages"))) > 300
