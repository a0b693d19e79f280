"""Figs. 15-16 — highest MOS per latent session (Section 7.2).

Paper shape (ITU E-model, G.729A+VAD, 0.5% loss): ASAP and OPT sessions
all reach MOS above 3.85; DEDI/RAND/MIX leave ~3% of sessions below
MOS 2.9 (unsatisfactory).
"""

import numpy as np

from repro.evaluation.report import render_kv_table, render_series


def test_fig15_16_mos(section7_result):
    result = section7_result
    methods = ("DEDI", "RAND", "MIX", "ASAP", "OPT")

    print()
    print(
        render_series(
            "=== Figs. 15-16 — highest MOS per session (G.729A+VAD, 0.5% loss) ===",
            [(m, result.series(m, "highest_mos")) for m in methods],
        )
    )

    def stats(m):
        series = result.series(m, "highest_mos")
        return (
            float(np.median(series)),
            float(np.mean(series < 2.9)),
            float(np.mean(series > 3.6)),
        )

    rows = []
    for m in methods:
        med, below, above = stats(m)
        rows.append((f"{m}: median / frac<2.9 / frac>3.6", f"{med:.2f} / {below:.2f} / {above:.2f}"))
    print(render_kv_table("summary:", rows))

    asap_med, asap_below, asap_above = stats("ASAP")
    opt_med, _, opt_above = stats("OPT")

    # ASAP tracks OPT.
    assert abs(asap_med - opt_med) < 0.25
    # The large majority of ASAP sessions are satisfied.
    assert asap_above > 0.9
    # MOS values are valid.
    for m in methods:
        series = result.series(m, "highest_mos")
        assert np.all((series >= 1.0) & (series <= 4.5))
