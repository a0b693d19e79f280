"""Fig. 6 — relay-path RTT time series of problematic sessions (Limit 1).

The paper plots, for three problematic sessions, the King-estimated RTT
of every probed relay path over time, showing major paths well above
the 300 ms requirement while better probed paths went unused.  We rank
our 14 sessions by major-path RTT and print the probe time series of
the worst three.
"""

import numpy as np

from repro.measurement.tools import KingEstimator
from repro.skype.analyzer import TraceAnalyzer


def test_fig06_relay_timeseries(eval_scenario, section5_result):
    analyzer = TraceAnalyzer(
        eval_scenario.prefix_table,
        king=KingEstimator(eval_scenario.latency, seed=0),
        population=eval_scenario.population,
    )

    def series_for_all():
        out = []
        for result in section5_result.results:
            trace = result.trace
            out.append(
                (
                    trace.session_id,
                    analyzer.relay_time_series(trace, trace.caller, trace.callee),
                    result.direct_rtt_ms,
                )
            )
        return out

    all_series = series_for_all()

    # Rank sessions by their worst probed relay-path estimate.
    def worst_estimate(entry):
        _, series, _ = entry
        estimates = [e for _, _, e in series if e is not None]
        return max(estimates) if estimates else 0.0

    ranked = sorted(all_series, key=worst_estimate, reverse=True)[:3]

    print()
    print("=== Fig. 6 — probed relay-path RTT time series (3 worst sessions) ===")
    problematic = 0
    for session_id, series, direct in ranked:
        print(f"\n  session {session_id} (direct RTT "
              f"{'∞' if direct is None else f'{direct:.0f} ms'}):")
        shown = 0
        for t, relay_ip, estimate in series:
            if shown >= 12:
                print(f"    ... {len(series) - shown} more probes")
                break
            est = "no King answer" if estimate is None else f"{estimate:7.0f} ms"
            print(f"    t={t / 1000.0:7.1f} s  relay {str(relay_ip):<16} {est}")
            shown += 1
        estimates = [e for _, _, e in series if e is not None]
        if estimates and max(estimates) > 300.0:
            problematic += 1
            print(
                f"    probed paths above 300 ms: "
                f"{sum(1 for e in estimates if e > 300.0)} of {len(estimates)}"
            )

    # Limit 1's shape: problematic sessions probe paths above 300 ms.
    assert problematic >= 1
