"""Extension bench — the four Skype limits, detected programmatically.

Section 5 identifies the limits by manual trace inspection; the
:mod:`repro.skype.limits` detectors encode the same criteria.  This
bench runs them over the 14-session study and prints the per-limit
session sets — the reproduction's machine-checkable version of the
paper's narrative.
"""

from repro.evaluation.report import render_kv_table
from repro.measurement.tools import KingEstimator
from repro.skype.analyzer import TraceAnalyzer
from repro.skype.limits import LimitThresholds, detect_limits


def test_ext_limit_detection(benchmark, eval_scenario, section5_result):
    analyzer = TraceAnalyzer(
        eval_scenario.prefix_table,
        king=KingEstimator(eval_scenario.latency, seed=0, non_response_rate=0.0),
        population=eval_scenario.population,
    )

    report = benchmark.pedantic(
        lambda: detect_limits(
            section5_result.analyses,
            section5_result.results,
            analyzer,
            thresholds=LimitThresholds(),
        ),
        rounds=1,
        iterations=1,
    )

    print()
    print(render_kv_table("=== extension — detected Skype limits ===", report.summary_rows()))
    for finding in report.limit1[:5]:
        print(
            f"  Limit 1: session {finding.session_id} major path "
            f"{finding.major_path_rtt_ms:.0f} ms but a probed path at "
            f"{finding.best_probed_rtt_ms:.0f} ms existed "
            f"({finding.wasted_ms:.0f} ms wasted)"
        )
    for session_id, stab_ms in sorted(report.limit3.items())[:5]:
        print(f"  Limit 3: session {session_id} stabilized after {stab_ms / 1000:.1f} s")

    # The study must exhibit every limit class the paper reports.
    assert report.limit2, "same-AS probing absent"
    assert report.limit3, "no long stabilization session"
    assert report.limit4, "no probing-heavy session"
    assert report.sessions_with_any_limit()
