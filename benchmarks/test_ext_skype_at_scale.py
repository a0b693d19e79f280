"""Extension bench — Skype limits at scale + AS-path inference accuracy.

Two aggregate studies the paper's 14 hand-collected sessions could not
provide:

- **Skype limits over 40 randomized problematic sessions** — aggregate
  frequencies of the four limits instead of anecdotes;
- **AS-path inference accuracy** (property [16]) — how often the
  shortest valley-free path matches the actually selected policy route.
"""

import numpy as np

from repro.bgp.pathinfer import evaluate_inference
from repro.bgp.routing import PolicyRouter
from repro.evaluation.report import render_kv_table
from repro.evaluation.section5 import run_skype_batch
from repro.measurement.tools import KingEstimator
from repro.skype.analyzer import TraceAnalyzer
from repro.skype.limits import LimitThresholds, detect_limits
from repro.util.rng import derive_rng


def test_ext_skype_limits_at_scale(eval_scenario):
    study = run_skype_batch(eval_scenario, session_count=40, seed=3)
    analyzer = TraceAnalyzer(
        eval_scenario.prefix_table,
        king=KingEstimator(eval_scenario.latency, seed=3, non_response_rate=0.0),
        population=eval_scenario.population,
    )
    report = detect_limits(
        study.analyses, study.results, analyzer, thresholds=LimitThresholds()
    )

    n = len(study.analyses)
    probed = study.probed_counts()
    stab = study.stabilization_seconds()
    print()
    print(
        render_kv_table(
            "=== extension — Skype limits over 40 randomized sessions ===",
            [
                ("sessions", n),
                ("Limit 1 frequency", len(report.limit1) / n),
                ("Limit 2 frequency", len(report.limit2) / n),
                ("Limit 3 frequency", len(report.limit3) / n),
                ("Limit 4 frequency", len(report.limit4) / n),
                ("median probed nodes", float(np.median(probed))),
                ("median stabilization (s)", float(np.median(stab))),
                ("p90 stabilization (s)", float(np.percentile(stab, 90))),
            ],
        )
    )

    assert n == 40
    # On problematic sessions the limits are endemic, not anecdotal.
    assert len(report.limit2) / n > 0.5
    assert len(report.limit4) / n > 0.5
    assert len(report.limit3) >= 1


def test_ext_path_inference_accuracy(eval_scenario):
    graph = eval_scenario.topology.graph
    router = PolicyRouter(graph)
    stubs = eval_scenario.topology.stub_ases()
    rng = derive_rng(0, "pathinfer-bench")
    pairs = [
        (int(a), int(b))
        for a, b in zip(
            rng.choice(stubs, size=400), rng.choice(stubs, size=400)
        )
        if a != b
    ]

    report = evaluate_inference(graph, router, pairs)
    print()
    print(
        render_kv_table(
            "=== extension — shortest-valley-free AS path inference vs policy routes ===",
            [
                ("pairs", report.pairs),
                ("exact path match rate", report.exact_rate),
                ("hop-count match rate", report.length_rate),
                ("policy detour rate", report.detour_rate),
                ("inference longer than policy", report.inferred_longer),
            ],
        )
    )

    # Mao et al.'s observation on our substrate: hop counts mostly match.
    assert report.length_rate > 0.6
    # The shortest valley-free path can never exceed the policy route.
    assert report.inferred_longer == 0
