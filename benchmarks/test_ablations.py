"""Ablation benches for ASAP's design choices (DESIGN.md Section 5).

Not figures from the paper, but quantifications of the design decisions
its text argues for: the k hop limit, the sizeT two-hop trigger, the
latT threshold, and the valley-free constraint itself.
"""

from repro.core import ASAPConfig
from repro.core.config import derive_k_hops
from repro.evaluation.ablations import (
    sweep_k,
    sweep_lat_threshold,
    sweep_size_threshold,
    sweep_valley_free,
)

SESSIONS = 2000
LATENT = 40


def _print(points, title):
    print()
    print(title)
    for point in points:
        print("  " + point.row())


def test_ablation_k_hops(eval_scenario):
    points = sweep_k(
        eval_scenario,
        k_values=(3, 4, 5, 6),
        session_count=SESSIONS,
        latent_target=LATENT,
        max_latent=LATENT,
        seed=0,
    )
    _print(points, "=== ablation: close-cluster BFS hop limit k ===")
    derived = derive_k_hops(eval_scenario.matrices)
    print(f"  (paper's 90%-rule applied to this substrate derives k = {derived})")

    by_k = {p.config.k_hops: p for p in points}
    # Larger k can only widen the search: rescue rate must not drop.
    assert by_k[5].rescued_fraction >= by_k[3].rescued_fraction
    # ...but costs more maintenance probing.
    assert by_k[6].maintenance_messages >= by_k[3].maintenance_messages


def test_ablation_size_threshold(eval_scenario):
    points = sweep_size_threshold(
        eval_scenario,
        size_values=(0, 300, 10**9),
        session_count=SESSIONS,
        latent_target=LATENT,
        max_latent=LATENT,
        seed=0,
    )
    _print(points, "=== ablation: two-hop trigger sizeT ===")

    no_two_hop, paper, always = points
    # sizeT = 0 disables two-hop search entirely.
    assert no_two_hop.two_hop_sessions == 0
    # Forcing two-hop always costs the most messages.
    assert always.messages_median >= paper.messages_median
    assert always.two_hop_sessions >= paper.two_hop_sessions


def test_ablation_lat_threshold(eval_scenario):
    points = sweep_lat_threshold(
        eval_scenario,
        thresholds_ms=(250.0, 300.0, 400.0),
        session_count=SESSIONS,
        latent_target=LATENT,
        max_latent=LATENT,
        seed=0,
    )
    _print(points, "=== ablation: quality threshold latT ===")

    tight, paper, loose = points
    # The latent session set is fixed at 300 ms, so:
    # - a tighter protocol threshold accepts fewer relay paths;
    assert tight.quality_paths_median <= paper.quality_paths_median
    # - a looser threshold declares many of those sessions "good enough
    #   direct" and skips relay selection entirely (lower overhead, and
    #   fewer sessions with any relay found).
    assert loose.messages_median <= paper.messages_median
    assert loose.rescued_fraction <= paper.rescued_fraction


def test_ablation_valley_free(eval_scenario):
    points = sweep_valley_free(
        eval_scenario,
        session_count=SESSIONS,
        latent_target=LATENT,
        max_latent=LATENT,
        seed=0,
    )
    _print(points, "=== ablation: valley-free constraint in the BFS ===")

    constrained, unconstrained = points
    # Dropping the constraint floods the graph: more maintenance probes
    # for (at best) similar quality — the cost of AS-obliviousness.
    assert unconstrained.maintenance_messages >= constrained.maintenance_messages
    print(
        f"  unconstrained probes / constrained probes = "
        f"{unconstrained.maintenance_messages / max(constrained.maintenance_messages, 1):.2f}"
    )
