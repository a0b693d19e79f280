"""AS-level path inference by shortest valley-free paths.

The paper leans on Mao et al. [16]: "it is reasonably accurate to infer
AS paths by computing the shortest AS hops paths" (under the valley-free
constraint).  ASAP itself only needs hop *counts* (the BFS radius), but
an operator debugging relay choices wants the inferred path — and the
accuracy of the inference against actually-selected policy routes is a
measurable property of the substrate, which tests and benches check.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.bgp.asgraph import ASGraph, _PHASE_DOWN, _PHASE_UP
from repro.bgp.routing import PolicyRouter
from repro.errors import TopologyError

#: The inference gives up on a pair farther apart than this many AS hops.
MAX_PATH_HOPS = 32


def infer_as_path(graph: ASGraph, src: int, dst: int) -> Optional[Tuple[int, ...]]:
    """Shortest valley-free AS path from src to dst, or None.

    Ties break deterministically toward lower ASNs, matching the rest of
    the library's determinism rules.
    """
    if src not in graph or dst not in graph:
        raise TopologyError(f"unknown AS in pair ({src}, {dst})")
    if src == dst:
        return (src,)
    # BFS over (asn, phase) with parent pointers for reconstruction.
    start = (src, _PHASE_UP)
    parents: Dict[Tuple[int, int], Tuple[int, int]] = {start: None}  # type: ignore[dict-item]
    queue = deque([(src, _PHASE_UP, 0)])
    goal: Optional[Tuple[int, int]] = None
    while queue and goal is None:
        node, phase, dist = queue.popleft()
        if dist == MAX_PATH_HOPS:
            continue
        for nxt, nxt_phase in sorted(graph._valley_free_steps(node, phase)):
            state = (nxt, nxt_phase)
            if state in parents:
                continue
            parents[state] = (node, phase)
            if nxt == dst:
                goal = state
                break
            queue.append((nxt, nxt_phase, dist + 1))
    if goal is None:
        return None
    path: List[int] = []
    state: Optional[Tuple[int, int]] = goal
    while state is not None:
        path.append(state[0])
        state = parents[state]
    return tuple(reversed(path))


@dataclass(frozen=True)
class PathInferenceReport:
    """Accuracy of shortest-valley-free inference vs selected routes."""

    pairs: int
    unreachable_agreement: int   # both say "no path"
    exact_matches: int           # identical AS sequence
    length_matches: int          # same hop count, different sequence
    inferred_shorter: int        # policy route detours past the shortest
    inferred_longer: int         # should be ~0: policy is valley-free too

    @property
    def exact_rate(self) -> float:
        return self.exact_matches / self.pairs if self.pairs else 1.0

    @property
    def length_rate(self) -> float:
        """Fraction with at least matching hop count."""
        if not self.pairs:
            return 1.0
        return (self.exact_matches + self.length_matches) / self.pairs

    @property
    def detour_rate(self) -> float:
        """Fraction where policy routing is strictly longer than the
        shortest valley-free path — the overlay opportunity measure."""
        return self.inferred_shorter / self.pairs if self.pairs else 0.0


def evaluate_inference(
    graph: ASGraph,
    router: PolicyRouter,
    pairs: Iterable[Tuple[int, int]],
) -> PathInferenceReport:
    """Score shortest-valley-free inference against policy-selected paths."""
    total = 0
    unreachable = exact = length = shorter = longer = 0
    for src, dst in pairs:
        total += 1
        selected = router.as_path(src, dst)
        inferred = infer_as_path(graph, src, dst)
        if selected is None and inferred is None:
            unreachable += 1
            continue
        if selected is None or inferred is None:
            # One side reaches, the other does not — counts as a miss.
            continue
        if selected == inferred:
            exact += 1
        elif len(selected) == len(inferred):
            length += 1
        elif len(inferred) < len(selected):
            shorter += 1
        else:
            longer += 1
    return PathInferenceReport(
        pairs=total,
        unreachable_agreement=unreachable,
        exact_matches=exact,
        length_matches=length,
        inferred_shorter=shorter,
        inferred_longer=longer,
    )
