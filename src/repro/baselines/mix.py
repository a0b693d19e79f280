"""MIX — dedicated fleet plus random probes (paper's hybrid baseline).

40 dedicated nodes and 120 random probes per session by default, matching
Section 7.1's "MIX probes 160 nodes, including 40 dedicated nodes and
120 randomly probed nodes".
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.baselines.base import MIX_DEDICATED, MIX_RANDOM, MethodResult, RelayMethod
from repro.baselines.dedi import DEDIMethod
from repro.baselines.rand import RANDMethod
from repro.bgp.asgraph import ASGraph


class MIXMethod(RelayMethod):
    """Hybrid dedicated + random selection."""

    name = "MIX"

    def __init__(self, graph: ASGraph) -> None:
        self._dedi = DEDIMethod(graph, fleet_size=MIX_DEDICATED)
        self._rand = RANDMethod(probes=MIX_RANDOM)
        # Share the RNG namespace with MIX so results differ from RAND's.
        self._rand.name = "MIX"

    def evaluate_sessions(
        self,
        world,
        sessions: Sequence,
        *,
        session_ids: Optional[Sequence[int]] = None,
    ) -> List[MethodResult]:
        """Batch evaluation: both component batches, combined per session."""
        dedi = self._dedi.evaluate_sessions(world, sessions, session_ids=session_ids)
        rand = self._rand.evaluate_sessions(world, sessions, session_ids=session_ids)
        return [self._combine(d, r) for d, r in zip(dedi, rand)]

    def _combine(self, dedi: MethodResult, rand: MethodResult) -> MethodResult:
        bests = [r for r in (dedi.best_rtt_ms, rand.best_rtt_ms) if r is not None]
        return MethodResult(
            method=self.name,
            quality_paths=dedi.quality_paths + rand.quality_paths,
            best_rtt_ms=min(bests) if bests else None,
            messages=dedi.messages + rand.messages,
            probed_nodes=dedi.probed_nodes + rand.probed_nodes,
        )
