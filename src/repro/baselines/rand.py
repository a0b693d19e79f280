"""RAND — SOSR-like random relay probing.

Each session probes a fixed number of peers drawn uniformly from the
online population (per-session deterministic RNG).  SOSR showed random
one-hop intermediaries recover many *failures*; for VoIP latency the
random draw rarely lands in the sweet spot, and the probe budget is pure
per-session overhead.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.baselines.base import RANDOM_PROBES, MethodResult, RelayMethod, session_batch
from repro.core.config import require_count


class RANDMethod(RelayMethod):
    """Random-probing selection (paper's SOSR-like baseline)."""

    name = "RAND"

    def __init__(self, probes: int = RANDOM_PROBES) -> None:
        require_count("probes", probes, 0)
        self._probes = probes

    def evaluate_sessions(
        self,
        world,
        sessions: Sequence,
        *,
        session_ids: Optional[Sequence[int]] = None,
    ) -> List[MethodResult]:
        """Vectorized batch evaluation.

        The per-session RNG draws are kept in a (cheap) Python loop so
        each session's probe set matches a one-session batch draw for
        draw; the ``(S, P)`` draws are then scored together.
        """
        pairs, ids = session_batch(sessions, session_ids)
        return self._probe_results(world, pairs, self._draws(world, ids))

    def _draws(self, world, ids: Sequence[int]) -> np.ndarray:
        """``(S, P)`` probed clusters: session ``ids[k]``'s ``P`` draws."""
        # Node draws are weighted by cluster occupancy: probing a random
        # *peer* lands in a cluster with probability ∝ its population.
        sizes = world.sizes.astype(float)
        total = sizes.sum()
        probes = self._probes if total > 0 else 0
        draws = np.empty((len(ids), probes), dtype=np.int64)
        if probes:
            # ``rng.choice(count, probes, replace=True, p=sizes / total)``
            # draw for draw: numpy builds this CDF and searches it with
            # ``probes`` uniforms — here the CDF is built once per batch.
            cdf = (sizes / total).cumsum()
            cdf /= cdf[-1]
            for k, sid in enumerate(ids):
                uniforms = self._session_rng(int(sid)).random(probes)
                draws[k] = cdf.searchsorted(uniforms, side="right")
        return draws
