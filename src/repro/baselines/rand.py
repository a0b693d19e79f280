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

from repro.baselines.base import BaselineConfig, MethodResult, RelayMethod, session_batch


class RANDMethod(RelayMethod):
    """Random-probing selection (paper's SOSR-like baseline)."""

    name = "RAND"

    def __init__(
        self,
        config: Optional[BaselineConfig] = None,
        probes: Optional[int] = None,
    ) -> None:
        super().__init__(config)
        self._probes = self._config.random_probes if probes is None else probes

    def evaluate_sessions(
        self,
        world,
        sessions: Sequence,
        *,
        session_ids: Optional[Sequence[int]] = None,
    ) -> List[MethodResult]:
        """Vectorized batch evaluation.

        The per-session RNG draws are kept in a (cheap) Python loop so
        each session's probe set matches :meth:`evaluate_session` draw
        for draw; the ``(S, P)`` draws are then scored together.
        """
        pairs, ids = session_batch(sessions, session_ids)
        # Node draws are weighted by cluster occupancy: probing a random
        # *peer* lands in a cluster with probability ∝ its population.
        sizes = world.sizes.astype(float)
        total = sizes.sum()
        probes = self._probes if total > 0 else 0
        draws = np.empty((len(pairs), probes), dtype=np.int64)
        if probes:
            weights = sizes / total
            for k, sid in enumerate(ids):
                rng = self._session_rng(int(sid))
                draws[k] = rng.choice(world.count, size=probes, replace=True, p=weights)
        return self._probe_results(world, pairs, draws)
