"""OPT — the offline optimal relay selection (paper Section 7.1).

"OPT always chooses relay nodes that give the shortest overlay routing
latency.  This is an offline method with all latency data on hand
through one-hop and two-hop relay paths iterations."

One kernel, :meth:`OPTMethod._score`, reads any world view — dense
``DelegateMatrices`` or streamed ``VirtualMatrices`` — through
``iter_column_blocks`` alone, :data:`SESSION_BATCH` sessions per sweep:
sweep 1 collects each caller's row and callee's column (the one-hop
path matrix and its quality counts), sweep 2 folds the two-hop min-plus
product block by block.  Mins and integer sums over a column partition
equal those over the whole, so no result depends on the block width.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import BaselineConfig, MethodResult, RelayMethod, session_batch

#: Sessions scored per sweep — bounds the (sessions × clusters)
#: row/column buffers regardless of batch size.
SESSION_BATCH = 128


class OPTMethod(RelayMethod):
    """Exhaustive offline optimum over one- and two-hop relay paths."""

    name = "OPT"

    def __init__(
        self,
        config: Optional[BaselineConfig] = None,
        include_two_hop: bool = True,
    ) -> None:
        super().__init__(config)
        self._include_two_hop = include_two_hop

    def best_one_hop(self, world, a: int, b: int) -> Tuple[Optional[int], Optional[float]]:
        """(relay cluster, RTT) of the optimal one-hop relay path; an
        endpoint's own cluster is the direct path, never a relay."""
        path, _, _ = self._score(world, np.array([a]), np.array([b]), two_hop=False)
        idx = int(np.argmin(path[0]))
        value = float(path[0, idx])
        if not np.isfinite(value):
            return None, None
        return idx, value

    def best_two_hop(self, world, a: int, b: int) -> Optional[float]:
        """RTT of the optimal two-hop relay path (min-plus product).

        Both endpoint clusters are masked out of the intermediate-hop
        positions, mirroring :meth:`best_one_hop`: a path "through" an
        endpoint's own cluster is really a one-hop or direct path (e.g.
        ``rtt[a, j] + rtt[j, b] + rtt[b, b]``), not a two-hop overlay.
        """
        _, _, two_hop = self._score(world, np.array([a]), np.array([b]), two_hop=True)
        best = float(two_hop[0])
        return best if np.isfinite(best) else None

    def evaluate_sessions(
        self,
        world,
        sessions: Sequence,
        *,
        session_ids: Optional[Sequence[int]] = None,
    ) -> List[MethodResult]:
        """One- (and two-) hop optima and quality counts, scored
        :data:`SESSION_BATCH` sessions per sweep."""
        pairs, _ = session_batch(sessions, session_ids)
        results: List[MethodResult] = []
        for start in range(0, len(pairs), SESSION_BATCH):
            a_arr, b_arr = self._pair_arrays(pairs[start : start + SESSION_BATCH])
            path, quality, two_hop = self._score(
                world, a_arr, b_arr, two_hop=self._include_two_hop
            )
            best = np.min(path, axis=1)
            if two_hop is not None:
                best = np.minimum(best, two_hop)
            results.extend(
                MethodResult(
                    method=self.name,
                    quality_paths=int(quality[k]),
                    best_rtt_ms=float(best[k]) if np.isfinite(best[k]) else None,
                    messages=0,
                    probed_nodes=0,
                )
                for k in range(len(a_arr))
            )
        return results

    def _score(
        self, world, a_arr: np.ndarray, b_arr: np.ndarray, *, two_hop: bool
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Score one session batch: ``(path, quality, two_hop_best)``.

        ``path[k, r]`` is session k's one-hop RTT through cluster r
        (``inf`` at both endpoint clusters), ``quality[k]`` the hosts in
        clusters whose relay path is below the latency threshold, and
        ``two_hop_best[k]`` the masked two-hop minimum (``None`` unless
        ``two_hop``).
        """
        first, second = _session_legs(world, a_arr, b_arr)
        rows = np.arange(len(a_arr))
        for legs in (first, second):  # no relay hop in an endpoint's cluster
            legs[rows, a_arr] = np.inf
            legs[rows, b_arr] = np.inf
        delay = self._config.relay_delay_rtt_ms
        path = first + second + delay
        quality = (path < self._config.lat_threshold_ms).astype(np.int64) @ world.sizes
        if not two_hop:
            return path, quality, None
        w = _min_plus_fold(world, second)
        return path, quality, np.min(first + w + 2.0 * delay, axis=1)


def _session_legs(world, a_arr: np.ndarray, b_arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``first[k] = rtt[a_k, :]`` and ``second[k] = rtt[:, b_k]`` for a
    session batch, collected in one pass over the view's column blocks."""
    first = np.empty((len(a_arr), world.count), dtype=np.float64)
    second = np.empty_like(first)
    for cols, rtt_block, _, _ in world.iter_column_blocks():
        first[:, cols] = rtt_block[a_arr, :]
        hit = (b_arr >= cols[0]) & (b_arr <= cols[-1])  # blocks are contiguous
        second[hit] = rtt_block[:, b_arr[hit] - cols[0]].T
    return first, second


def _min_plus_fold(world, second: np.ndarray) -> np.ndarray:
    """``w[k, i] = min_j ( rtt[i, j] + second[k, j] )`` folded block by
    block (exact: min is order-free)."""
    w = np.full(second.shape, np.inf, dtype=np.float64)
    for cols, rtt_block, _, _ in world.iter_column_blocks():
        for k in range(len(w)):
            np.minimum(w[k], np.min(rtt_block + second[k, cols], axis=1), out=w[k])
    return w
