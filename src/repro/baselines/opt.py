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

Sweep 2 folds only the cells that can matter.  RTTs are ``>= 0`` and
float rounding is monotone, so the two-hop candidate through ``(i, j)``,
``(first[i] + (rtt[i, j] + second[j])) + 2δ``, is at least
``(first[i] + min(second)) + 2δ`` and at least
``(min(first) + second[j]) + 2δ``.  A row or column whose bound is not
below the session's bound (its best one-hop RTT in
:meth:`OPTMethod.evaluate_sessions`, ``inf`` with ``prune=False``)
cannot lower the result, so it is never read: every result equals the
full fold's, bit for bit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.baselines.base import MethodResult, RelayMethod, session_batch
from repro.measurement.latency import RELAY_DELAY_RTT_MS
from repro.voip.quality import RTT_THRESHOLD_MS

#: Sessions scored per sweep — bounds the (sessions × clusters)
#: row/column buffers regardless of batch size.
SESSION_BATCH = 128


class OPTMethod(RelayMethod):
    """Exhaustive offline optimum over one- and two-hop relay paths."""

    name = "OPT"

    def __init__(self, include_two_hop: bool = True) -> None:
        self._include_two_hop = include_two_hop

    def evaluate_sessions(
        self,
        world,
        sessions: Sequence,
        *,
        session_ids: Optional[Sequence[int]] = None,
    ) -> List[MethodResult]:
        """One- (and two-) hop optima and quality counts, scored
        :data:`SESSION_BATCH` sessions per sweep; the two-hop fold reads
        only the cells that could beat a session's best one-hop RTT."""
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
        self, world, a_arr: np.ndarray, b_arr: np.ndarray, *, two_hop: bool, prune: bool = True
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Score one session batch: ``(path, quality, two_hop_best)``.

        ``path[k, r]`` is session k's one-hop RTT through cluster r
        (``inf`` at both endpoint clusters), ``quality[k]`` the hosts in
        clusters whose relay path is below the latency threshold, and
        ``two_hop_best[k]`` the masked two-hop minimum (``None`` unless
        ``two_hop``).  With ``prune`` that minimum is exact only where it
        is below the best one-hop RTT (``inf`` otherwise), which is all
        ``min(best one-hop, two-hop)`` needs.
        """
        first, second = _session_legs(world, a_arr, b_arr)
        rows = np.arange(len(a_arr))
        for legs in (first, second):  # no relay hop in an endpoint's cluster
            legs[rows, a_arr] = np.inf
            legs[rows, b_arr] = np.inf
        path = first + second + RELAY_DELAY_RTT_MS
        quality = (path < RTT_THRESHOLD_MS).astype(np.int64) @ world.sizes
        if not two_hop:
            return path, quality, None
        bound = np.min(path, axis=1) if prune else np.full(len(a_arr), np.inf)
        return path, quality, _two_hop_below(world, first, second, 2.0 * RELAY_DELAY_RTT_MS, bound)


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


def _two_hop_below(
    world, first: np.ndarray, second: np.ndarray, two_delay: float, bound: np.ndarray
) -> np.ndarray:
    """``min_{i,j} (first[k, i] + (rtt[i, j] + second[k, j])) + two_delay``
    over the rows ``i`` and columns ``j`` whose lower bound (module
    docstring) is below ``bound[k]``; ``inf`` where none survive.

    Each session's surviving rows × columns are read block by block and
    folded into ``w[k, i] = min_j (rtt[i, j] + second[k, j])`` (exact:
    min is order-free).
    """
    limit = bound[:, None]
    row_keep = first + np.min(second, axis=1, keepdims=True) + two_delay < limit
    col_keep = np.min(first, axis=1, keepdims=True) + second + two_delay < limit
    rows = [np.flatnonzero(keep) for keep in row_keep]
    cols = [np.flatnonzero(keep) for keep in col_keep]
    obs.counter("opt.two_hop_cells").inc(sum(len(r) * len(c) for r, c in zip(rows, cols)))
    w = np.full(first.shape, np.inf, dtype=np.float64)
    done = [0] * len(cols)  # columns of each session already folded
    for block, rtt_block, _, _ in world.iter_column_blocks():
        start, stop = int(block[0]), int(block[-1]) + 1  # blocks are contiguous
        for k, r in enumerate(rows):
            c = cols[k]
            end = int(c.searchsorted(stop))
            keep = c[done[k] : end]
            done[k] = end
            if len(r) and len(keep):
                folded = np.min(rtt_block[r][:, keep - start] + second[k, keep], axis=1)
                w[k, r] = np.minimum(w[k, r], folded)
    return np.min(first + w + two_delay, axis=1)
