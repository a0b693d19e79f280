"""OPT — the offline optimal relay selection (paper Section 7.1).

"OPT always chooses relay nodes that give the shortest overlay routing
latency.  This is an offline method with all latency data on hand
through one-hop and two-hop relay paths iterations."

One-hop optimum is a vectorized min over all clusters; the two-hop
optimum is a min-plus product over the matrix, evaluated lazily per
session (O(N²), numpy-vectorized).

Worlds without dense arrays (streamed views) are evaluated over
``iter_column_blocks``: session rows/columns are collected in one sweep
and the min-plus product folds block by block.  Every elementwise
expression keeps the dense path's operand order, and mins/integer sums
over a partition equal mins/sums over the whole, so the streamed results
are bit-identical to the dense ones.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import BaselineConfig, MethodResult, RelayMethod, session_batch

#: Sessions scored per streamed sweep — bounds the (sessions × clusters)
#: row/column buffers regardless of batch size.
STREAM_SESSION_BATCH = 128


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
        """(relay cluster, RTT) of the optimal one-hop relay path."""
        if hasattr(world, "rtt_ms"):
            rtt = world.rtt_ms
            path = rtt[a, :] + rtt[:, b] + self._config.relay_delay_rtt_ms
            path = path.copy()
        else:
            rows, cols = _session_rows_cols(world, np.array([a]), np.array([b]))
            path = rows[0] + cols[:, 0] + self._config.relay_delay_rtt_ms
        path[a] = np.inf  # relaying through an endpoint's own cluster
        path[b] = np.inf  # is the direct path, not an overlay
        idx = int(np.argmin(path))
        value = float(path[idx])
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
        if hasattr(world, "rtt_ms"):
            rtt = world.rtt_ms
            second_leg = rtt[:, b].copy()
            second_leg[[a, b]] = np.inf  # r2 may not be an endpoint cluster
            # w[i] = min_{j ∉ {a,b}} ( rtt[i, j] + rtt[j, b] )
            w = np.min(rtt + second_leg[np.newaxis, :], axis=1)
            first_leg = rtt[a, :].copy()
        else:
            rows, cols = _session_rows_cols(world, np.array([a]), np.array([b]))
            second_leg = cols[:, 0].copy()
            second_leg[[a, b]] = np.inf
            w = _min_plus_fold(world, second_leg[:, None])[:, 0]
            first_leg = rows[0].copy()
        first_leg[[a, b]] = np.inf  # r1 may not be an endpoint cluster
        path = first_leg + w + 2.0 * self._config.relay_delay_rtt_ms
        best = float(np.min(path))
        return best if np.isfinite(best) else None

    def evaluate_sessions(
        self,
        world,
        sessions: Sequence,
        *,
        session_ids: Optional[Sequence[int]] = None,
    ) -> List[MethodResult]:
        """Vectorized batch evaluation: one-hop minima and quality counts
        for all sessions in a few numpy operations (the two-hop min-plus
        product stays per-session — it is already an O(N²) numpy kernel)."""
        pairs, _ = session_batch(sessions, session_ids)
        if len(pairs) == 0:
            return []
        if hasattr(world, "rtt_ms"):
            return self._evaluate_dense(world, pairs)
        results: List[MethodResult] = []
        for start in range(0, len(pairs), STREAM_SESSION_BATCH):
            results.extend(
                self._evaluate_streamed(world, pairs[start : start + STREAM_SESSION_BATCH])
            )
        return results

    def _evaluate_dense(self, world, pairs: Sequence[Tuple[int, int]]) -> List[MethodResult]:
        a_arr, b_arr = self._pair_arrays(pairs)
        rtt = world.rtt_ms
        rows = np.arange(len(pairs))
        path = rtt[a_arr, :] + rtt[:, b_arr].T + self._config.relay_delay_rtt_ms
        path[rows, a_arr] = np.inf
        path[rows, b_arr] = np.inf
        one_hop_best = np.min(path, axis=1)
        finite = np.isfinite(path)
        quality_mask = finite & (path < self._config.lat_threshold_ms)
        quality = quality_mask.astype(np.int64) @ world.sizes

        results: List[MethodResult] = []
        for k in range(len(pairs)):
            candidates = []
            if np.isfinite(one_hop_best[k]):
                candidates.append(float(one_hop_best[k]))
            if self._include_two_hop:
                two_hop = self.best_two_hop(world, int(a_arr[k]), int(b_arr[k]))
                if two_hop is not None:
                    candidates.append(two_hop)
            results.append(
                MethodResult(
                    method=self.name,
                    quality_paths=int(quality[k]),
                    best_rtt_ms=min(candidates) if candidates else None,
                    messages=0,
                    probed_nodes=0,
                )
            )
        return results

    def _evaluate_streamed(
        self, world, pairs: Sequence[Tuple[int, int]]
    ) -> List[MethodResult]:
        """Score one sub-batch over a streamed view without dense arrays.

        Sweep 1 collects each session's caller row and callee column;
        the one-hop scoring then runs the dense expressions on the
        (sessions × clusters) buffers.  Sweep 2 folds the two-hop
        min-plus product for all sessions of the sub-batch at once.
        """
        a_arr, b_arr = self._pair_arrays(pairs)
        rows_mat, cols_mat = _session_rows_cols(world, a_arr, b_arr)
        rows = np.arange(len(pairs))
        path = rows_mat + cols_mat.T + self._config.relay_delay_rtt_ms
        path[rows, a_arr] = np.inf
        path[rows, b_arr] = np.inf
        one_hop_best = np.min(path, axis=1)
        finite = np.isfinite(path)
        quality_mask = finite & (path < self._config.lat_threshold_ms)
        quality = quality_mask.astype(np.int64) @ world.sizes

        two_hop_best: Optional[np.ndarray] = None
        if self._include_two_hop:
            second_legs = cols_mat.copy()
            for k in range(len(pairs)):
                second_legs[[int(a_arr[k]), int(b_arr[k])], k] = np.inf
            w_mat = _min_plus_fold(world, second_legs)
            first_legs = rows_mat.copy()
            for k in range(len(pairs)):
                first_legs[k, [int(a_arr[k]), int(b_arr[k])]] = np.inf
            paths = first_legs + w_mat.T + 2.0 * self._config.relay_delay_rtt_ms
            two_hop_best = np.min(paths, axis=1)

        results: List[MethodResult] = []
        for k in range(len(pairs)):
            candidates = []
            if np.isfinite(one_hop_best[k]):
                candidates.append(float(one_hop_best[k]))
            if two_hop_best is not None and np.isfinite(two_hop_best[k]):
                candidates.append(float(two_hop_best[k]))
            results.append(
                MethodResult(
                    method=self.name,
                    quality_paths=int(quality[k]),
                    best_rtt_ms=min(candidates) if candidates else None,
                    messages=0,
                    probed_nodes=0,
                )
            )
        return results


def _session_rows_cols(
    world, a_arr: np.ndarray, b_arr: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Collect ``rtt[a_k, :]`` rows and ``rtt[:, b_k]`` columns of a
    session batch in one pass over the view's column blocks."""
    n = world.count
    rows_mat = np.empty((len(a_arr), n), dtype=np.float64)
    cols_mat = np.empty((n, len(b_arr)), dtype=np.float64)
    wanted: dict = {}
    for k, b in enumerate(b_arr):
        wanted.setdefault(int(b), []).append(k)
    for cols, rtt_block, _, _ in world.iter_column_blocks():
        rows_mat[:, cols] = rtt_block[a_arr, :]
        base = int(cols[0])
        for j in cols:
            for k in wanted.get(int(j), ()):
                cols_mat[:, k] = rtt_block[:, int(j) - base]
    return rows_mat, cols_mat


def _min_plus_fold(world, second_legs: np.ndarray) -> np.ndarray:
    """``w[i, k] = min_j ( rtt[i, j] + second_legs[j, k] )`` folded block
    by block — the dense ``np.min(rtt + leg[None, :], axis=1)`` with the
    min taken over column partitions (exact: min is order-free)."""
    n, batch = second_legs.shape
    w = np.full((n, batch), np.inf, dtype=np.float64)
    for cols, rtt_block, _, _ in world.iter_column_blocks():
        for k in range(batch):
            contrib = rtt_block + second_legs[cols, k][None, :]
            np.minimum(w[:, k], np.min(contrib, axis=1), out=w[:, k])
    return w
