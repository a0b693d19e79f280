"""A delegate-matrix *view* that never materializes N×N.

:class:`VirtualMatrices` exposes the same read surface as dense
:class:`~repro.measurement.matrix.DelegateMatrices` — header arrays,
cell reads, broadcast gathers, whole-row reads, column-block
iteration, the workload's finite-row fractions — over a chunked
:class:`~repro.storage.columns.ColumnStore`.  Every read is a *chunk
fault*: the first touch of a chunk adopts it from disk, or assembles it
column-at-a-time with a
:class:`~repro.measurement.matrixfill.FlatMatrixAssembler` over
:class:`~repro.measurement.matrixfill.WorldArrays`, spills it, and maps it;
every later read indexes the memory-mapped arrays.  There is no second
way to answer a read.

Bit-identical contract: every value this view returns is the float (or
int) the dense assembly would have stored in the same cell —

- off-diagonal cells come from the same per-destination-AS broadcast
  fill the flat dense path runs (IEEE elementwise ops are
  value-identical to their scalar forms);
- diagonal cells are overridden after the fill with the dense path's
  own scalar expression (``2.0 * endpoint + 4.0 * access``);
- spilled chunks round-trip bit-exactly through ``.npy`` files.

Memory: a chunk's routing trees are built, resolved, filled and dropped
inside the fault, so the view holds its mmap handles and nothing else.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from repro import obs
from repro.measurement.latency import LatencyModel
from repro.measurement.matrix import UNREACHABLE, cluster_headers
from repro.measurement.matrixfill import FlatMatrixAssembler, WorldArrays
from repro.storage.columns import ColumnStore

__all__ = ["VirtualMatrices"]


class VirtualMatrices:
    """Streamed, column-chunked view of the delegate matrices."""

    def __init__(
        self,
        model: LatencyModel,
        cluster_list,
        *,
        chunk_columns: int = 256,
        store: ColumnStore,
    ) -> None:
        if not isinstance(store, ColumnStore):
            raise TypeError(
                f"VirtualMatrices reads through a ColumnStore, got {type(store).__name__}"
            )
        if store.chunk != chunk_columns:
            raise ValueError(
                f"store chunk width {store.chunk} != chunk_columns {chunk_columns}"
            )
        self._model = model
        self._chunk = int(chunk_columns)
        self._store = store

        (
            self.prefixes,
            self.index_of,
            self.asn_of,
            self.sizes,
            self._access,
        ) = cluster_headers(cluster_list)
        if store.n != len(self.prefixes):
            raise ValueError(
                f"store is for n={store.n}, world has n={len(self.prefixes)}"
            )
        self._world = WorldArrays.from_clusters(model, cluster_list)
        self._assembler = FlatMatrixAssembler(model, self._world)
        self._mmap_cache: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._finite_fractions = None

    # -- headers -------------------------------------------------------

    @property
    def count(self) -> int:
        return len(self.prefixes)

    @property
    def store(self) -> ColumnStore:
        return self._store

    # -- the one read path ---------------------------------------------

    def _chunk_arrays(self, start: int):
        """Memory-mapped ``(rtt, loss, hops)`` of the chunk at ``start``:
        cached handles, else adopted from disk, else assembled, spilled
        and mapped."""
        arrays = self._mmap_cache.get(start)
        if arrays is None:
            if self._store.has(start):
                obs.counter("columns.chunks.hit").inc()
            else:
                obs.counter("columns.chunks.miss").inc()
                self._store.save(
                    start, *self._compute_block(self._store.columns_of(start))
                )
            # Plain ndarray views of the maps: reads skip the memmap
            # subclass's per-result wrapping.
            arrays = self._mmap_cache[start] = tuple(
                array.view(np.ndarray) for array in self._store.load(start)
            )
        return arrays

    def _compute_block(self, cols: np.ndarray):
        """Assemble one column block exactly as the dense fill would."""
        n = self.count
        rtt = np.full((n, len(cols)), UNREACHABLE, dtype=float)
        loss = np.full((n, len(cols)), 1.0, dtype=float)
        hops = np.full((n, len(cols)), -1, dtype=np.int64)
        self._assembler.fill_columns(
            cols, rtt, loss, hops, positions=np.arange(len(cols), dtype=np.int64)
        )
        # Diagonal overrides, after the fill, with the dense path's own
        # scalar expressions so every diagonal read is bit-identical.
        for pos, j in enumerate(cols):
            j = int(j)
            asn = int(self.asn_of[j])
            rtt[j, pos] = (
                2.0 * self._model.endpoint_cost_ms(asn) + 4.0 * self._access[j]
            )
            loss[j, pos] = self._model.conditions.loss_of(asn)
            hops[j, pos] = 0
        return rtt, loss, hops

    # -- view protocol -------------------------------------------------

    def ensure_spilled(self) -> None:
        """Fault in every chunk not yet on disk (no-op when the store is
        already complete) — the one place completeness is asked."""
        if self._store.complete():
            return
        for start in self._store.starts():
            self._chunk_arrays(start)

    def iter_column_blocks(
        self,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(cols, rtt, loss, hops)`` over every destination
        column, in order, at the store's chunk width."""
        self.ensure_spilled()
        for start in self._store.starts():
            yield (self._store.columns_of(start), *self._chunk_arrays(start))

    def rtt_cell(self, i: int, j: int) -> float:
        return float(self._cell(0, int(i), int(j)))

    def _cell(self, which: int, i: int, j: int):
        start = (j // self._chunk) * self._chunk
        return self._chunk_arrays(start)[which][i, j - start]

    def gather_rtt(self, rows, cols) -> np.ndarray:
        return self._gather(0, rows, cols)

    def gather_loss(self, rows, cols) -> np.ndarray:
        return self._gather(1, rows, cols)

    def rows(self, sources) -> Tuple[np.ndarray, np.ndarray]:
        """``(rtt, loss)`` rows of ``sources``, ``(S, N)`` new arrays in
        cluster order: one row read per column chunk."""
        sources = np.asarray(sources, dtype=np.int64)
        rtt = np.empty((len(sources), self.count))
        loss = np.empty((len(sources), self.count))
        for start in self._store.starts():
            block_rtt, block_loss, _ = self._chunk_arrays(start)
            stop = start + block_rtt.shape[1]
            rtt[:, start:stop] = block_rtt[sources]
            loss[:, start:stop] = block_loss[sources]
        return rtt, loss

    def _gather(self, which: int, rows, cols) -> np.ndarray:
        """``matrix[rows, cols]`` with numpy broadcasting: one fancy index
        when every column falls in one chunk, else one per chunk over the
        cells one stable argsort groups by chunk."""
        rows_b, cols_b = np.broadcast_arrays(
            np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        )
        i_flat = rows_b.reshape(-1)
        j_flat = cols_b.reshape(-1)
        if len(j_flat) == 0:
            return np.empty(rows_b.shape, dtype=float)
        chunk = self._chunk
        chunk_of = j_flat // chunk
        first, last = int(chunk_of.min()), int(chunk_of.max())
        if first == last:
            block = self._chunk_arrays(first * chunk)[which]
            return block[i_flat, j_flat - first * chunk].reshape(rows_b.shape)
        out = np.empty(len(i_flat), dtype=float)
        order = np.argsort(chunk_of, kind="stable")
        grouped = chunk_of[order]
        edges = np.flatnonzero(grouped[1:] != grouped[:-1]) + 1
        for sel in np.split(order, edges):
            start = int(chunk_of[sel[0]]) * chunk
            block = self._chunk_arrays(start)[which]
            out[sel] = block[i_flat[sel], j_flat[sel] - start]
        return out.reshape(rows_b.shape)

    def finite_row_fractions(self) -> np.ndarray:
        """Per-row fraction of finite RTT entries, exactly equal to the
        dense ``np.mean(np.isfinite(rtt_ms), axis=1)`` (integer counts
        divided by N)."""
        if self._finite_fractions is None:
            counts = np.zeros(self.count, dtype=np.int64)
            for _, rtt, _, _ in self.iter_column_blocks():
                counts += np.isfinite(rtt).sum(axis=1)
            self._finite_fractions = counts / self.count
        return self._finite_fractions
