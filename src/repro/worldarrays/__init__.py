"""Flat, int-indexed world representation for the substrate hot paths.

This package exports the object world
(:class:`~repro.topology.clustering.ClusterIndex`; the
:class:`~repro.bgp.asgraph.ASGraph` export lives in
:mod:`repro.bgp.csr`) once into contiguous numpy arrays and computes
the two hottest products against them — the only matrix-fill and
close-set code production runs:

- :mod:`repro.worldarrays.matrixfill` — delegate-matrix assembly as
  vectorized per-destination column fills (the memoized next-hop chain
  walk becomes one array pass per distance level over a batch of
  routing trees, the per-row python loop a single gather);
- :mod:`repro.worldarrays.closesets` — ``construct-close-cluster-set``
  as a vectorized valley-free BFS over int frontiers that probes each
  BFS level with one gather pair.

Both are guarded by parity tests: for identical seeds they produce
**bit-identical** results to their executable specifications — the
scalar matrix walk and the Fig. 9 transcription
``construct_close_cluster_set``, both in ``tests/oracles.py`` (same
matrices, same close sets, same ``traces.jsonl``).
"""

from __future__ import annotations

from repro.worldarrays.arrays import GraphCSR, WorldArrays, csr_gather
from repro.worldarrays.closesets import FlatCloseSetBuilder
from repro.worldarrays.matrixfill import FlatMatrixAssembler
from repro.worldarrays.virtual import VirtualMatrices

__all__ = [
    "FlatCloseSetBuilder",
    "FlatMatrixAssembler",
    "GraphCSR",
    "VirtualMatrices",
    "WorldArrays",
    "csr_gather",
]
