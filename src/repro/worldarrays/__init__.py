"""Flat, int-indexed close sets and the streamed matrix view.

The layer between the delegate matrices and the protocol that reads
them:

- :mod:`repro.worldarrays.closesets` — the close cluster set of Fig. 9
  (:class:`~repro.worldarrays.closesets.CloseClusterSet`) and
  ``construct-close-cluster-set`` as a vectorized valley-free BFS over
  int frontiers that probes each BFS level with one gather pair — the
  only close-set code production runs;
- :mod:`repro.worldarrays.virtual` — the delegate matrices as a
  column-chunked view over a :class:`~repro.storage.columns.ColumnStore`
  that never materializes N×N.  Import it by its module path: it loads
  :mod:`repro.storage`, which ``import repro.core`` does not need.

The builder is guarded by parity tests: for identical seeds it
produces **bit-identical** close sets (and ``traces.jsonl``) to the
Fig. 9 transcription ``construct_close_cluster_set`` in
``tests/oracles.py``.  The matrix fill lives with
:func:`~repro.measurement.matrix.compute_delegate_matrices` in
:mod:`repro.measurement.matrixfill`.
"""

from __future__ import annotations

from repro.worldarrays.closesets import CloseClusterEntry, CloseClusterSet, FlatCloseSetBuilder

__all__ = ["CloseClusterEntry", "CloseClusterSet", "FlatCloseSetBuilder"]
