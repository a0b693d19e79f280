"""Multiprocess fan-out helpers for the evaluation substrate.

The heavy substrate computation — the per-destination policy-tree walks
in :func:`repro.measurement.matrix.compute_delegate_matrices` — is
embarrassingly parallel: each unit of work is independent given the
shared read-only world (topology, AS graph, latency model).

On POSIX we exploit that with ``fork``-start worker pools whose children
inherit the world by copy-on-write memory instead of pickling it; the
parent publishes the shared state in a module-level slot immediately
before forking and clears it afterwards.  Platforms without ``fork``
(and ``workers=1``) take the serial path, which is always the reference
implementation — parallel output is asserted bit-for-bit identical in
the test suite.

Worker-count resolution order (most to least specific):

1. an explicit integer (``workers=4``);
2. ``workers <= 0`` → all CPUs (``os.cpu_count()``);
3. ``workers=None`` → the ``REPRO_WORKERS`` environment variable when
   set, else serial.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import time
from typing import Iterable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

#: Environment override consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve a worker-count setting to a concrete positive integer.

    ``None`` defers to ``$REPRO_WORKERS`` (absent/empty → 1, i.e. serial);
    zero or negative means "all CPUs".
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"${WORKERS_ENV} must be an integer, got {env!r}") from None
    if workers <= 0:
        workers = os.cpu_count() or 1
    return max(1, int(workers))


def fork_available() -> bool:
    """Whether fork-start process pools exist on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def chunked(items: Sequence[T], chunk_count: int) -> List[List[T]]:
    """Split a sequence into up to ``chunk_count`` contiguous chunks of
    near-equal size (empty chunks are dropped)."""
    total = len(items)
    chunk_count = max(1, min(chunk_count, total))
    base, extra = divmod(total, chunk_count)
    chunks: List[List[T]] = []
    start = 0
    for index in range(chunk_count):
        size = base + (1 if index < extra else 0)
        if size == 0:
            continue
        chunks.append(list(items[start : start + size]))
        start += size
    return chunks


def plan_chunks(costs: Sequence[float], chunk_count: int) -> List[List[int]]:
    """Partition item indices into contiguous chunks of near-equal *cost*.

    ``chunked`` balances chunk length; this balances estimated work, so
    a pool where item costs vary (e.g. destination ASes with very
    different column counts) keeps every worker busy.  Boundaries sit
    where the cumulative cost crosses each equal share — deterministic,
    order-preserving, no empty chunks.
    """
    total_items = len(costs)
    if total_items == 0:
        return []
    chunk_count = max(1, min(chunk_count, total_items))
    cumulative = np.cumsum(np.maximum(np.asarray(costs, dtype=float), 0.0))
    total = float(cumulative[-1])
    if total <= 0.0:
        return chunked(list(range(total_items)), chunk_count)
    chunks: List[List[int]] = []
    start = 0
    for index in range(chunk_count):
        if start >= total_items:
            break
        if index == chunk_count - 1:
            end = total_items
        else:
            share = total * (index + 1) / chunk_count
            end = int(np.searchsorted(cumulative, share, side="left")) + 1
            end = max(end, start + 1)
            # Leave at least one item per remaining chunk.
            end = min(end, total_items - (chunk_count - index - 1))
            end = max(end, start + 1)
        chunks.append(list(range(start, end)))
        start = end
    return chunks


def shared_ndarray(shape: Tuple[int, ...], dtype, fill=None) -> np.ndarray:
    """A numpy array over anonymous shared memory (``MAP_SHARED``).

    Fork children inherit the mapping, so writes made in pool workers
    are visible to the parent without pickling results back — the
    substrate's zero-copy output channel for parallel matrix assembly.
    The mmap stays alive through the returned array's ``.base``.
    """
    dtype = np.dtype(dtype)
    length = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    buffer = mmap.mmap(-1, max(1, length))
    array = np.frombuffer(buffer, dtype=dtype, count=int(np.prod(shape, dtype=np.int64)))
    array = array.reshape(shape)
    if fill is not None:
        array[...] = fill
    return array


def run_forked(worker, chunks: Iterable[Sequence], processes: int) -> List:
    """``pool.map`` over chunks with a fork-start pool.

    The caller is responsible for having published any shared state in a
    module-level slot that ``worker`` reads (fork children inherit it).

    With observability active (:mod:`repro.obs`), every pool task runs
    against a fresh child-side metrics registry whose snapshot is merged
    back into the parent registry afterwards — counters incremented in
    workers sum exactly once — and per-chunk wall times land in the
    ``parallel.chunk`` histogram.  With observability off this path is
    untouched: the bare worker goes straight into ``pool.map``.
    """
    from repro import obs

    context = multiprocessing.get_context("fork")
    if not obs.enabled():
        with context.Pool(processes=processes) as pool:
            return pool.map(worker, list(chunks))

    global _FORKED_WORKER
    chunk_list = list(chunks)
    _FORKED_WORKER = worker
    try:
        with obs.span("parallel.run_forked", processes=processes, chunks=len(chunk_list)):
            obs.tracer().flush()  # or each child re-writes the lines it inherits unflushed
            with context.Pool(processes=processes) as pool:
                outcomes = pool.map(_observed_worker, chunk_list)
    finally:
        _FORKED_WORKER = None
    results = []
    for result, snapshot in outcomes:
        obs.merge_child_snapshot(snapshot)
        results.append(result)
    return results


#: The user worker observed pool tasks wrap (inherited by fork children).
_FORKED_WORKER = None


def _observed_worker(chunk):
    """Pool task wrapper: child-local metrics plus per-chunk timing."""
    from repro import obs

    obs.begin_forked_child()
    started = time.perf_counter()
    result = _FORKED_WORKER(chunk)
    obs.histogram("parallel.chunk").observe(time.perf_counter() - started)
    obs.counter("parallel.chunks").inc()
    obs.counter("parallel.chunk_items").inc(len(chunk))
    return result, obs.collect_forked_child()
