"""Shared machinery for relay-selection baselines.

The single batch-evaluation signature every policy implements:

    evaluate_sessions(world, sessions, *, session_ids=None)

``world`` is the matrix read surface — dense
:class:`~repro.measurement.matrix.DelegateMatrices` or the streamed
:class:`~repro.worldarrays.virtual.VirtualMatrices` view, both exposing
the same cell/gather/block protocol.  ``sessions`` accepts plain
``(caller_cluster, callee_cluster)`` tuples or
:class:`~repro.evaluation.sessions.Session` objects (whose
``session_id`` then namespaces per-session RNG draws).  Methods are
constructed *without* a world: the same policy instance evaluates any
world at any scale, which is what lets one experiment engine serve
every tier.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.errors import ConfigurationError
from repro.measurement.latency import RELAY_DELAY_RTT_MS
from repro.util.rng import derive_rng
from repro.voip.quality import RTT_THRESHOLD_MS


#: The paper's Section 7.1 probe budgets: DEDI probes 80 dedicated nodes,
#: RAND 200 random nodes, MIX 40 dedicated + 120 random.
DEDICATED_COUNT = 80
RANDOM_PROBES = 200
MIX_DEDICATED = 40
MIX_RANDOM = 120


@dataclass(frozen=True)
class MethodResult:
    """One method's outcome on one session.

    ``one_hop_quality_paths`` is filled only by methods that distinguish
    one-hop relay IPs from two-hop IP *pairs* (ASAP); for pure probing
    baselines it stays ``None`` and consumers fall back to
    ``quality_paths``.
    """

    method: str
    quality_paths: int
    best_rtt_ms: Optional[float]
    messages: int
    probed_nodes: int
    one_hop_quality_paths: Optional[int] = None


def session_batch(
    sessions: Sequence, session_ids: Optional[Sequence[int]] = None
) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Normalize a session batch to ``(pairs, ids)``.

    ``sessions`` may mix ``(a, b)`` tuples with ``Session`` objects; ids
    come from the objects' ``session_id``, the explicit ``session_ids``
    sequence, or enumeration order, in that priority.
    """
    if session_ids is not None and len(session_ids) != len(sessions):
        raise ConfigurationError("session_ids must match sessions in length")
    pairs: List[Tuple[int, int]] = []
    ids: List[int] = []
    for index, item in enumerate(sessions):
        if hasattr(item, "caller_cluster"):
            pairs.append((int(item.caller_cluster), int(item.callee_cluster)))
            ids.append(int(item.session_id))
        else:
            a, b = item
            pairs.append((int(a), int(b)))
            ids.append(int(session_ids[index]) if session_ids is not None else index)
    return pairs, ids


@runtime_checkable
class RelayPolicy(Protocol):
    """Anything Section 7 can evaluate over a batch of sessions.

    A policy has a ``name`` (the method label in records and tables) and
    one primitive, ``evaluate_sessions``: given a world view and the
    session batch, return one :class:`MethodResult` per session, in
    order.  The probing baselines (:class:`RelayMethod` subclasses) and
    the ASAP adapter (:class:`repro.evaluation.policies.ASAPPolicy`)
    both satisfy it, so experiment runners iterate an arbitrary policy
    list instead of hard-coding per-method branches.
    """

    name: str

    def evaluate_sessions(
        self,
        world,
        sessions: Sequence,
        *,
        session_ids: Optional[Sequence[int]] = None,
    ) -> List[MethodResult]:
        """One result per session of the batch."""
        ...


class RelayMethod(ABC):
    """A relay node selection method evaluated at cluster granularity.

    The batch :meth:`evaluate_sessions` is the one entry point —
    subclasses implement it (vectorized where possible); one session is
    a one-element batch.
    """

    name: str = "abstract"

    @abstractmethod
    def evaluate_sessions(
        self,
        world,
        sessions: Sequence,
        *,
        session_ids: Optional[Sequence[int]] = None,
    ) -> List[MethodResult]:
        """Evaluate a batch of sessions, one result per session."""

    @staticmethod
    def _pair_arrays(pairs: Sequence[Tuple[int, int]]) -> Tuple[np.ndarray, np.ndarray]:
        """Caller/callee cluster index arrays of a session batch."""
        a = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
        b = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=len(pairs))
        return a, b

    def _probe_results(
        self, world, pairs: Sequence[Tuple[int, int]], candidates: np.ndarray
    ) -> List[MethodResult]:
        """Score each session's probed relay candidates.

        ``candidates`` broadcasts against the sessions: ``(1, F)`` probes
        one fleet from every session, ``(S, P)`` gives each session its
        own draws.  A candidate in an endpoint's cluster is not probed.
        """
        if candidates.shape[1] == 0:
            return [MethodResult(self.name, 0, None, 0, 0) for _ in pairs]
        a_arr, b_arr = self._pair_arrays(pairs)
        valid = (candidates != a_arr[:, None]) & (candidates != b_arr[:, None])
        path = (
            world.gather_rtt(a_arr[:, None], candidates)
            + world.gather_rtt(candidates, b_arr[:, None])
            + RELAY_DELAY_RTT_MS
        )
        path[~valid] = np.inf
        quality = (path < RTT_THRESHOLD_MS).sum(axis=1)
        best = np.min(path, axis=1)
        probed = valid.sum(axis=1)
        return [
            MethodResult(
                method=self.name,
                quality_paths=int(quality[k]),
                best_rtt_ms=float(best[k]) if np.isfinite(best[k]) else None,
                messages=int(2 * probed[k]),
                probed_nodes=int(probed[k]),
            )
            for k in range(len(pairs))
        ]

    def _session_rng(self, session_id: int) -> np.random.Generator:
        # Seed 0 whatever the run's seed: the pinned RAND / MIX numbers
        # were drawn so.
        return derive_rng(0, self.name, str(session_id))
