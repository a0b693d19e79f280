"""VoIP session workload generation (paper Section 7.1).

The paper generates 100,000 random peer pairs from the collected IP pool
and focuses on the ~1,000 whose direct IP routing RTT exceeds 300 ms.
Here sessions are random *host* pairs (so populous clusters appear
proportionally often), scored at cluster granularity against the
delegate matrices.
"""

from __future__ import annotations

import math
from itertools import compress
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import EvaluationError
from repro.netaddr import IPv4Address
from repro.scenario import Scenario
from repro.util.rng import derive_rng
from repro.voip.quality import RTT_THRESHOLD_MS


@dataclass(frozen=True)
class Session:
    """One calling session between two end hosts."""

    session_id: int
    caller: IPv4Address
    callee: IPv4Address
    caller_cluster: int
    callee_cluster: int
    direct_rtt_ms: float


@dataclass
class SessionWorkload:
    """A generated batch of sessions plus its latent subset."""

    sessions: List[Session] = field(default_factory=list)

    def latent(self, threshold_ms: float = RTT_THRESHOLD_MS) -> List[Session]:
        """Sessions whose direct RTT exceeds ``threshold_ms``."""
        return [
            s
            for s in self.sessions
            if not (math.isfinite(s.direct_rtt_ms) and s.direct_rtt_ms < threshold_ms)
        ]

    def direct_rtts(self) -> np.ndarray:
        return np.array([s.direct_rtt_ms for s in self.sessions])

    def __len__(self) -> int:
        return len(self.sessions)


def generate_workload(
    scenario: Scenario,
    count: int,
    seed: int = 0,
    latent_target: Optional[int] = None,
    threshold_ms: float = RTT_THRESHOLD_MS,
) -> SessionWorkload:
    """Generate ``count`` random sessions between distinct hosts.

    When ``latent_target`` is given, generation continues past ``count``
    until at least that many sessions are latent at ``threshold_ms`` (or
    a hard cap is hit) — convenient for experiments that only study
    latent sessions.
    """
    if count < 1:
        raise EvaluationError("count must be >= 1")
    rng = derive_rng(seed, "workload")
    view = scenario.matrix_view()
    clusters = scenario.clusters

    # Only *online* peers can appear in sessions.  A host whose cluster
    # cannot reach most of the network (stub behind a failed provider) is
    # effectively offline — the paper's crawler would never have collected
    # it, and King would get no answers for it.  The view computes the
    # fractions densely or streamed; the numbers are identical.  Each
    # host's matrix cluster index is world-static, looked up once per
    # world (``ClusterIndex.host_table``).
    online = view.finite_row_fractions() >= 0.5
    ips, clusters_of_hosts = clusters.host_table(scenario.population.hosts, view.index_of)
    keep = online[clusters_of_hosts]
    host_ips: List[IPv4Address] = list(compress(ips, keep.tolist()))
    host_cluster: List[int] = clusters_of_hosts[keep].tolist()
    if len(host_ips) < 2:
        raise EvaluationError("population too small for sessions")

    workload = SessionWorkload()
    n = len(host_ips)
    host_cluster = np.asarray(host_cluster, dtype=np.int64)
    cap = count * 50
    latent_found = generated = 0
    while generated < count or (latent_target is not None and latent_found < latent_target):
        if generated >= cap:
            break
        # A block of at least as many sessions as the loop still needs,
        # scaled by the latent rate so far; draws past where it stops are
        # never seen (the RNG is local).
        needed = max(count - generated, 0)
        if latent_target is not None:
            ratio = (generated + 1) // (latent_found + 1) + 1
            needed = max(needed, (latent_target - latent_found) * ratio)
        block = min(needed, cap - generated)
        i, j = _distinct_pairs(rng, n, block)
        ca, cb = host_cluster[i], host_cluster[j]
        direct = view.gather_rtt(ca, cb)
        latent = ~(np.isfinite(direct) & (direct < threshold_ms))
        # Cut where the one-at-a-time loop would have stopped.
        go_on = generated + np.arange(1, block + 1) < count
        if latent_target is not None:
            go_on |= latent_found + np.cumsum(latent) < latent_target
        take = block if go_on.all() else int(np.argmin(go_on)) + 1
        rows = zip(i[:take].tolist(), j[:take].tolist(), ca[:take].tolist(),
                   cb[:take].tolist(), direct[:take].tolist())
        workload.sessions.extend(
            Session(generated + k, host_ips[a], host_ips[b], c, d, rtt)
            for k, (a, b, c, d, rtt) in enumerate(rows)
        )
        generated += take
        latent_found += int(latent[:take].sum())
    return workload


def _distinct_pairs(rng: np.random.Generator, n: int, block: int):
    """``block`` draws of ``rng.choice(n, 2, replace=False)`` as two
    index arrays, draw for draw: ``choice`` draws with Floyd's algorithm
    (a bounded draw on ``[0, n-2]``, one on ``[0, n-1]`` that becomes
    ``n-1`` on a repeat), then shuffles the pair with a draw on
    ``[0, 1]`` — the same bounded draws ``integers`` makes over an array
    of upper bounds."""
    highs = np.tile(np.array([n - 2, n - 1, 1], dtype=np.int64), block)
    first, second, shuffle = rng.integers(0, highs, endpoint=True).reshape(block, 3).T
    second = np.where(second == first, n - 1, second)
    swap = shuffle == 0
    return np.where(swap, second, first), np.where(swap, first, second)
