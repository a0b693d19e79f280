"""The Section-7 policy roster: every method as one ``RelayPolicy``.

The probing baselines already satisfy
:class:`~repro.baselines.base.RelayPolicy` (their batch
``evaluate_sessions`` is the abstract primitive of
:class:`~repro.baselines.base.RelayMethod`); :class:`ASAPPolicy` adapts
a live :class:`~repro.core.protocol.ASAPSystem` to the same surface so
experiment runners iterate one uniform policy list.

The adapter works at cluster granularity even though ``ASAPSystem.call``
takes host IPs: replica surrogates of a cluster serve the *primary's*
close set (§6.3 load sharing), so relay selection between two clusters
yields identical results no matter which member IP places the call —
the adapter simply calls from each cluster's primary surrogate.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.baselines import DEDIMethod, MIXMethod, OPTMethod, RANDMethod, RelayPolicy
from repro.baselines.base import MethodResult, session_batch
from repro.core.config import ASAPConfig
from repro.core.protocol import ASAPSystem
from repro.scenario import Scenario

#: Canonical method order of the paper's Section-7 tables and figures.
METHOD_NAMES = ("DEDI", "RAND", "MIX", "ASAP", "OPT")


class ASAPPolicy:
    """ASAP exposed as a :class:`RelayPolicy` over cluster pairs."""

    name = "ASAP"

    def __init__(self, system: ASAPSystem) -> None:
        self._system = system

    def evaluate_sessions(
        self,
        world,
        sessions: Sequence,
        *,
        session_ids: Optional[Sequence[int]] = None,
    ) -> List[MethodResult]:
        """Place one call per session, as one phased batch
        (:meth:`ASAPSystem.call_many`).  ``world`` is accepted for
        protocol uniformity and ignored — the system is already bound to
        its scenario's matrix view."""
        pairs, _ = session_batch(sessions, session_ids)
        placed = self._system.call_many(
            (self._member_ip(int(a)), self._member_ip(int(b))) for a, b in pairs
        )
        return [
            MethodResult(
                method=self.name,
                quality_paths=session.quality_paths,
                best_rtt_ms=session.best_relay_rtt_ms,
                messages=session.messages,
                probed_nodes=0,  # close sets are maintenance, not per-session probes
                one_hop_quality_paths=session.selection.one_hop_ips if session.selection else 0,
            )
            for session in placed
        ]

    def _member_ip(self, cluster: int):
        """A member IP of the cluster (the primary surrogate's)."""
        return self._system.surrogate(cluster).ip


def default_policies(
    scenario: Scenario,
    methods: Sequence[str] = METHOD_NAMES,
    asap_config: Optional[ASAPConfig] = None,
) -> List[RelayPolicy]:
    """Build the requested methods as policies, in ``methods`` order."""
    graph = scenario.topology.graph
    policies: List[RelayPolicy] = []
    for name in methods:
        if name == "DEDI":
            policies.append(DEDIMethod(graph))
        elif name == "RAND":
            policies.append(RANDMethod())
        elif name == "MIX":
            policies.append(MIXMethod(graph))
        elif name == "OPT":
            policies.append(OPTMethod())
        elif name == "ASAP":
            policies.append(ASAPPolicy(ASAPSystem(scenario, asap_config)))
        else:
            raise ValueError(f"unknown method {name!r}; choose from {METHOD_NAMES}")
    return policies
