"""Tests for load-aware relay assignment (§6.2's final pick)."""

import numpy as np
import pytest

from repro.core import ASAPConfig, ASAPSystem
from repro.evaluation.assignment import (
    RelayAssignmentService,
    relay_capacity,
)
from repro.core.config import derive_k_hops
from repro.errors import ProtocolError
from repro.evaluation.sessions import generate_workload
from repro.scenario import tiny_scenario


@pytest.fixture(scope="module")
def world():
    scenario = tiny_scenario(seed=11)
    system = ASAPSystem(scenario, ASAPConfig(k_hops=derive_k_hops(scenario.matrices)))
    workload = generate_workload(scenario, 400, seed=1, latent_target=8)
    calls = []
    for session in workload.latent()[:8]:
        call = system.call(session.caller, session.callee)
        if call.selection is not None and len(call.selection.one_hop):
            calls.append(call)
    if not calls:
        pytest.skip("no relayed calls in tiny world")
    return scenario, system, calls


class TestRelayCapacity:
    def test_scales_with_bandwidth(self):
        assert relay_capacity(64.0) == 1
        assert relay_capacity(1280.0) == 10
        assert relay_capacity(0.0) == 1  # floor of one call


class TestAssignment:
    def test_assigns_within_latency_slack(self, world):
        scenario, system, calls = world
        service = RelayAssignmentService(scenario.clusters, scenario.matrices)
        call = calls[0]
        assignment = service.assign(0, call.selection)
        assert assignment is not None
        best = call.selection.one_hop["rtt_ms"].min()
        assert assignment.relay_rtt_ms <= best + service._slack

    def test_load_counted_and_released(self, world):
        scenario, system, calls = world
        service = RelayAssignmentService(scenario.clusters, scenario.matrices)
        assignment = service.assign(0, calls[0].selection)
        assert service.load[assignment.relay_ip] == 1
        assert sum(service.load.values()) == 1
        service.release(0)
        assert sum(service.load.values()) == 0
        assert service.max_load() == 0

    def test_duplicate_session_rejected(self, world):
        scenario, system, calls = world
        service = RelayAssignmentService(scenario.clusters, scenario.matrices)
        service.assign(0, calls[0].selection)
        with pytest.raises(ProtocolError):
            service.assign(0, calls[0].selection)

    def test_release_unknown_rejected(self, world):
        scenario, system, calls = world
        service = RelayAssignmentService(scenario.clusters, scenario.matrices)
        with pytest.raises(ProtocolError):
            service.release(99)

    def test_repeated_sessions_spread_load(self, world):
        scenario, system, calls = world
        service = RelayAssignmentService(scenario.clusters, scenario.matrices)
        call = calls[0]
        assigned = []
        for sid in range(12):
            assignment = service.assign(sid, call.selection)
            if assignment is None:
                break
            assigned.append(assignment.relay_ip)
        # Least-loaded picking must not pile every session on one IP
        # while alternatives exist.
        if len(assigned) >= 4:
            assert len(set(assigned)) > 1

    def test_assignment_deterministic(self, world):
        scenario, system, calls = world
        a = RelayAssignmentService(scenario.clusters, scenario.matrices, seed=3)
        b = RelayAssignmentService(scenario.clusters, scenario.matrices, seed=3)
        for sid, call in enumerate(calls):
            ra = a.assign(sid, call.selection)
            rb = b.assign(sid, call.selection)
            assert (ra is None) == (rb is None)
            if ra is not None:
                assert ra.relay_ip == rb.relay_ip

    def test_no_candidates_returns_none(self, world):
        scenario, system, calls = world
        from repro.core.relay_selection import RelaySelection

        service = RelayAssignmentService(scenario.clusters, scenario.matrices)
        assert service.assign(0, RelaySelection()) is None

    def test_capacity_exhaustion(self, world):
        scenario, system, calls = world
        service = RelayAssignmentService(
            scenario.clusters, scenario.matrices, latency_slack_ms=0.0
        )
        call = calls[0]
        # Saturate: keep assigning until the (slack=0 → single-cluster)
        # candidate pool runs out of capacity.
        results = []
        for sid in range(10_000):
            assignment = service.assign(sid, call.selection, max_candidate_clusters=1)
            if assignment is None:
                break
            results.append(assignment)
        assert results, "expected at least one assignment"
        assert len(results) < 10_000, "capacity must eventually exhaust"
