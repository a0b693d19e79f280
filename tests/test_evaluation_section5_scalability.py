"""Tests for the Skype-study runner (Section 5) and scalability (Fig. 17)."""

import numpy as np
import pytest

from repro.evaluation import scalability, section5
from repro.evaluation.scalability import run_scalability
from repro.evaluation.section5 import (
    REGION_A_SITES,
    REGION_B_SITES,
    TABLE1_SESSION_PLAN,
    build_site_plan,
    run_section5,
)
from repro.skype import SkypeConfig
from tests.oracles import tiny_scenario


@pytest.fixture(scope="module")
def scenario():
    return tiny_scenario(seed=11)


class TestSitePlan:
    def test_seventeen_sites(self, scenario):
        plan = build_site_plan(scenario, seed=1)
        assert set(plan.site_host) == set(range(1, 18))

    def test_region_assignment(self, scenario):
        plan = build_site_plan(scenario, seed=1)
        for site in REGION_A_SITES:
            assert plan.region_of[site] == "A"
        for site in REGION_B_SITES:
            assert plan.region_of[site] == "B"

    def test_sites_1_to_6_colocated(self, scenario):
        plan = build_site_plan(scenario, seed=1)
        prefixes = {
            scenario.clusters.cluster_of(plan.host(site).ip).prefix
            for site in range(1, 7)
        }
        assert len(prefixes) == 1

    def test_regions_have_poor_direct_path(self, scenario):
        # The anchor pair is picked for a bad direct RTT (the paper's
        # US-China pairs were chosen because they were problematic).
        plan = build_site_plan(scenario, seed=1)
        m = scenario.matrices
        a = plan.host(1)
        b = plan.host(13)
        ca = m.index_of[scenario.clusters.cluster_of(a.ip).prefix]
        cb = m.index_of[scenario.clusters.cluster_of(b.ip).prefix]
        finite = m.rtt_ms[np.isfinite(m.rtt_ms)]
        assert m.rtt_ms[ca, cb] > np.percentile(finite, 75)

    def test_table1_plan_shape(self):
        assert len(TABLE1_SESSION_PLAN) == 14
        for caller, callee in TABLE1_SESSION_PLAN:
            assert 1 <= caller <= 17 and 1 <= callee <= 17


class TestRunSection5:
    @pytest.fixture(scope="class")
    def result(self, scenario):
        # Short sessions + small probe budgets keep this test fast; an
        # aggressive quality target keeps Skype probing/switching long
        # enough to exhibit relay bounce even in a tiny low-RTT world.
        config = SkypeConfig(
            max_probes=24,
            max_background_probes=3,
            target_rtt_ms=120.0,
            switch_margin=0.02,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(section5, "SECTION5_DURATION_MS", 150_000.0)
            return run_section5(scenario, config=config, seed=1)

    def test_fourteen_sessions(self, result):
        assert len(result.results) == 14
        assert len(result.analyses) == 14

    def test_fig7a_stabilization_series(self, result):
        stabilization = result.stabilization_seconds()
        assert len(stabilization) == 14
        assert all(s >= 0 for s in stabilization)
        # Relay bounce must be visible somewhere (Limit 3).
        assert max(stabilization) > 1.0

    def test_fig7b_probe_counts(self, result):
        probed = result.probed_counts()
        assert len(probed) == 14
        assert all(p >= 0 for p in probed)
        # Cross-region latent sessions probe heavily (Limit 4).
        assert max(probed) > 10

    def test_fig7c_after_stabilization(self, result):
        after = result.probed_after_stabilization()
        assert len(after) == 14
        assert all(a >= 0 for a in after)

    def test_table2_same_as_rows(self, result):
        rows = result.same_as_table()
        # AS-unaware popularity-biased probing must occasionally probe
        # two nodes of one AS (Limit 2).
        assert rows, "expected at least one same-AS probe group"
        for _, asn, ips in rows:
            assert len(ips) > 1

    def test_intra_cluster_sessions_use_direct(self, result):
        # Session 1 (sites 3-5) is intra-cluster: direct path wins.
        analysis = result.analyses[0]
        assert analysis.forward.major_carrier is None

    def test_deterministic(self, scenario, result, monkeypatch):
        config = SkypeConfig(
            max_probes=24,
            max_background_probes=3,
            target_rtt_ms=120.0,
            switch_margin=0.02,
        )
        monkeypatch.setattr(section5, "SECTION5_DURATION_MS", 150_000.0)
        again = run_section5(scenario, config=config, seed=1)
        assert again.probed_counts() == result.probed_counts()
        assert again.stabilization_seconds() == result.stabilization_seconds()


class TestScalability:
    def test_asap_scales_baselines_do_not(self, scenario, monkeypatch):
        monkeypatch.setattr(scalability, "SCALABILITY_METHODS", ("DEDI", "ASAP"))
        result = run_scalability(
            scenario,
            ratio=2.0,
            session_count=400,
            latent_target=10,
            max_latent_sessions=10,
            seed=1,
        )
        assert result.small_population < result.large_population
        # ASAP's per-capita quality paths stay stable across scales;
        # DEDI's fixed-fleet counts do not shrink with the population,
        # so its normalized error is pinned near |1/ratio - 1|.
        asap_err = result.scalability_error("ASAP")
        dedi_err = result.scalability_error("DEDI")
        assert asap_err < dedi_err

    def test_normalization(self, scenario, monkeypatch):
        monkeypatch.setattr(scalability, "SCALABILITY_METHODS", ("ASAP",))
        result = run_scalability(
            scenario,
            ratio=2.0,
            session_count=300,
            latent_target=5,
            max_latent_sessions=5,
            seed=2,
        )
        raw = result.large.series("ASAP", "one_hop_quality_paths")
        norm = result.normalized_large_series("ASAP")
        assert np.allclose(norm * result.ratio, raw)
