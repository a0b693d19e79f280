"""Tests for the evaluation harness: workloads, metrics, experiments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.base import MethodResult
from repro.errors import EvaluationError
from repro.evaluation import generate_workload, summarize_method
from repro.evaluation.metrics import (
    MethodRecord,
    record_from_asap,
    record_from_baseline,
)
from repro.evaluation.report import (
    render_cdf_row,
    render_kv_table,
    render_method_table,
    render_series,
)
from repro.evaluation.section3 import run_section3
from repro.evaluation.section7 import run_section7
from repro.scenario import tiny_scenario
from tests.oracles import reference_summarize_method


@pytest.fixture(scope="module")
def scenario():
    # Seed 11 yields a tiny world with a solid share (~8%) of latent
    # cluster pairs, which the Section 7 tests need.
    return tiny_scenario(seed=11)


class TestWorkload:
    def test_deterministic(self, scenario):
        a = generate_workload(scenario, 200, seed=1)
        b = generate_workload(scenario, 200, seed=1)
        assert [(s.caller, s.callee) for s in a.sessions] == [
            (s.caller, s.callee) for s in b.sessions
        ]

    def test_count(self, scenario):
        workload = generate_workload(scenario, 150, seed=1)
        assert len(workload) == 150

    def test_sessions_have_distinct_endpoints(self, scenario):
        workload = generate_workload(scenario, 200, seed=2)
        for session in workload.sessions:
            assert session.caller != session.callee

    def test_direct_rtt_matches_matrices(self, scenario):
        workload = generate_workload(scenario, 50, seed=3)
        m = scenario.matrices
        for session in workload.sessions:
            assert session.direct_rtt_ms == m.rtt_ms[
                session.caller_cluster, session.callee_cluster
            ]

    def test_latent_subset(self, scenario):
        workload = generate_workload(scenario, 300, seed=4)
        latent = workload.latent()
        for session in latent:
            assert not session.direct_rtt_ms < 300.0
        total = len(latent) + sum(1 for s in workload.sessions if s.direct_rtt_ms < 300.0)
        assert total == len(workload)

    def test_latent_target_extends_generation(self, scenario):
        workload = generate_workload(scenario, 50, seed=5, latent_target=10)
        assert len(workload.latent()) >= 10 or len(workload) >= 50 * 50

    def test_latent_target_counts_at_threshold(self, scenario):
        # Generation stops at the 20th session latent at 150 ms, not once
        # 20 sessions are latent at the default 300 ms.
        workload = generate_workload(
            scenario, 10, seed=0, latent_target=20, threshold_ms=150.0
        )
        latent = workload.latent(150.0)
        assert len(latent) == 20
        assert workload.sessions[-1] is latent[-1]

    def test_section7_draws_at_the_asap_threshold(self, scenario):
        from repro.core import ASAPConfig

        result = run_section7(
            scenario,
            session_count=10,
            latent_target=20,
            asap_config=ASAPConfig(lat_threshold_ms=150.0),
            methods=("OPT",),
        )
        assert len(result.latent_sessions) == 20

    def test_rejects_zero_count(self, scenario):
        with pytest.raises(EvaluationError):
            generate_workload(scenario, 0)


class TestMetrics:
    def test_record_from_baseline(self):
        result = MethodResult("DEDI", 5, 250.0, 160, 80)
        record = record_from_baseline(3, result)
        assert record.method == "DEDI"
        assert record.session_id == 3
        assert record.best_rtt_ms < 300.0
        assert record.highest_mos is not None and record.highest_mos > 3.6

    def test_record_no_path(self):
        result = MethodResult("RAND", 0, None, 400, 200)
        record = record_from_baseline(1, result)
        assert record.best_rtt_ms is None
        assert record.highest_mos is None

    def test_summary_requires_single_method(self):
        a = MethodRecord("A", 1, 1, 100.0, 4.0, 2)
        b = MethodRecord("B", 1, 1, 100.0, 4.0, 2)
        with pytest.raises(ValueError):
            summarize_method([a, b])
        with pytest.raises(ValueError):
            summarize_method([])

    def test_summary_values(self):
        records = [
            MethodRecord("X", i, qp, rtt, 4.0, 10)
            for i, (qp, rtt) in enumerate([(10, 100.0), (20, 200.0), (30, None)])
        ]
        summary = summarize_method(records)
        assert summary.sessions == 3
        assert summary.quality_paths_median == 20
        assert summary.frac_best_below_300 == pytest.approx(2 / 3)
        assert summary.frac_rtt_above_1s == pytest.approx(1 / 3)


#: Few distinct values, so draws tie; None is a session with no path.
_RTTS = st.one_of(st.none(), st.sampled_from([40.0, 120.5, 299.9, 300.0, 950.0, 1000.0, 1500.0]))
_MOS = st.one_of(st.none(), st.sampled_from([1.0, 2.5, 2.9, 3.6, 3.605, 4.1]))
_RECORDS = st.lists(
    st.tuples(st.integers(0, 40), _RTTS, _MOS, st.integers(0, 12) | st.sampled_from([2, 2, 2])),
    min_size=1,
    max_size=40,
)


class TestSummaryMatchesReference:
    @given(_RECORDS)
    @settings(max_examples=300, deadline=None)
    def test_one_pass_summary_equals_reduction_per_statistic(self, rows):
        records = [
            MethodRecord("ASAP", i, qp, rtt, mos, msgs) for i, (qp, rtt, mos, msgs) in enumerate(rows)
        ]
        got, want = summarize_method(records), reference_summarize_method(records)
        assert got == want
        assert all(type(value) is type(getattr(want, name)) for name, value in vars(got).items())


class TestSection3:
    def test_shapes_and_invariants(self, scenario):
        result = run_section3(scenario, session_count=400, seed=1)
        n = len(result.direct_rtts)
        assert len(result.optimal_one_hop) == n
        assert 0.0 <= result.improved_fraction <= 1.0
        assert 0.0 <= result.latent_fraction <= 1.0
        # Reduction ratios are in (0, 1) by construction.
        assert np.all(result.reduction_ratios > 0)
        assert np.all(result.reduction_ratios < 1)

    def test_latent_arrays_aligned(self, scenario):
        result = run_section3(scenario, session_count=400, seed=1)
        assert len(result.latent_direct) == len(result.latent_optimal)
        assert np.all(
            ~np.isfinite(result.latent_direct) | (result.latent_direct > 300.0)
        )

    def test_most_latent_sessions_rescued(self, scenario):
        result = run_section3(scenario, session_count=600, seed=2)
        if result.latent_direct.size < 5:
            pytest.skip("too few latent sessions in tiny world")
        assert result.rescued_fraction > 0.7


class TestSection7:
    @pytest.fixture(scope="class")
    def result(self, scenario):
        return run_section7(
            scenario,
            session_count=400,
            latent_target=15,
            seed=1,
            max_latent_sessions=15,
        )

    def test_all_methods_present(self, result):
        assert set(result.records) == {"DEDI", "RAND", "MIX", "ASAP", "OPT"}

    def test_records_aligned_with_sessions(self, result):
        n = len(result.latent_sessions)
        for records in result.records.values():
            assert len(records) == n

    def test_asap_finds_more_quality_paths_than_baselines(self, result):
        asap = np.median(result.series("ASAP", "quality_paths"))
        for name in ("DEDI", "RAND", "MIX"):
            base = np.median(result.series(name, "quality_paths"))
            assert asap > base

    def test_opt_best_rtt_lower_bound(self, result):
        opt = result.series("OPT", "best_rtt_ms")
        for name in ("DEDI", "RAND", "MIX"):
            other = result.series(name, "best_rtt_ms")
            finite = np.isfinite(opt) & np.isfinite(other)
            assert np.all(opt[finite] <= other[finite] + 1e-9)

    def test_asap_overhead_below_baselines(self, result):
        asap_msgs = np.median(result.series("ASAP", "messages"))
        assert asap_msgs < 160  # DEDI's fixed cost

    def test_summaries_render(self, result):
        table = render_method_table(result.summaries())
        for name in ("DEDI", "RAND", "MIX", "ASAP", "OPT"):
            assert name in table


class TestReportRendering:
    def test_cdf_row_handles_inf(self):
        row = render_cdf_row("x", [1.0, 2.0, float("inf")])
        assert "unreachable" in row

    def test_cdf_row_empty(self):
        assert "no finite samples" in render_cdf_row("x", [float("inf")])

    def test_series_block(self):
        block = render_series("title", [("a", [1.0, 2.0]), ("b", [3.0])])
        assert block.startswith("title")
        assert block.count("\n") == 2

    def test_kv_table(self):
        block = render_kv_table("T", [("key", 1.5), ("other", "v")])
        assert "1.5000" in block and "other" in block
