"""Tests for codecs, the E-model, and quality predicates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.voip import (
    EModel,
    EModelConfig,
    G711,
    G723_1,
    G729,
    G729A_VAD,
    MOS_THRESHOLD,
    RTT_THRESHOLD_MS,
    mos_of_path,
)
from repro.voip.codecs import ALL_CODECS
from repro.voip.emodel import r_to_mos


class TestCodecs:
    def test_codec_table_values(self):
        assert G711.ie == 0.0
        assert G729A_VAD.ie == 11.0
        assert G723_1.bpl == pytest.approx(16.1)

    def test_codec_delay_positive(self):
        for codec in ALL_CODECS:
            assert codec.codec_delay_ms() > 0
            assert codec.packet_interval_ms() > 0

    def test_g711_higher_quality_floor_than_g723(self):
        e711 = EModel(EModelConfig(codec=G711))
        e723 = EModel(EModelConfig(codec=G723_1))
        assert e711.mos(50.0, 0.0) > e723.mos(50.0, 0.0)


class TestRToMos:
    def test_clamps(self):
        assert r_to_mos(-10) == 1.0
        assert r_to_mos(0) == 1.0
        assert r_to_mos(100) == 4.5
        assert r_to_mos(150) == 4.5

    def test_monotone_increasing(self):
        values = [r_to_mos(r) for r in range(0, 101, 5)]
        assert values == sorted(values)

    def test_reference_point(self):
        # R = 70 → MOS ≈ 3.60 (standard E-model anchor).
        assert r_to_mos(70) == pytest.approx(3.60, abs=0.03)


class TestEModel:
    def test_delay_impairment_knee(self):
        model = EModel()
        below = model.delay_impairment(150.0)
        above = model.delay_impairment(250.0)
        assert below == pytest.approx(0.024 * 150.0)
        assert above == pytest.approx(0.024 * 250.0 + 0.11 * (250.0 - 177.3))

    def test_loss_impairment_zero_loss(self):
        model = EModel()
        assert model.loss_impairment(0.0) == pytest.approx(G729A_VAD.ie)

    def test_loss_impairment_increases(self):
        model = EModel()
        assert model.loss_impairment(0.05) > model.loss_impairment(0.01)

    def test_loss_impairment_bounds(self):
        model = EModel()
        with pytest.raises(ConfigurationError):
            model.loss_impairment(1.5)

    def test_mos_from_rtt_halves_delay(self):
        model = EModel()
        assert model.mos_from_rtt(200.0, 0.005) == pytest.approx(
            model.mos(100.0, 0.005)
        )

    def test_paper_anchor_low_rtt_high_mos(self):
        # Paper Fig. 15-16: ASAP/OPT sessions (shortest RTT ≤ 115 ms,
        # 0.5% loss) all have MOS above 3.85.
        model = EModel()
        assert model.mos_from_rtt(115.0, 0.005) > 3.85

    def test_paper_anchor_high_rtt_low_mos(self):
        # Paper: ~3% of baseline sessions (RTT > 1 s) fall below MOS 2.9.
        model = EModel()
        assert model.mos_from_rtt(1000.0, 0.005) < 2.9

    def test_threshold_anchor_at_300ms(self):
        # The 300 ms RTT bound should sit near the 3.6 MOS bound.
        model = EModel()
        assert model.mos_from_rtt(300.0, 0.005) == pytest.approx(3.6, abs=0.2)

    def test_loss_drops_mos_substantially(self):
        # Paper §2 (Nortel data): ~1 MOS unit per 1% loss without
        # concealment; the E-model's Bpl term (with concealment) is
        # gentler but must still show a clear drop.
        model = EModel()
        assert model.mos_from_rtt(100.0, 0.0) - model.mos_from_rtt(100.0, 0.02) > 0.25
        assert model.mos_from_rtt(100.0, 0.0) - model.mos_from_rtt(100.0, 0.05) > 0.7

    def test_invalid_inputs(self):
        model = EModel()
        with pytest.raises(ConfigurationError):
            model.mos_from_rtt(-1.0, 0.0)
        with pytest.raises(ConfigurationError):
            model.mos(-5.0, 0.0)
        with pytest.raises(ConfigurationError):
            EModelConfig(jitter_buffer_ms=-1.0)

    @given(
        st.floats(min_value=0.0, max_value=2000.0),
        st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_mos_always_in_range(self, rtt, loss):
        mos = EModel().mos_from_rtt(rtt, loss)
        assert 1.0 <= mos <= 4.5

    @given(
        st.sampled_from(ALL_CODECS),
        st.floats(min_value=0.0, max_value=1500.0),
        st.floats(min_value=0.0, max_value=200.0),
        st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=300, deadline=None)
    def test_mos_monotone_in_delay(self, codec, rtt, extra_ms, loss):
        model = EModel(EModelConfig(codec=codec))
        assert model.mos_from_rtt(rtt, loss) >= model.mos_from_rtt(rtt + extra_ms, loss)

    @given(
        st.sampled_from(ALL_CODECS),
        st.floats(min_value=0.0, max_value=1500.0),
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=300, deadline=None)
    def test_mos_monotone_in_loss(self, codec, rtt, loss, extra_loss):
        model = EModel(EModelConfig(codec=codec))
        assert model.mos_from_rtt(rtt, loss) >= model.mos_from_rtt(rtt, loss + extra_loss)


class TestQualityPredicates:

    def test_constants(self):
        assert RTT_THRESHOLD_MS == 300.0
        assert MOS_THRESHOLD == 3.6

    def test_mos_of_path_default_loss(self):
        assert mos_of_path(115.0) > 3.85
