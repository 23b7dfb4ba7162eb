"""Unit tests for per-pulse source statistics."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdrates.channel import ChannelParams
from qkdrates.protocols import point_stats
from qkdrates.sources import (
    IdealEpr,
    IdealSingle,
    Pdc,
    Poisson,
    SwapChain,
    bb84_stats,
    ekert_ideal_stats,
    parse_source,
    pdc_coefficients,
    pdc_stats,
    source_to_dict,
    swap_stats_from_segment,
)


class TestBb84Stats:
    def test_ideal_source_is_transparent(self):
        st_ = bb84_stats(IdealSingle(), 0.3, ChannelParams())
        assert st_.p_click == 0.3
        assert st_.e == 0.0
        assert st_.beta == 1.0

    def test_poisson_frozen_values(self):
        st_ = bb84_stats(Poisson(0.1), 1.0, ChannelParams(mu=0.01))
        assert st_.p_click == pytest.approx(0.09516258196404048, rel=1e-14)
        assert st_.e == pytest.approx(0.01, rel=1e-12)
        assert st_.beta == pytest.approx(0.9508331944775057, rel=1e-14)

    def test_poisson_negative_beta_at_high_loss(self):
        # multi-photon emissions dominate the few surviving clicks
        st_ = bb84_stats(Poisson(0.1), 0.0143, ChannelParams())
        assert st_.p_click == pytest.approx(0.0014289780371936622, rel=1e-14)
        assert st_.beta == pytest.approx(-2.2742561737569225, rel=1e-14)

    def test_dark_counts_feed_errors(self):
        p = ChannelParams(d=5e-5)
        st_ = bb84_stats(IdealSingle(), 0.1, p)
        assert st_.p_click == pytest.approx(0.1 + 2e-4, rel=1e-14)
        assert st_.e == pytest.approx(1e-4 / (0.1 + 2e-4), rel=1e-14)

    def test_degenerate_statistics(self):
        with pytest.raises(ValueError):
            bb84_stats(IdealSingle(), 0.0, ChannelParams())

    def test_two_arm_sources_rejected(self):
        with pytest.raises(ValueError):
            bb84_stats(IdealEpr(), 0.5, ChannelParams())


class TestEkertIdealStats:
    def test_frozen_values(self):
        st_ = ekert_ideal_stats(0.0143, ChannelParams(d=5e-5))
        assert st_.p_true == pytest.approx(0.00020449000000000002, rel=1e-14)
        assert st_.p_false == pytest.approx(5.76e-06, rel=1e-14)
        assert st_.e == pytest.approx(0.01369797859690844, rel=1e-14)

    def test_noiseless_channel(self):
        st_ = ekert_ideal_stats(0.2, ChannelParams())
        assert st_.p_true == pytest.approx(0.04, rel=1e-14)
        assert st_.p_false == 0.0
        assert st_.e == 0.0

    def test_baseline_error(self):
        st_ = ekert_ideal_stats(0.2, ChannelParams(mu=0.03))
        assert st_.e == pytest.approx(0.03, rel=1e-14)

    def test_degenerate_statistics(self):
        with pytest.raises(ValueError):
            ekert_ideal_stats(0.0, ChannelParams())

    @given(
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=0.0, max_value=1e-3),
    )
    @settings(max_examples=200)
    def test_error_below_half(self, alpha, d):
        st_ = ekert_ideal_stats(alpha, ChannelParams(d=d))
        assert 0.0 <= st_.e < 0.5


class TestPdc:
    def test_frozen_lossy_coefficients(self):
        c = pdc_coefficients(0.2, 0.5)
        assert c.A == pytest.approx(0.018708676628220504, rel=1e-14)
        assert c.B == pytest.approx(0.9418603108497656, rel=1e-14)
        assert c.C == pytest.approx(0.01852646806969875, rel=1e-14)
        assert c.D == pytest.approx(0.00036441711704350127, rel=1e-14)

    def test_frozen_lossless_coefficients(self):
        c = pdc_coefficients(0.2, 1.0)
        assert c.A == pytest.approx(0.07196168353266932, rel=1e-14)
        assert c.B == pytest.approx(0.9236036151084113, rel=1e-14)
        assert c.C == 0.0
        assert c.D == 0.0

    def test_lossless_pair_weight(self):
        chi = 0.2
        c = pdc_coefficients(chi, 1.0)
        assert c.A == pytest.approx(
            2.0 * math.tanh(chi) ** 2 / math.cosh(chi) ** 4, rel=1e-14
        )

    @given(
        st.floats(min_value=1e-3, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=300)
    def test_component_weights_form_a_distribution(self, chi, alpha):
        c = pdc_coefficients(chi, alpha)
        assert c.higher_order_weight >= -1e-9
        for v in (c.A, c.B, c.C, c.D):
            assert -1e-12 <= v <= 1.0 + 1e-12

    def test_stats_assemble_false_coincidences(self):
        p = ChannelParams(d=5e-5)
        c = pdc_coefficients(0.2, 0.5)
        st_ = pdc_stats(0.2, 0.5, p)
        assert st_.p_true == c.A
        assert st_.p_false == pytest.approx(
            16.0 * p.d**2 * c.B + 8.0 * p.d * c.C + c.D, rel=1e-14
        )

    def test_invalid_pump(self):
        with pytest.raises(ValueError):
            pdc_coefficients(0.0, 0.5)
        with pytest.raises(ValueError):
            Pdc(-0.1)


class TestSwapChain:
    def test_frozen_bell_analyzer_terms(self):
        p = ChannelParams(eta=1.0, d=1e-5)
        st_ = swap_stats_from_segment(SwapChain(1), 0.1, p)
        # p_swap_false = 6 * 0.1 * 1e-5 + 12e-10, g = p_st / (p_st + p_sf)
        p_st = 0.1 * 0.1 / 2.0
        p_sf = 6.0 * 0.1 * 1e-5 + 12.0 * 1e-10
        assert p_sf == pytest.approx(6.001200000000001e-06, rel=1e-14)
        g = p_st / (p_st + p_sf)
        assert g == pytest.approx(0.9988011988490934, rel=1e-14)
        expected_true = (p_st + p_sf) * g * 0.1 * 0.1
        assert st_.p_true == pytest.approx(expected_true, rel=1e-13)

    def test_chain_length_scaling(self):
        p = ChannelParams(eta=1.0, d=1e-5)
        one = swap_stats_from_segment(SwapChain(1), 0.1, p)
        two = swap_stats_from_segment(SwapChain(2), 0.1, p)
        p_st = 0.005
        p_sf = 6.001200000000001e-06
        g = p_st / (p_st + p_sf)
        ratio = (p_st + p_sf) * g
        assert two.p_true == pytest.approx(one.p_true * ratio, rel=1e-12)

    def test_literal_exponent_squares_the_chain_factor(self):
        p = ChannelParams(eta=1.0, d=1e-5)
        plain = swap_stats_from_segment(SwapChain(2), 0.1, p)
        literal = swap_stats_from_segment(SwapChain(2, literal_exponent=True), 0.1, p)
        p_bell = (0.005 + 6.001200000000001e-06) ** 2
        assert literal.p_true == pytest.approx(plain.p_true * p_bell, rel=1e-12)

    def test_total_length_splits_into_segments(self):
        p = ChannelParams(sigma=0.2, eta=0.18, receiver_loss_db=1.0, d=5e-5)
        direct = point_stats("ekert", SwapChain(2), p, 120.0)
        seg = 10.0 ** (-0.2 * (120.0 / 6.0) / 10.0)
        assert swap_stats_from_segment(SwapChain(2), seg, p).p_true == direct.p_true

    def test_receiver_loss_only_at_endpoints(self):
        lossless_rec = ChannelParams(eta=1.0, d=0.0)
        with_rec = ChannelParams(eta=1.0, receiver_loss_db=3.0, d=0.0)
        a = swap_stats_from_segment(SwapChain(1), 0.5, lossless_rec)
        b = swap_stats_from_segment(SwapChain(1), 0.5, with_rec)
        # only the two end photons see the 3 dB, so p_true scales by 10^(-0.6)
        assert b.p_true == pytest.approx(a.p_true * 10 ** (-0.6), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            SwapChain(0)
        with pytest.raises(ValueError):
            swap_stats_from_segment(SwapChain(1), 0.0, ChannelParams())


class TestSourceParsing:
    @pytest.mark.parametrize(
        "cfg",
        [
            {"source": "ideal-single"},
            {"source": "poisson", "nbar": 0.1},
            {"source": "ideal-epr"},
            {"source": "pdc", "chi": 0.2},
            {"source": "swap", "n_swaps": 2},
            {"source": "swap", "n_swaps": 1, "literal_exponent": True},
        ],
    )
    def test_round_trip(self, cfg):
        src = parse_source(cfg)
        assert parse_source(source_to_dict(src)) == src

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            parse_source({"source": "laser"})

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="poisson source requires 'nbar'"):
            parse_source({"source": "poisson"})
        with pytest.raises(ValueError, match="pdc source requires 'chi'"):
            parse_source({"source": "pdc"})
        with pytest.raises(ValueError, match="swap source requires 'n_swaps'"):
            parse_source({"source": "swap"})

    @pytest.mark.parametrize(
        "cfg",
        [
            {"source": "poisson", "nbar": "0.1"},
            {"source": "pdc", "chi": "0.2"},
            {"source": "swap", "n_swaps": "2"},
            {"source": "swap", "n_swaps": 1.9},
            {"source": "swap", "n_swaps": 2.0},
            {"source": "poisson", "nbar": float("nan")},
            {"source": "pdc", "chi": 0.2, "nbar": 0.1},
        ],
        ids=[
            "nbar-string",
            "chi-string",
            "n_swaps-string",
            "n_swaps-fraction",
            "n_swaps-float",
            "nbar-nan",
            "unknown-key",
        ],
    )
    def test_mistyped_parameter(self, cfg):
        with pytest.raises(ValueError):
            parse_source(cfg)
