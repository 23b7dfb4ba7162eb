"""Unit tests for per-pulse source statistics."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdrates import sources
from qkdrates.channel import ChannelParams, checked_transmission, dark_click_prob
from qkdrates.protocols import SweepSpec, point_rate, point_stats, sweep
from qkdrates.sources import (
    ClickStats,
    CoincidenceStats,
    IdealEpr,
    IdealSingle,
    Pdc,
    Poisson,
    PdcCoefficients,
    SwapChain,
    _click_checks,
    _coincidence_checks,
    _error_fraction,
    _pdc_coefficient_checks,
    _sifted_error,
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

    @pytest.mark.parametrize("beta", [-math.inf, math.inf, math.nan])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="beta must be finite"):
            ClickStats(p_click=2e-323, e=0.5, beta=beta)

    @pytest.mark.parametrize("src", [IdealEpr(), Pdc(0.2), SwapChain(1)], ids=["ideal-epr", "pdc", "swap"])
    @pytest.mark.parametrize("alpha", [0.5, 2.0], ids=["valid", "invalid"])
    def test_two_arm_sources_rejected(self, src, alpha):
        # the source is checked before the transmission
        message = f"source {src.tag!r} does not serve protocol 'bb84'"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            bb84_stats(src, alpha, ChannelParams())

    def test_missing_source_rejected(self):
        message = "bb84 statistics need an ideal-single or poisson source, got None"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            bb84_stats(None, 0.5, ChannelParams())


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

    @pytest.mark.parametrize("chi", [math.inf, math.nan, -math.inf, 0.0], ids=repr)
    def test_pump_must_be_positive_and_finite(self, chi):
        # inf once gave all-zero weights, and NaN failed on coefficient A
        with pytest.raises(ValueError, match="^pump parameter must be positive and finite$"):
            pdc_coefficients(chi, 0.5)

    def test_saturated_pump_at_zero_transmission_is_a_zero_rate_point(self):
        # tanh(25)**2 rounds to 1, so at zero transmission 1 - z is 0, which
        # the weights divide by; it once raised a bare ZeroDivisionError
        note = "degenerate statistics: tanh^2(chi) (1 - alpha)^2 rounds to 1"
        with pytest.raises(ValueError, match="^" + re.escape(note) + "$"):
            pdc_coefficients(25.0, 0.0)
        assert point_rate("ekert", Pdc(25.0), ChannelParams(), 20000.0).note == note
        points = sweep(SweepSpec("ekert", ChannelParams(), Pdc(25.0), 0.0, 40000.0, 10000.0)).points()
        assert points[0].rate > 0.0
        assert [(point.rate_raw, point.stats, point.note) for point in points[1:]] == [(0.0, None, note)] * 4


class TestErrorFraction:
    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("mu", [0.0, 0.15607752848547005, 0.4999])
    def test_subnormal_noise_alone_errs_half_the_time(self, k, mu):
        # halving a subnormal noise rounds; at k = 3 it once gave e = 2/3
        assert _error_fraction(0.0, k * 5e-324, mu) == 0.5

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 0.4999))
    def test_never_past_one_half(self, signal, noise, mu):
        if signal + noise > 0.0:
            assert 0.0 <= _error_fraction(signal, noise, mu) <= 0.5


class TestSourceValidation:
    @pytest.mark.parametrize("build", [Poisson, Pdc], ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=repr)
    def test_non_finite_parameter_rejected(self, build, value):
        with pytest.raises(ValueError, match="must be positive and finite"):
            build(value)

    @pytest.mark.parametrize("build, name", [
        (Poisson, "nbar"), (Pdc, "chi"), (lambda chi: pdc_coefficients(chi, 0.5), "chi"),
    ], ids=["poisson", "pdc", "pdc_coefficients"])
    @pytest.mark.parametrize("value", [True, "1", None], ids=repr)
    def test_non_real_parameter_rejected(self, build, name, value):
        # True once passed as 1, and "1" raised a bare TypeError
        message = f"{name} must be a real number, got {value!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            build(value)

    @pytest.mark.parametrize("value", ["yes", 1, None], ids=repr)
    def test_non_bool_literal_exponent_rejected(self, value):
        # "yes" was once true
        message = f"literal_exponent must be a bool, got {value!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            SwapChain(1, literal_exponent=value)

    @pytest.mark.parametrize("n_swaps", [1.5, 2.0, True, False, "1", None], ids=repr)
    def test_non_integer_swap_count_rejected(self, n_swaps):
        with pytest.raises(ValueError, match="swap count must be an integer, got " + re.escape(repr(n_swaps))):
            SwapChain(n_swaps)

    def test_non_integer_swap_count_gives_no_rate(self):
        # a fractional swap count would otherwise give a positive rate (0.1115 bits per pulse)
        with pytest.raises(ValueError):
            point_rate("ekert", SwapChain(1.5), ChannelParams(), 10.0)

    @pytest.mark.parametrize(
        "build, value",
        [(Pdc, 1e300), (Poisson, 1e300), (SwapChain, 10**308), (SwapChain, np.int64(2))],
        ids=["pdc-1e300", "poisson-1e300", "swap-10**308", "swap-numpy-int"],
    )
    def test_large_and_numpy_values_accepted(self, build, value):
        assert value in source_to_dict(build(value)).values()

    @pytest.mark.parametrize("alpha", ["0.5", b"0.5", True], ids=repr)
    def test_transmission_is_not_coerced(self, alpha):
        message = "arm transmission must be a real number, got " + re.escape(repr(alpha))
        with pytest.raises(ValueError, match=message):
            ekert_ideal_stats(alpha, ChannelParams())
        with pytest.raises(ValueError, match=message):
            pdc_coefficients(0.2, alpha)


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

    @pytest.mark.parametrize("src", [IdealEpr(), Poisson(0.1), None], ids=repr)
    def test_other_sources_rejected(self, src):
        message = f"swap statistics need a swap-chain source, got {src!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            swap_stats_from_segment(src, 0.1, ChannelParams())


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


# Each entry of each check table, violated alone: (table, the arguments that
# violate only that entry, the call that raises on them, its message).
_VIOLATIONS = [
    (_click_checks, (1.5, 0.1, 0.9), ClickStats, "p_click must lie in [0, 1]"),
    (_click_checks, (0.5, -0.1, 0.9), ClickStats, "error fraction must lie in [0, 1]"),
    (_click_checks, (0.5, 0.1, -math.inf), ClickStats, "beta must be finite, got -inf"),
    (_click_checks, (0.5, 0.1, 1.5), ClickStats, "beta cannot exceed 1"),
    (_coincidence_checks, (1.5, 0.1, 0.1), CoincidenceStats, "p_true must lie in [0, 1]"),
    (_coincidence_checks, (0.2, -0.1, 0.1), CoincidenceStats, "p_false must lie in [0, 1]"),
    (_coincidence_checks, (0.2, 0.1, 0.6), CoincidenceStats, "coincidence error fraction must lie in [0, 1/2]"),
    (_pdc_coefficient_checks, (-0.5, 0.5, 0.1, 0.1), PdcCoefficients, "coefficient A must lie in [0, 1], got -0.5"),
    (_pdc_coefficient_checks, (0.1, -0.5, 0.1, 0.1), PdcCoefficients, "coefficient B must lie in [0, 1], got -0.5"),
    (_pdc_coefficient_checks, (0.1, 0.5, -0.25, 0.1), PdcCoefficients, "coefficient C must lie in [0, 1], got -0.25"),
    (_pdc_coefficient_checks, (0.1, 0.5, 0.1, -0.1), PdcCoefficients, "coefficient D must lie in [0, 1], got -0.1"),
    (_pdc_coefficient_checks, (0.4, 0.4, 0.1, 0.2), PdcCoefficients, "component weights exceed 1"),
]
# The function checks that sweep rows can fail, each one predicate.
_FUNCTION_VIOLATIONS = [
    (lambda: checked_transmission(1.5), "arm transmission must lie in [0, 1], got 1.5"),
    (
        lambda: swap_stats_from_segment(SwapChain(1), -0.5, ChannelParams()),
        "segment transmission must lie in [0, 1], got -0.5",
    ),
    (lambda: dark_click_prob(0.25, 4), "4 detectors at d=0.25 exceed the linear model's validity"),
    (lambda: _sifted_error(0.0, 0.0, 0.01, "click"), "degenerate statistics: click probability is zero"),
    (lambda: pdc_coefficients(25.0, 0.0), "degenerate statistics: tanh^2(chi) (1 - alpha)^2 rounds to 1"),
    (
        lambda: swap_stats_from_segment(SwapChain(1), 0.0, ChannelParams()),
        "degenerate statistics: no Bell analyzer can fire",
    ),
]


class TestCheckTables:
    """Every check that decides whether a point is rated is stated once: a
    statistics class's as a table of predicates and messages, a function's
    as one predicate. The messages reach users as notes."""

    @pytest.mark.parametrize("table, args, build, message", _VIOLATIONS, ids=[m for *_, m in _VIOLATIONS])
    def test_each_entry_raises_its_own_message(self, table, args, build, message):
        assert table(*args).count(False) == 1
        with pytest.raises(ValueError) as err:
            build(*args)
        assert str(err.value) == message

    @pytest.mark.parametrize("call, message", _FUNCTION_VIOLATIONS, ids=[m for _, m in _FUNCTION_VIOLATIONS])
    def test_each_function_check_raises_its_own_message(self, call, message):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message

    def test_every_table_entry_is_pinned(self):
        tables = {f for f in vars(sources).values() if hasattr(f, "messages")}
        pinned = {(table, table(*args).index(False)) for table, args, *_ in _VIOLATIONS}
        assert pinned == {(table, i) for table in tables for i in range(len(table.messages))}

    @pytest.mark.parametrize(
        "build, args, message",
        [
            (ClickStats, (1.5, -0.1, math.nan), "p_click must lie in [0, 1]"),
            (ClickStats, (0.5, 2.0, 2.0), "error fraction must lie in [0, 1]"),
            (ClickStats, (0.5, 0.1, math.inf), "beta must be finite, got inf"),
            (CoincidenceStats, (0.2, 1.5, 0.9), "p_false must lie in [0, 1]"),
            (PdcCoefficients, (2.0, 2.0, 2.0, 2.0), "coefficient A must lie in [0, 1], got 2.0"),
            (PdcCoefficients, (0.5, 0.5, 1.5, 0.5), "coefficient C must lie in [0, 1], got 1.5"),
        ],
    )
    def test_several_violations_raise_the_first(self, build, args, message):
        with pytest.raises(ValueError) as err:
            build(*args)
        assert str(err.value) == message
