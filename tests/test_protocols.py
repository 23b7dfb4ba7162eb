"""Unit tests for rate assembly, optimization, cutoff search, and sweeps."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdrates.channel import ChannelParams
from qkdrates.protocols import (
    MAX_SWEEP_ROWS,
    RatePoint,
    SweepSpec,
    cutoff_distance,
    optimize_source_param,
    point_rate,
    point_stats,
    rate_bb84,
    rate_ekert,
    sweep,
)
from qkdrates.sources import (
    ClickStats,
    CoincidenceStats,
    IdealEpr,
    IdealSingle,
    Pdc,
    Poisson,
    SwapChain,
    bb84_stats,
    ekert_ideal_stats,
)

FIBER = ChannelParams(sigma=0.2, eta=0.18, receiver_loss_db=1.0, d=5e-5, mu=0.01)


class TestRateBb84:
    def test_ideal_lossless_limit(self):
        st_ = bb84_stats(IdealSingle(), 0.3, ChannelParams())
        assert rate_bb84(st_) == 0.15

    def test_fully_noisy_channel(self):
        st_ = ClickStats(p_click=0.5, e=0.5, beta=1.0)
        assert rate_bb84(st_) == 0.0
        assert rate_bb84(st_, clamp=False) == 0.0

    def test_poisson_frozen_rate(self):
        st_ = bb84_stats(Poisson(0.1), 1.0, ChannelParams(mu=0.01))
        assert rate_bb84(st_) == pytest.approx(0.038120642406590126, rel=1e-14)

    def test_negative_beta_yields_zero(self):
        st_ = bb84_stats(Poisson(0.1), 0.0143, ChannelParams())
        assert st_.beta < 0.0
        assert rate_bb84(st_) == 0.0
        assert rate_bb84(st_, clamp=False) == 0.0

    def test_clamping_contract(self):
        st_ = ClickStats(p_click=0.01, e=0.14, beta=1.0)
        raw = rate_bb84(st_, clamp=False)
        assert raw < 0.0
        assert rate_bb84(st_) == 0.0


class TestRateEkert:
    def test_noiseless_limit(self):
        st_ = ekert_ideal_stats(0.2, ChannelParams())
        assert rate_ekert(st_) == 0.2 * 0.2 / 2.0

    def test_fully_noisy_channel(self):
        st_ = CoincidenceStats(p_true=0.05, p_false=0.05, e=0.5)
        assert rate_ekert(st_) == 0.0

    def test_frozen_rate(self):
        st_ = ekert_ideal_stats(0.0143, ChannelParams(d=5e-5))
        assert rate_ekert(st_) == pytest.approx(8.440980676617838e-05, rel=1e-14)

    def test_matches_bb84_for_single_photon_statistics(self):
        # same tau and EC terms once p_click = p_coin, beta = 1
        for alpha, e in ((0.3, 0.0), (0.12, 0.03), (0.5, 0.09)):
            coin = CoincidenceStats(p_true=alpha * (1.0 - e), p_false=alpha * e, e=e)
            click = ClickStats(p_click=alpha, e=e, beta=1.0)
            assert rate_ekert(coin) == pytest.approx(rate_bb84(click), rel=1e-12)


class TestPointStats:
    @pytest.mark.parametrize(
        "protocol, src",
        [
            ("bb84", IdealSingle()),
            ("bb84", Poisson(0.1)),
            ("ekert", IdealEpr()),
            ("ekert", Pdc(0.2)),
            ("ekert", SwapChain(1)),
            ("ekert", SwapChain(2)),
        ],
        ids=["ideal-single", "poisson", "ideal-epr", "pdc", "swap1", "swap2"],
    )
    def test_distance_and_loss_modes_agree(self, protocol, src):
        p = ChannelParams(sigma=0.2, eta=0.18, receiver_loss_db=1.0, d=5e-5)
        by_km = point_stats(protocol, src, p, 100.0, "distance")
        by_db = point_stats(protocol, src, p, 0.2 * 100.0, "total-loss")
        assert dataclasses.astuple(by_km) == pytest.approx(dataclasses.astuple(by_db), rel=1e-12)

    def test_bb84_spans_the_full_length(self):
        p = ChannelParams(sigma=0.2, eta=1.0)
        st_ = point_stats("bb84", IdealSingle(), p, 50.0)
        assert st_.p_click == pytest.approx(0.1, rel=1e-13)

    def test_ekert_splits_the_length(self):
        p = ChannelParams(sigma=0.2, eta=1.0)
        st_ = point_stats("ekert", IdealEpr(), p, 100.0)
        assert st_.p_true == pytest.approx(0.01, rel=1e-13)

    def test_swap_chain_source(self):
        st_ = point_stats("ekert", SwapChain(2), FIBER, 120.0)
        assert st_.p_true > 0.0

    def test_shared_receiver_budget(self):
        shared = dataclasses.replace(FIBER, receiver_loss_per_arm=False)
        per_arm = point_stats("ekert", IdealEpr(), FIBER, 100.0)
        split = point_stats("ekert", IdealEpr(), shared, 100.0)
        # halving the per-arm dB cost raises the coincidence rate by 10^(0.1)
        assert split.p_true == pytest.approx(per_arm.p_true * 10.0**0.1, rel=1e-12)

    def test_protocol_source_mismatch(self):
        with pytest.raises(ValueError):
            point_stats("bb84", IdealEpr(), FIBER, 10.0)
        with pytest.raises(ValueError):
            point_stats("ekert", IdealSingle(), FIBER, 10.0)
        with pytest.raises(ValueError):
            point_stats("b92", IdealSingle(), FIBER, 10.0)
        with pytest.raises(ValueError):
            point_stats("bb84", IdealSingle(), FIBER, 10.0, mode="length")


class TestOptimizer:
    def test_interior_stationary_point(self):
        result = optimize_source_param("bb84", ChannelParams(mu=0.01), 0.0)
        lo, hi = 1e-4, 2.0
        assert lo < result.param < hi
        assert not result.zero_rate
        # refined optimum cannot fall below the coarse grid maximum
        grid = [math.exp(math.log(lo) + i * (math.log(hi) - math.log(lo)) / 63) for i in range(64)]
        from qkdrates.protocols import point_rate as pr

        grid_best = max(
            pr("bb84", Poisson(g), ChannelParams(mu=0.01), 0.0).rate for g in grid
        )
        assert result.rate >= grid_best - 1e-15

    def test_pdc_optimum_below_one(self):
        result = optimize_source_param("ekert", FIBER, 100.0)
        assert 0.0 < result.param < 1.0
        assert result.rate > 0.0

    def test_monotone_degradation(self):
        r50 = optimize_source_param("ekert", FIBER, 50.0)
        r60 = optimize_source_param("ekert", FIBER, 60.0)
        assert r60.rate <= r50.rate

    def test_zero_rate_flag(self):
        result = optimize_source_param("ekert", FIBER, 400.0)
        assert result.zero_rate
        assert result.rate == 0.0

    @pytest.mark.parametrize("protocol, free", [("bb84", Poisson), ("ekert", Pdc)])
    def test_point_rate_without_source_is_the_optimum(self, protocol, free):
        opt = optimize_source_param(protocol, FIBER, 10.0)
        assert opt.rate > 0.0
        pt = point_rate(protocol, None, FIBER, 10.0)
        assert pt.optimal_param == opt.param
        assert pt == dataclasses.replace(
            point_rate(protocol, free(opt.param), FIBER, 10.0), optimal_param=opt.param
        )


class TestCutoff:
    def test_ordering_of_ideal_sources(self):
        ekert_cut = cutoff_distance("ekert", FIBER, (1.0, 400.0), src=IdealEpr())
        bb84_cut = cutoff_distance("bb84", FIBER, (1.0, 400.0), src=IdealSingle())
        assert bb84_cut < ekert_cut

    def test_no_dark_counts_means_no_cutoff(self):
        clean = ChannelParams(sigma=0.2, eta=0.18, receiver_loss_db=1.0, d=0.0, mu=0.01)
        with pytest.raises(ValueError, match="still positive"):
            cutoff_distance("ekert", clean, (1.0, 400.0), src=IdealEpr())

    def test_no_coverage_error(self):
        with pytest.raises(ValueError, match="zero at the lower"):
            cutoff_distance("ekert", FIBER, (300.0, 400.0), src=IdealEpr())


class TestSweep:
    def test_single_point_matches_direct_call(self):
        spec = SweepSpec(
            protocol="ekert",
            params=FIBER,
            source=IdealEpr(),
            start=100.0,
            stop=101.0,
            step=10.0,
        )
        points = sweep(spec)
        assert len(points) == 1
        direct = point_rate("ekert", IdealEpr(), FIBER, 100.0)
        assert points[0] == direct

    def test_monotone_with_single_cutoff(self):
        spec = SweepSpec(
            protocol="ekert",
            params=FIBER,
            source=IdealEpr(),
            start=0.0,
            stop=250.0,
            step=5.0,
        )
        rates = [pt.rate for pt in sweep(spec)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert rates[0] > 0.0
        assert rates[-1] == 0.0

    def test_optimized_sweep_records_parameter(self):
        spec = SweepSpec(
            protocol="ekert", params=FIBER, source=None, start=25.0, stop=50.0, step=25.0
        )
        for pt in sweep(spec):
            assert pt.optimal_param is not None
            assert 0.0 < pt.optimal_param < 1.5

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(
                protocol="ekert", params=FIBER, source=None, start=10.0, stop=5.0, step=1.0
            )
        with pytest.raises(ValueError):
            SweepSpec(
                protocol="ekert", params=FIBER, source=None, start=0.0, stop=5.0, step=0.0
            )
        with pytest.raises(ValueError):
            SweepSpec(
                protocol="e91", params=FIBER, source=None, start=0.0, stop=5.0, step=1.0
            )

    @pytest.mark.parametrize(
        "start, stop, step",
        [
            (0.0, 1e300, 1e-300),
            (0.0, float(MAX_SWEEP_ROWS), 1.0),
            (0.0, 5.0, math.inf),
            (0.0, math.inf, 1.0),
            (-10.0, 10.0, 5.0),
        ],
        ids=["overflowing", "over-cap", "infinite-step", "infinite-stop", "negative-start"],
    )
    def test_unbounded_grid_rejected(self, start, stop, step):
        with pytest.raises(ValueError):
            SweepSpec(
                protocol="ekert", params=FIBER, source=None, start=start, stop=stop, step=step
            )

    def test_rate_point_clamps_its_raw_rate(self):
        assert RatePoint(abscissa=0.0, rate_raw=-1e-6).rate == 0.0
        assert RatePoint(abscissa=0.0, rate_raw=3.5e-7).rate == 3.5e-7

    @given(st.floats(min_value=0.0, max_value=200.0))
    @settings(max_examples=50, deadline=None)
    def test_raw_rate_bounded_by_sift_fraction(self, km):
        pt = point_rate("ekert", IdealEpr(), FIBER, km)
        if pt.stats is not None:
            assert pt.rate_raw <= 0.5 * pt.stats.p_coin + 1e-15
