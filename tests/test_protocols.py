"""Unit tests for rate assembly, optimization, cutoff search, and sweeps."""

import dataclasses
import fractions
import json
import math
import operator
import random
import re
import signal
import tracemalloc
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdrates import channel, grid, protocols, sources
from qkdrates.channel import ChannelParams
from qkdrates.cli import parse_config
from qkdrates.ratecore import _EC_KNOTS, _EC_SEGMENTS, _ec_line, _quadratic_bound, binary_entropy, ec_efficiency, tau
from qkdrates.protocols import (
    CHI_BOX,
    MAX_SWEEP_ROWS,
    NBAR_BOX,
    RatePoint,
    SweepSpec,
    cutoff_distance,
    optimize_source_param,
    point_rate,
    point_stats,
    rate_bb84,
    rate_ekert,
    sweep,
    _free_source,
    _transmissions,
)
from qkdrates.security import SecurityParams, ec_leak_bits, final_key_length
from qkdrates.grid import (
    _ROW_MATHS,
    _coarse_maxima,
    _free_rate_kernel,
    _libm,
    _optimal_params,
    _rate_columns,
)
from qkdrates.sources import (
    ClickStats,
    CoincidenceStats,
    IdealEpr,
    IdealSingle,
    Pdc,
    Poisson,
    SwapChain,
    _error_fraction,
    _pair_false,
    _pdc_false,
    _pdc_weights,
    _poisson_clicks,
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

    @pytest.mark.parametrize("protocol, message", [
        ("bb84", "bb84 statistics need an ideal-single or poisson source, got None"),
        ("ekert", "ekert statistics need an ideal-epr, pdc or swap source, got None"),
    ], ids=["bb84", "ekert"])
    def test_free_source_has_no_statistics(self, protocol, message):
        # None is the free source, which has no statistics of its own
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            point_stats(protocol, None, ChannelParams(eta=0.18, d=5e-5, mu=0.01), 10.0)
        # point_rate optimizes the free source before it asks for statistics
        point = point_rate(protocol, None, FIBER, 10.0)
        assert point.rate > 0.0 and point.note == ""

    @pytest.mark.parametrize("abscissa", [True, False, "10", None, 1j, [10.0]], ids=repr)
    @pytest.mark.parametrize("src", [Poisson(0.1), IdealSingle()], ids=lambda src: src.tag)
    def test_non_real_abscissa_rejected(self, src, abscissa):
        message = f"abscissa must be a real number, got {abscissa!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            point_stats("bb84", src, ChannelParams(), abscissa)
        # point_rate makes it a zero-rate point, where True once rated 1 km
        point = point_rate("bb84", src, ChannelParams(), abscissa)
        assert (point.rate_raw, point.stats, point.note) == (0.0, None, message)

    @pytest.mark.parametrize("src", [IdealEpr(), Pdc(0.2), SwapChain(2)], ids=lambda src: src.tag)
    @pytest.mark.parametrize("mode", ["distance", "total-loss"])
    def test_nan_abscissa_rejected_as_an_abscissa(self, src, mode):
        with pytest.raises(ValueError, match="^abscissa must be non-negative, got nan$"):
            point_stats("ekert", src, FIBER, math.nan, mode)

    @pytest.mark.parametrize("protocol, src", [
        ("bb84", Poisson(0.1)), ("ekert", IdealEpr()), ("ekert", SwapChain(1)),
    ], ids=["bb84", "ekert", "swap"])
    def test_infinite_distance_on_a_lossless_fiber(self, protocol, src):
        # 0 dB/km times inf km would be a NaN loss, whose note blamed the
        # transmission ("got nan"); the infinite abscissa is rejected first
        point = point_rate(protocol, src, ChannelParams(sigma=0.0, d=1e-6), math.inf)
        assert (point.rate_raw, point.stats) == (0.0, None)
        assert point.note == "abscissa must be finite, got inf"

    @pytest.mark.parametrize("abscissa", [np.float64(10.0), 10, np.int64(10), fractions.Fraction(10)], ids=repr)
    def test_real_abscissa_types_rate_as_the_float(self, abscissa):
        assert point_stats("ekert", IdealEpr(), FIBER, abscissa) == point_stats("ekert", IdealEpr(), FIBER, 1e1)


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

    @pytest.mark.parametrize("protocol", ["bb84", "ekert"])
    def test_rates_no_probe_that_no_step_reads(self, protocol):
        # 64 grid points, the first two probes, 16 of the 17 golden-section
        # steps' probes and the bracket midpoint: the step that closes the
        # bracket below _REL_TOL leaves its probe unrated
        with mock.patch.object(protocols, "point_rate", wraps=protocols.point_rate) as rated:
            result = optimize_source_param(protocol, ChannelParams(eta=0.2, d=1e-6), 10.0)
        assert result.rate > 0.0
        assert rated.call_count == 83

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

    @pytest.mark.parametrize("protocol, free, p, x, mode, outcome", [
        ("bb84", Poisson, FIBER, 10.0, "distance", "positive"),
        ("ekert", Pdc, FIBER, 10.0, "distance", "positive"),
        ("ekert", Pdc, FIBER, 400.0, "distance", "zero"),
        ("bb84", Poisson, FIBER, 50.0, "distance", "zero"),
        ("ekert", Pdc, FIBER, 12.0, "total-loss", "positive"),
        ("bb84", Poisson, FIBER, 12.0, "total-loss", "zero"),
        ("bb84", Poisson, ChannelParams(d=0.3), 10.0, "distance", "note"),
    ], ids=["bb84-Poisson", "ekert-Pdc", "ekert-zero-rate", "bb84-past-cutoff", "ekert-total-loss",
            "bb84-total-loss-zero-rate", "bb84-note"])
    def test_point_rate_without_source_is_the_optimum(self, protocol, free, p, x, mode, outcome):
        # a zero-rate point carries the box midpoint; ekert's raw rate is
        # negative at 400 km, bb84's is 0 (beta < 0) past its 24 km cutoff,
        # and four detectors at d = 0.3 leave every parameter a note
        opt = optimize_source_param(protocol, p, x, mode)
        assert (opt.rate > 0.0) == (outcome == "positive")
        pt = point_rate(protocol, None, p, x, mode)
        assert pt.optimal_param == opt.param
        assert pt == dataclasses.replace(point_rate(protocol, free(opt.param), p, x, mode), optimal_param=opt.param)
        assert (pt.stats is None) == (pt.note != "") == (outcome == "note")
        if outcome != "positive":
            assert pt.rate == 0.0
            assert opt.param == 0.5 * sum(NBAR_BOX if protocol == "bb84" else CHI_BOX)


# Devices for the kernel: the reference fiber, lossless detectors (arm
# transmission up to 1) with and without dark counts, dark counts at and just
# under the four-detector linear-model limit (4 d = 1), dark counts that push
# p_false above 1, and a baseline error near 1/2.
KERNEL_DEVICES = [
    FIBER,
    ChannelParams(sigma=0.2, eta=1.0, d=5e-5, mu=0.01),
    ChannelParams(sigma=0.2, eta=1.0),
    ChannelParams(sigma=0.2, eta=1.0, d=0.2499, mu=0.01),
    ChannelParams(sigma=0.2, eta=1.0, d=0.25),
    ChannelParams(sigma=0.2, eta=0.5, d=0.3),
    ChannelParams(sigma=0.2, eta=1.0, d=1e-6, mu=0.4999),
]
# Per mode, the abscissa at which a lossless arm transmits about 1e-9.
KERNEL_REACH = {
    ("bb84", "distance"): 450.0,
    ("bb84", "total-loss"): 90.0,
    ("ekert", "distance"): 900.0,
    ("ekert", "total-loss"): 180.0,
}


class TestFreeRateKernel:
    """_free_rate_kernel against point_rate at the same source, one point at a time."""

    @pytest.mark.parametrize("mode", ["distance", "total-loss"])
    @pytest.mark.parametrize("protocol, free, box", [("bb84", Poisson, NBAR_BOX), ("ekert", Pdc, CHI_BOX)])
    def test_matches_point_rate(self, protocol, free, box, mode):
        params = np.geomspace(*box, 41)
        if protocol == "ekert":
            params = np.append(params, [3.0, 5.0, 10.0])  # past the box: large chi
        positive = 0
        for p in KERNEL_DEVICES:
            for x in np.linspace(0.0, KERNEL_REACH[(protocol, mode)], 31).tolist():
                alpha = _transmissions(protocol, None, p, x, mode)
                rates = _free_rate_kernel(protocol, p, alpha, params)
                for param, got in zip(params.tolist(), rates.tolist()):
                    pt = point_rate(protocol, free(param), p, x, mode)
                    scale = 0.0
                    if pt.stats is not None:
                        p_sift = pt.stats.p_click if protocol == "bb84" else pt.stats.p_coin
                        scale = max(abs(pt.rate), 0.5 * p_sift)
                    where = f"{p} @ {x} {mode}, param {param}"
                    assert (got > 0.0) == (pt.rate > 0.0), where
                    assert abs(got - pt.rate) <= 1e-12 * scale, where
                    # the clamp gives +0.0, never -0.0
                    assert got > 0.0 or math.copysign(1.0, got) == 1.0, where
                    positive += got > 0.0
        assert positive > 400  # not a grid of zeros

    def test_broadcasts_arm_transmission_against_parameter(self):
        alpha = np.array([0.5, 0.05, 1e-3])[:, None]
        params = np.geomspace(*CHI_BOX, 5)
        rates = _free_rate_kernel("ekert", FIBER, alpha, params)
        assert rates.shape == (3, 5)
        for row, a in zip(rates, alpha[:, 0]):
            assert row.tolist() == _free_rate_kernel("ekert", FIBER, a, params).tolist()


def _on_arrays_and_floats(body, rows, array_args=(), float_args=()):
    """body's outputs for each row, from one call on arrays of the rows'
    columns and from one call per row on its floats; each call's trailing
    arguments, such as the power function, follow the columns."""
    def listed(out):
        return list(out) if isinstance(out, tuple) else [out]

    arrays = listed(body(*(np.array(column) for column in zip(*rows)), *array_args))
    on_arrays = [[float(out[i]) for out in arrays] for i in range(len(rows))]
    return on_arrays, [listed(body(*row, *float_args)) for row in rows]


def _rows(*columns):
    return st.lists(st.tuples(*columns), min_size=1, max_size=16)


# ec_efficiency's knots and the top of its domain, with the floats up to 3 ulp
# to either side that lie in the domain
_EC_EDGES = [0.0] + [
    e for knot in (0.01, 0.05, 0.1, 0.15, 0.5) for e in (knot + i * math.ulp(knot) for i in range(-3, 4)) if e < 0.5
]


class TestClosedFormBodies:
    """The closed-form bodies that the scalar path calls on floats and
    _free_rate_kernel on arrays. Those built from + - * / alone give the same
    bits either way; ** goes through libm's pow on floats and numpy's power on
    arrays."""

    unit = st.floats(0.0, 1.0)

    @given(_rows(unit, unit, st.floats(0.0, 0.5)).filter(lambda rows: all(s + n > 0.0 for s, n, _ in rows)))
    def test_error_fraction(self, rows):
        on_arrays, on_floats = _on_arrays_and_floats(_error_fraction, rows)
        assert on_arrays == on_floats

    @given(_rows(unit, st.floats(0.0, 0.25)))
    def test_pair_false(self, rows):
        on_arrays, on_floats = _on_arrays_and_floats(_pair_false, rows)
        assert on_arrays == on_floats

    @given(_rows(st.floats(0.0, 0.25), unit, unit, unit))
    def test_pdc_false(self, rows):
        on_arrays, on_floats = _on_arrays_and_floats(_pdc_false, rows)
        assert on_arrays == on_floats

    @given(_rows(unit, st.floats(1e-6, 20.0)))
    def test_poisson_clicks_with_the_kernel_exp(self, rows):
        on_arrays = np.array(_poisson_clicks(*(np.array(c) for c in zip(*rows)), _libm(math.exp))).T.tolist()
        assert on_arrays == [list(_poisson_clicks(a, nbar, math.exp)) for a, nbar in rows]

    @given(_rows(st.floats(0.0, 0.5)))
    def test_quadratic_bound(self, rows):
        on_arrays, on_floats = _on_arrays_and_floats(_quadratic_bound, rows)
        assert on_arrays == on_floats

    @given(_rows(st.one_of(st.floats(0.0, 0.5, exclude_max=True), st.sampled_from(_EC_EDGES))))
    def test_ec_segment_lookup(self, rows):
        def kernel_ec(e):
            return _ec_line(e, *np.array(_EC_SEGMENTS).T[:, np.searchsorted(_EC_KNOTS, e)])

        on_arrays, _ = _on_arrays_and_floats(kernel_ec, rows)
        assert on_arrays == [[ec_efficiency(e)] for e, in rows]

    # A last-bit gap in (1 - a)**2 grows by t2 / (1 - z) where 1 - z =
    # 1 - t2 (1 - a)^2 cancels, and by the power of 1 - z in a weight: to about
    # 2 eps t2 / (1 - z) at most, which the bound doubles. The example, at
    # 1 - z = 3.9e-5, differs by 1.1e-11 relative.
    @given(_rows(st.floats(1e-12, 1.0), st.floats(1e-3, 10.0)))
    @example([(1.8175316847974928e-05, 7.06368725207838)])
    @settings(max_examples=300)
    def test_pdc_weights_within_power_rounding(self, rows):
        rows = [(a, math.tanh(chi) ** 2, math.cosh(chi) ** 4) for a, chi in rows]
        on_arrays, on_floats = _on_arrays_and_floats(_pdc_weights, rows, (operator.pow,), (pow,))
        for (a, t2, _), got, want in zip(rows, on_arrays, on_floats):
            rtol = 1e-12 + 4.0 * np.finfo(float).eps * t2 / (1.0 - t2 * (1.0 - a) ** 2)
            assert np.allclose(got, want, rtol=rtol, atol=0.0), (got, want)

    # with libm's pow on arrays, as sweep rows take it, the weights have the
    # scalar's bits, at the same rows as the power-rounding test above
    @given(_rows(st.floats(0.0, 1.0), st.floats(1e-3, 10.0)))
    @example([(1.8175316847974928e-05, 7.06368725207838)])
    @settings(max_examples=300)
    def test_pdc_weights_with_libm_powers_bitwise(self, rows):
        rows = [(a, math.tanh(chi) ** 2, math.cosh(chi) ** 4) for a, chi in rows]
        on_arrays, on_floats = _on_arrays_and_floats(_pdc_weights, rows, (_libm(math.pow),), (pow,))
        assert [[v.hex() for v in row] for row in on_arrays] == [[v.hex() for v in row] for row in on_floats]


class TestScalarPathLayers:
    """A fixed-source point_rate reaches each traced function of its chain
    once, so the benchmark's per-layer counters see every layer."""

    RATE_CHAIN = ("ratecore.tau_multiphoton", "ratecore.tau", "ratecore.collision_bound",
                  "ratecore.binary_entropy", "ratecore.ec_efficiency")

    @pytest.mark.parametrize("protocol, src, chain", [
        ("bb84", IdealSingle(), ("sources.bb84_stats", "protocols.rate_bb84")),
        ("bb84", Poisson(0.05), ("sources.bb84_stats", "protocols.rate_bb84")),
        ("ekert", IdealEpr(), ("sources.ekert_ideal_stats", "protocols.rate_ekert")),
        ("ekert", Pdc(0.3), ("sources.pdc_stats", "sources.pdc_coefficients", "protocols.rate_ekert")),
        ("ekert", SwapChain(1), ("sources.swap_stats_from_segment", "protocols.rate_ekert")),
    ])
    def test_point_rate_counts_each_layer_once(self, protocol, src, chain, bench_module):
        tracing = bench_module("tracing")
        tracer = tracing.Tracer()
        tracer.install(tracing.namespaces())
        try:
            point = protocols.point_rate(protocol, src, FIBER, 10.0)
        finally:
            tracer.uninstall()
        assert point.rate > 0.0
        layers = ("protocols.", "sources.", "ratecore.")
        calls = {name: entry[0] for (name, _), entry in tracer.counters.items() if name.startswith(layers)}
        expected = ("protocols.point_rate", "protocols.point_stats") + chain + self.RATE_CHAIN
        assert calls == dict.fromkeys(expected, 1)

    @pytest.mark.parametrize("protocol, src", [
        ("bb84", IdealSingle()), ("bb84", Poisson(0.05)), ("ekert", IdealEpr()), ("ekert", Pdc(0.3)),
        ("ekert", SwapChain(1)),
    ], ids=["ideal-single", "poisson", "ideal-epr", "pdc", "swap"])
    def test_point_rate_checks_its_transmission_once(self, protocol, src):
        # one mock, wrapping the original, at both bindings: each call counts once
        checked = mock.Mock(wraps=channel.checked_transmission)
        with mock.patch.object(channel, "checked_transmission", checked), \
                mock.patch.object(sources, "checked_transmission", checked):
            point = point_rate(protocol, src, FIBER, 10.0)
        assert point.rate > 0.0
        assert checked.call_count == 1

    @pytest.mark.parametrize("src", [IdealSingle(), Poisson(0.05)], ids=["ideal-single", "poisson"])
    def test_bb84_point_checks_its_source_once(self, src):
        # point_stats' request check is the only one; bb84_stats checks a
        # source by its type and calls check_source only for a wrong one
        checked = mock.Mock(wraps=sources.check_source)
        with mock.patch.object(protocols, "check_source", checked), \
                mock.patch.object(sources, "check_source", checked):
            point = point_rate("bb84", src, FIBER, 10.0)
            stats = bb84_stats(src, 0.05, FIBER)
        assert point.rate > 0.0 and stats.p_click > 0.0
        assert checked.call_args_list == [mock.call("bb84", src)]

    @pytest.mark.parametrize("src", [IdealSingle(), Poisson(0.05)], ids=["ideal-single", "poisson"])
    def test_bb84_point_stats_equal_bb84_stats(self, src):
        for x in (0.0, 10.0, 80.0):
            t = protocols._transmissions("bb84", src, FIBER, x, "distance")
            assert point_stats("bb84", src, FIBER, x) == bb84_stats(src, t, FIBER)


class TestDetectorScaling:
    """Scaling eta and d by one power of two k scales every signal and noise
    term of an ideal source by k (IdealSingle) or k^2 (IdealEpr), exactly
    while every product stays a normal float (hence the floors on d and mu),
    so the error fraction, a ratio of such sums, keeps its bits. The other
    sources do not obey the relation: Poisson's 1 - exp(-alpha nbar) and
    PDC's weights are not linear in alpha, and almost every random case
    differs. Swap chains obey it only up to an ulp of pow's rounding, and
    not where a long literal-exponent chain underflows, so they are left
    out."""

    @given(
        sigma=st.floats(0.0, 0.5),
        eta=st.floats(1e-3, 0.25),  # p_click stays below 1 at k = 2
        receiver_loss_db=st.floats(0.0, 10.0),
        d=st.one_of(st.just(0.0), st.floats(1e-12, 1e-3)),
        mu=st.one_of(st.just(0.0), st.floats(1e-6, 0.49)),
        per_arm=st.booleans(),
        distance=st.floats(0.0, 400.0),
        k=st.sampled_from([0.5, 2.0, 0.25]),
        case=st.sampled_from([("bb84", IdealSingle()), ("ekert", IdealEpr())]),
    )
    @settings(max_examples=300, deadline=None)
    def test_error_fraction_keeps_its_bits(self, sigma, eta, receiver_loss_db, d, mu, per_arm, distance, k, case):
        protocol, src = case
        device = dict(sigma=sigma, eta=eta, receiver_loss_db=receiver_loss_db, d=d, mu=mu,
                      receiver_loss_per_arm=per_arm)
        plain = ChannelParams(**device)
        scaled = ChannelParams(**{**device, "eta": eta * k, "d": d * k})
        e = point_stats(protocol, src, plain, distance).e
        assert point_stats(protocol, src, scaled, distance).e.hex() == e.hex()


def _zero_rate_error():
    """e*, where tau(e) = f(e) h(e): at beta = 1 the rate changes sign there,
    whatever p_sift is. Bisected to the last bit on the rate's sign."""
    lo, hi = 0.05, 0.15
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if tau(mid) > ec_efficiency(mid) * binary_entropy(mid) else (lo, mid)
    return lo


class TestCutoff:
    @pytest.mark.parametrize("search", [(200.0, 100.0), (100.0, 100.0)], ids=["reversed", "empty"])
    @pytest.mark.parametrize("src", [None, IdealEpr()])
    def test_bracket_must_rise(self, search, src):
        with pytest.raises(ValueError, match="^search bracket must satisfy low < high$"):
            cutoff_distance("ekert", FIBER, search, src=src)

    def test_ordering_of_ideal_sources(self):
        ekert_cut = cutoff_distance("ekert", FIBER, (1.0, 400.0), src=IdealEpr())
        bb84_cut = cutoff_distance("bb84", FIBER, (1.0, 400.0), src=IdealSingle())
        assert bb84_cut < ekert_cut

    @pytest.mark.parametrize("search", [(1.0, 400.0), (1.0, 1000.0), (100.0, 250.0)])
    def test_ideal_pair_cutoff_against_its_closed_form_root(self, search):
        # At beta = 1 the rate vanishes where tau(e) = f(e) h(e), at e*,
        # whatever p_sift is. With p_true = alpha^2 and p_false = 8 alpha d +
        # 16 d^2, e = e* is the quadratic 2 (e* - mu) alpha^2 - 8 d (1 - 2e*)
        # alpha - 16 d^2 (1 - 2e*) = 0 in the arm transmission alpha, and the
        # loss budget of the two arms maps its root alpha* to the distance L*.
        e, d, mu = _zero_rate_error(), FIBER.d, FIBER.mu
        a, b, c = 2.0 * (e - mu), -8.0 * d * (1.0 - 2.0 * e), -16.0 * d * d * (1.0 - 2.0 * e)
        alpha = (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
        arm_db = -10.0 * math.log10(alpha / (FIBER.eta * 10.0 ** (-FIBER.receiver_loss_db / 10.0)))
        root = 2.0 * arm_db / FIBER.sigma
        assert e == pytest.approx(0.0979905, abs=1e-7)
        assert alpha == pytest.approx(1.92257e-3, rel=1e-5)
        assert root == pytest.approx(187.1390641741037, abs=1e-9)
        # the bisection stops at a 0.5 km bracket: criterion 01's 186.862 km on (1, 400)
        assert root - 0.5 <= cutoff_distance("ekert", FIBER, search, IdealEpr()) <= root
        assert point_rate("ekert", IdealEpr(), FIBER, root - 1e-3).rate_raw > 0.0
        assert point_rate("ekert", IdealEpr(), FIBER, root + 1e-3).rate_raw < 0.0

    @pytest.mark.parametrize("search", [(1.0, 1000.0), (1.0, 400.0), (5.0, 300.0)])
    def test_ideal_single_photon_cutoff_against_its_closed_form_root(self, search):
        # With p_click = alpha + 4d, e = (4d + 2 mu alpha) / (2 (alpha + 4d)),
        # which is linear in alpha at e = e*: alpha* = 2d (1 - 2e*) / (e* - mu),
        # and the loss budget of the one arm maps it to the distance L*.
        e, d, mu = _zero_rate_error(), FIBER.d, FIBER.mu
        alpha = 2.0 * d * (1.0 - 2.0 * e) / (e - mu)
        arm_db = -10.0 * math.log10(alpha / (FIBER.eta * 10.0 ** (-FIBER.receiver_loss_db / 10.0)))
        root = arm_db / FIBER.sigma
        assert alpha == pytest.approx(9.1376e-4, rel=1e-4)
        assert root == pytest.approx(109.72210260572406, abs=1e-9)
        # the bisection stops at a 0.5 km bracket: 109.290, 109.712 and 109.575 km
        assert root - 0.5 <= cutoff_distance("bb84", FIBER, search, IdealSingle()) <= root
        assert point_rate("bb84", IdealSingle(), FIBER, root - 1e-3).rate_raw > 0.0
        assert point_rate("bb84", IdealSingle(), FIBER, root + 1e-3).rate_raw < 0.0

    @given(lo=st.floats(1.0, 150.0), hi=st.floats(200.0, 5000.0))
    @settings(derandomize=True, deadline=None)
    def test_ideal_pair_cutoff_on_random_brackets(self, lo, hi):
        # L* from test_ideal_pair_cutoff_against_its_closed_form_root: the
        # bisection ends within its 0.5 km resolution below it from any bracket
        root = 187.1390641741037
        assert root - 0.5 <= cutoff_distance("ekert", FIBER, (lo, hi), IdealEpr()) <= root

    def test_no_dark_counts_means_no_cutoff(self):
        clean = ChannelParams(sigma=0.2, eta=0.18, receiver_loss_db=1.0, d=0.0, mu=0.01)
        with pytest.raises(ValueError, match="still positive"):
            cutoff_distance("ekert", clean, (1.0, 400.0), src=IdealEpr())

    def test_no_coverage_error(self):
        with pytest.raises(ValueError, match="zero at the lower"):
            cutoff_distance("ekert", FIBER, (300.0, 400.0), src=IdealEpr())

    @pytest.mark.parametrize("search, message", [
        ((1.0, math.inf), "abscissa must be finite, got inf"),
        ((-math.inf, 400.0), "abscissa must be non-negative, got -inf"),
        ((math.nan, 400.0), "abscissa must be non-negative, got nan"),
        ((1.0, math.nan), "abscissa must be non-negative, got nan"),
    ], ids=["search0", "search1", "search2", "search3"])
    @pytest.mark.parametrize("src", [None, IdealEpr()])
    def test_non_finite_bracket_rejected(self, search, message, src):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            cutoff_distance("ekert", FIBER, search, src=src)

    @pytest.mark.parametrize("search", [(True, 400.0), (1.0, "400"), (None, 400.0), (1.0, 1j)], ids=repr)
    @pytest.mark.parametrize("src", [None, Poisson(0.1)], ids=repr)
    def test_non_real_bracket_rejected(self, search, src):
        # (True, 400.0) once bisected from 1 km to a cutoff of 66.07 km
        non_real = next(end for end in search if type(end) is not float)
        message = f"abscissa must be a real number, got {non_real!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            cutoff_distance("bb84", FIBER, search, src=src)

    @pytest.mark.parametrize("src", [IdealEpr(), None])
    def test_bracket_past_float_resolution_stops(self, src):
        # past 2^52 km adjacent floats lie more than 0.5 km apart, so the
        # bisection must stop when its midpoint rounds to an end; a timer
        # turns a hang into a failure
        p = ChannelParams(sigma=1e-20, d=5e-5, eta=0.18, mu=0.01)

        def hang(signum, frame):
            raise TimeoutError("cutoff_distance did not return")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            km = cutoff_distance("ekert", p, (1.0, 1e22), src)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert 2.0**52 < km < 1e22
        assert point_rate("ekert", src, p, km).rate > 0.0
        assert point_rate("ekert", src, p, math.nextafter(km, math.inf)).rate == 0.0

    # Reference fiber devices with and without dark counts and with lossless
    # detectors, over brackets that hold a cutoff, whose upper edge still keeps
    # a key (ekert without dark counts), or whose lower edge keeps none. The
    # last bracket's midpoints are inexact, so they must be computed as the
    # bisection computes them.
    @pytest.mark.parametrize("protocol, outcomes", [
        ("bb84", {"cutoff", "rate is zero at the lower"}),
        ("ekert", {"cutoff", "rate is zero at the lower", "rate is still positive at the upper"}),
    ])
    def test_optimized_cutoff_matches_plain_bisection(self, protocol, outcomes):
        seen = set()
        for d in (0.0, 1e-7, 5e-5, 3e-3):
            for eta in (0.18, 1.0):
                p = ChannelParams(sigma=0.2, eta=eta, receiver_loss_db=1.0, d=d, mu=0.01)
                for search in ((1.0, 1000.0), (0.0, 300.0), (600.0, 2000.0), (1.1, 777.7)):
                    got = self._outcome(cutoff_distance, protocol, p, search)
                    assert got == self._outcome(_plain_bisection, protocol, p, search), (p, search)
                    seen.add(got.split(" search edge")[0] if isinstance(got, str) else "cutoff")
        assert seen == outcomes

    @staticmethod
    def _outcome(cutoff, protocol, p, search):
        try:
            return cutoff(protocol, p, search)
        except ValueError as err:
            return str(err)

    def test_probe_counts(self, monkeypatch):
        calls = {}

        def count(module, name):
            inner = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module, name in ((grid, "_free_rate_kernel"), (protocols, "optimize_source_param"),
                             (protocols, "point_rate")):
            count(module, name)
        cutoff_distance("ekert", FIBER, (1.0, 1000.0))
        assert calls.get("_free_rate_kernel", 0) <= 3
        assert "optimize_source_param" not in calls and "point_rate" not in calls
        calls.clear()
        # the edges and the 11 steps from a 999 km bracket down to 0.5 km
        cutoff_distance("ekert", FIBER, (1.0, 1000.0), src=IdealEpr())
        assert calls == {"point_rate": 13}


# Every rate entry point as (protocol, src, mode, abscissa) -> result, with
# whether it takes a source and a mode. A cutoff's abscissa is its lower
# search edge, a sweep's its start.
_ENTRY_POINTS = {
    "point_stats": (lambda protocol, src, mode, x: point_stats(protocol, src, FIBER, x, mode), True, True),
    "point_rate": (lambda protocol, src, mode, x: point_rate(protocol, src, FIBER, x, mode), True, True),
    "point_rate-free": (lambda protocol, src, mode, x: point_rate(protocol, None, FIBER, x, mode), False, True),
    "optimize_source_param": (lambda protocol, src, mode, x: optimize_source_param(protocol, FIBER, x, mode),
                              False, True),
    "cutoff_distance-free": (lambda protocol, src, mode, x: cutoff_distance(protocol, FIBER, (x, 400.0)),
                             False, False),
    "cutoff_distance-fixed": (lambda protocol, src, mode, x: cutoff_distance(protocol, FIBER, (x, 400.0), src),
                              True, False),
    "SweepSpec": (lambda protocol, src, mode, x: SweepSpec(protocol, FIBER, src, x, 50.0, 1.0, mode), True, True),
}
_VALID_REQUEST = ("bb84", Poisson(0.1), "distance", 1.0)
# (id, what replaces the valid request's protocol, source, mode or
# abscissa, the message); a malformed source needs an entry point that
# takes one, and a malformed mode one that takes a mode.
_MALFORMED_REQUESTS = [
    ("unknown-protocol", {"protocol": "bb85"}, "unknown protocol 'bb85'; expected one of ('bb84', 'ekert')"),
    ("mismatched-source", {"protocol": "ekert"}, "source 'poisson' does not serve protocol 'ekert'"),
    ("unknown-mode", {"mode": "bogus"}, "unknown sweep mode 'bogus'; expected one of ('distance', 'total-loss')"),
    ("bool", {"x": True}, "abscissa must be a real number, got True"),
    ("str", {"x": "10"}, "abscissa must be a real number, got '10'"),
    ("None", {"x": None}, "abscissa must be a real number, got None"),
    ("nan", {"x": math.nan}, "abscissa must be non-negative, got nan"),
    ("negative", {"x": -1.0}, "abscissa must be non-negative, got -1.0"),
    ("infinite", {"x": math.inf}, "abscissa must be finite, got inf"),
]


class TestRequestRule:
    """Every rate entry point rejects a malformed request the same way:
    point_rate with a zero-rate point whose note is the error, the others
    with the ValueError."""

    @pytest.mark.parametrize("entry", _ENTRY_POINTS)
    def test_valid_request_passes(self, entry):
        call = _ENTRY_POINTS[entry][0]
        result = call(*_VALID_REQUEST)
        if isinstance(result, RatePoint):
            assert result.note == "" and result.rate > 0.0

    @pytest.mark.parametrize("entry, change, message", [
        pytest.param(entry, change, message, id=f"{entry}-{case}")
        for entry, (_, takes_source, takes_mode) in _ENTRY_POINTS.items()
        for case, change, message in _MALFORMED_REQUESTS
        if (takes_source or case != "mismatched-source") and (takes_mode or case != "unknown-mode")
    ])
    def test_malformed_request_names_its_cause(self, entry, change, message):
        call = _ENTRY_POINTS[entry][0]
        request = dict(zip(("protocol", "src", "mode", "x"), _VALID_REQUEST), **change)
        if entry.startswith("point_rate"):
            point = call(**request)
            assert (point.rate_raw, point.optimal_param, point.stats) == (0.0, None, None)
            assert point.note == message
        else:
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                call(**request)

    def test_unknown_protocol_has_no_cutoff(self):
        # "bb85" once bisected to the PDC Ekert cutoff, 160.3662109375 km
        with pytest.raises(ValueError, match="^unknown protocol 'bb85'"):
            cutoff_distance("bb85", FIBER, (1.0, 400.0))

    def test_mismatched_cutoff_source_is_named(self):
        # once "rate is zero at the lower search edge 1.0 km"
        with pytest.raises(ValueError, match="^source 'poisson' does not serve protocol 'ekert'$"):
            cutoff_distance("ekert", FIBER, (1.0, 400.0), Poisson(0.1))


def _bits(point):
    """A RatePoint as a tuple that tells its floats apart bit for bit, -0.0
    from 0.0 included."""
    def hexed(value):
        return None if value is None else float(value).hex()

    stats = None
    if point.stats is not None:
        stats = (type(point.stats).__name__, *map(hexed, vars(point.stats).values()))
    return hexed(point.abscissa), hexed(point.rate_raw), hexed(point.optimal_param), stats, point.note


def _outcome(rows):
    """The bits of each point that rows() returns, or the error it raises."""
    try:
        return [_bits(point) for point in rows()]
    except (ArithmeticError, ValueError) as err:
        return type(err).__name__, str(err)


def _arm(protocol, p, xs, mode="distance"):
    """The free source's arm transmissions at the abscissas xs."""
    return _transmissions(protocol, None, p, np.array(xs, dtype=float), mode, _ROW_MATHS.power)


def _scalar_rows(spec):
    """The rows of a sweep one scalar call at a time: point_rate at a fixed
    source, or at the free source of the lockstep optimizer's parameter,
    which the row carries."""
    xs = spec.grid()
    if spec.source is not None:
        return [point_rate(spec.protocol, spec.source, spec.params, x, spec.mode) for x in xs]
    alpha = _arm(spec.protocol, spec.params, xs, spec.mode)
    params = _optimal_params(spec.protocol, spec.params, alpha).tolist()
    return [
        dataclasses.replace(
            point_rate(spec.protocol, _free_source(spec.protocol, v), spec.params, x, spec.mode), optimal_param=v
        )
        for x, v in zip(xs, params)
    ]


_DARK_COUNTS = st.one_of(
    st.just(0.0),
    st.floats(0.0, 0.2499),
    # past bb84's linear model from 0.25 on; a subnormal d makes beta -inf far out
    st.sampled_from([5e-324, 1e-300, math.nextafter(0.25, 0.0), 0.25, 0.3, 0.9]),
)
_CHANNELS = st.builds(
    ChannelParams,
    sigma=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    eta=st.floats(1e-3, 1.0),
    receiver_loss_db=st.floats(0.0, 10.0),
    d=_DARK_COUNTS,
    mu=st.one_of(st.just(0.0), st.floats(0.0, 0.4999)),
    receiver_loss_per_arm=st.booleans(),
)
_CURVES = st.one_of(
    st.tuples(st.just("bb84"), st.one_of(
        st.just(IdealSingle()), st.builds(Poisson, st.floats(1e-6, 20.0)), st.none(),
    )),
    st.tuples(st.just("ekert"), st.one_of(
        st.just(IdealEpr()),
        # cosh(200)**4 and cosh(800) overflow; from about 19 on tanh(chi)**2 is 1
        st.builds(Pdc, st.one_of(st.floats(1e-3, 3.0), st.sampled_from([25.0, 200.0, 800.0]))),
        st.builds(SwapChain, st.integers(1, 4), st.booleans()),
        st.just(SwapChain(2000)),
        st.none(),
    )),
)
# a -0.0 start, and grids far enough out that every transmission underflows
_GRIDS = st.tuples(
    st.one_of(st.just(-0.0), st.just(0.0), st.floats(0.0, 5000.0)),
    st.floats(0.1, 2000.0),
    st.integers(1, 24),
)


class TestSweepRows:
    """sweep rates a curve's rows in one array pass; every row must be the
    scalar path's, bit for bit, note for note."""

    @given(_CHANNELS, _CURVES, _GRIDS, st.sampled_from(["distance", "total-loss"]))
    @example(ChannelParams(sigma=1.0, d=0.0, mu=0.0), ("ekert", IdealEpr()), (0.0, 1000.0, 10), "distance")
    @example(ChannelParams(d=0.25), ("bb84", None), (0.0, 10.0, 5), "distance")
    @example(ChannelParams(d=0.25), ("bb84", Poisson(0.1)), (-0.0, 10.0, 5), "distance")
    @example(FIBER, ("ekert", Pdc(800.0)), (0.0, 10.0, 5), "total-loss")
    @example(FIBER, ("ekert", Pdc(200.0)), (0.0, 10.0, 5), "distance")
    @example(FIBER, ("ekert", SwapChain(3, literal_exponent=True)), (-0.0, 20.0, 12), "distance")
    @example(ChannelParams(sigma=0.2, eta=1.0, d=5e-324), ("bb84", None), (0.0, 700.0, 8), "total-loss")
    @example(ChannelParams(sigma=1.0, d=0.25), ("bb84", IdealSingle()), (0.0, 2000.0, 5), "distance")
    # lossless devices whose first rows leave the first-order dark-count
    # model: the pair's p_true + p_false, and a Bell analyzer's p_swap, past 1
    @example(ChannelParams(sigma=0.2, eta=1.0, d=5e-5, mu=0.01), ("ekert", IdealEpr()), (0.0, 0.005, 5), "distance")
    @example(ChannelParams(sigma=0.0, eta=0.78125, receiver_loss_db=0.0, d=0.16796875, mu=0.0,
                           receiver_loss_per_arm=False), ("ekert", SwapChain(2)), (0.0, 1.0, 5), "total-loss")
    # here p_swap alone passes 1, on the first three rows; the rest are rated
    @example(ChannelParams(sigma=0.0, eta=1.0, receiver_loss_db=30.0, d=0.08, mu=0.0), ("ekert", SwapChain(1)),
             (0.0, 0.2, 6), "total-loss")
    @settings(max_examples=150, deadline=None)
    def test_rows_match_the_scalar_path(self, p, curve, grid, mode):
        protocol, src = curve
        start, step, rows = grid
        spec = SweepSpec(protocol, p, src, start, start + step * rows, step, mode)
        assert _outcome(lambda: sweep(spec).points()) == _outcome(lambda: _scalar_rows(spec))
        # the array pass must reject exactly the rows that the scalar path
        # rejects: the fallback hides a mask that is too strict
        xs = spec.grid()
        try:
            t = _transmissions(protocol, src, p, np.array(xs), mode, _ROW_MATHS.power)
            params = None if src is not None else _optimal_params(protocol, p, t)
            ok = _rate_columns(protocol, src, p, t, _ROW_MATHS, params)[2]
        except (ArithmeticError, ValueError):
            return
        for i, x in enumerate(xs):
            try:
                point_stats(protocol, src if params is None else _free_source(protocol, params.item(i)), p, x, mode)
                returns = True
            except (OverflowError, ValueError):
                returns = False
            assert ok[i] == returns, (i, x)

    # numpy's log2, exp and power miss libm's bits on a few inputs in a
    # thousand, so dense curves show a row that took them
    @pytest.mark.parametrize("protocol, src, reach_km", [
        ("bb84", IdealSingle(), 300.0), ("bb84", Poisson(0.05), 30.0), ("ekert", IdealEpr(), 300.0),
        ("ekert", Pdc(0.2), 300.0), ("ekert", SwapChain(2), 600.0),
    ])
    def test_dense_curves_bitwise(self, protocol, src, reach_km):
        for mode, stop in (("distance", reach_km), ("total-loss", FIBER.sigma * reach_km)):
            spec = SweepSpec(protocol, FIBER, src, 0.0, stop, stop / 1000.0, mode)
            points = sweep(spec).points()
            assert sum(point.rate > 0.0 for point in points) > 100
            assert [_bits(point) for point in points] == [_bits(point) for point in _scalar_rows(spec)]

    def test_row_with_an_error_fraction_past_one_half_falls_back(self):
        # at 6150 dB p_true underflows to 0 and p_false is a few subnormals;
        # noise / 2 once rounded up there, so e exceeded 1/2 and the array
        # pass let through a row whose statistics the curve then failed to build
        p = ChannelParams(sigma=0.0, eta=0.706617228814142, receiver_loss_db=9.940726124912876,
                          d=0.1263829421901956, mu=0.15607752848547005)
        step = 768.7506813590423
        spec = SweepSpec("ekert", p, SwapChain(2000), 0.0, 9 * step, step, "total-loss")
        points = sweep(spec).points()
        assert [_bits(point) for point in points] == [_bits(point) for point in _scalar_rows(spec)]
        # a sift total of a few subnormals leaves e to rounding: the row, as
        # point_rate, notes the floor and rates 0
        assert points[8].note == "degenerate statistics: coincidence probability is below the smallest normal float"
        assert points[8].stats is None
        assert points[8].rate_raw == 0.0

    @pytest.mark.parametrize("protocol", ["bb84", "ekert"])
    @pytest.mark.parametrize("mode", ["distance", "total-loss"])
    def test_free_source_curve_computes_its_transmissions_once(self, protocol, mode):
        # the optimizer and the row pass share them
        spec = SweepSpec(protocol, FIBER, None, 0.0, 20.0, 2.0, mode)
        with mock.patch("qkdrates.grid._transmissions", wraps=_transmissions) as transmissions:
            curve = sweep(spec)
        assert not curve.notes  # no row fell back to point_rate, which computes its own
        assert transmissions.call_count == 1

    def test_columns_are_the_points(self):
        spec = SweepSpec("bb84", ChannelParams(d=0.0, mu=0.0, sigma=20.0), Poisson(0.1), -0.0, 40.0, 4.0)
        curve = sweep(spec)
        points = sweep(spec).points()
        assert curve.points() == points
        assert [_bits(point) for point in points] == [_bits(point) for point in _scalar_rows(spec)]
        # from 8 km on, exp(-alpha nbar) rounds to 1 and no click is left
        assert {i: points[i].note for i in curve.notes} == {
            i: "degenerate statistics: click probability is zero" for i in range(2, 11)
        }
        assert [column.tolist()[2:] for column in curve.stats] == [[0.0] * 9] * 3


def _one_step_params(protocol, p, alpha):
    """_optimal_params with one golden-section step per kernel call, the
    reference that the two-step loop must reproduce bit for bit; also the
    number of steps each row takes (None for a row at the box midpoint)."""
    lo, hi = NBAR_BOX if protocol == "bb84" else CHI_BOX
    params, steps = [0.5 * (lo + hi)] * len(alpha), [None] * len(alpha)
    best, top = _coarse_maxima(protocol, p, alpha)
    found = np.flatnonzero(top > 0.0)
    if not found.size:
        return params, steps
    alpha, best, top = alpha[found], best[found], top[found]
    grid = protocols._coarse_params(lo, hi)
    logs = np.array([math.log(g) for g in grid])

    def rate(param):
        return _free_rate_kernel(protocol, p, alpha, param)

    golden = protocols._GOLDEN
    a = logs[np.maximum(best - 1, 0)]
    b = logs[np.minimum(best + 1, protocols._COARSE_POINTS - 1)]
    x1 = b - golden * (b - a)
    x2 = a + golden * (b - a)
    f1, f2 = rate(np.exp(np.stack([x1, x2])))
    active = b - a > protocols._REL_TOL
    taken = np.zeros(len(found), dtype=int)
    while active.any():
        taken += active
        up = f1 < f2
        a = np.where(active & up, x1, a)
        b = np.where(active & ~up, x2, b)
        probe = np.where(up, a + golden * (b - a), b - golden * (b - a))
        f = rate(np.exp(probe))
        x1, x2 = np.where(up, x2, probe), np.where(up, probe, x1)
        f1, f2 = np.where(up, f2, f), np.where(up, f, f1)
        active = b - a > protocols._REL_TOL
    param = np.array([math.exp(v) for v in (0.5 * (a + b)).tolist()])
    param = np.where(rate(param) < top, np.take(grid, best), param)
    for i, v, n in zip(found.tolist(), param.tolist(), taken.tolist()):
        params[i], steps[i] = v, n
    return params, steps


def _hexes(values):
    return [float(v).hex() for v in values]


# The channel of test_optimum_at_the_box_edge: its bb84 optimum falls below
# NBAR_BOX from about 197 km on.
_BOX_EDGE = ChannelParams(sigma=0.2, eta=1.0, mu=0.01)


class TestTwoStepGoldenSection:
    """_optimal_params takes two golden-section steps per kernel call; every
    row must end where the one-step loop ends, bit for bit."""

    @given(_CHANNELS, st.sampled_from(["bb84", "ekert"]), _GRIDS, st.sampled_from(["distance", "total-loss"]))
    @example(_BOX_EDGE, "bb84", (180.0, 1.0, 30), "distance")
    @example(FIBER, "ekert", (0.0, 10.0, 20), "distance")
    @example(FIBER, "bb84", (0.0, 1.0, 24), "total-loss")
    @settings(max_examples=150, deadline=None)
    def test_equals_the_one_step_loop_bitwise(self, p, protocol, grid, mode):
        start, step, rows = grid
        xs = SweepSpec(protocol, p, None, start, start + step * rows, step, mode).grid()
        alpha = _arm(protocol, p, xs, mode)
        want, _ = _one_step_params(protocol, p, alpha)
        assert _hexes(_optimal_params(protocol, p, alpha).tolist()) == _hexes(want)

    # a bracket around an edge grid point is half as wide, so its row takes
    # fewer steps: rows close after an odd number of steps on a call, and
    # after an even number on a step replayed from the foreseen rates
    @pytest.mark.parametrize("protocol, p, xs, closing", [
        ("bb84", _BOX_EDGE, [180.0 + i for i in range(31)], {16, 17}),
        ("bb84", _BOX_EDGE, [200.0 + i for i in range(11)], {16}),
        ("bb84", FIBER, [2.0 * i for i in range(12)], {17}),
        ("ekert", FIBER, [10.0 * i for i in range(16)], {17}),
    ], ids=["edge-and-interior", "edge-only", "bb84-interior", "ekert-interior"])
    def test_rows_closing_after_odd_and_even_steps(self, protocol, p, xs, closing):
        alpha = _arm(protocol, p, xs)
        want, steps = _one_step_params(protocol, p, alpha)
        assert set(steps) - {None} == closing
        assert _hexes(_optimal_params(protocol, p, alpha).tolist()) == _hexes(want)

    def test_two_steps_per_kernel_call(self):
        alpha = _arm("bb84", _BOX_EDGE, [180.0 + i for i in range(31)])
        with mock.patch("qkdrates.grid._free_rate_kernel", wraps=_free_rate_kernel) as kernel:
            _optimal_params("bb84", _BOX_EDGE, alpha)
        # one coarse block, the first two probes, 17 steps in 8 calls (no row
        # reads the last step's probe), and the midpoints; one step a call took 20
        assert kernel.call_count == 1 + 1 + 8 + 1


def _plain_bisection(protocol, p, search):
    """cutoff_distance with a free source as one optimization per probe: the
    reference that the batched probes must reproduce exactly."""
    def positive(km):
        return optimize_source_param(protocol, p, km).rate > 0.0

    lo, hi = search
    if not positive(lo):
        raise ValueError(f"rate is zero at the lower search edge {lo} km; no cutoff to bracket")
    if positive(hi):
        raise ValueError(f"rate is still positive at the upper search edge {hi} km; widen the bracket")
    while hi - lo > 0.5:
        mid = 0.5 * (lo + hi)
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return lo


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
        points = sweep(spec).points()
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
        rates = [pt.rate for pt in sweep(spec).points()]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert rates[0] > 0.0
        assert rates[-1] == 0.0

    def test_optimized_sweep_records_parameter(self):
        spec = SweepSpec(
            protocol="ekert", params=FIBER, source=None, start=25.0, stop=50.0, step=25.0
        )
        for pt in sweep(spec).points():
            assert pt.optimal_param is not None
            assert 0.0 < pt.optimal_param < 1.5

    @pytest.mark.parametrize("protocol, src", [
        ("bb84", None), ("ekert", None), ("bb84", IdealSingle()), ("ekert", SwapChain(1)),
    ])
    def test_loss_past_float_range_leaves_no_transmission(self, protocol, src):
        # sigma x passes the float range and is inf, as on floats; the array
        # passes once warned of the overflow, which pytest makes an error
        p = ChannelParams(sigma=1e308, d=5e-5, mu=0.01)
        points = sweep(SweepSpec(protocol, p, src, 4.0, 12.0, 4.0)).points()
        assert [_bits(pt) for pt in points] == [_bits(point_rate(protocol, src, p, x)) for x in (4.0, 8.0, 12.0)]
        assert [pt.rate for pt in points] == [0.0] * 3
        with pytest.raises(ValueError, match="rate is zero at the lower search edge"):
            cutoff_distance(protocol, p, (1.0, 500.0), src)

    def test_rows_past_the_analyzer_limit_leave_the_pass_rating_the_rest(self):
        # at d = 0.168 a Bell analyzer near the source fires with p_swap > 1,
        # where p_swap^2000 would overflow; the pass takes a base of 0 there
        # and rejects those rows, and the far rows keep the pass's statistics
        p = ChannelParams(sigma=0.0, eta=0.78125, receiver_loss_db=0.0, d=0.16796875, mu=0.0,
                          receiver_loss_per_arm=False)
        spec = SweepSpec("ekert", p, SwapChain(2000), 0.0, 24 * 293.0, 293.0, "total-loss")
        points = sweep(spec).points()
        assert [_bits(pt) for pt in points] == [_bits(pt) for pt in _scalar_rows(spec)]
        assert points[0].stats is None and points[0].note
        assert points[-1].stats is not None and not points[-1].note

    def test_optimum_at_the_box_edge(self):
        # without dark counts the bb84 optimum falls below NBAR_BOX from about
        # 197 km on; those rows bracket the edge grid point, stop their search
        # before the interior rows and fall back to the grid point
        p = ChannelParams(sigma=0.2, eta=1.0, mu=0.01)
        spec = SweepSpec(protocol="bb84", params=p, source=None, start=180.0, stop=210.0, step=1.0)
        points = sweep(spec).points()
        edge = [pt for pt in points if pt.optimal_param < 1.0001e-4]
        assert 5 <= len(edge) < len(points)
        for pt in points:
            assert pt.rate > 0.0
            assert pt == point_rate("bb84", None, p, pt.abscissa)

    @pytest.mark.parametrize("protocol", ["bb84", "ekert"])
    def test_optimized_sweep_memory_peak(self, protocol):
        # the coarse grid runs in row blocks; all 300 rows x 64 parameters at
        # once would hold megabytes of temporaries
        spec = SweepSpec(protocol=protocol, params=FIBER, source=None, start=0.0, stop=299.0, step=1.0)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            points = sweep(spec).points()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(points) == 300
        assert peak <= 2 * 2**20, f"a 300-row sweep peaked at {peak / 2**20:.2f} MiB"

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

    @pytest.mark.parametrize("field", ["start", "stop", "step"])
    @pytest.mark.parametrize("value", [True, "5", None], ids=repr)
    def test_non_real_grid_rejected(self, field, value):
        bounds = {"start": 0.0, "stop": 10.0, "step": 1.0, field: value}
        message = f"abscissa must be a real number, got {value!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            SweepSpec(protocol="bb84", params=FIBER, source=None, **bounds)

    def test_rate_point_clamps_its_raw_rate(self):
        assert RatePoint(abscissa=0.0, rate_raw=-1e-6).rate == 0.0
        assert RatePoint(abscissa=0.0, rate_raw=3.5e-7).rate == 3.5e-7

    @given(st.floats(min_value=0.0, max_value=200.0))
    @settings(max_examples=50, deadline=None)
    def test_raw_rate_bounded_by_sift_fraction(self, km):
        pt = point_rate("ekert", IdealEpr(), FIBER, km)
        if pt.stats is not None:
            assert pt.rate_raw <= 0.5 * pt.stats.p_coin + 1e-15


def _inline_budget(pt, n_tot, sec):
    """The key budget as the rate report once sized it inline, kept as the
    reference for RatePoint.key_budget: None at rate 0, with no sifted bit,
    or at e >= 1/2."""
    if pt.rate == 0.0:
        return None
    if isinstance(pt.stats, ClickStats):
        p_sift, beta = pt.stats.p_click, pt.stats.beta
    else:
        p_sift, beta = pt.stats.p_coin, 1.0
    n_rec = int(n_tot * p_sift / 2.0)
    if not (n_rec > 0 and pt.stats.e < 0.5):
        return None
    kappa = ec_leak_bits(n_rec, pt.stats.e)
    return final_key_length(n_rec, pt.stats.e, kappa, sec, beta)


def _four_argument_budget(pt, n_tot, sec):
    """final_key_length without beta, at tau(e): the sizing that counts a
    bb84 point's multi-photon pulses as secure."""
    n_rec = int(n_tot * pt.stats.p_click / 2.0)
    return final_key_length(n_rec, pt.stats.e, ec_leak_bits(n_rec, pt.stats.e), sec)


def _fields(budget):
    return None if budget is None else dataclasses.astuple(budget)


_SHIPPED_POINTS = [
    (name, key, x)
    for name, key, xs in [
        ("fig3a_fiber", "distance_km", (0.0, 20.0, 50.0, 150.0, 400.0)),
        ("fig3b_freespace", "total_loss_db", (0.0, 4.0, 10.0, 30.0, 80.0)),
        ("fig5_swaps", "distance_km", (0.0, 20.0, 50.0, 150.0, 400.0)),
    ]
    for x in xs
]


def _seeded_device(rng):
    """A device whose sigma, eta, receiver loss, d and mu are drawn from rng."""
    return ChannelParams(sigma=rng.uniform(0.15, 0.35), eta=rng.uniform(0.05, 0.8),
                         receiver_loss_db=rng.uniform(0.0, 3.0), d=10.0 ** rng.uniform(-8.0, -3.0),
                         mu=rng.uniform(0.0, 0.05))


class TestKeyBudget:
    @pytest.mark.parametrize("name, key, x", _SHIPPED_POINTS)
    def test_shipped_points_match_the_inline_sizing(self, name, key, x):
        raw = json.loads((resources.files("qkdrates") / "configs" / f"{name}.json").read_text())
        del raw["sweep"]
        config = parse_config({**raw, "point": {key: x}})
        for curve in config.curves:
            pt = point_rate(curve.protocol, curve.source, config.channel, config.point, config.mode)
            expected = _inline_budget(pt, config.n_tot, config.security)
            assert _fields(pt.key_budget(config.n_tot, config.security)) == _fields(expected)

    def test_no_budget_where_the_rate_is_zero(self):
        # the four-argument sizing gives this zero-rate point a key
        sec = SecurityParams(s=30, t=30)
        pt = point_rate("bb84", Poisson(0.1), FIBER, 18.0)
        assert pt.rate == 0.0 and pt.stats is not None
        assert pt.key_budget(10**9, sec) is None
        assert _four_argument_budget(pt, 10**9, sec).r == 2_142_381

    def test_bb84_budget_counts_only_untagged_bits(self):
        # dropping beta gives 3,301,376 bits at a secure fraction of 0.8876
        sec = SecurityParams(s=30, t=30)
        pt = point_rate("bb84", Poisson(0.1), FIBER, 10.0)
        budget = pt.key_budget(10**9, sec)
        assert budget.r == 991_407
        assert budget.tau_bits == pytest.approx(0.3844, abs=5e-5)
        four = _four_argument_budget(pt, 10**9, sec)
        assert (four.n_rec, four.kappa) == (budget.n_rec, budget.kappa)
        assert four.r == 3_301_376
        assert four.tau_bits == pytest.approx(0.8876, abs=5e-5)

    def test_no_budget_without_a_sifted_bit(self):
        pt = point_rate("ekert", IdealEpr(), FIBER, 10.0)
        assert pt.rate > 0.0
        assert pt.key_budget(1, SecurityParams()) is None
        assert pt.key_budget(10**9, SecurityParams()).n_rec == int(10**9 * pt.stats.p_coin / 2.0)

    def test_seeded_devices_never_size_a_zero_rate_point(self):
        rng = random.Random(34)
        sources = {
            "bb84": [IdealSingle(), Poisson(0.1), Poisson(0.6), None],
            "ekert": [IdealEpr(), Pdc(0.2), Pdc(0.9), SwapChain(1), None],
        }
        sec = SecurityParams(s=30, t=30)
        sized = zero = 0
        for _ in range(80):
            p = _seeded_device(rng)
            x = rng.choice([rng.uniform(0.0, 100.0), rng.uniform(0.0, 300.0), rng.uniform(300.0, 2000.0), 1e5])
            n_tot = rng.choice([10, 10**6, 10**9, 10**12])
            for protocol, srcs in sources.items():
                for src in srcs:
                    pt = point_rate(protocol, src, p, x)
                    budget = pt.key_budget(n_tot, sec)
                    assert _fields(budget) == _fields(_inline_budget(pt, n_tot, sec))
                    if pt.rate == 0.0:
                        assert budget is None
                        zero += 1
                    sized += budget is not None
        assert sized > 100 and zero > 100, (sized, zero)


def _cutoff_or_edge(protocol, p, src):
    """cutoff_distance on (1, 2000) km, or -inf where the rate is already
    zero at the lower edge (a cutoff below the bracket) and +inf where it
    is still positive at the upper one."""
    try:
        return cutoff_distance(protocol, p, (1.0, 2000.0), src)
    except ValueError as err:
        if "lower search edge" in str(err):
            return -math.inf
        if "upper search edge" in str(err):
            return math.inf
        raise


class TestCutoffMonotone:
    """A worse device never moves the cutoff out: raising d, sigma or mu by
    half, or the receiver loss by 1 dB, raises it by no more than the
    bisection's 0.5 km resolution; a better detector (eta by half, capped
    at 1) never lowers it."""

    def test_cutoffs_move_with_the_device(self):
        rng = random.Random(5)
        cases = [("ekert", IdealEpr()), ("bb84", IdealSingle()), ("ekert", Pdc(0.2)), ("bb84", Poisson(0.1)),
                 ("ekert", SwapChain(1)), ("bb84", None), ("ekert", None)]
        worse = {
            "d": lambda p: dataclasses.replace(p, d=1.5 * p.d),
            "sigma": lambda p: dataclasses.replace(p, sigma=1.5 * p.sigma),
            "mu": lambda p: dataclasses.replace(p, mu=1.5 * p.mu),
            "receiver loss": lambda p: dataclasses.replace(p, receiver_loss_db=p.receiver_loss_db + 1.0),
        }
        violations, pairs = [], 0
        for _ in range(12):
            p = ChannelParams(sigma=rng.uniform(0.15, 0.35), eta=rng.uniform(0.1, 0.7),
                              receiver_loss_db=rng.uniform(0.0, 3.0), d=10.0 ** rng.uniform(-7.0, -4.0),
                              mu=rng.uniform(0.0, 0.03))
            for protocol, src in cases:
                base = _cutoff_or_edge(protocol, p, src)
                for change, make in worse.items():
                    moved = _cutoff_or_edge(protocol, make(p), src)
                    pairs += 1
                    if moved > base + 0.5:
                        violations.append((p, protocol, src, change, base, moved))
                better = _cutoff_or_edge(protocol, dataclasses.replace(p, eta=min(1.0, 1.5 * p.eta)), src)
                pairs += 1
                if better < base:
                    violations.append((p, protocol, src, "eta", base, better))
        assert pairs == 420
        assert violations == []


class TestRateRelations:
    """Relations between rates that hold on any device: a distance is its
    loss, a fixed source's rate falls with distance, and the optimizer finds
    at least what a dense grid of its box finds."""

    FIXED = [("bb84", IdealSingle()), ("bb84", Poisson(0.1)), ("bb84", Poisson(0.6)), ("ekert", IdealEpr()),
             ("ekert", Pdc(0.2)), ("ekert", Pdc(0.9)), ("ekert", SwapChain(1)),
             ("ekert", SwapChain(2, literal_exponent=True))]

    def test_distance_is_its_loss_and_rates_fall_with_it(self):
        rng = random.Random(35)
        kms = [2.5 * i for i in range(1, 241)]
        mismatches, rises, positive = [], [], 0
        for _ in range(40):
            p = _seeded_device(rng)
            for protocol, src in self.FIXED:
                previous = math.inf
                for km in kms:
                    by_distance = point_rate(protocol, src, p, km)
                    by_loss = point_rate(protocol, src, p, p.sigma * km, "total-loss")
                    if by_distance.note != by_loss.note or not math.isclose(
                            by_distance.rate_raw, by_loss.rate_raw, rel_tol=1e-12):
                        mismatches.append((p, src, km, by_distance, by_loss))
                    if by_distance.rate > previous:
                        rises.append((p, src, km, previous, by_distance.rate))
                    previous = by_distance.rate
                    positive += previous > 0.0
        assert mismatches == [] and rises == []
        assert positive > 10_000, positive

    def test_lossless_devices_leave_the_model_only_at_the_near_end(self):
        # at eta = 1 with no receiver loss, the nearest points can lie outside
        # the first-order dark-count model: they come first, each carries the
        # domain note, and from the first rated point on no rate rises
        rng = random.Random(38)
        kms = [0.0] + [10.0 ** (k / 4.0) for k in range(-24, 0)] + [2.5 * i for i in range(1, 121)]
        faults, outside = [], 0
        for _ in range(40):
            p = ChannelParams(sigma=rng.uniform(0.15, 0.35), eta=1.0, receiver_loss_db=0.0,
                              d=10.0 ** rng.uniform(-8.0, -2.0), mu=rng.uniform(0.0, 0.05))
            for protocol, src in self.FIXED:
                points = [point_rate(protocol, src, p, km) for km in kms]
                first = next(i for i, pt in enumerate(points) if pt.stats is not None)
                noted = [(pt.note or "").endswith(", outside the first-order dark-count model") for pt in points]
                rates = [pt.rate for pt in points[first:]]
                outside += first
                if noted != [True] * first + [False] * (len(kms) - first) or any(
                        b > a for a, b in zip(rates, rates[1:])):
                    faults.append((p, src, first, points[:first + 1]))
        assert faults == []
        assert outside > 100, outside

    def test_optimum_is_at_least_a_dense_grid_maximum(self):
        rng = random.Random(35)
        grids = {"bb84": np.geomspace(*NBAR_BOX, 4001), "ekert": np.geomspace(*CHI_BOX, 4001)}
        shortfalls, positive = [], 0
        for _ in range(40):
            p = _seeded_device(rng)
            for protocol, grid in grids.items():
                for km in (1.0, 100.0, rng.uniform(0.0, 50.0), rng.uniform(0.0, 150.0), rng.uniform(50.0, 300.0),
                           rng.uniform(0.0, 600.0)):
                    best = optimize_source_param(protocol, p, km).rate
                    alpha = _transmissions(protocol, None, p, km, "distance")
                    top = _free_rate_kernel(protocol, p, alpha, grid).max().item()
                    positive += top > 0.0
                    if best < top * (1.0 - 1e-6):
                        shortfalls.append((p, protocol, km, best, top))
        assert shortfalls == []
        assert positive > 200, positive
