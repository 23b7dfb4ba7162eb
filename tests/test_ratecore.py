"""Unit tests for the scalar rate primitives."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdrates.ratecore import (
    binary_entropy,
    collision_bound,
    ec_efficiency,
    tau,
    tau_multiphoton,
)


class TestBinaryEntropy:
    def test_frozen_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, rel=1e-14)

    def test_endpoints_and_peak(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-1e-9)
        with pytest.raises(ValueError):
            binary_entropy(1.0 + 1e-9)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200)
    def test_symmetry(self, e):
        assert abs(binary_entropy(e) - binary_entropy(1.0 - e)) <= 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_bounded(self, e):
        assert 0.0 <= binary_entropy(e) <= 1.0


class TestEcEfficiency:
    def test_benchmark_rows(self):
        assert ec_efficiency(0.01) == 1.16
        assert ec_efficiency(0.05) == 1.16
        assert ec_efficiency(0.1) == 1.22
        assert ec_efficiency(0.15) == 1.35

    def test_interpolation(self):
        assert ec_efficiency(0.125) == pytest.approx(1.285, rel=1e-14)
        assert ec_efficiency(0.075) == pytest.approx(1.19, rel=1e-14)

    def test_endpoint_clamping(self):
        assert ec_efficiency(0.0) == 1.16
        assert ec_efficiency(0.005) == 1.16
        assert ec_efficiency(0.3) == 1.35
        assert ec_efficiency(0.499) == 1.35

    def test_domain(self):
        with pytest.raises(ValueError):
            ec_efficiency(-0.01)
        with pytest.raises(ValueError):
            ec_efficiency(0.5)

    @given(
        st.floats(min_value=0.0, max_value=0.5, exclude_max=True),
        st.floats(min_value=0.0, max_value=0.5, exclude_max=True),
    )
    @settings(max_examples=300)
    def test_non_decreasing(self, a, b):
        lo, hi = sorted((a, b))
        assert ec_efficiency(lo) <= ec_efficiency(hi)

    @given(st.floats(min_value=0.0, max_value=0.499))
    def test_at_least_shannon(self, e):
        assert ec_efficiency(e) >= 1.0


class TestCollisionBound:
    def test_endpoints(self):
        assert collision_bound(0.0) == 0.5
        assert collision_bound(0.5) == 1.0
        assert collision_bound(0.75) == 1.0

    def test_frozen_value(self):
        assert collision_bound(0.05) == pytest.approx(0.595, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            collision_bound(-0.01)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_range(self, eps):
        assert 0.5 <= collision_bound(eps) <= 1.0

    @given(st.floats(min_value=0.0, max_value=0.5), st.floats(min_value=0.0, max_value=0.5))
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert collision_bound(lo) <= collision_bound(hi)


class TestTau:
    def test_trivial_limits(self):
        assert tau(0.0) == 1.0
        assert tau(0.5) == 0.0

    def test_frozen_values(self):
        assert tau(0.05) == pytest.approx(0.7490384264667812, rel=1e-14)
        assert tau(0.02) == pytest.approx(0.8911075983675909, rel=1e-14)

    @given(st.floats(min_value=0.0, max_value=0.5))
    def test_range(self, eps):
        assert 0.0 <= tau(eps) <= 1.0


class TestTauMultiphoton:
    def test_frozen_value(self):
        assert tau_multiphoton(0.02, 0.9) == pytest.approx(0.7917864864910131, rel=1e-14)

    def test_saturation(self):
        assert tau_multiphoton(0.45, 0.9) == 0.0
        assert tau_multiphoton(0.3, 0.6) == 0.0

    def test_full_single_photon_fraction(self):
        assert tau_multiphoton(0.05, 1.0) == tau(0.05)

    def test_domain(self):
        with pytest.raises(ValueError):
            tau_multiphoton(0.1, 0.0)
        with pytest.raises(ValueError):
            tau_multiphoton(0.1, -0.5)
        with pytest.raises(ValueError):
            tau_multiphoton(1.1, 0.9)

    @given(
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=1e-6, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_never_exceeds_single_photon_tau(self, e, beta):
        assert tau_multiphoton(e, beta) <= tau(min(e, 0.5)) + 1e-12
