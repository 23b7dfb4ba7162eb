"""Unit tests for the scalar rate primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdrates import security, verify
from qkdrates.ratecore import (
    binary_entropy,
    collision_bound,
    ec_efficiency,
    tau,
    tau_multiphoton,
)
from qkdrates.verifiers import _collision_bound_array


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


def scalar_bounds(eps):
    return np.array([collision_bound(x) for x in eps.tolist()])


class TestCollisionBoundArray:
    def test_attack_suite_grid_matches_scalar_bitwise(self, monkeypatch):
        grids = []
        grid = security.attack_family_grid

        def record(ratio, cosines):
            eps, collision = grid(ratio, cosines)
            grids.append(eps)
            return eps, collision

        monkeypatch.setattr(security, "attack_family_grid", record)
        verify.VERIFY_SUITES["attack-bound"]()
        eps = np.concatenate(grids)
        # 50 norm ratios in blocks of 3: 16 blocks of 7,500 points and one of 5,000
        assert len(grids) == 17 and eps.shape == (125_000,)
        for chunk in grids:
            bound = _collision_bound_array(chunk)
            assert bound.dtype == np.float64 and bound.shape == chunk.shape
            assert bound.tobytes() == scalar_bounds(chunk).tobytes()

    def test_edges_match_scalar_bitwise(self):
        eps = np.array([0.0, 0.5, np.nextafter(0.5, -1.0), np.nextafter(0.5, 2.0), 1.0])
        assert _collision_bound_array(eps).tobytes() == scalar_bounds(eps).tobytes()
        assert _collision_bound_array(eps).tolist()[:2] == [0.5, 1.0]

    @pytest.mark.parametrize("bad", [-0.01, -5e-324, math.nan])
    def test_bad_element_raises_scalar_message(self, bad):
        with pytest.raises(ValueError) as scalar:
            collision_bound(bad)
        with pytest.raises(ValueError) as array:
            _collision_bound_array(np.array([0.1, bad, 0.2, -1.0]))
        assert str(array.value) == str(scalar.value)


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

    @pytest.mark.parametrize("e, beta", [(0.0, 2.0), (0.05, 1e300)])
    def test_beta_above_one_is_rejected(self, e, beta):
        with pytest.raises(ValueError, match="beta cannot exceed 1"):
            tau_multiphoton(e, beta)

    def test_beta_within_rounding_of_one_is_accepted(self):
        # ClickStats accepts beta up to 1 + 1e-9, so the rate formulas must too
        assert tau_multiphoton(0.05, 1.0 + 5e-10) == pytest.approx(tau(0.05), rel=1e-9)

    @given(
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=1e-6, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_never_exceeds_single_photon_tau(self, e, beta):
        assert tau_multiphoton(e, beta) <= tau(min(e, 0.5)) + 1e-12


@pytest.mark.parametrize(
    "func, args",
    [
        (binary_entropy, (math.nan,)),
        (ec_efficiency, (math.nan,)),
        (collision_bound, (math.nan,)),
        (tau, (math.nan,)),
        (tau_multiphoton, (math.nan, 0.9)),
        (tau_multiphoton, (0.1, math.nan)),
    ],
    ids=["binary_entropy", "ec_efficiency", "collision_bound", "tau", "tau_multiphoton-e",
         "tau_multiphoton-beta"],
)
def test_nan_argument_is_rejected(func, args):
    with pytest.raises(ValueError):
        func(*args)
