"""Unit tests for key sizing, the attack family, and the hash-family oracle."""

import math
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdrates.ratecore import collision_bound, tau, tau_multiphoton
from qkdrates import verifiers
from qkdrates.security import (
    AttackParams,
    KeyBudget,
    _epsilon_from,
    SecurityParams,
    attack_collision,
    attack_epsilon,
    attack_family_grid,
    ec_leak_bits,
    eve_info_bound,
    final_key_length,
    markov_leak_probability,
    maximize_attack_collision,
    multiphoton_ratio_bound,
    pa_entropy_bound_check,
)
from qkdrates.verifiers import _collision_from


class TestKeyBudget:
    def test_no_noise_no_leakage(self):
        budget = final_key_length(1000, 0.0, 0, SecurityParams(0, 0))
        assert budget.r == 1000

    def test_frozen_benchmark_budget(self):
        kappa = ec_leak_bits(1000, 0.05)
        assert kappa == 333
        budget = final_key_length(1000, 0.05, kappa, SecurityParams(30, 30))
        assert budget.tau_bits == pytest.approx(0.7490384264667812, rel=1e-14)
        assert budget.r == 356

    def test_multiphoton_fraction_scales_the_secure_fraction(self):
        kappa = ec_leak_bits(1000, 0.05)
        budget = final_key_length(1000, 0.05, kappa, SecurityParams(30, 30), 0.5)
        assert budget.tau_bits == tau_multiphoton(0.05, 0.5)
        assert budget.r == max(0, math.floor(1000 * tau_multiphoton(0.05, 0.5) - kappa - 60))
        assert budget.r < final_key_length(1000, 0.05, kappa, SecurityParams(30, 30)).r

    def test_single_photon_default(self):
        plain = final_key_length(1000, 0.05, 333, SecurityParams(30, 30))
        assert final_key_length(1000, 0.05, 333, SecurityParams(30, 30), 1.0) == plain
        assert plain.tau_bits == tau(0.05)

    def test_beta_above_one_is_rejected(self):
        with pytest.raises(ValueError, match="beta cannot exceed 1"):
            final_key_length(1000, 0.05, 333, SecurityParams(30, 30), 3.0)

    def test_saturated_disturbance(self):
        budget = final_key_length(100, 0.5, 0, SecurityParams(0, 0))
        assert budget.r == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            final_key_length(0, 0.1, 0, SecurityParams())
        with pytest.raises(ValueError):
            final_key_length(100, 0.1, -1, SecurityParams())
        with pytest.raises(ValueError):
            SecurityParams(-1, 0)

    @pytest.mark.parametrize("fields, message", [
        ({"r": 11}, "final key cannot exceed the reconciled key"),
        ({"r": -1}, "key length and information bound must be non-negative"),
        ({"eve_info": -1e-9}, "key length and information bound must be non-negative"),
    ], ids=["r-past-n_rec", "negative-r", "negative-eve_info"])
    def test_budget_rejects_inconsistent_counts(self, fields, message):
        with pytest.raises(ValueError, match="^" + message + "$"):
            KeyBudget(**{"n_rec": 10, "tau_bits": 0.5, "kappa": 0, "r": 5, "eve_info": 0.0, **fields})

    def test_negative_bit_counts_rejected(self):
        with pytest.raises(ValueError, match="^reconciled key length must be non-negative$"):
            ec_leak_bits(-1, 0.1)
        with pytest.raises(ValueError, match="^key length must be non-negative$"):
            eve_info_bound(-1, SecurityParams())

    @pytest.mark.parametrize("value", [1.5, math.nan, True, np.True_, "30", None], ids=repr)
    def test_margins_must_be_integers(self, value):
        for name in ("s", "t"):
            with pytest.raises(ValueError, match=f"security margin {name} must be an integer, got " + re.escape(repr(value))):
                SecurityParams(**{name: value})

    @pytest.mark.parametrize("value", [1.5, 1000.5, 1000.0, True, "1000"], ids=repr)
    def test_key_counts_must_be_integers(self, value):
        with pytest.raises(ValueError, match="reconciled key length must be an integer, got " + re.escape(repr(value))):
            final_key_length(value, 0.02, 100, SecurityParams())
        with pytest.raises(ValueError, match="error-correction leakage must be an integer, got " + re.escape(repr(value))):
            final_key_length(1000, 0.02, value, SecurityParams())
        with pytest.raises(ValueError, match="reconciled key length must be an integer, got " + re.escape(repr(value))):
            ec_leak_bits(value, 0.1)
        with pytest.raises(ValueError, match="key length must be an integer, got " + re.escape(repr(value))):
            eve_info_bound(value, SecurityParams())

    def test_numpy_integers_accepted(self):
        plain = final_key_length(1000, 0.02, 100, SecurityParams(3, 4))
        budget = final_key_length(np.int64(1000), 0.02, np.int32(100), SecurityParams(np.int64(3), np.uint8(4)))
        assert budget == plain
        assert type(budget.n_rec) is int and type(budget.kappa) is int
        assert ec_leak_bits(np.int64(1000), 0.1) == ec_leak_bits(1000, 0.1)
        assert eve_info_bound(np.int64(357), SecurityParams()) == eve_info_bound(357, SecurityParams())

    @given(
        st.integers(min_value=1, max_value=10_000),
        st.floats(min_value=0.0, max_value=0.5),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=0, max_value=64),
    )
    @settings(max_examples=200)
    def test_monotone_in_all_arguments(self, n_rec, eps, kappa, s, t):
        base = final_key_length(n_rec, eps, kappa, SecurityParams(s, t)).r
        assert final_key_length(n_rec + 100, eps, kappa, SecurityParams(s, t)).r >= base
        assert final_key_length(n_rec, min(eps + 0.01, 0.5), kappa, SecurityParams(s, t)).r <= base
        assert final_key_length(n_rec, eps, kappa + 10, SecurityParams(s, t)).r <= base
        assert final_key_length(n_rec, eps, kappa, SecurityParams(s + 1, t)).r <= base
        assert final_key_length(n_rec, eps, kappa, SecurityParams(s, t + 1)).r <= base


class TestEveInfoBound:
    def test_frozen_values(self):
        assert eve_info_bound(357, SecurityParams(30, 30)) == pytest.approx(
            3.338257735975915e-07, rel=1e-14
        )
        assert eve_info_bound(0, SecurityParams(60, 30)) == pytest.approx(
            1.2513384780527022e-18, rel=1e-14
        )

    def test_vacuous_without_margins(self):
        assert eve_info_bound(1000, SecurityParams(0, 0)) == pytest.approx(
            1001.4426950408889, rel=1e-14
        )

    def test_doubling_t_halves_the_key_term(self):
        sec, sec2 = SecurityParams(40, 10), SecurityParams(40, 11)
        r = 5000
        tail = math.ldexp(1.0 / math.log(2.0), -40)
        assert eve_info_bound(r, sec2) - tail == pytest.approx(
            (eve_info_bound(r, sec) - tail) / 2.0, rel=1e-12
        )


class TestMarkov:
    def test_direct_ratio(self):
        assert markov_leak_probability(3.667e-7, 1.0) == 3.667e-7
        assert markov_leak_probability(0.0, 1.0) == 0.0

    def test_clamped(self):
        assert markov_leak_probability(5.0, 1.0) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            markov_leak_probability(1.0, 0.0)
        with pytest.raises(ValueError):
            markov_leak_probability(-1.0, 1.0)

    def test_nan_rejected(self):
        # both used to return 1.0, as if the bound had been computed
        with pytest.raises(ValueError, match="information bound must be non-negative, got nan"):
            markov_leak_probability(math.nan, 1.0)
        with pytest.raises(ValueError, match="threshold must be positive, got nan"):
            markov_leak_probability(0.1, math.nan)


class TestAttackFamily:
    def test_identity_attack(self):
        identity = AttackParams(n_xx=1.0, n_xy=0.0, phi_xx_yy=0.0, phi_xy_yx=0.0)
        assert attack_epsilon(identity) == 0.0
        assert attack_collision(identity) == 0.5

    def test_full_knowledge_endpoint(self):
        a = AttackParams(n_xx=1.0, n_xy=1.0, phi_xx_yy=math.pi / 2, phi_xy_yx=math.pi / 2)
        assert attack_epsilon(a) == pytest.approx(0.5, rel=1e-14)

    def test_disturbance_from_same_basis_overlap(self):
        # with no crossed component, eps = (1 - cos phi) / 4
        for eps in (0.05, 0.2, 0.45):
            a = AttackParams(
                n_xx=1.0, n_xy=0.0, phi_xx_yy=math.acos(1.0 - 4.0 * eps), phi_xy_yx=0.0
            )
            assert attack_epsilon(a) == pytest.approx(eps, rel=1e-12)

    def test_paper_maximizer_attains_the_bound(self):
        for eps in (0.05, 0.25, 0.4):
            ratio = (1.0 - eps) / eps
            a = AttackParams(
                n_xx=ratio,
                n_xy=1.0,
                phi_xx_yy=math.acos(1.0 - 2.0 * eps),
                phi_xy_yx=math.acos(1.0 - 2.0 * eps),
            )
            assert attack_epsilon(a) == pytest.approx(eps, rel=1e-12)
            assert attack_collision(a) == pytest.approx(collision_bound(eps), rel=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            AttackParams(n_xx=0.0, n_xy=0.0, phi_xx_yy=0.0, phi_xy_yx=0.0)
        with pytest.raises(ValueError):
            AttackParams(n_xx=-1.0, n_xy=2.0, phi_xx_yy=0.0, phi_xy_yx=0.0)

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=0.0, max_value=math.pi),
        st.floats(min_value=0.0, max_value=math.pi),
    )
    @settings(max_examples=500)
    def test_no_attack_beats_the_bound(self, ratio, phi1, phi2):
        a = AttackParams(
            n_xx=ratio / (1.0 + ratio),
            n_xy=1.0 / (1.0 + ratio),
            phi_xx_yy=phi1,
            phi_xy_yx=phi2,
        )
        assert attack_collision(a) <= collision_bound(attack_epsilon(a)) + 1e-9


def scalar_collision(x, y, c1, c2):
    """The collision closed form in plain floats, each vanishing term skipped."""
    value = 0.75 - (x * c1 * c1 + y * c2 * c2) / (4.0 * (x + y))
    for s in (1.0, -1.0):
        num = x * y * (1.0 + s * c1) * (1.0 + s * c2)
        if num != 0.0:
            value += num / (2.0 * (x + y) * (x * (1.0 + s * c1) + y * (1.0 + s * c2)))
    return value


# angles at and next to the ends, where cos = +-1 zeroes a numerator
ANGLES = st.one_of(st.sampled_from([0.0, math.pi]), st.floats(min_value=0.0, max_value=math.pi))
NORMS = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3))


class TestArrayForms:
    @given(
        st.lists(st.tuples(NORMS, NORMS), min_size=1, max_size=4).filter(
            lambda norms: all(x + y > 0.0 for x, y in norms)
        ),
        st.lists(ANGLES, min_size=1, max_size=4),
        st.lists(ANGLES, min_size=1, max_size=4),
    )
    @settings(max_examples=300)
    def test_grid_matches_scalar_members(self, norms, phis1, phis2):
        x = np.array([n[0] for n in norms])[:, None, None]
        y = np.array([n[1] for n in norms])[:, None, None]
        c1 = np.array([math.cos(p) for p in phis1])[None, :, None]
        c2 = np.array([math.cos(p) for p in phis2])[None, None, :]
        collision = _collision_from(x, y, c1, c2)
        eps = _epsilon_from(x, y, c1, c2)
        assert collision.shape == eps.shape == (len(norms), len(phis1), len(phis2))
        for k, (n_xx, n_xy) in enumerate(norms):
            for a, phi1 in enumerate(phis1):
                for b, phi2 in enumerate(phis2):
                    member = AttackParams(n_xx=n_xx, n_xy=n_xy, phi_xx_yy=phi1, phi_xy_yx=phi2)
                    assert collision[k, a, b] == attack_collision(member)
                    assert eps[k, a, b] == attack_epsilon(member)
                    assert attack_collision(member) == pytest.approx(
                        scalar_collision(n_xx, n_xy, c1[0, a, 0], c2[0, 0, b]), rel=1e-15
                    )

    @given(st.floats(min_value=1e-3, max_value=1e3), st.lists(ANGLES, min_size=1, max_size=5))
    @settings(max_examples=100)
    def test_family_grid_lists_the_members_c1_major(self, ratio, phis):
        eps, collision = attack_family_grid(ratio, np.array([math.cos(p) for p in phis]))
        assert eps.shape == collision.shape == (len(phis) ** 2,)
        x = ratio / (1.0 + ratio)
        for k, (phi1, phi2) in enumerate((a, b) for a in phis for b in phis):
            member = AttackParams(n_xx=x, n_xy=1.0 / (1.0 + ratio), phi_xx_yy=phi1, phi_xy_yx=phi2)
            assert eps[k] == attack_epsilon(member)
            assert collision[k] == attack_collision(member)

    @given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=4),
           st.lists(ANGLES, min_size=1, max_size=5))
    @settings(max_examples=100)
    def test_family_grid_of_ratios_is_the_one_ratio_grids_end_to_end(self, ratios, phis):
        cosines = np.array([math.cos(p) for p in phis])
        eps, collision = attack_family_grid(np.array(ratios), cosines)
        singles = [attack_family_grid(ratio, cosines) for ratio in ratios]
        for got, want in zip((eps, collision), (np.concatenate(parts) for parts in zip(*singles))):
            assert got.dtype == want.dtype and got.shape == want.shape == (len(ratios) * len(phis) ** 2,)
            assert got.tobytes() == want.tobytes()
        # one float ratio: the members' arrays, from the closed forms at Python-float norms
        for ratio, (one_eps, one_collision) in zip(ratios, singles):
            x, y = ratio / (1.0 + ratio), 1.0 / (1.0 + ratio)
            c1, c2 = cosines[:, None], cosines[None, :]
            assert one_eps.tobytes() == _epsilon_from(x, y, c1, c2).ravel().tobytes()
            assert one_collision.tobytes() == _collision_from(x, y, c1, c2).ravel().tobytes()

    def test_vanishing_denominators_are_masked(self):
        # n_xx = 0 with c2 = -1 zeroes both the numerator and the denominator of a term
        assert attack_collision(AttackParams(n_xx=0.0, n_xy=1.0, phi_xx_yy=0.0, phi_xy_yx=math.pi)) == 0.5
        grid = _collision_from(0.0, 1.0, np.array([1.0, -1.0]), np.array([[1.0], [-1.0]]))
        assert np.all(np.isfinite(grid))

    def test_scalar_forms_return_floats(self):
        member = AttackParams(n_xx=0.3, n_xy=0.7, phi_xx_yy=1.0, phi_xy_yx=2.0)
        assert type(attack_collision(member)) is float
        assert type(attack_epsilon(member)) is float


class TestMaximizer:
    # the maximizer found at each disturbance, frozen: (n_xx, n_xy, phi_xx_yy, phi_xy_yx, value)
    FROZEN = {
        0.1: (0.899999999999775, 0.10000000000022502, 0.643501108792451,
              0.6435011087932843, 0.68),
        0.25: (0.7499999999998125, 0.2500000000001875, 1.0471975511960205,
               1.0471975511965979, 0.8750000000000001),
        0.4: (0.59999999999985, 0.40000000000015, 1.3694384060040556,
              1.369438406004566, 0.98),
    }

    @pytest.mark.parametrize("eps", sorted(FROZEN))
    def test_frozen_maximizer(self, eps):
        params, value = maximize_attack_collision(eps)
        found = (params.n_xx, params.n_xy, params.phi_xx_yy, params.phi_xy_yx, value)
        for got, want in zip(found, self.FROZEN[eps]):
            assert got == pytest.approx(want, abs=1e-12)

    def test_matches_closed_form(self):
        for eps in (0.05, 0.25, 0.4):
            _, value = maximize_attack_collision(eps)
            assert value == pytest.approx(collision_bound(eps), abs=1e-6)

    def test_recovers_the_stated_maximizer(self):
        params, _ = maximize_attack_collision(0.25)
        assert math.cos(params.phi_xx_yy) == pytest.approx(0.5, abs=1e-3)
        assert math.cos(params.phi_xy_yx) == pytest.approx(0.5, abs=1e-3)
        assert params.n_xx / params.n_xy == pytest.approx(3.0, abs=1e-2)

    def test_continuity_at_the_identity(self):
        _, value = maximize_attack_collision(1e-4)
        assert value == pytest.approx(0.5, abs=1e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            maximize_attack_collision(0.0)
        with pytest.raises(ValueError):
            maximize_attack_collision(0.5)

    @pytest.mark.parametrize("eps", [1e-13, 2.4e-13, 1e-15, math.nextafter(2.0**-55, 1.0)])
    def test_disturbance_below_the_floor_margin(self, eps):
        # 1 - 4 eps + 1e-12 passes 1 here: the floor is clamped to c1 = 1,
        # where acos once failed with a bare math domain error
        assert 1.0 - 4.0 * eps + 1e-12 > 1.0
        params, value = maximize_attack_collision(eps)
        assert params.phi_xx_yy == 0.0
        assert value == pytest.approx(collision_bound(eps), abs=2e-16)

    @pytest.mark.parametrize("eps", [2.0**-55, 1e-300, 5e-324])
    def test_disturbance_past_the_search_resolution_rejected(self, eps):
        # 1 + 4 eps rounds to 1, so no grid point meets the constraint
        with pytest.raises(ValueError, match="below the search's resolution"):
            maximize_attack_collision(eps)


def scalar_search(eps):
    """The one-disturbance grid search written with Python scalars and
    np.linspace, as maximize_attack_collision was before its search took a
    vector: (value, c1, c2, n_xx share)."""
    c1_floor = min(1.0, max(-1.0, 1.0 - 4.0 * eps) + 1e-12)
    c1_lo, c1_hi, c2_lo, c2_hi = c1_floor, 1.0, -1.0, 1.0
    best = None
    for level in range(4):
        n_pts = 61 if level == 0 else 21
        c1_grid = np.linspace(c1_lo, c1_hi, n_pts)
        c2_grid = np.linspace(c2_lo, c2_hi, n_pts)
        values, shares = verifiers._grid_collision(eps, c1_grid[:, None], c2_grid[None, :])
        k1, k2 = np.unravel_index(np.argmax(values), values.shape)
        if best is None or values[k1, k2] > best[0]:
            best = (float(values[k1, k2]), float(c1_grid[k1]), float(c2_grid[k2]), float(shares[k1, k2]))
        span1 = (c1_hi - c1_lo) / (n_pts - 1)
        span2 = (c2_hi - c2_lo) / (n_pts - 1)
        c1_lo, c1_hi = max(c1_floor, best[1] - span1), min(1.0, best[1] + span1)
        c2_lo, c2_hi = max(-1.0, best[2] - span2), min(1.0, best[2] + span2)
    return best


# the attack-bound suite's disturbances, the smallest tested one, the largest
# float below 1/2, two whose c1 floor is clamped to 1, and one whose c1 floor
# rounds to 1, so that its first c1 grid has a zero step beside the other
# rows' nonzero ones
SEARCH_EPS = [k / 100.0 for k in range(1, 50)] + [1e-4, math.nextafter(0.5, 0.0), 1e-13, 2.4e-13, 2.4998075e-13]


def hexes(values):
    return [float(v).hex() for v in values]


class TestBatchedSearch:
    def test_batch_equals_one_disturbance_calls_bitwise(self):
        assert (1.0 - 4.0 * SEARCH_EPS[-1]) + 1e-12 == 1.0
        batch = verifiers._maximize_collisions(np.array(SEARCH_EPS))
        for i, eps in enumerate(SEARCH_EPS):
            params, value = maximize_attack_collision(eps)
            value_b, c1, c2, x = (column[i] for column in batch)
            want = (value, params.n_xx, params.n_xy, params.phi_xx_yy, params.phi_xy_yx)
            got = (value_b, x, 1.0 - x, math.acos(c1), math.acos(c2))
            assert hexes(got) == hexes(want), eps

    def test_one_disturbance_equals_the_scalar_search_bitwise(self):
        for eps in SEARCH_EPS:
            params, value = maximize_attack_collision(eps)
            want_value, c1, c2, x = scalar_search(eps)
            want = (want_value, x, 1.0 - x, math.acos(c1), math.acos(c2))
            assert hexes((value, params.n_xx, params.n_xy, params.phi_xx_yy, params.phi_xy_yx)) == hexes(want), eps

    def test_batch_order_and_blocks_do_not_matter(self, monkeypatch):
        eps = np.array(SEARCH_EPS)
        whole = verifiers._maximize_collisions(eps)
        reverse = verifiers._maximize_collisions(eps[::-1].copy())
        monkeypatch.setattr(verifiers, "_BLOCK_POINTS", 61 * 61)  # one disturbance per first-level block
        single = verifiers._maximize_collisions(eps)
        for a, b, c in zip(whole, reverse, single):
            assert hexes(a) == hexes(b[::-1]) == hexes(c)

    def test_row_linspace_matches_numpy_per_row(self):
        # a zero-step row takes linspace's own zero-step path beside ordinary rows
        lo = np.array([-1.0, 0.3, 0.25, 5e-324, 0.7])
        hi = np.array([1.0, 0.3000000000000001, 0.25, 1e-323, 0.1])
        rows = verifiers._linspace_rows(lo, hi, 21)
        for row, a, b in zip(rows, lo, hi):
            assert row.tobytes() == np.linspace(a, b, 21).tobytes()


class TestMultiphotonBound:
    def test_paper_anchor(self):
        assert multiphoton_ratio_bound(2, 2) == 1.0

    def test_hand_values(self):
        assert multiphoton_ratio_bound(3, 3) == 9.0
        assert multiphoton_ratio_bound(4, 2) == 7.0

    def test_single_photon_anomaly(self):
        # the printed chain degenerates when either side gets one photon
        assert multiphoton_ratio_bound(2, 1) == 0.0
        assert multiphoton_ratio_bound(1, 5) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            multiphoton_ratio_bound(0, 2)

    @pytest.mark.parametrize("count", [2.5, 3.0, True, "3", None], ids=repr)
    def test_non_integer_count_rejected(self, count):
        # 2.5 photons used to give 5.49
        for args in ((count, 3), (3, count)):
            with pytest.raises(ValueError, match="photon count must be an integer, got " + re.escape(repr(count))):
                multiphoton_ratio_bound(*args)

    def test_numpy_integer_counts_accepted(self):
        assert multiphoton_ratio_bound(np.int64(3), np.int8(3)) == 9.0

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=2, max_value=10))
    def test_at_least_one(self, i, j):
        assert multiphoton_ratio_bound(i, j) >= 1.0

    def test_largest_finite_products(self):
        # (1024, 2) is 2^1023 - 1; (512, 513) is just below 2^1023 as well
        assert multiphoton_ratio_bound(1024, 2) == float(2**1023 - 1)
        assert multiphoton_ratio_bound(512, 513) == float((2**511 - 1) * (2**512 - 1))

    @pytest.mark.parametrize("counts", [(1025, 2), (2, 1025), (513, 513), (10**12, 2), (3, 10**15)])
    def test_product_past_float_range_rejected(self, counts):
        # (1025, 2) used to raise a bare OverflowError; the huge counts are
        # rejected before 2**(count - 1) is built, so they return at once
        match = re.escape(f"photon counts {counts} give a ratio bound past float range")
        with pytest.raises(ValueError, match=match):
            multiphoton_ratio_bound(*counts)

    @pytest.mark.parametrize("counts", [(1, 1025), (10**12, 1), (1, 10**15)])
    def test_a_single_photon_gives_zero_for_any_other_count(self, counts):
        assert multiphoton_ratio_bound(*counts) == 0.0


class TestPaEntropyOracle:
    def test_uniform_input_keeps_uniform_output(self):
        lhs, rhs, holds = pa_entropy_bound_check(4, 0.5, 2)
        assert holds
        assert lhs == pytest.approx(1.84375, rel=1e-12)
        assert rhs == pytest.approx(2.0 - 4.0 * 0.5**4 / math.log(2.0), rel=1e-12)

    def test_biased_input(self):
        lhs, rhs, holds = pa_entropy_bound_check(6, 0.595, 2)
        assert holds
        assert lhs == pytest.approx(1.902296002309826, rel=1e-12)

    def test_full_length_extreme(self):
        lhs, rhs, holds = pa_entropy_bound_check(6, 0.595, 6)
        assert holds
        assert lhs == pytest.approx(4.698065313913839, rel=1e-12)
        assert rhs == pytest.approx(6.0 - 64.0 * 0.595**6 / math.log(2.0), rel=1e-12)

    def test_zero_output_length(self):
        lhs, _, holds = pa_entropy_bound_check(5, 0.75, 0)
        assert lhs == 0.0
        assert holds

    def test_deterministic_input(self):
        # per-bit collision probability 1 means a constant input: zero output
        # entropy, and the bound is vacuous (negative right-hand side)
        lhs, rhs, holds = pa_entropy_bound_check(4, 1.0, 3)
        assert lhs == 0.0
        assert rhs < 0.0
        assert holds

    def test_sampled_path_for_larger_blocks(self):
        lhs, rhs, holds = pa_entropy_bound_check(8, 0.75, 3)
        assert holds
        assert 0.0 <= lhs <= 3.0

    def test_domain(self):
        with pytest.raises(ValueError):
            pa_entropy_bound_check(13, 0.75, 2)
        with pytest.raises(ValueError):
            pa_entropy_bound_check(4, 0.4, 2)
        with pytest.raises(ValueError):
            pa_entropy_bound_check(4, 0.75, 5)

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"], ids=repr)
    def test_lengths_must_be_integers(self, value):
        with pytest.raises(ValueError, match="block length must be an integer, got " + re.escape(repr(value))):
            pa_entropy_bound_check(value, 0.75, 1)
        with pytest.raises(ValueError, match="output length must be an integer, got " + re.escape(repr(value))):
            pa_entropy_bound_check(4, 0.75, value)

    def test_numpy_lengths_accepted(self):
        assert pa_entropy_bound_check(np.int64(3), 0.75, np.int8(1)) == pa_entropy_bound_check(3, 0.75, 1)


@pytest.mark.parametrize("shift", [-5e-13, 0.0, 5e-13])
def test_pa_entropy_bound_check_applies_no_slack(shift):
    # an entropy short of the bound by any margin fails, one on it holds
    def entropy(n, pc, r):
        return r - math.ldexp(pc**n, r) / math.log(2.0) + shift

    with mock.patch.object(verifiers, "_hashed_entropy", entropy):
        lhs, rhs, holds = pa_entropy_bound_check(4, 0.75, 2)
    assert lhs - rhs == pytest.approx(shift, abs=1e-15)
    assert holds is (shift >= 0.0)


def matmul_keys(n, r, seeds):
    """Keys as the Toeplitz product: input bits times each r x n matrix, mod 2."""
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
    matrices = verifiers._toeplitz_matrices(n, r, seeds).astype(np.int64)
    return ((bits @ matrices.transpose(0, 2, 1)) % 2) @ (1 << np.arange(r))


class TestSampledHashKeys:
    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_parity_keys_equal_the_toeplitz_product(self, n):
        seed_len = 2 * n - 1
        gen = random.Random(0)
        drawn = np.array(
            [[gen.randrange(2) for _ in range(seed_len)] for _ in range(10_000)], dtype=np.uint8
        )
        seeds = verifiers._family_seeds(n, n)
        assert np.array_equal(seeds, drawn)
        start = 0
        for keys in verifiers._hash_key_blocks(n, n):
            block = seeds[start : start + keys.shape[0]]
            assert np.array_equal(keys, matmul_keys(n, n, block))
            start += keys.shape[0]
        assert start == 10_000

    def test_exhaustive_keys_equal_the_toeplitz_product(self):
        for n in range(1, 7):
            for r in range(1, n + 1):
                keys = np.concatenate(verifiers._exhaustive_key_blocks(n, r))
                assert np.array_equal(keys, matmul_keys(n, r, verifiers._family_seeds(n, r)))

    def test_memory_peak_at_nine_bits(self):
        # a (seeds, 2^n, r) product per seed block peaked at 34 MiB here
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            lhs, rhs, holds = pa_entropy_bound_check(9, 0.75, 9)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert holds
        assert peak <= 3 * 2**20, f"peaked at {peak / 2**20:.2f} MiB"
