"""Unit tests for key sizing, the attack family, and the hash-family oracle."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdrates.ratecore import collision_bound
from qkdrates.security import (
    AttackParams,
    SecurityParams,
    attack_collision,
    attack_epsilon,
    ec_leak_bits,
    eve_info_bound,
    final_key_length,
    markov_leak_probability,
    maximize_attack_collision,
    multiphoton_ratio_bound,
    pa_entropy_bound_check,
)


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


class TestMaximizer:
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

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=2, max_value=10))
    def test_at_least_one(self, i, j):
        assert multiphoton_ratio_bound(i, j) >= 1.0


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
