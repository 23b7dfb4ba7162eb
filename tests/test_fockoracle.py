"""Unit tests for the truncated occupation-number oracle."""

import math

import numpy as np
import pytest

from qkdrates.fockoracle import (
    FockVector,
    apply_loss_and_trace,
    build_pdc_state,
    dephasing_invariance_check,
    extract_pdc_coefficients,
    pair_sector_residual,
    sector_weights,
    truncation_tail,
)
from qkdrates.sources import pdc_coefficients

HALF = 1.0 / math.sqrt(2.0)


class TestBuildState:
    def test_vacuum_amplitude(self):
        state = build_pdc_state(0.2, 6)
        assert state.amps[(0,) * 8] == pytest.approx(0.9610429829661166, rel=1e-14)

    def test_single_pair_amplitude(self):
        state = build_pdc_state(0.2, 6)
        amp = state.amps[(1, 0, 0, 1, 0, 0, 0, 0)]
        assert amp == pytest.approx(0.1896861665128342, rel=1e-14)
        assert amp == state.amps[(0, 1, 1, 0, 0, 0, 0, 0)]

    def test_small_pump_is_nearly_vacuum(self):
        state = build_pdc_state(1e-4, 3)
        assert state.amps[(0,) * 8] == pytest.approx(1.0, abs=1e-7)
        assert state.norm_squared() == pytest.approx(1.0, abs=1e-7)

    def test_pair_balance(self):
        assert build_pdc_state(0.3, 5).pair_balanced()

    def test_norm_deficit_matches_tail(self):
        for chi, n_max in ((0.2, 4), (0.3, 6), (0.1, 8)):
            state = build_pdc_state(chi, n_max)
            deficit = 1.0 - state.norm_squared()
            assert deficit == pytest.approx(truncation_tail(chi, n_max), abs=1e-13)
            # documented coarse bound
            assert deficit < math.tanh(chi) ** (2 * (n_max + 1)) * (n_max + 2)

    def test_resource_cap(self):
        with pytest.raises(ValueError):
            build_pdc_state(0.2, 9)
        with pytest.raises(ValueError):
            build_pdc_state(0.2, 0)
        with pytest.raises(ValueError):
            build_pdc_state(-0.1, 4)


class TestLossAndSectors:
    def test_lossless_pair_sector_is_pure(self):
        state = build_pdc_state(0.2, 6)
        sectors = {(s.i, s.j): s for s in apply_loss_and_trace(state, 1.0)}
        rho = sectors[(1, 1)].matrix
        psi = np.zeros(4)
        psi[1] = psi[2] = HALF
        weight = sectors[(1, 1)].weight
        assert np.allclose(rho, weight * np.outer(psi, psi), atol=1e-15)

    def test_total_loss_leaves_vacuum(self):
        state = build_pdc_state(0.2, 6)
        weights = sector_weights(apply_loss_and_trace(state, 0.0))
        assert set(weights) == {(0, 0)}
        assert weights[(0, 0)] == pytest.approx(state.norm_squared(), rel=1e-12)

    def test_weights_sum_to_norm(self):
        state = build_pdc_state(0.2, 6)
        weights = sector_weights(apply_loss_and_trace(state, 0.5))
        assert math.fsum(weights.values()) == pytest.approx(
            1.0 - truncation_tail(0.2, 6), abs=1e-12
        )

    def test_one_photon_sectors_match(self):
        state = build_pdc_state(0.2, 6)
        weights = sector_weights(apply_loss_and_trace(state, 0.5))
        assert weights[(1, 0)] == pytest.approx(weights[(0, 1)], abs=1e-15)

    def test_input_must_have_empty_loss_modes(self):
        bad = FockVector(amps={(0, 0, 0, 0, 1, 0, 0, 0): 1.0})
        with pytest.raises(ValueError):
            apply_loss_and_trace(bad, 0.5)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            apply_loss_and_trace(build_pdc_state(0.2, 2), 1.5)


class TestCoefficientExtraction:
    def test_matches_closed_form_at_benchmark_point(self):
        sectors = apply_loss_and_trace(build_pdc_state(0.2, 8), 0.5)
        oracle = extract_pdc_coefficients(sectors)
        closed = pdc_coefficients(0.2, 0.5)
        assert oracle.A == pytest.approx(closed.A, abs=1e-6)
        assert oracle.B == pytest.approx(closed.B, abs=1e-6)
        assert oracle.C == pytest.approx(closed.C, abs=1e-6)
        assert oracle.D == pytest.approx(closed.D, abs=1e-6)

    def test_lossless_coefficients(self):
        chi = 0.2
        sectors = apply_loss_and_trace(build_pdc_state(chi, 8), 1.0)
        oracle = extract_pdc_coefficients(sectors)
        assert oracle.A == pytest.approx(
            2.0 * math.tanh(chi) ** 2 / math.cosh(chi) ** 4, rel=1e-10
        )
        assert oracle.C == 0.0
        assert oracle.D == pytest.approx(0.0, abs=1e-12)

    def test_near_vacuum_pump(self):
        sectors = apply_loss_and_trace(build_pdc_state(1e-3, 4), 0.5)
        oracle = extract_pdc_coefficients(sectors)
        assert oracle.B == pytest.approx(1.0, abs=1e-5)
        assert oracle.A == pytest.approx(0.0, abs=1e-5)

    def test_pair_sector_residual_is_tiny(self):
        sectors = apply_loss_and_trace(build_pdc_state(0.3, 8), 0.7)
        assert pair_sector_residual(sectors) < 1e-10


class TestDephasing:
    def test_number_superposition_is_invisible_to_counters(self):
        state = FockVector(amps={(0,) * 8: HALF, (1, 0, 0, 0, 0, 0, 0, 0): HALF})
        assert dephasing_invariance_check(state, 1.0) <= 1e-15
        assert dephasing_invariance_check(state, 0.6) <= 1e-15

    def test_pdc_state_after_loss(self):
        deviation = dephasing_invariance_check(build_pdc_state(0.3, 4), 0.5)
        assert deviation < 1e-12

    def test_number_diagonal_state_is_exactly_invariant(self):
        state = FockVector(amps={(1, 0, 0, 1, 0, 0, 0, 0): 1.0})
        assert dephasing_invariance_check(state, 0.8) == 0.0


class TestFockVectorValidation:
    def test_occupation_shape(self):
        with pytest.raises(ValueError):
            FockVector(amps={(1, 0, 0): 1.0})
        with pytest.raises(ValueError):
            FockVector(amps={(1, 0, 0, -1, 0, 0, 0, 0): 1.0})
