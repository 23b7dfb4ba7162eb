"""Unit tests for the channel and detector loss model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkdrates.channel import (
    ChannelParams,
    arm_alpha,
    arm_alpha_from_loss_db,
    checked_transmission,
    dark_click_prob,
    db_to_transmission,
    fiber_transmission,
)


class TestTransmission:
    def test_fiber_decades(self):
        assert fiber_transmission(0.2, 50.0) == pytest.approx(0.1, rel=1e-14)
        assert fiber_transmission(0.2, 0.0) == 1.0

    def test_db(self):
        assert db_to_transmission(0.0) == 1.0
        assert db_to_transmission(10.0) == pytest.approx(0.1, rel=1e-14)
        assert db_to_transmission(3.0) == pytest.approx(0.501187233627272, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=500.0), st.floats(min_value=0.0, max_value=1.0))
    def test_fiber_monotone_in_length(self, length, sigma):
        assert fiber_transmission(sigma, length) >= fiber_transmission(sigma, length + 1.0)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            fiber_transmission(0.2, -1.0)
        with pytest.raises(ValueError):
            db_to_transmission(-0.1)


class TestArmAlpha:
    def test_frozen_benchmark_arm(self):
        p = ChannelParams(sigma=0.2, eta=0.18, receiver_loss_db=1.0, d=5e-5, mu=0.01)
        assert float(arm_alpha(p, 50.0)) == pytest.approx(0.014297908225037069, rel=1e-14)

    def test_zero_length_keeps_fixed_losses(self):
        p = ChannelParams(sigma=0.2, eta=0.18, receiver_loss_db=1.0, d=5e-5, mu=0.01)
        assert float(arm_alpha(p, 0.0)) == pytest.approx(0.14297908225037068, rel=1e-14)

    def test_loss_db_equivalent(self):
        p = ChannelParams(sigma=0.2, eta=0.18, receiver_loss_db=1.0)
        assert float(arm_alpha_from_loss_db(p, 10.0)) == pytest.approx(
            float(arm_alpha(p, 50.0)), rel=1e-14
        )

    def test_receiver_override(self):
        p = ChannelParams(eta=0.5, receiver_loss_db=2.0)
        full = float(arm_alpha_from_loss_db(p, 5.0))
        halved = float(arm_alpha_from_loss_db(p, 5.0, receiver_loss_db=1.0))
        assert halved == pytest.approx(full * 10 ** (1.0 / 10.0), rel=1e-12)

    def test_arm_loss_is_probability(self):
        with pytest.raises(ValueError):
            checked_transmission(1.5)
        with pytest.raises(ValueError):
            checked_transmission(-0.1)
        assert checked_transmission(0.25) == 0.25


class TestDarkClicks:
    def test_linearized_count(self):
        assert dark_click_prob(5e-5, 4) == 2e-4
        assert dark_click_prob(0.0, 4) == 0.0

    def test_model_validity_guard(self):
        with pytest.raises(ValueError):
            dark_click_prob(0.3, 4)
        with pytest.raises(ValueError):
            dark_click_prob(-1e-9, 4)
        with pytest.raises(ValueError):
            dark_click_prob(1e-3, 0)


class TestChannelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(eta=0.0)
        with pytest.raises(ValueError):
            ChannelParams(eta=1.2)
        with pytest.raises(ValueError):
            ChannelParams(d=1.0)
        with pytest.raises(ValueError):
            ChannelParams(mu=0.5)
        with pytest.raises(ValueError):
            ChannelParams(sigma=-0.1)
        with pytest.raises(ValueError):
            ChannelParams(receiver_loss_db=-1.0)

    def test_defaults_are_lossless(self):
        p = ChannelParams()
        assert float(arm_alpha(p, 0.0)) == 1.0
