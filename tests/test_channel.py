"""Unit tests for the channel and detector loss model."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkdrates import fockoracle, security
from qkdrates.channel import (
    ChannelParams,
    _is_integer,
    arm_alpha,
    arm_alpha_from_loss_db,
    checked_transmission,
    dark_click_prob,
    db_to_transmission,
    fiber_transmission,
)
from qkdrates.sources import SwapChain


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

    @pytest.mark.parametrize("sigma, length, message", [
        (0.2, math.nan, "length must be non-negative and finite, got nan"),
        (0.2, math.inf, "length must be non-negative and finite, got inf"),
        (math.nan, 10.0, "loss coefficient must be non-negative and finite, got nan"),
        (-0.2, 10.0, "loss coefficient must be non-negative and finite, got -0.2"),
        (math.inf, 10.0, "loss coefficient must be non-negative and finite, got inf"),
    ], ids=repr)
    def test_fiber_rejects_nan_and_negative_loss(self, sigma, length, message):
        # a NaN used to come back as the transmission, and sigma -0.2 as a gain of 1.585
        with pytest.raises(ValueError, match=re.escape(message)):
            fiber_transmission(sigma, length)

    def test_db_rejects_nan(self):
        with pytest.raises(ValueError, match="loss must be non-negative, got nan"):
            db_to_transmission(math.nan)

    @pytest.mark.parametrize("sigma, length, message", [
        (True, 10.0, "loss coefficient must be non-negative and finite, got True"),
        ("0.2", 10.0, "loss coefficient must be non-negative and finite, got '0.2'"),
        (None, 10.0, "loss coefficient must be non-negative and finite, got None"),
        (0.2, True, "length must be non-negative and finite, got True"),
        (0.2, "10", "length must be non-negative and finite, got '10'"),
        (0.2, 1j, "length must be non-negative and finite, got 1j"),
    ], ids=repr)
    def test_fiber_rejects_non_real(self, sigma, length, message):
        # True was taken as 1 (fiber_transmission(True, 10.0) was 0.1), a str raised a bare TypeError
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            fiber_transmission(sigma, length)

    @pytest.mark.parametrize("length", [True, False, "10", None, 1j], ids=repr)
    def test_arm_alpha_rejects_non_real(self, length):
        with pytest.raises(ValueError, match="^" + re.escape(f"length must be non-negative, got {length!r}") + "$"):
            arm_alpha(ChannelParams(), length)

    def test_real_number_types_accepted(self):
        assert fiber_transmission(np.float64(0.2), 50) == fiber_transmission(0.2, 50.0)
        assert fiber_transmission(0, Fraction(1, 2)) == 1.0
        assert arm_alpha(ChannelParams(), np.int64(10)) == arm_alpha(ChannelParams(), 10.0)

    def test_arm_alpha_rejects_nan(self):
        p = ChannelParams()
        with pytest.raises(ValueError, match="length must be non-negative, got nan"):
            arm_alpha(p, math.nan)
        with pytest.raises(ValueError, match="loss must be non-negative, got nan"):
            arm_alpha_from_loss_db(p, math.nan)


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

    def test_arm_loss_is_probability(self):
        with pytest.raises(ValueError):
            checked_transmission(1.5)
        with pytest.raises(ValueError):
            checked_transmission(-0.1)
        assert checked_transmission(0.25) == 0.25

    @pytest.mark.parametrize("value", ["0.5", b"0.5", bytearray(b"0.5"), True, False, np.True_, None, 0.5j],
                             ids=repr)
    def test_transmission_is_not_coerced(self, value):
        with pytest.raises(ValueError, match="segment transmission must be a real number, got " + re.escape(repr(value))):
            checked_transmission(value, "segment transmission")

    @pytest.mark.parametrize("value", [1, 0, np.float64(0.25), np.float32(0.25), np.int64(1)], ids=repr)
    def test_real_numbers_become_floats(self, value):
        got = checked_transmission(value)
        assert type(got) is float and got == float(value)


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

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="dark-count probability must be non-negative, got nan"):
            dark_click_prob(math.nan, 4)

    @pytest.mark.parametrize("detectors", [2.5, True, np.True_, 4.0, "4", None], ids=repr)
    def test_non_integer_detector_count_rejected(self, detectors):
        with pytest.raises(ValueError, match="detector count must be an integer, got " + re.escape(repr(detectors))):
            dark_click_prob(1e-3, detectors)

    def test_numpy_integer_detector_count_accepted(self):
        assert dark_click_prob(5e-5, np.int64(4)) == dark_click_prob(5e-5, 4)


def _accepts(call, value) -> bool:
    try:
        call(value)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("value, integer", [
    (2, True), (np.int64(2), True), (True, False), (2.0, False), ("2", False), (None, False),
], ids=repr)
def test_every_integer_site_takes_the_same_integers(value, integer):
    # each site once spelt out its own integer test; they share _is_integer
    assert _is_integer(value) == integer
    assert _accepts(lambda v: security._integer(v, "count"), value) == integer
    assert fockoracle._is_count(value) == integer
    assert _accepts(SwapChain, value) == integer
    assert _accepts(lambda v: dark_click_prob(0.0, v), value) == integer


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

    @pytest.mark.parametrize("field", ["sigma", "receiver_loss_db"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=repr)
    def test_non_finite_loss_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be non-negative and finite"):
            ChannelParams(**{field: value})

    @pytest.mark.parametrize("field", ["sigma", "eta", "receiver_loss_db", "d", "mu"])
    @pytest.mark.parametrize("value", [True, "0.2", None], ids=repr)
    def test_non_real_field_rejected(self, field, value):
        # True once passed as 1, and "0.2" raised a bare TypeError
        message = f"{field} must be a real number, got {value!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            ChannelParams(**{field: value})

    @pytest.mark.parametrize("value", ["no", 1, None], ids=repr)
    def test_non_bool_flag_rejected(self, value):
        # "no" was once true
        message = f"receiver_loss_per_arm must be a bool, got {value!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            ChannelParams(receiver_loss_per_arm=value)

    def test_numpy_and_integer_fields_accepted(self):
        p = ChannelParams(sigma=np.float64(0.2), eta=1, receiver_loss_db=np.int64(1), d=0, mu=0.01)
        assert p == ChannelParams(sigma=0.2, eta=1.0, receiver_loss_db=1.0, d=0.0, mu=0.01)

    def test_defaults_are_lossless(self):
        p = ChannelParams()
        assert float(arm_alpha(p, 0.0)) == 1.0
