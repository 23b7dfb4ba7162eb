"""Loss, transmission, and dark-count model shared by all protocols."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

__all__ = [
    "ChannelParams",
    "fiber_transmission",
    "db_to_transmission",
    "arm_alpha",
    "arm_alpha_from_loss_db",
    "span_loss_db",
    "receiver_arm_loss_db",
    "checked_transmission",
    "dark_click_prob",
]


@dataclass(frozen=True)
class ChannelParams:
    """Channel and detector parameters.

    Attributes:
        sigma: Fiber loss coefficient in dB/km.
        eta: Detector quantum efficiency, in (0, 1].
        receiver_loss_db: Fixed loss of a receiver unit in dB.
        d: Dark-count probability per detector per gate.
        mu: Baseline error fraction of signal photons.
        receiver_loss_per_arm: If true (default), eta and receiver_loss_db
            apply once per receiving arm; if false, the receiver loss dB is
            split evenly across the arms of a two-arm setup.

    A numeric field must be a real number, not a bool, and the flag a bool.
    """

    sigma: float = 0.2
    eta: float = 1.0
    receiver_loss_db: float = 0.0
    d: float = 0.0
    mu: float = 0.0
    receiver_loss_per_arm: bool = True

    def __post_init__(self):
        for name in ("sigma", "eta", "receiver_loss_db", "d", "mu"):
            value = getattr(self, name)
            if not _is_real(value):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if type(self.receiver_loss_per_arm) is not bool:
            raise ValueError(f"receiver_loss_per_arm must be a bool, got {self.receiver_loss_per_arm!r}")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError("sigma must be non-negative and finite")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if not 0.0 <= self.receiver_loss_db < math.inf:
            raise ValueError("receiver_loss_db must be non-negative and finite")
        if not 0.0 <= self.d < 1.0:
            raise ValueError("dark-count probability must lie in [0, 1)")
        if not 0.0 <= self.mu < 0.5:
            raise ValueError("baseline error fraction must lie in [0, 0.5)")


def fiber_transmission(sigma: float, length: float) -> float:
    """Fiber transmission 10^(-sigma L / 10) over a length in km, for a loss
    coefficient sigma in dB/km; both must be non-negative, finite real
    numbers (a bool or str is not)."""
    if not (_is_real(sigma) and 0.0 <= sigma < math.inf):
        raise ValueError(f"loss coefficient must be non-negative and finite, got {sigma!r}")
    if not (_is_real(length) and 0.0 <= length < math.inf):
        raise ValueError(f"length must be non-negative and finite, got {length!r}")
    return 10.0 ** (-sigma * length / 10.0)


def db_to_transmission(loss_db: float) -> float:
    """Transmission fraction corresponding to a loss quoted in dB."""
    if not loss_db >= 0:
        raise ValueError(f"loss must be non-negative, got {loss_db}")
    return 10.0 ** (-loss_db / 10.0)


def span_loss_db(p: ChannelParams, abscissa: float, mode: str, pieces: int) -> float:
    """Loss in dB of one of `pieces` equal spans of an abscissa in km
    ("distance" mode) or in dB (any other mode)."""
    span = abscissa / pieces
    return p.sigma * span if mode == "distance" else span


def receiver_arm_loss_db(p: ChannelParams, arms: int) -> float:
    """Receiver-unit loss in dB charged to each of `arms` receiving arms."""
    return p.receiver_loss_db if p.receiver_loss_per_arm else p.receiver_loss_db / arms


# The range and limit checks that sweep rows can fail, as predicates over
# floats or numpy arrays: the scalar functions raise where they are false, and
# sources._stats_columns ANDs them.
def _transmission_ok(value):
    return (0.0 <= value) & (value <= 1.0)


def _dark_clicks_ok(d, detectors):
    return detectors * d < 1.0


def _is_real(value) -> bool:
    """Whether the value is a real number, numpy's included: a str, bytes or
    bool is not."""
    return type(value) is float or (not isinstance(value, bool) and isinstance(value, numbers.Real))


def _is_integer(value) -> bool:
    """Whether the value is an integer, numpy's included: a bool is not."""
    return type(value) is int or (not isinstance(value, bool) and isinstance(value, numbers.Integral))


def checked_transmission(value, name: str = "arm transmission") -> float:
    """The value as a float, after checking that it is a real number in [0, 1].

    A str, bytes or bool is rejected, not converted. An exact float, the
    rate path's case, pays only the one type test.
    """
    if type(value) is not float:
        if not _is_real(value):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        value = float(value)
    if not _transmission_ok(value):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def arm_alpha(p: ChannelParams, length: float) -> float:
    """Detection probability for one photon sent down one arm of given length.

    Combines detector efficiency, the fixed receiver-unit loss, and fiber
    transmission: alpha = eta * 10^(-receiver_loss_db/10) * T_F(length).
    The length must be a non-negative real number (a bool or str is not).
    """
    if not (_is_real(length) and length >= 0):
        raise ValueError(f"length must be non-negative, got {length!r}")
    return arm_alpha_from_loss_db(p, span_loss_db(p, length, "distance", 1))


def arm_alpha_from_loss_db(p: ChannelParams, loss_db: float) -> float:
    """Detection probability for one photon down one arm that loses loss_db:
    eta * 10^(-receiver_loss_db/10) * 10^(-loss_db/10). The rate path's arm
    transmissions, which may split the receiver loss, are protocols'."""
    return checked_transmission(p.eta * db_to_transmission(p.receiver_loss_db) * db_to_transmission(loss_db))


def dark_click_prob(d: float, detectors: int) -> float:
    """Probability that any of several detectors fires on dark counts alone.

    Linearized to detectors * d, neglecting coincident dark counts, which is
    only a valid model while that product stays below 1. The detector count
    must be an integer, numpy's included, but not a bool.
    """
    # an exact int, the rate path's case, pays only the type test
    if type(detectors) is not int and not _is_integer(detectors):
        raise ValueError(f"detector count must be an integer, got {detectors!r}")
    if detectors < 1:
        raise ValueError("detector count must be at least 1")
    if not d >= 0:
        raise ValueError(f"dark-count probability must be non-negative, got {d}")
    if not _dark_clicks_ok(d, detectors):
        raise ValueError(f"{detectors} detectors at d={d} exceed the linear model's validity")
    return detectors * d
