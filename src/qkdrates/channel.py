"""Loss, transmission, and dark-count model shared by all protocols."""

from __future__ import annotations

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
    """

    sigma: float = 0.2
    eta: float = 1.0
    receiver_loss_db: float = 0.0
    d: float = 0.0
    mu: float = 0.0
    receiver_loss_per_arm: bool = True

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if self.receiver_loss_db < 0:
            raise ValueError("receiver_loss_db must be non-negative")
        if not 0.0 <= self.d < 1.0:
            raise ValueError("dark-count probability must lie in [0, 1)")
        if not 0.0 <= self.mu < 0.5:
            raise ValueError("baseline error fraction must lie in [0, 0.5)")


def fiber_transmission(sigma: float, length: float) -> float:
    """Fiber transmission 10^(-sigma L / 10) over a length in km."""
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    return 10.0 ** (-sigma * length / 10.0)


def db_to_transmission(loss_db: float) -> float:
    """Transmission fraction corresponding to a loss quoted in dB."""
    if loss_db < 0:
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


def checked_transmission(value, name: str = "arm transmission") -> float:
    """The value as a float, after checking that it lies in [0, 1]."""
    a = float(value)
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {a}")
    return a


def arm_alpha(p: ChannelParams, length: float) -> float:
    """Detection probability for one photon sent down one arm of given length.

    Combines detector efficiency, the fixed receiver-unit loss, and fiber
    transmission: alpha = eta * 10^(-receiver_loss_db/10) * T_F(length).
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    return arm_alpha_from_loss_db(p, span_loss_db(p, length, "distance", 1))


def arm_alpha_from_loss_db(p: ChannelParams, loss_db: float, receiver_loss_db=None) -> float:
    """Arm detection probability for a channel quoted as total loss in dB.

    Used in free-space mode, where the abscissa is loss rather than distance.
    The receiver loss may be overridden (e.g. halved for a shared two-arm
    budget); None keeps the channel's own value.
    """
    if loss_db < 0:
        raise ValueError(f"loss must be non-negative, got {loss_db}")
    rec = p.receiver_loss_db if receiver_loss_db is None else receiver_loss_db
    return checked_transmission(p.eta * db_to_transmission(rec) * db_to_transmission(loss_db))


def dark_click_prob(d: float, detectors: int) -> float:
    """Probability that any of several detectors fires on dark counts alone.

    Linearized to detectors * d, neglecting coincident dark counts, which is
    only a valid model while that product stays below 1.
    """
    if detectors < 1:
        raise ValueError("detector count must be at least 1")
    if d < 0:
        raise ValueError("dark-count probability must be non-negative")
    p = detectors * d
    if p >= 1.0:
        raise ValueError(f"{detectors} detectors at d={d} exceed the linear model's validity")
    return p
