"""Loss, transmission, and dark-count model shared by all protocols."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ChannelParams",
    "ArmLoss",
    "fiber_transmission",
    "db_to_transmission",
    "arm_alpha",
    "arm_alpha_from_loss_db",
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


@dataclass(frozen=True)
class ArmLoss:
    """End-to-end single-photon detection probability over one arm."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")

    def __float__(self) -> float:
        return self.alpha


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


def arm_alpha(p: ChannelParams, length: float) -> ArmLoss:
    """Detection probability for one photon sent down one arm of given length.

    Combines detector efficiency, the fixed receiver-unit loss, and fiber
    transmission: alpha = eta * 10^(-receiver_loss_db/10) * T_F(length).
    """
    alpha = p.eta * db_to_transmission(p.receiver_loss_db) * fiber_transmission(p.sigma, length)
    return ArmLoss(alpha)


def arm_alpha_from_loss_db(p: ChannelParams, loss_db: float, receiver_loss_db=None) -> ArmLoss:
    """Arm detection probability for a channel quoted as total loss in dB.

    Used in free-space mode, where the abscissa is loss rather than distance.
    The receiver loss may be overridden (e.g. halved for a shared two-arm
    budget); None keeps the channel's own value.
    """
    if loss_db < 0:
        raise ValueError(f"loss must be non-negative, got {loss_db}")
    rec = p.receiver_loss_db if receiver_loss_db is None else receiver_loss_db
    return ArmLoss(p.eta * db_to_transmission(rec) * db_to_transmission(loss_db))


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
