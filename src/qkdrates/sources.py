"""Per-pulse detection statistics for every supported photon source.

Covers single-path click statistics (ideal single-photon and Poisson pulses),
two-arm coincidence statistics (ideal EPR pairs and parametric
down-conversion), and chains of entanglement swaps between ideal pair
sources.
"""

from __future__ import annotations

import math
import sys
import typing
from dataclasses import MISSING, dataclass, fields

from .channel import (
    ChannelParams,
    checked_transmission,
    dark_click_prob,
    db_to_transmission,
    receiver_arm_loss_db,
)

__all__ = [
    "PROTOCOLS",
    "BB84_DETECTORS",
    "IdealSingle",
    "Poisson",
    "IdealEpr",
    "Pdc",
    "SwapChain",
    "SourceSpec",
    "json_value",
    "read_block",
    "write_block",
    "parse_source",
    "source_to_dict",
    "check_source",
    "ClickStats",
    "CoincidenceStats",
    "PdcCoefficients",
    "bb84_stats",
    "ekert_ideal_stats",
    "pdc_coefficients",
    "pdc_stats",
    "swap_stats_from_segment",
]

BB84_DETECTORS = 4

_WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class IdealSingle:
    """Source emitting exactly one photon per pulse."""

    tag = "ideal-single"


@dataclass(frozen=True)
class Poisson:
    """Attenuated laser pulse with Poissonian photon number."""

    nbar: float
    tag = "poisson"

    def __post_init__(self):
        if self.nbar <= 0:
            raise ValueError("mean photon number must be positive")


@dataclass(frozen=True)
class IdealEpr:
    """Source emitting exactly one polarization-entangled pair per pulse."""

    tag = "ideal-epr"


@dataclass(frozen=True)
class Pdc:
    """Parametric down-conversion source with pump parameter chi."""

    chi: float
    tag = "pdc"

    def __post_init__(self):
        if self.chi <= 0:
            raise ValueError("pump parameter must be positive")


@dataclass(frozen=True)
class SwapChain:
    """Chain of ideal pair sources linked by Bell-analyzer swaps.

    Attributes:
        n_swaps: Number of entanglement swaps (Bell analyzers) in the chain.
        literal_exponent: Reproduce the double-exponentiated chain success
            probability (success_prob^n_swaps with success_prob already the
            n_swaps-fold product) instead of the single-factor form.
    """

    n_swaps: int
    literal_exponent: bool = False
    tag = "swap"

    def __post_init__(self):
        if self.n_swaps < 1:
            raise ValueError("swap chain needs at least one swap")

    @property
    def segments(self) -> int:
        """Equal fiber segments between Alice and Bob: 2 n_swaps + 2."""
        return 2 * self.n_swaps + 2


SourceSpec = IdealSingle | Poisson | IdealEpr | Pdc | SwapChain

_SOURCE_TAGS = {cls.tag: cls for cls in typing.get_args(SourceSpec)}

# The sources each protocol can use: single-path for bb84, two-arm for ekert.
_PROTOCOL_SOURCES = {"bb84": (IdealSingle, Poisson), "ekert": (IdealEpr, Pdc, SwapChain)}
PROTOCOLS = tuple(_PROTOCOL_SOURCES)


_JSON_KINDS = {
    bool: "true or false",
    int: "an integer",
    float: "a finite number",
    str: "a string",
    dict: "a JSON object",
    list: "an array",
}


def json_value(value, kind: type, name: str):
    """The value if it is of the JSON kind, a number as a float for a float
    kind. true and false are neither integers nor numbers, and a number must
    be finite as a float: NaN, Infinity and larger integers are rejected."""
    if kind in (int, float):
        number = isinstance(value, (int, kind)) and not isinstance(value, bool)
        if number and abs(value) <= sys.float_info.max:
            return float(value) if kind is float else value
    elif isinstance(value, kind):
        return value
    raise ValueError(f"{name} must be {_JSON_KINDS[kind]}, got {value!r}")


def read_block(block: dict, table: tuple, where: str) -> dict:
    """{attribute: value} of a config block read through its key table; a key
    the table does not list, or an absent required key, is an error."""
    unknown = sorted(set(block) - {key for key, _, _, _ in table})
    if unknown:
        raise ValueError(f"unknown {where} key(s) {unknown}")
    out = {}
    for key, attr, kind, default in table:
        if key in block:
            out[attr] = json_value(block[key], kind, key)
        elif default is MISSING:
            raise ValueError(f"{where} requires {key!r}")
        else:
            out[attr] = default
    return out


def write_block(values: dict, table: tuple) -> dict:
    """The config block of {attribute: value}: every value that differs
    from its row's default, under its JSON key."""
    return {key: values[attr] for key, attr, _, default in table if values[attr] != default}


# A source's config keys are its dataclass fields.
_SOURCE_KEYS = {
    tag: tuple((f.name, f.name, typing.get_type_hints(cls)[f.name], f.default) for f in fields(cls))
    for tag, cls in _SOURCE_TAGS.items()
}


def parse_source(cfg: dict) -> SourceSpec:
    """Build a source spec from a config mapping with a ``source`` tag."""
    tag = cfg.get("source")
    if not isinstance(tag, str) or tag not in _SOURCE_TAGS:
        raise ValueError(f"unknown source tag {tag!r}; expected one of {sorted(_SOURCE_TAGS)}")
    params = {key: value for key, value in cfg.items() if key != "source"}
    return _SOURCE_TAGS[tag](**read_block(params, _SOURCE_KEYS[tag], f"{tag} source"))


def check_source(protocol: str, src: SourceSpec | None) -> None:
    """Reject an unknown protocol, or a source it cannot use; None (the free
    source the optimizer picks) suits either protocol."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    if src is not None and not isinstance(src, _PROTOCOL_SOURCES[protocol]):
        raise ValueError(f"source {src.tag!r} does not serve protocol {protocol!r}")


def source_to_dict(src: SourceSpec) -> dict:
    """Serialize a source spec back to its config mapping."""
    return {"source": src.tag, **write_block(vars(src), _SOURCE_KEYS[src.tag])}


@dataclass(frozen=True)
class ClickStats:
    """Single-receiver detection statistics per clock pulse.

    Attributes:
        p_click: Probability that the receiver registers any click.
        e: Error fraction among sifted clicks.
        beta: Fraction of reconciled bits not attributable to multi-photon
            pulses. May come out non-positive at high loss, which signals
            that no secure bits remain (the photon-splitting collapse), but
            must be finite.
    """

    p_click: float
    e: float
    beta: float

    def __post_init__(self):
        if not 0.0 <= self.p_click <= 1.0:
            raise ValueError("p_click must lie in [0, 1]")
        if not 0.0 <= self.e <= 1.0:
            raise ValueError("error fraction must lie in [0, 1]")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if self.beta > 1.0 + _WEIGHT_TOL:
            raise ValueError("beta cannot exceed 1")


@dataclass(frozen=True)
class CoincidenceStats:
    """Two-receiver coincidence statistics per clock pulse."""

    p_true: float
    p_false: float
    e: float

    def __post_init__(self):
        for name in ("p_true", "p_false"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 0.0 <= self.e <= 0.5 + _WEIGHT_TOL:
            raise ValueError("coincidence error fraction must lie in [0, 1/2]")

    @property
    def p_coin(self) -> float:
        return self.p_true + self.p_false


@dataclass(frozen=True)
class PdcCoefficients:
    """Weights of the lossy down-conversion state's relevant components.

    A: both receivers share an entangled pair; B: vacuum at both; C: a single
    unpolarized photon at one receiver (same weight each side); D: independent
    unpolarized photons at both. The remainder 1 - A - B - 2C - D is the
    higher-order multi-photon component and must be non-negative.
    """

    A: float
    B: float
    C: float
    D: float

    def __post_init__(self):
        for name in "ABCD":
            v = getattr(self, name)
            if not -_WEIGHT_TOL <= v <= 1.0 + _WEIGHT_TOL:
                raise ValueError(f"coefficient {name} must lie in [0, 1], got {v}")
        if self.higher_order_weight < -_WEIGHT_TOL:
            raise ValueError("component weights exceed 1")

    @property
    def higher_order_weight(self) -> float:
        return 1.0 - self.A - self.B - 2.0 * self.C - self.D


def _sifted_error(signal: float, noise: float, mu: float, events: str = "coincidence") -> float:
    """Error fraction among sifted events: a noise event (dark count or
    accidental coincidence) errs half the time, a signal event at rate mu."""
    total = signal + noise
    if total == 0.0:
        raise ValueError(f"degenerate statistics: {events} probability is zero")
    return (noise / 2.0 + mu * signal) / total


def _coincidence_stats(p_true: float, p_false: float, p: ChannelParams) -> CoincidenceStats:
    return CoincidenceStats(p_true=p_true, p_false=p_false, e=_sifted_error(p_true, p_false, p.mu))


def bb84_stats(src: SourceSpec, alpha: float, p: ChannelParams) -> ClickStats:
    """Click statistics for a one-way protocol with a four-detector receiver.

    Args:
        src: IdealSingle or Poisson source.
        alpha: End-to-end arm detection probability.
        p: Channel parameters (dark counts and baseline error).

    Returns:
        ClickStats with the click probability, error fraction, and the
        untagged fraction beta.
    """
    check_source("bb84", src)
    a = checked_transmission(alpha)
    if isinstance(src, IdealSingle):
        p_signal = a
        p_m = 0.0
    else:
        p_signal = 1.0 - math.exp(-a * src.nbar)
        p_m = 1.0 - (1.0 + src.nbar) * math.exp(-src.nbar)
    p_dark = dark_click_prob(p.d, BB84_DETECTORS)
    e = _sifted_error(p_signal, p_dark, p.mu, "click")
    p_click = p_signal + p_dark
    beta = (p_click - p_m) / p_click
    return ClickStats(p_click=p_click, e=e, beta=beta)


def ekert_ideal_stats(alpha_half: float, p: ChannelParams) -> CoincidenceStats:
    """Coincidence statistics for an ideal pair source midway between arms.

    Each photon of the pair reaches its receiver with probability alpha_half
    (per-arm constants already folded in). False coincidences pair a
    surviving photon with a dark count or two dark counts with each other.
    """
    a = checked_transmission(alpha_half)
    d = p.d
    return _coincidence_stats(a * a, 8.0 * a * d + 16.0 * d * d, p)


def pdc_coefficients(chi: float, alpha_half: float) -> PdcCoefficients:
    """Closed-form component weights of the lossy down-conversion state.

    With z = tanh^2(chi) (1 - alpha)^2 the weights are geometric-series sums
    over the pair-number distribution:

        A = 2 alpha^2 tanh^2(chi) / (cosh^4(chi) (1 - z)^4)
        B = 1 / (cosh^4(chi) (1 - z)^2)
        C = 2 alpha (1 - alpha) tanh^2(chi) / (cosh^4(chi) (1 - z)^3)
        D = 4 alpha^2 (1 - alpha)^2 tanh^4(chi) / (cosh^4(chi) (1 - z)^4)
    """
    if chi <= 0:
        raise ValueError("pump parameter must be positive")
    a = checked_transmission(alpha_half)
    t2 = math.tanh(chi) ** 2
    c4 = math.cosh(chi) ** 4
    z = t2 * (1.0 - a) ** 2
    one_m_z = 1.0 - z
    A = 2.0 * a * a * t2 / (c4 * one_m_z**4)
    B = 1.0 / (c4 * one_m_z**2)
    C = 2.0 * a * (1.0 - a) * t2 / (c4 * one_m_z**3)
    D = 4.0 * a * a * (1.0 - a) ** 2 * t2 * t2 / (c4 * one_m_z**4)
    return PdcCoefficients(A=A, B=B, C=C, D=D)


def pdc_stats(chi: float, alpha_half: float, p: ChannelParams) -> CoincidenceStats:
    """Coincidence statistics for a down-conversion source midway between arms.

    True coincidences come from the shared-pair component A; accidental
    coincidences lump the dark-dark, dark-photon, and photon-photon
    contributions of the vacuum, single-photon, and double-unpolarized
    components: p_false = 16 d^2 B + 8 d C + D.
    """
    c = pdc_coefficients(chi, alpha_half)
    d = p.d
    return _coincidence_stats(c.A, 16.0 * d * d * c.B + 8.0 * d * c.C + c.D, p)


def swap_stats_from_segment(
    src: SwapChain, segment_transmission: float, p: ChannelParams
) -> CoincidenceStats:
    """Swap-chain coincidence statistics given one segment's transmission.

    The chain has 2 n_swaps + 2 segments. Photons arriving at Bell analyzers
    see detector efficiency only; the two endpoint photons additionally pass
    the receiver-unit loss. Conditioned on all analyzers firing (probability
    p_bell), the shared state retains pair fidelity weight g^n_swaps, and the
    unpolarized remainder feeds the false-coincidence rate alongside the
    dark-count terms.
    """
    d = p.d
    alpha_bell = p.eta * checked_transmission(segment_transmission, "segment transmission")
    alpha_end = alpha_bell * db_to_transmission(receiver_arm_loss_db(p, 2))
    p_swap_true = alpha_bell * alpha_bell / 2.0
    p_swap_false = 6.0 * alpha_bell * d + 12.0 * d * d
    p_swap = p_swap_true + p_swap_false
    n = src.n_swaps
    if p_swap == 0.0:
        raise ValueError("degenerate statistics: no Bell analyzer can fire")
    g = p_swap_true / p_swap
    p_bell = p_swap**n
    if src.literal_exponent:
        p_bell = p_bell**n
    g_n = g**n
    p_true = p_bell * g_n * alpha_end * alpha_end
    p_false = p_bell * (8.0 * alpha_end * d + 16.0 * d * d + (1.0 - g_n) * alpha_end * alpha_end)
    return _coincidence_stats(p_true, p_false, p)

