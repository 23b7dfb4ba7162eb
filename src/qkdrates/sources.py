"""Per-pulse detection statistics for every supported photon source.

Covers single-path click statistics (ideal single-photon and Poisson pulses),
two-arm coincidence statistics (ideal EPR pairs and parametric
down-conversion), and chains of entanglement swaps between ideal pair
sources: one point at a time, and as columns over arrays (_stats_columns),
from the same closed-form bodies and check tables.
"""

from __future__ import annotations

import math
import operator
import sys
import typing
from dataclasses import MISSING, dataclass, fields
from functools import reduce

from .channel import (
    ChannelParams,
    _dark_clicks_ok,
    _is_integer,
    _is_real,
    _transmission_ok,
    checked_transmission,
    dark_click_prob,
    db_to_transmission,
    receiver_arm_loss_db,
)
from .ratecore import _WEIGHT_TOL

__all__ = [
    "PROTOCOLS",
    "BB84_DETECTORS",
    "IdealSingle",
    "Poisson",
    "IdealEpr",
    "Pdc",
    "SwapChain",
    "SourceSpec",
    "ConfigError",
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
        # an exact float, the optimizer's case, pays only the type test
        if type(self.nbar) is not float and not _is_real(self.nbar):
            raise ValueError(f"nbar must be a real number, got {self.nbar!r}")
        if not 0.0 < self.nbar < math.inf:
            raise ValueError("mean photon number must be positive and finite")


@dataclass(frozen=True)
class IdealEpr:
    """Source emitting exactly one polarization-entangled pair per pulse."""

    tag = "ideal-epr"


def _check_chi(chi) -> None:
    """Reject a pump parameter that is not a positive, finite real number."""
    # an exact float, the rate path's case, pays only the type test
    if type(chi) is not float and not _is_real(chi):
        raise ValueError(f"chi must be a real number, got {chi!r}")
    if not 0.0 < chi < math.inf:
        raise ValueError("pump parameter must be positive and finite")


@dataclass(frozen=True)
class Pdc:
    """Parametric down-conversion source with pump parameter chi."""

    chi: float
    tag = "pdc"

    def __post_init__(self):
        _check_chi(self.chi)


@dataclass(frozen=True)
class SwapChain:
    """Chain of ideal pair sources linked by Bell-analyzer swaps.

    Attributes:
        n_swaps: Number of entanglement swaps (Bell analyzers) in the chain,
            an integer of at least 1.
        literal_exponent: Reproduce the double-exponentiated chain success
            probability (success_prob^n_swaps with success_prob already the
            n_swaps-fold product) instead of the single-factor form.
    """

    n_swaps: int
    literal_exponent: bool = False
    tag = "swap"

    def __post_init__(self):
        if not _is_integer(self.n_swaps):
            raise ValueError(f"swap count must be an integer, got {self.n_swaps!r}")
        if self.n_swaps < 1:
            raise ValueError("swap chain needs at least one swap")
        if type(self.literal_exponent) is not bool:
            raise ValueError(f"literal_exponent must be a bool, got {self.literal_exponent!r}")

    @property
    def segments(self) -> int:
        """Equal fiber segments between Alice and Bob: 2 n_swaps + 2."""
        return 2 * self.n_swaps + 2


SourceSpec = IdealSingle | Poisson | IdealEpr | Pdc | SwapChain

_SOURCE_TAGS = {cls.tag: cls for cls in typing.get_args(SourceSpec)}

# The sources each protocol can use: single-path for bb84, two-arm for ekert.
_PROTOCOL_SOURCES = {"bb84": (IdealSingle, Poisson), "ekert": (IdealEpr, Pdc, SwapChain)}
PROTOCOLS = tuple(_PROTOCOL_SOURCES)


class ConfigError(ValueError):
    """Raised for a malformed configuration file or an unknown verify suite."""


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


def _checks(*messages):
    """Decorate a check table: a function that returns one predicate per
    message, in order, each a comparison or comparisons joined with &, so
    that it holds on floats and on numpy arrays. A statistics class raises
    _failure where a predicate is false; _stats_columns ANDs them."""
    def mark(table):
        table.messages = messages
        return table

    return mark


def _failure(table, holds, **values) -> ValueError:
    """The error of the first false predicate in holds, the value of table:
    its message, formatted with the values it names."""
    return ValueError(table.messages[holds.index(False)].format(**values))


@_checks(
    "p_click must lie in [0, 1]",
    "error fraction must lie in [0, 1]",
    "beta must be finite, got {beta}",
    "beta cannot exceed 1",
)
def _click_checks(p_click, e, beta):
    return (
        (0.0 <= p_click) & (p_click <= 1.0),
        (0.0 <= e) & (e <= 1.0),
        (-math.inf < beta) & (beta < math.inf),
        beta <= 1.0 + _WEIGHT_TOL,
    )


@dataclass(frozen=True)
class ClickStats:
    """Single-receiver detection statistics per clock pulse, checked by the
    table _click_checks.

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
        if False in (holds := _click_checks(self.p_click, self.e, self.beta)):
            raise _failure(_click_checks, holds, **vars(self))


@_checks(
    "p_true must lie in [0, 1]",
    "p_false must lie in [0, 1]",
    "coincidence error fraction must lie in [0, 1/2]",
)
def _coincidence_checks(p_true, p_false, e):
    return (
        (0.0 <= p_true) & (p_true <= 1.0),
        (0.0 <= p_false) & (p_false <= 1.0),
        (0.0 <= e) & (e <= 0.5 + _WEIGHT_TOL),
    )


@dataclass(frozen=True)
class CoincidenceStats:
    """Two-receiver coincidence statistics per clock pulse, checked by the
    table _coincidence_checks."""

    p_true: float
    p_false: float
    e: float

    def __post_init__(self):
        if False in (holds := _coincidence_checks(self.p_true, self.p_false, self.e)):
            raise _failure(_coincidence_checks, holds, **vars(self))

    @property
    def p_coin(self) -> float:
        return self.p_true + self.p_false


def _higher_order_weight(A, B, C, D):
    return 1.0 - A - B - 2.0 * C - D


@_checks(
    "coefficient A must lie in [0, 1], got {A}",
    "coefficient B must lie in [0, 1], got {B}",
    "coefficient C must lie in [0, 1], got {C}",
    "coefficient D must lie in [0, 1], got {D}",
    "component weights exceed 1",
)
def _pdc_coefficient_checks(A, B, C, D):
    return (
        (-_WEIGHT_TOL <= A) & (A <= 1.0 + _WEIGHT_TOL),
        (-_WEIGHT_TOL <= B) & (B <= 1.0 + _WEIGHT_TOL),
        (-_WEIGHT_TOL <= C) & (C <= 1.0 + _WEIGHT_TOL),
        (-_WEIGHT_TOL <= D) & (D <= 1.0 + _WEIGHT_TOL),
        _higher_order_weight(A, B, C, D) >= -_WEIGHT_TOL,
    )


@dataclass(frozen=True)
class PdcCoefficients:
    """Weights of the lossy down-conversion state's relevant components,
    checked by the table _pdc_coefficient_checks.

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
        if False in (holds := _pdc_coefficient_checks(self.A, self.B, self.C, self.D)):
            raise _failure(_pdc_coefficient_checks, holds, **vars(self))

    @property
    def higher_order_weight(self) -> float:
        return _higher_order_weight(self.A, self.B, self.C, self.D)


# The closed forms below are plain arithmetic, so they take floats or numpy
# arrays, and their exp and power are arguments: the scalar functions pass
# math.exp and pow (the libm call that ** makes on floats), and _stats_columns
# what its caller hands it: libm maps for sweep rows, numpy's power for the
# free-source rate kernel. a is an arm transmission, d the dark count
# probability, and B, C, D the weights of PdcCoefficients.
def _poisson_clicks(a, nbar, exp):
    return 1.0 - exp(-a * nbar), 1.0 - (1.0 + nbar) * exp(-nbar)


def _pdc_loss_terms(a, t2, power):
    """(1 - a, (1 - a)^2, 1 - z) with z = t2 (1 - a)^2."""
    lost = 1.0 - a
    lost2 = power(lost, 2)
    return lost, lost2, 1.0 - t2 * lost2


def _pdc_weights(a, t2, c4, power):
    # the weights share 1 - a, (1 - a)^2 and cosh^4 (1 - z)^4, computed once
    lost, lost2, one_m_z = _pdc_loss_terms(a, t2, power)
    den4 = c4 * power(one_m_z, 4)
    return (
        2.0 * a * a * t2 / den4,
        1.0 / (c4 * power(one_m_z, 2)),
        2.0 * a * lost * t2 / (c4 * power(one_m_z, 3)),
        4.0 * a * a * lost2 * t2 * t2 / den4,
    )


def _pair_false(a, d):
    return 8.0 * a * d + 16.0 * d * d


def _swap_success(alpha_bell, d):
    """(true, total) probability that one Bell analyzer fires."""
    p_swap_true = alpha_bell * alpha_bell / 2.0
    return p_swap_true, p_swap_true + (6.0 * alpha_bell * d + 12.0 * d * d)


def _swap_coincidences(p_swap_true, p_swap, alpha_end, d, n, literal, power):
    """(p_true, p_false) of a chain of n swaps, each firing with p_swap."""
    p_bell = power(p_swap, n)
    if literal:
        p_bell = power(p_bell, n)
    g_n = power(p_swap_true / p_swap, n)
    p_true = p_bell * g_n * alpha_end * alpha_end
    return p_true, p_bell * (_pair_false(alpha_end, d) + (1.0 - g_n) * alpha_end * alpha_end)


def _pdc_false(d, B, C, D):
    return 16.0 * d * d * B + 8.0 * d * C + D


def _error_fraction(signal, noise, mu):
    # (noise / 2 + mu signal) / (signal + noise), halved last so that a
    # subnormal noise / 2 cannot round e past 1/2 (mu < 1/2 bounds it)
    return (noise + 2.0 * mu * signal) / (2.0 * (signal + noise))


# Totals the closed forms divide by, as predicates that the scalar functions
# raise on and _stats_columns ANDs; a subnormal sift total leaves e to rounding.
def _sift_ok(p_sift):
    return p_sift >= sys.float_info.min


def _swap_ok(p_swap):
    return p_swap != 0.0


def _sifted_error(signal: float, noise: float, mu: float, events: str = "coincidence") -> float:
    """Error fraction among sifted events: a noise event (dark count or
    accidental coincidence) errs half the time, a signal event at rate mu."""
    if not _sift_ok(signal + noise):
        floor = "zero" if signal + noise == 0.0 else "below the smallest normal float"
        raise ValueError(f"degenerate statistics: {events} probability is {floor}")
    return _error_fraction(signal, noise, mu)


def _coincidence_stats(p_true: float, p_false: float, p: ChannelParams) -> CoincidenceStats:
    return CoincidenceStats(p_true=p_true, p_false=p_false, e=_sifted_error(p_true, p_false, p.mu))


def bb84_stats(src: SourceSpec, alpha: float, p: ChannelParams) -> ClickStats:
    """Click statistics for a one-way protocol with a four-detector receiver.

    Args:
        src: IdealSingle or Poisson source; any other source, or None,
            raises ValueError.
        alpha: End-to-end arm detection probability.
        p: Channel parameters (dark counts and baseline error).

    Returns:
        ClickStats with the click probability, error fraction, and the
        untagged fraction beta.
    """
    if isinstance(src, IdealSingle):
        p_signal, p_m = checked_transmission(alpha), 0.0
    elif isinstance(src, Poisson):
        p_signal, p_m = _poisson_clicks(checked_transmission(alpha), src.nbar, math.exp)
    else:
        check_source("bb84", src)
        raise ValueError(f"bb84 statistics need an ideal-single or poisson source, got {src!r}")
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
    return _coincidence_stats(a * a, _pair_false(a, p.d), p)


def pdc_coefficients(chi: float, alpha_half: float) -> PdcCoefficients:
    """Closed-form component weights of the lossy down-conversion state.

    With z = tanh^2(chi) (1 - alpha)^2 the weights are geometric-series sums
    over the pair-number distribution:

        A = 2 alpha^2 tanh^2(chi) / (cosh^4(chi) (1 - z)^4)
        B = 1 / (cosh^4(chi) (1 - z)^2)
        C = 2 alpha (1 - alpha) tanh^2(chi) / (cosh^4(chi) (1 - z)^3)
        D = 4 alpha^2 (1 - alpha)^2 tanh^4(chi) / (cosh^4(chi) (1 - z)^4)
    """
    _check_chi(chi)
    a = checked_transmission(alpha_half)
    t2, c4 = math.tanh(chi) ** 2, math.pow(math.cosh(chi), 4)
    if _pdc_loss_terms(a, t2, pow)[2] == 0.0:
        raise ValueError("degenerate statistics: tanh^2(chi) (1 - alpha)^2 rounds to 1")
    A, B, C, D = _pdc_weights(a, t2, c4, pow)
    return PdcCoefficients(A=A, B=B, C=C, D=D)


def pdc_stats(chi: float, alpha_half: float, p: ChannelParams) -> CoincidenceStats:
    """Coincidence statistics for a down-conversion source midway between arms.

    True coincidences come from the shared-pair component A; accidental
    coincidences lump the dark-dark, dark-photon, and photon-photon
    contributions of the vacuum, single-photon, and double-unpolarized
    components: p_false = 16 d^2 B + 8 d C + D.
    """
    c = pdc_coefficients(chi, alpha_half)
    return _coincidence_stats(c.A, _pdc_false(p.d, c.B, c.C, c.D), p)


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
    if not isinstance(src, SwapChain):
        raise ValueError(f"swap statistics need a swap-chain source, got {src!r}")
    d = p.d
    alpha_bell = p.eta * checked_transmission(segment_transmission, "segment transmission")
    alpha_end = alpha_bell * db_to_transmission(receiver_arm_loss_db(p, 2))
    p_swap_true, p_swap = _swap_success(alpha_bell, d)
    if not _swap_ok(p_swap):
        raise ValueError("degenerate statistics: no Bell analyzer can fire")
    p_true, p_false = _swap_coincidences(
        p_swap_true, p_swap, alpha_end, d, src.n_swaps, src.literal_exponent, pow
    )
    return _coincidence_stats(p_true, p_false, p)


def _stats_columns(protocol: str, src: SourceSpec | None, p: ChannelParams, t, maths, param=None):
    """point_stats' statistics over an array of transmissions t (see
    protocols._transmissions), or with src None the free source's at param,
    an array of nbar (bb84) or chi (ekert) that broadcasts against t: the
    scalar functions' bodies with maths' exp, tanh, cosh and power, so libm
    maps give every element the scalar's bits, and raise where it raises.
    Returns (p_sift, e, beta), the statistics class's fields in order, and
    ok, which ANDs the predicates and check tables that the scalar path
    raises on (a zero 1 - z, which pdc_coefficients rejects before it
    divides, makes B infinite here).
    """
    d, mu = p.d, p.mu
    checks = [_transmission_ok(t)]
    if protocol == "bb84":
        noise = BB84_DETECTORS * d
        checks.append(_dark_clicks_ok(d, BB84_DETECTORS))
        if isinstance(src, IdealSingle):
            signal, p_m = t, 0.0
        else:
            signal, p_m = _poisson_clicks(t, param if src is None else src.nbar, maths.exp)
    elif isinstance(src, IdealEpr):
        signal, noise = t * t, _pair_false(t, d)
    elif isinstance(src, SwapChain):
        alpha_bell = p.eta * t
        alpha_end = alpha_bell * db_to_transmission(receiver_arm_loss_db(p, 2))
        p_swap_true, p_swap = _swap_success(alpha_bell, d)
        signal, noise = _swap_coincidences(
            p_swap_true, p_swap, alpha_end, d, src.n_swaps, src.literal_exponent, maths.power
        )
        checks.append(_swap_ok(p_swap))
    else:
        chi = param if src is None else src.chi
        signal, vacuum, single, double = _pdc_weights(
            t, maths.power(maths.tanh(chi), 2), maths.power(maths.cosh(chi), 4), maths.power
        )
        noise = _pdc_false(d, vacuum, single, double)
        checks.extend(_pdc_coefficient_checks(signal, vacuum, single, double))
    p_sift = signal + noise
    e = _error_fraction(signal, noise, mu)
    checks.append(_sift_ok(p_sift))
    if protocol == "bb84":
        beta = (p_sift - p_m) / p_sift
        stats = (p_sift, e, beta)
        checks.extend(_click_checks(*stats))
    else:
        beta = 1.0
        stats = (signal, noise, e)
        checks.extend(_coincidence_checks(*stats))
    return (p_sift, e, beta), stats, reduce(operator.and_, checks)
