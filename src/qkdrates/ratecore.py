"""Information-theoretic primitives and the key-rate formula.

Binary entropy, benchmark error-correction efficiency, the
individual-attack collision-probability bound, and the secure fraction tau
derived from it. Each function raises ValueError for an argument outside
its domain, NaN included. The key rate 0.5 p_sift (tau - f h) built from
them is here too (_key_rate); its array form is grid._key_rate_columns.
"""

from __future__ import annotations

import math
from bisect import bisect_left

__all__ = [
    "binary_entropy",
    "ec_efficiency",
    "collision_bound",
    "tau",
    "tau_multiphoton",
]

# Rounding allowance when a weight or fraction, such as beta, is checked
# against its bounds.
_WEIGHT_TOL = 1e-9

# Benchmark (error rate, efficiency) pairs of the error-correction code. The
# efficiency f(e) >= 1 measures how far the code operates above the Shannon
# limit; ec_efficiency interpolates linearly between the pairs and clamps to
# the nearest endpoint outside them.
_EC_TABLE = ((0.01, 1.16), (0.05, 1.16), (0.1, 1.22), (0.15, 1.35))

# The table as one lookup: e selects the first segment whose knot reaches it,
# the two constant ends are segments without rise, and the last knot sits one
# ulp low so that e = 0.15 selects the constant end. Rows: segment start e, f
# at the start, rise of f, run of e.
_EC_KNOTS = tuple(e for e, _ in _EC_TABLE[:-1]) + (math.nextafter(_EC_TABLE[-1][0], 0.0),)
_EC_SEGMENTS = (
    ((0.0, _EC_TABLE[0][1], 0.0, 1.0),)
    + tuple((e0, f0, f1 - f0, e1 - e0) for (e0, f0), (e1, f1) in zip(_EC_TABLE, _EC_TABLE[1:]))
    + ((0.0, _EC_TABLE[-1][1], 0.0, 1.0),)
)


# The closed forms below are plain arithmetic, so they take floats or numpy
# arrays; the scalar functions call them with math's log2, the array passes
# of grid and verifiers with what they hand in.
def _entropy(e, log2):
    return -e * log2(e) - (1.0 - e) * log2(1.0 - e)


def _ec_line(e, e0, f0, rise, run):
    return f0 + rise * (e - e0) / run


def _quadratic_bound(eps):
    return 0.5 + 2.0 * eps - 2.0 * eps * eps


def binary_entropy(e: float) -> float:
    """Entropy h(e) of a binary symmetric channel with error fraction e.

    Uses the convention 0 log 0 = 0, so h(0) = h(1) = 0.

    Args:
        e: Error fraction in [0, 1].

    Returns:
        h(e) = -e log2 e - (1-e) log2 (1-e), in [0, 1].
    """
    if not 0.0 <= e <= 1.0:
        raise ValueError(f"error fraction must lie in [0, 1], got {e}")
    if e == 0.0 or e == 1.0:
        return 0.0
    return _entropy(e, math.log2)


def ec_efficiency(e: float) -> float:
    """Error-correction efficiency f(e) from the embedded benchmark table.

    Args:
        e: Error fraction in [0, 0.5).

    Returns:
        Piecewise-linear interpolation of f over the benchmark table,
        endpoint-clamped.
    """
    if not 0.0 <= e < 0.5:
        raise ValueError(f"error fraction must lie in [0, 0.5), got {e}")
    return _ec_line(e, *_EC_SEGMENTS[bisect_left(_EC_KNOTS, e)])


def collision_bound(eps: float) -> float:
    """Upper bound on Eve's per-bit collision probability at disturbance eps.

    The quadratic bound 1/2 + 2 eps - 2 eps^2 is valid for eps <= 1/2; at
    eps = 1/2 Eve can know the whole string, so the bound saturates at 1 for
    any larger disturbance instead of following the (nonphysical) downturn of
    the quadratic.
    """
    if not eps >= 0.0:
        raise ValueError(f"disturbance must be non-negative, got {eps}")
    if eps >= 0.5:
        return 1.0
    return _quadratic_bound(eps)


def tau(eps: float) -> float:
    """Secure fraction per reconciled bit, -log2 of the collision bound."""
    return -math.log2(collision_bound(eps))


def tau_multiphoton(e: float, beta: float) -> float:
    """Secure fraction when only a beta fraction of bits is single-photon.

    Bits from multi-photon pulses are treated as fully known to Eve, so the
    disturbance concentrates on the untagged fraction: tau becomes
    -beta log2 p_c(e / beta), and saturates at 0 once e / beta reaches 1/2.

    Args:
        e: Observed error fraction in [0, 1].
        beta: Untagged (single-photon) fraction in (0, 1]; up to
            _WEIGHT_TOL of rounding above 1 is accepted, as ClickStats does.

    Returns:
        beta * tau(e / beta), or 0 when the bound saturates.
    """
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if beta > 1.0 + _WEIGHT_TOL:
        raise ValueError(f"beta cannot exceed 1, got {beta}")
    if not 0.0 <= e <= 1.0:
        raise ValueError(f"error fraction must lie in [0, 1], got {e}")
    scaled = e / beta
    if scaled >= 0.5:
        return 0.0
    return beta * tau(scaled)


def _live(e, beta):
    """Where _key_rate's formula applies, over floats or numpy arrays: beta
    positive and e / beta below 1/2."""
    return (beta > 0.0) & (e < 0.5 * beta)


def _key_rate(p_sift: float, e: float, beta: float, clamp: bool) -> float:
    """The key-rate formula of protocols.rate_bb84, and at beta = 1 rate_ekert."""
    if not _live(e, beta):
        return 0.0
    raw = 0.5 * p_sift * (tau_multiphoton(e, beta) - ec_efficiency(e) * binary_entropy(e))
    if clamp and raw < 0.0:
        return 0.0
    return raw
