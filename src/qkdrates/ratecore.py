"""Scalar information-theoretic primitives for key-rate analysis.

Binary entropy, benchmark error-correction efficiency, the
individual-attack collision-probability bound, and the secure fraction tau
derived from it.
"""

from __future__ import annotations

import math

__all__ = [
    "binary_entropy",
    "ec_efficiency",
    "collision_bound",
    "tau",
    "tau_multiphoton",
]

# Benchmark (error rate, efficiency) pairs of the error-correction code. The
# efficiency f(e) >= 1 measures how far the code operates above the Shannon
# limit; ec_efficiency interpolates linearly between the pairs and clamps to
# the nearest endpoint outside them.
_EC_TABLE = ((0.01, 1.16), (0.05, 1.16), (0.1, 1.22), (0.15, 1.35))


def binary_entropy(e: float) -> float:
    """Entropy h(e) of a binary symmetric channel with error fraction e.

    Uses the convention 0 log 0 = 0, so h(0) = h(1) = 0.

    Args:
        e: Error fraction in [0, 1].

    Returns:
        h(e) = -e log2 e - (1-e) log2 (1-e), in [0, 1].
    """
    if e < 0.0 or e > 1.0:
        raise ValueError(f"error fraction must lie in [0, 1], got {e}")
    if e == 0.0 or e == 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


def ec_efficiency(e: float) -> float:
    """Error-correction efficiency f(e) from the embedded benchmark table.

    Args:
        e: Error fraction in [0, 0.5).

    Returns:
        Piecewise-linear interpolation of f over the benchmark table,
        endpoint-clamped.
    """
    if e < 0.0 or e >= 0.5:
        raise ValueError(f"error fraction must lie in [0, 0.5), got {e}")
    if e <= _EC_TABLE[0][0]:
        return _EC_TABLE[0][1]
    if e >= _EC_TABLE[-1][0]:
        return _EC_TABLE[-1][1]
    for (e0, f0), (e1, f1) in zip(_EC_TABLE, _EC_TABLE[1:]):
        if e0 <= e <= e1:
            return f0 + (f1 - f0) * (e - e0) / (e1 - e0)
    raise AssertionError("unreachable")


def collision_bound(eps: float) -> float:
    """Upper bound on Eve's per-bit collision probability at disturbance eps.

    The quadratic bound 1/2 + 2 eps - 2 eps^2 is valid for eps <= 1/2; at
    eps = 1/2 Eve can know the whole string, so the bound saturates at 1 for
    any larger disturbance instead of following the (nonphysical) downturn of
    the quadratic.
    """
    if eps < 0.0:
        raise ValueError(f"disturbance must be non-negative, got {eps}")
    if eps >= 0.5:
        return 1.0
    return 0.5 + 2.0 * eps - 2.0 * eps * eps


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
        beta: Untagged (single-photon) fraction in (0, 1].

    Returns:
        beta * tau(e / beta), or 0 when the bound saturates.
    """
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if e < 0.0 or e > 1.0:
        raise ValueError(f"error fraction must lie in [0, 1], got {e}")
    scaled = e / beta
    if scaled >= 0.5:
        return 0.0
    return beta * tau(scaled)
