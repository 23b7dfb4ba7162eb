"""Scalar information-theoretic primitives for key-rate analysis.

Binary entropy, benchmark error-correction efficiency, the disturbance
measure, the individual-attack collision-probability bound, and the secure
fraction tau derived from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "DisturbanceRecord",
    "EcBenchmarkTable",
    "DEFAULT_EC_TABLE",
    "binary_entropy",
    "ec_efficiency",
    "disturbance",
    "collision_bound",
    "tau",
    "tau_multiphoton",
]


@dataclass(frozen=True)
class DisturbanceRecord:
    """Counts entering the disturbance measure of a reconciled key.

    Attributes:
        n_rec: Number of reconciled bits.
        n_err: Number of error bits among them.
        n_dual: Number of ambiguous dual-fire events (multiple detectors in
            one receiver firing within a clock cycle).
        w_dual: Weight assigned to each dual-fire event (default 1/2).
    """

    n_rec: int
    n_err: int
    n_dual: int = 0
    w_dual: float = 0.5

    def __post_init__(self):
        if self.n_rec < 0 or self.n_err < 0 or self.n_dual < 0:
            raise ValueError("counts must be non-negative")
        if self.n_err > self.n_rec:
            raise ValueError("n_err cannot exceed n_rec")
        if self.w_dual < 0:
            raise ValueError("w_dual must be non-negative")


@dataclass(frozen=True)
class EcBenchmarkTable:
    """Benchmark (error rate, efficiency) pairs for an error-correction code.

    The efficiency f(e) >= 1 measures how far the code operates above the
    Shannon limit; intermediate values are linearly interpolated and values
    outside the benchmark range are clamped to the nearest endpoint.
    """

    entries: tuple[tuple[float, float], ...] = field(
        default_factory=lambda: ((0.01, 1.16), (0.05, 1.16), (0.1, 1.22), (0.15, 1.35))
    )

    def __post_init__(self):
        if not self.entries:
            raise ValueError("benchmark table must be non-empty")
        es = [e for e, _ in self.entries]
        if any(b <= a for a, b in zip(es, es[1:])):
            raise ValueError("benchmark abscissae must be strictly increasing")
        if any(f < 1.0 for _, f in self.entries):
            raise ValueError("efficiency must be >= 1 everywhere")

    def efficiency(self, e: float) -> float:
        """Interpolated f(e), clamped to the endpoints outside the table."""
        entries = self.entries
        if e <= entries[0][0]:
            return entries[0][1]
        if e >= entries[-1][0]:
            return entries[-1][1]
        for (e0, f0), (e1, f1) in zip(entries, entries[1:]):
            if e0 <= e <= e1:
                return f0 + (f1 - f0) * (e - e0) / (e1 - e0)
        raise AssertionError("unreachable")


DEFAULT_EC_TABLE = EcBenchmarkTable()


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
        Piecewise-linear interpolation of f over DEFAULT_EC_TABLE,
        endpoint-clamped.
    """
    if e < 0.0 or e >= 0.5:
        raise ValueError(f"error fraction must lie in [0, 0.5), got {e}")
    return DEFAULT_EC_TABLE.efficiency(e)


def disturbance(rec: DisturbanceRecord) -> float:
    """Weighted disturbance (n_err + w_dual * n_dual) / n_rec."""
    if rec.n_rec == 0:
        raise ValueError("n_rec must be positive")
    return (rec.n_err + rec.w_dual * rec.n_dual) / rec.n_rec


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
