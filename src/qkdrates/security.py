"""Privacy-amplification key sizing and security-bound verifiers.

Three independent checks back the rate formulas: a constrained maximization
of Eve's collision probability over a symmetric single-photon attack family,
a closed-form lower bound on how strongly multi-photon splitting inflates
dual-fire events, and an exhaustive small-block oracle for the
privacy-amplification entropy bound over a concrete universal hash family.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .ratecore import binary_entropy, ec_efficiency, tau

__all__ = [
    "SecurityParams",
    "KeyBudget",
    "AttackParams",
    "ec_leak_bits",
    "final_key_length",
    "eve_info_bound",
    "markov_leak_probability",
    "attack_epsilon",
    "attack_collision",
    "maximize_attack_collision",
    "multiphoton_ratio_bound",
    "pa_entropy_bound_check",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SecurityParams:
    """Security margins subtracted from the final key length.

    Attributes:
        s: Bits sacrificed so Eve's expected information is exponentially
            small in s.
        t: Bits sacrificed so the collision-probability estimate holds
            except with probability 2^-t.
    """

    s: int = 30
    t: int = 30

    def __post_init__(self):
        if self.s < 0 or self.t < 0:
            raise ValueError("security margins must be non-negative integers")


@dataclass(frozen=True)
class KeyBudget:
    """Accounting of one privacy-amplification run."""

    n_rec: int
    tau_bits: float
    kappa: int
    r: int
    eve_info: float

    def __post_init__(self):
        if self.r > self.n_rec:
            raise ValueError("final key cannot exceed the reconciled key")
        if self.r < 0 or self.eve_info < 0:
            raise ValueError("key length and information bound must be non-negative")


@dataclass(frozen=True)
class AttackParams:
    """One member of the symmetric single-photon attack family.

    Eve's probe states attached to the four polarization transition channels
    are parameterized by two squared norms and two relative angles; the
    same-polarization and crossed-polarization overlaps are
    n_xx * cos(phi_xx_yy) and n_xy * cos(phi_xy_yx), all projections real.
    """

    n_xx: float
    n_xy: float
    phi_xx_yy: float
    phi_xy_yx: float

    def __post_init__(self):
        if self.n_xx < 0 or self.n_xy < 0:
            raise ValueError("probe norms must be non-negative")
        if self.n_xx + self.n_xy == 0:
            raise ValueError("probe norms cannot both vanish")


def ec_leak_bits(n_rec: int, e: float) -> int:
    """Bits leaked by error correction: ceil(f(e) * n_rec * h(e))."""
    if n_rec < 0:
        raise ValueError("reconciled key length must be non-negative")
    if e == 0.0 or n_rec == 0:
        return 0
    return math.ceil(ec_efficiency(e) * n_rec * binary_entropy(e))


def final_key_length(n_rec: int, eps: float, kappa: int, sec: SecurityParams) -> KeyBudget:
    """Size the final key: r = max(0, floor(n_rec * tau(eps) - kappa - s - t)).

    Args:
        n_rec: Reconciled key length in bits.
        eps: Disturbance used for the collision bound, in [0, 1/2].
        kappa: Bits leaked during error correction.
        sec: Security margins s and t.

    Returns:
        KeyBudget with the secure fraction, final length, and the bound on
        Eve's expected information 2^-t r + 2^-s / ln 2.
    """
    if n_rec <= 0:
        raise ValueError("reconciled key length must be positive")
    if kappa < 0:
        raise ValueError("error-correction leakage must be non-negative")
    t_bits = tau(eps)
    r = max(0, math.floor(n_rec * t_bits - kappa - sec.s - sec.t))
    return KeyBudget(
        n_rec=n_rec, tau_bits=t_bits, kappa=kappa, r=r, eve_info=eve_info_bound(r, sec)
    )


def eve_info_bound(r: int, sec: SecurityParams) -> float:
    """Eve's expected information on the final key: 2^-t r + 2^-s / ln 2."""
    if r < 0:
        raise ValueError("key length must be non-negative")
    return math.ldexp(float(r), -sec.t) + math.ldexp(1.0 / _LN2, -sec.s)


def markov_leak_probability(i_e: float, threshold: float) -> float:
    """Probability that Eve's information reaches a threshold, by Markov.

    P(I >= threshold) <= i_e / threshold, clamped to 1.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if i_e < 0:
        raise ValueError("information bound must be non-negative")
    return min(1.0, i_e / threshold)


def attack_epsilon(a: AttackParams) -> float:
    """Disturbance caused by an attack-family member.

    eps = [n_xx (1 - cos phi_xx_yy) + n_xy (3 - cos phi_xy_yx)]
          / (4 (n_xx + n_xy)).
    """
    c1 = math.cos(a.phi_xx_yy)
    c2 = math.cos(a.phi_xy_yx)
    return (a.n_xx * (1.0 - c1) + a.n_xy * (3.0 - c2)) / (4.0 * (a.n_xx + a.n_xy))


def _collision_from(x: float, y: float, c1: float, c2: float) -> float:
    total = x + y
    value = 0.75 - (x * c1 * c1 + y * c2 * c2) / (4.0 * total)
    for s in (1.0, -1.0):
        num = x * y * (1.0 + s * c1) * (1.0 + s * c2)
        if num != 0.0:
            value += num / (2.0 * total * (x * (1.0 + s * c1) + y * (1.0 + s * c2)))
    return value


def attack_collision(a: AttackParams) -> float:
    """Eve's collision probability for an attack-family member.

    Closed form in the two norms and two overlap angles; the two
    basis-dependent terms drop out when their numerators vanish.
    """
    return _collision_from(a.n_xx, a.n_xy, math.cos(a.phi_xx_yy), math.cos(a.phi_xy_yx))


def _feasible_ratio(eps: float, c1: float, c2: float) -> float | None:
    """Norm ratio n_xx / n_xy putting the attack at disturbance eps."""
    den = c1 + 4.0 * eps - 1.0
    if den <= 0.0:
        return None
    num = 3.0 - c2 - 4.0 * eps
    if num < 0.0:
        return None
    return num / den


def maximize_attack_collision(eps: float) -> tuple[AttackParams, float]:
    """Maximize the attack collision probability at fixed disturbance.

    Grid search over the two overlap angles (the norm ratio is pinned by the
    disturbance constraint), followed by three zoom refinements. The result
    must reproduce the closed-form bound 1/2 + 2 eps - 2 eps^2.

    Args:
        eps: Target disturbance in (0, 1/2).

    Returns:
        (maximizing AttackParams with unit total norm, collision probability).
    """
    if not 0.0 < eps < 0.5:
        raise ValueError("disturbance must lie strictly between 0 and 1/2")

    def evaluate(c1: float, c2: float) -> float | None:
        ratio = _feasible_ratio(eps, c1, c2)
        if ratio is None:
            return None
        x = ratio / (1.0 + ratio)
        return _collision_from(x, 1.0 - x, c1, c2)

    c1_lo = max(-1.0, 1.0 - 4.0 * eps) + 1e-12
    c1_hi = 1.0
    c2_lo, c2_hi = -1.0, 1.0
    best = (-1.0, 1.0, 1.0)
    for level in range(4):
        n_pts = 61 if level == 0 else 21
        c1_grid = np.linspace(c1_lo, c1_hi, n_pts)
        c2_grid = np.linspace(c2_lo, c2_hi, n_pts)
        for c1 in c1_grid:
            for c2 in c2_grid:
                value = evaluate(float(c1), float(c2))
                if value is not None and value > best[0]:
                    best = (value, float(c1), float(c2))
        span1 = (c1_hi - c1_lo) / (n_pts - 1)
        span2 = (c2_hi - c2_lo) / (n_pts - 1)
        c1_lo = max(max(-1.0, 1.0 - 4.0 * eps) + 1e-12, best[1] - span1)
        c1_hi = min(1.0, best[1] + span1)
        c2_lo = max(-1.0, best[2] - span2)
        c2_hi = min(1.0, best[2] + span2)
    value, c1, c2 = best
    ratio = _feasible_ratio(eps, c1, c2)
    x = ratio / (1.0 + ratio)
    params = AttackParams(n_xx=x, n_xy=1.0 - x, phi_xx_yy=math.acos(c1), phi_xy_yx=math.acos(c2))
    return params, value


def multiphoton_ratio_bound(i: int, j: int) -> float:
    """Lower bound on the dual-fire/reconciled ratio for an (i, j) split.

    When Eve reads i photons on one side and j on the other, the chance that
    honest dual-fire events reveal her scales as
    [(1/2 - 2^-i) / 2^-i] * [(1/2 - 2^-j) / 2^-j] = (2^(i-1) - 1)(2^(j-1) - 1).
    The product is >= 1 for i, j >= 2 but collapses to 0 when either side
    holds a single photon.
    """
    if i < 1 or j < 1:
        raise ValueError("photon counts must be at least 1")
    return float((2 ** (i - 1) - 1) * (2 ** (j - 1) - 1))


def _toeplitz_matrices(n: int, r: int, seeds: np.ndarray) -> np.ndarray:
    """Stack of r x n binary Toeplitz matrices from seed rows of n + r - 1 bits."""
    if r == 0:
        return np.zeros((seeds.shape[0], 0, n), dtype=np.uint8)
    rows = np.arange(r)[:, None]
    cols = np.arange(n)[None, :]
    return seeds[:, (n - 1) + rows - cols]


def pa_entropy_bound_check(n: int, per_bit_pc: float, r: int) -> tuple[float, float, bool]:
    """Check the hashed-key entropy bound H(K|G) >= r - 2^r pc^n / ln 2.

    Builds the i.i.d. input distribution whose single-bit collision
    probability is per_bit_pc, hashes all n-bit inputs through the family of
    binary Toeplitz matrices (every seed for n <= 6, for larger n a sample
    of 10,000 seeds from random.Random(0), fixed for reproducibility), and
    averages the exact output entropy over the family.

    Args:
        n: Input block length, 1..12.
        per_bit_pc: Single-bit collision probability in [1/2, 1].
        r: Output length in bits, 0..n.

    Returns:
        (lhs, rhs, holds) where lhs is the average conditional entropy
        H(K|G), rhs is the bound, and holds reports lhs >= rhs.
    """
    if not 1 <= n <= 12:
        raise ValueError("block length must lie in 1..12 (exhaustive oracle)")
    if not 0.5 <= per_bit_pc <= 1.0:
        raise ValueError("per-bit collision probability must lie in [1/2, 1]")
    if not 0 <= r <= n:
        raise ValueError("output length must lie in 0..n")
    rhs = r - math.ldexp(per_bit_pc**n, r) / _LN2
    if r == 0:
        return 0.0, rhs, True

    p = 0.5 * (1.0 + math.sqrt(2.0 * per_bit_pc - 1.0))
    xs = np.arange(1 << n, dtype=np.uint32)
    bits = ((xs[:, None] >> np.arange(n)[None, :]) & 1).astype(np.uint8)
    ones = bits.sum(axis=1)
    probs = p**ones * (1.0 - p) ** (n - ones) if p < 1.0 else (ones == n).astype(float)

    seed_len = n + r - 1
    if n <= 6:
        all_seeds = np.arange(1 << seed_len, dtype=np.uint32)
        seeds = ((all_seeds[:, None] >> np.arange(seed_len)[None, :]) & 1).astype(np.uint8)
    else:
        gen = random.Random(0)
        seeds = np.array(
            [[gen.randrange(2) for _ in range(seed_len)] for _ in range(10_000)],
            dtype=np.uint8,
        )

    weights = 1 << np.arange(r, dtype=np.uint32)
    entropies = []
    for start in range(0, seeds.shape[0], 512):
        block = _toeplitz_matrices(n, r, seeds[start : start + 512])
        outputs = (bits @ block.transpose(0, 2, 1).astype(np.uint32)) % 2
        keys = outputs @ weights
        for row in range(block.shape[0]):
            q = np.bincount(keys[row], weights=probs, minlength=1 << r)
            nz = q[q > 0]
            entropies.append(-float(np.sum(nz * np.log2(nz))))
    lhs = math.fsum(entropies) / len(entropies)
    return lhs, rhs, lhs >= rhs - 1e-12
