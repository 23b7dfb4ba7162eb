"""Privacy-amplification key sizing and security-bound verifiers.

Three independent checks back the rate formulas: a constrained maximization
of Eve's collision probability over a symmetric single-photon attack family,
a closed-form lower bound on how strongly multi-photon splitting inflates
dual-fire events, and an exhaustive small-block oracle for the
privacy-amplification entropy bound over a concrete universal hash family.

The key sizing is scalar. The verifiers work on numpy arrays in verifiers,
which their first call loads, so importing this module does not load numpy.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

from .channel import _is_integer
from .ratecore import binary_entropy, ec_efficiency, tau_multiphoton

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
    "attack_family_grid",
    "maximize_attack_collision",
    "multiphoton_ratio_bound",
    "pa_entropy_bound_check",
]

_LN2 = math.log(2.0)


def _integer(value, name: str) -> int:
    """The value as a Python int, for an integer, numpy's included, but not
    a bool; a ValueError naming the value for anything else."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


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
        # stored as Python ints: math.ldexp takes no numpy exponent
        object.__setattr__(self, "s", _integer(self.s, "security margin s"))
        object.__setattr__(self, "t", _integer(self.t, "security margin t"))
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
    n_rec = _integer(n_rec, "reconciled key length")
    if n_rec < 0:
        raise ValueError("reconciled key length must be non-negative")
    if e == 0.0 or n_rec == 0:
        return 0
    return math.ceil(ec_efficiency(e) * n_rec * binary_entropy(e))


def final_key_length(
    n_rec: int, eps: float, kappa: int, sec: SecurityParams, beta: float = 1.0
) -> KeyBudget:
    """Size the final key: r = max(0, floor(n_rec * tau - kappa - s - t)).

    The secure fraction tau is the one the rate formulas use:
    beta * tau(eps / beta) (ratecore.tau_multiphoton), which is tau(eps)
    when every reconciled bit is single-photon (beta = 1).

    Args:
        n_rec: Reconciled key length in bits.
        eps: Disturbance used for the collision bound, in [0, 1/2].
        kappa: Bits leaked during error correction.
        sec: Security margins s and t.
        beta: Fraction of reconciled bits not attributable to multi-photon
            pulses, in (0, 1]; the rest count as known to Eve.

    Returns:
        KeyBudget with the secure fraction, final length, and the bound on
        Eve's expected information 2^-t r + 2^-s / ln 2.
    """
    n_rec = _integer(n_rec, "reconciled key length")
    kappa = _integer(kappa, "error-correction leakage")
    if n_rec <= 0:
        raise ValueError("reconciled key length must be positive")
    if kappa < 0:
        raise ValueError("error-correction leakage must be non-negative")
    t_bits = tau_multiphoton(eps, beta)
    r = max(0, math.floor(n_rec * t_bits - kappa - sec.s - sec.t))
    return KeyBudget(
        n_rec=n_rec, tau_bits=t_bits, kappa=kappa, r=r, eve_info=eve_info_bound(r, sec)
    )


def eve_info_bound(r: int, sec: SecurityParams) -> float:
    """Eve's expected information on the final key: 2^-t r + 2^-s / ln 2."""
    r = _integer(r, "key length")
    if r < 0:
        raise ValueError("key length must be non-negative")
    return math.ldexp(float(r), -sec.t) + math.ldexp(1.0 / _LN2, -sec.s)


def markov_leak_probability(i_e: float, threshold: float) -> float:
    """Probability that Eve's information reaches a threshold, by Markov.

    P(I >= threshold) <= i_e / threshold, clamped to 1.
    """
    if not threshold > 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    if not i_e >= 0:
        raise ValueError(f"information bound must be non-negative, got {i_e}")
    return min(1.0, i_e / threshold)


def _epsilon_from(x, y, c1, c2):
    """Disturbance of the attack with norms x, y and overlap cosines c1, c2.

    Plain arithmetic, so it takes floats or broadcastable numpy arrays.
    """
    return (x * (1.0 - c1) + y * (3.0 - c2)) / (4.0 * (x + y))


def attack_epsilon(a: AttackParams) -> float:
    """Disturbance caused by an attack-family member.

    eps = [n_xx (1 - cos phi_xx_yy) + n_xy (3 - cos phi_xy_yx)]
          / (4 (n_xx + n_xy)).
    """
    return _epsilon_from(a.n_xx, a.n_xy, math.cos(a.phi_xx_yy), math.cos(a.phi_xy_yx))


def attack_collision(a: AttackParams) -> float:
    """Eve's collision probability for an attack-family member.

    Closed form in the two norms and two overlap angles; the two
    basis-dependent terms drop out when their numerators vanish.
    """
    from .verifiers import _collision_from

    return float(_collision_from(a.n_xx, a.n_xy, math.cos(a.phi_xx_yy), math.cos(a.phi_xy_yx)))


def attack_family_grid(ratio, cosines) -> tuple:
    """Disturbance and collision probability over a grid of attack-family
    members sharing one norm ratio, or for each of a 1-D array of them.

    Args:
        ratio: Norm ratio n_xx / n_xy, positive, or a 1-D array of them.
        cosines: Overlap cosines, an array or a sequence; every pair
            (cos phi_xx_yy, cos phi_xy_yx) drawn from cosines x cosines is
            one member.

    Returns:
        (eps, collision) as flat arrays over the members, ratio major, then
        cos phi_xx_yy; each element equals attack_epsilon and
        attack_collision of that member at unit total norm. An array of
        ratios gives the one-ratio arrays of each ratio end to end, bit for
        bit.
    """
    from .verifiers import _family_grid

    return _family_grid(ratio, cosines)


def maximize_attack_collision(eps: float) -> tuple[AttackParams, float]:
    """Maximize the attack collision probability at fixed disturbance.

    Grid search over the two overlap angles (the norm ratio is pinned by the
    disturbance constraint), followed by three zoom refinements. Ties go to
    the first point in c1-major order, and a zoom level replaces the best
    point only if it beats it strictly. The result must reproduce the
    closed-form bound 1/2 + 2 eps - 2 eps^2. This is the one-disturbance
    case of verifiers._maximize_collisions, which searches many at once.

    Args:
        eps: Target disturbance in (0, 1/2), with 1 + 4 eps above 1 in
            float64 (eps above 2^-55): below that no grid point meets the
            constraint.

    Returns:
        (maximizing AttackParams with unit total norm, collision probability).
    """
    if not 0.0 < eps < 0.5:
        raise ValueError("disturbance must lie strictly between 0 and 1/2")
    if not 1.0 + 4.0 * eps > 1.0:
        raise ValueError(f"disturbance {eps} is below the search's resolution: 1 + 4 eps rounds to 1")
    from .verifiers import _maximize_collisions

    maxima = _maximize_collisions([eps])
    value, c1, c2, x = (float(column[0]) for column in maxima)
    params = AttackParams(n_xx=x, n_xy=1.0 - x, phi_xx_yy=math.acos(c1), phi_xy_yx=math.acos(c2))
    return params, value


def multiphoton_ratio_bound(i: int, j: int) -> float:
    """Lower bound on the dual-fire/reconciled ratio for an (i, j) split.

    When Eve reads i photons on one side and j on the other, the chance that
    honest dual-fire events reveal her scales as
    [(1/2 - 2^-i) / 2^-i] * [(1/2 - 2^-j) / 2^-j] = (2^(i-1) - 1)(2^(j-1) - 1).
    The product is >= 1 for i, j >= 2 but collapses to 0 when either side
    holds a single photon. The counts must be integers, numpy's included,
    but not bools, and the product must be a finite float.
    """
    i, j = _integer(i, "photon count"), _integer(j, "photon count")
    if i < 1 or j < 1:
        raise ValueError("photon counts must be at least 1")
    if i == 1 or j == 1:
        return 0.0
    # the product lies in [2^(i+j-4), 2^(i+j-2)), so counts past float range
    # are rejected before their powers are built
    if i + j - 4 < sys.float_info.max_exp:
        try:
            return float((2 ** (i - 1) - 1) * (2 ** (j - 1) - 1))
        except OverflowError:
            pass
    raise ValueError(f"photon counts ({i}, {j}) give a ratio bound past float range")


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
    n = _integer(n, "block length")
    r = _integer(r, "output length")
    if not 1 <= n <= 12:
        raise ValueError("block length must lie in 1..12 (exhaustive oracle)")
    if not 0.5 <= per_bit_pc <= 1.0:
        raise ValueError("per-bit collision probability must lie in [1/2, 1]")
    if not 0 <= r <= n:
        raise ValueError("output length must lie in 0..n")
    rhs = r - math.ldexp(per_bit_pc**n, r) / _LN2
    if r == 0:
        return 0.0, rhs, True

    from .verifiers import _hashed_entropy

    lhs = _hashed_entropy(n, per_bit_pc, r)
    return lhs, rhs, lhs >= rhs
