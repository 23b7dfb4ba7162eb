"""Privacy-amplification key sizing and security-bound verifiers.

Three independent checks back the rate formulas: a constrained maximization
of Eve's collision probability over a symmetric single-photon attack family,
a closed-form lower bound on how strongly multi-photon splitting inflates
dual-fire events, and an exhaustive small-block oracle for the
privacy-amplification entropy bound over a concrete universal hash family.

The key sizing is scalar. The verifiers work on numpy arrays and import
numpy when they run, so importing this module does not load it.
"""

from __future__ import annotations

import math
import operator
import random
import sys
from dataclasses import dataclass
from functools import lru_cache

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


def _collision_from(x, y, c1, c2):
    """Collision probability of the attack with norms x, y and overlap
    cosines c1, c2, as floats or broadcastable numpy arrays.

    Each basis-dependent term drops out where its numerator vanishes; there
    its denominator may vanish too, so that division is masked, not taken.
    """
    import numpy as np

    x, y, c1, c2 = (np.asarray(v, dtype=float) for v in (x, y, c1, c2))
    total = x + y
    value = 0.75 - (x * c1 * c1 + y * c2 * c2) / (4.0 * total)
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in (1.0, -1.0):
            num = x * y * (1.0 + s * c1) * (1.0 + s * c2)
            den = 2.0 * total * (x * (1.0 + s * c1) + y * (1.0 + s * c2))
            value = value + np.where(num != 0.0, num / den, 0.0)
    return value


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
    return float(
        _collision_from(a.n_xx, a.n_xy, math.cos(a.phi_xx_yy), math.cos(a.phi_xy_yx))
    )


def attack_family_grid(ratio, cosines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Disturbance and collision probability over a grid of attack-family
    members sharing one norm ratio, or for each of a 1-D array of them.

    Args:
        ratio: Norm ratio n_xx / n_xy, positive, or a 1-D array of them.
        cosines: Overlap cosines; every pair (cos phi_xx_yy, cos phi_xy_yx)
            drawn from cosines x cosines is one member.

    Returns:
        (eps, collision) as flat arrays over the members, ratio major, then
        cos phi_xx_yy; each element equals attack_epsilon and
        attack_collision of that member at unit total norm. An array of
        ratios gives the one-ratio arrays of each ratio end to end, bit for
        bit.
    """
    import numpy as np

    ratio = np.asarray(ratio, dtype=float)[..., None, None]
    x, y = ratio / (1.0 + ratio), 1.0 / (1.0 + ratio)
    c1, c2 = cosines[:, None], cosines[None, :]
    return _epsilon_from(x, y, c1, c2).ravel(), _collision_from(x, y, c1, c2).ravel()


def _grid_collision(eps, c1: np.ndarray, c2: np.ndarray) -> tuple:
    """Attack collision probability over a (c1, c2) grid at disturbance eps,
    a float or an array that broadcasts with the grid.

    The disturbance constraint pins the norm ratio n_xx / n_xy to
    (3 - c2 - 4 eps) / (c1 + 4 eps - 1); grid points where no non-negative
    ratio exists are infeasible. Returns the collision probabilities, -inf
    at infeasible points, and the n_xx share ratio / (1 + ratio) of a unit
    total norm.
    """
    import numpy as np

    den = c1 + 4.0 * eps - 1.0
    num = 3.0 - c2 - 4.0 * eps
    feasible = (den > 0.0) & (num >= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / den
        x = np.where(feasible, ratio / (1.0 + ratio), 0.5)
    return np.where(feasible, _collision_from(x, 1.0 - x, c1, c2), -np.inf), x


# Grid points per block of _maximize_collisions: 2 disturbances of 61 x 61,
# or 18 of 21 x 21, so that each of a block's arrays stays under 64 KiB. With
# 8 or 74 disturbances (over 128 KiB, where glibc's malloc switches to mmap)
# the 49-disturbance search of the attack-bound suite took 9.5 ms, not 5.9.
_BLOCK_POINTS = 1 << 13


def _linspace_rows(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Row e is np.linspace(lo[e], hi[e], n), bit for bit: a row takes
    linspace's zero-step path only when its own step is zero."""
    import numpy as np

    delta = hi - lo
    step = delta / (n - 1)
    k = np.arange(n, dtype=float)
    rows = np.where((step == 0.0)[:, None], k / (n - 1) * delta[:, None], k * step[:, None])
    rows += lo[:, None]
    rows[:, -1] = hi
    return rows


def _grid_best(eps: np.ndarray, c1: np.ndarray, c2: np.ndarray) -> tuple:
    """Per disturbance eps[e], the first maximum in c1-major order of the
    collision probability over the grid c1[e] x c2[e], as arrays
    (value, c1, c2, n_xx share)."""
    import numpy as np

    values, shares = _grid_collision(eps[:, None, None], c1[:, :, None], c2[:, None, :])
    values, shares = values.reshape(eps.size, -1), shares.reshape(eps.size, -1)
    rows = np.arange(eps.size)
    k = np.argmax(values, axis=1)
    k1, k2 = np.divmod(k, c2.shape[1])
    return values[rows, k], c1[rows, k1], c2[rows, k2], shares[rows, k]


def _maximize_collisions(eps: np.ndarray) -> tuple:
    """maximize_attack_collision's search run for every disturbance of a
    non-empty 1-D array at once, each in (2^-55, 1/2); returns the arrays
    (collision probability, c1, c2, n_xx share) of the maxima.

    Every disturbance follows its own search, with the scalar search's
    arithmetic element for element: its own linspace per level, the first
    argmax in c1-major order, and a best point replaced only by a strictly
    better one. Python's max and min become np.where on the same comparison.
    Each level's grids run in blocks of at most _BLOCK_POINTS points.
    """
    import numpy as np

    # the feasible c1 lie above 1 - 4 eps; the floor stays 1e-12 clear of that
    # and stops at 1, which it would pass for eps below about 2.5e-13
    c1_floor = 1.0 - 4.0 * eps
    c1_floor = np.where(c1_floor > -1.0, c1_floor, -1.0) + 1e-12
    c1_floor = np.where(c1_floor < 1.0, c1_floor, 1.0)
    c1_lo, c1_hi = c1_floor, np.ones_like(eps)
    c2_lo, c2_hi = np.full_like(eps, -1.0), np.ones_like(eps)
    best = None  # (value, c1, c2, n_xx share); c1 = c2 = 1 is always feasible
    for level in range(4):
        n_pts = 61 if level == 0 else 21
        c1_grid = _linspace_rows(c1_lo, c1_hi, n_pts)
        c2_grid = _linspace_rows(c2_lo, c2_hi, n_pts)
        block = _BLOCK_POINTS // n_pts**2
        found = [_grid_best(eps[i : i + block], c1_grid[i : i + block], c2_grid[i : i + block])
                 for i in range(0, eps.size, block)]
        found = [np.concatenate(parts) for parts in zip(*found)]
        if best is None:
            best = found
        else:
            better = found[0] > best[0]
            best = [np.where(better, new, old) for new, old in zip(found, best)]
        span1 = (c1_hi - c1_lo) / (n_pts - 1)
        span2 = (c2_hi - c2_lo) / (n_pts - 1)
        c1_lo, c1_hi = best[1] - span1, best[1] + span1
        c1_lo = np.where(c1_lo > c1_floor, c1_lo, c1_floor)
        c1_hi = np.where(c1_hi < 1.0, c1_hi, 1.0)
        c2_lo, c2_hi = best[2] - span2, best[2] + span2
        c2_lo = np.where(c2_lo > -1.0, c2_lo, -1.0)
        c2_hi = np.where(c2_hi < 1.0, c2_hi, 1.0)
    return tuple(best)


def maximize_attack_collision(eps: float) -> tuple[AttackParams, float]:
    """Maximize the attack collision probability at fixed disturbance.

    Grid search over the two overlap angles (the norm ratio is pinned by the
    disturbance constraint), followed by three zoom refinements. Ties go to
    the first point in c1-major order, and a zoom level replaces the best
    point only if it beats it strictly. The result must reproduce the
    closed-form bound 1/2 + 2 eps - 2 eps^2. This is the one-disturbance
    case of _maximize_collisions, which searches many at once.

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
    import numpy as np

    maxima = _maximize_collisions(np.array([eps], dtype=float))
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


# Block lengths whose hash family is every seed; longer blocks sample seeds.
_EXHAUSTIVE_N = 6
# Hashed inputs per block of keys: a block of n-bit keys covers
# _BLOCK_INPUTS >> n seeds, so the block, and its offset histogram, stays
# well under a mebibyte for every n. At 2^15 inputs a block's float64
# temporaries took 256 KiB, past glibc malloc's first mmap threshold of
# 128 KiB, so each cost an mmap and page faults: run alone in process, the
# privacy-amp suite took 12.6 ms at 2^15 and 9.8 ms at 2^14 (medians of 7 on
# a 2-core host). Within verify --suite all the two take the same time,
# since glibc raises that threshold after the first large free.
_BLOCK_INPUTS = 1 << 14


def _toeplitz_matrices(n: int, r: int, seeds: np.ndarray) -> np.ndarray:
    """Stack of r x n binary Toeplitz matrices from seed rows of n + r - 1 bits."""
    import numpy as np

    rows = np.arange(r)[:, None]
    cols = np.arange(n)[None, :]
    return seeds[:, (n - 1) + rows - cols]


def _input_bits(n: int) -> np.ndarray:
    """Rows of the n bits of every n-bit input, least significant first."""
    import numpy as np

    xs = np.arange(1 << n, dtype=np.uint32)
    return ((xs[:, None] >> np.arange(n)[None, :]) & 1).astype(np.uint8)


def _family_seeds(n: int, r: int) -> np.ndarray:
    """Seed rows of n + r - 1 bits: every seed for n <= _EXHAUSTIVE_N and,
    for larger n, 10,000 seeds sampled from random.Random(0), fixed for
    reproducibility."""
    import numpy as np

    seed_len = n + r - 1
    if n <= _EXHAUSTIVE_N:
        return _input_bits(seed_len)
    gen = random.Random(0)
    draws = bytes(gen.randrange(2) for _ in range(10_000 * seed_len))
    return np.frombuffer(draws, dtype=np.uint8).reshape(10_000, seed_len)


def _hash_key_blocks(n: int, r: int):
    """Yield the r-bit hash of every n-bit input under each seed of the
    family, as (seeds, 2^n) key arrays of at most _BLOCK_INPUTS >> n seeds.

    Bit j of a key is the parity of the input ANDed with Toeplitz row j
    read as an n-bit mask, so no (seeds, 2^n, r) product is formed.
    """
    import numpy as np

    seeds = _family_seeds(n, r)
    inputs = np.arange(1 << n, dtype=np.uint16)
    key_type = np.uint8 if r <= 8 else np.uint16
    per_block = _BLOCK_INPUTS >> n
    for start in range(0, seeds.shape[0], per_block):
        rows = _toeplitz_matrices(n, r, seeds[start : start + per_block])
        masks = (rows @ (1 << np.arange(n))).astype(np.uint16)
        keys = np.zeros((masks.shape[0], 1 << n), dtype=key_type)
        for j in range(r):
            parity = np.bitwise_count(inputs & masks[:, j, None]) & 1
            keys |= parity.astype(key_type) << j
        yield keys


@lru_cache(maxsize=None)
def _exhaustive_key_blocks(n: int, r: int) -> tuple:
    """_hash_key_blocks of an exhaustive family (n <= _EXHAUSTIVE_N), kept
    so that each per-bit collision probability reuses them; all of them
    together take about 0.3 MiB."""
    return tuple(_hash_key_blocks(n, r))


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
    import numpy as np

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

    p = 0.5 * (1.0 + math.sqrt(2.0 * per_bit_pc - 1.0))
    ones = _input_bits(n).sum(axis=1)
    probs = p**ones * (1.0 - p) ** (n - ones) if p < 1.0 else (ones == n).astype(float)

    blocks = _exhaustive_key_blocks(n, r) if n <= _EXHAUSTIVE_N else _hash_key_blocks(n, r)
    entropies = []
    for keys in blocks:
        # one histogram per seed: seed k's keys land in bins k 2^r .. (k+1) 2^r - 1
        n_seeds = keys.shape[0]
        offset = keys + (np.arange(n_seeds, dtype=np.int64)[:, None] << r)
        q = np.bincount(offset.ravel(), weights=np.tile(probs, n_seeds), minlength=n_seeds << r)
        log_q = np.log2(q, out=np.zeros_like(q), where=q > 0)
        entropies.extend((-(q * log_q).reshape(n_seeds, 1 << r).sum(axis=1)).tolist())
    lhs = math.fsum(entropies) / len(entropies)
    return lhs, rhs, lhs >= rhs - 1e-12
