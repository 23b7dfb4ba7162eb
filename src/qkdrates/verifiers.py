"""The array halves of the security verifiers, on numpy: the attack family's
collision probability and its constrained search, the collision bound over
arrays, and the Toeplitz hash family with its exact entropy average. The
security functions that need them, and verify's attack-bound suite, load
this module with their first call."""

from __future__ import annotations

import math
import random
import sys
from functools import lru_cache

import numpy as np

from .channel import _is_real
from .ratecore import _quadratic_bound
from .security import _epsilon_from, _real


def _collision_bound_array(eps: np.ndarray) -> np.ndarray:
    """ratecore.collision_bound of every element of a float array, bit for
    bit; the scalar's ValueError names the first negative or NaN element."""
    valid = eps >= 0.0
    if not np.all(valid):
        raise ValueError(f"disturbance must be non-negative, got {float(eps[~valid][0])}")
    return np.where(eps >= 0.5, 1.0, _quadratic_bound(eps))


def _checked_reals(values, rule: str, lo: float, hi: float, scalar_ok: bool) -> np.ndarray:
    """values, a 1-D array or sequence of real numbers in [lo, hi], or with
    scalar_ok also a single such number, as a float array; a ValueError
    names the first value that breaks the rule, or the values if they are
    neither. A str, bytes, bool or complex number is not real."""
    items = values.tolist() if isinstance(values, np.ndarray) else values
    if not isinstance(items, (list, tuple)):
        if not (scalar_ok and _is_real(items)):
            raise ValueError(f"{rule}, got {values!r}")
        items = (items,)
    for value in items:
        _real(value, rule, lambda v: lo <= v <= hi)
    return np.asarray(values, dtype=float)


def _family_grid(ratio, cosines) -> tuple[np.ndarray, np.ndarray]:
    """security.attack_family_grid (see there)."""
    ratio = _checked_reals(ratio, "norm ratio must be a non-negative finite real number",
                           0.0, sys.float_info.max, scalar_ok=True)[..., None, None]
    cosines = _checked_reals(cosines, "overlap cosines must be a 1-D sequence of reals in [-1, 1]",
                             -1.0, 1.0, scalar_ok=False)
    x = ratio / (1.0 + ratio)
    c1, c2 = cosines[:, None], cosines[None, :]
    return _epsilon_from(x, 1.0 - x, c1, c2).ravel(), _unit_norm_collision(x, c1, c2).ravel()


def _unit_norm_collision(x, c1, c2) -> np.ndarray:
    """Collision probability of the attack with norms x, the n_xx share of a
    unit total norm, and y = 1 - x, and overlap cosines c1, c2 (floats or
    broadcastable arrays). For x in [0, 1], x + y rounds to exactly 1, so the
    closed form's division by 4 (x + y) and factor 2 (x + y) are powers of
    two, folded exactly into 0.25 c1, 0.25 c2 and 0.5 (1 + s c2). A basis
    term drops out where its numerator vanishes; there its denominator may
    vanish too, so that division is masked, not taken."""
    y = 1.0 - x
    xy = x * y
    value = np.asarray(0.75 - (x * (0.25 * c1) * c1 + y * (0.25 * c2) * c2))
    for s in (1.0, -1.0):
        p1, p2 = 1.0 + s * c1, 1.0 + s * c2
        term = np.asarray(xy * p1 * (0.5 * p2))
        value += np.divide(term, x * p1 + y * p2, out=term, where=term != 0.0)
    return value


# Grid points per block of _maximize_collisions: 2 disturbances of 61 x 61,
# or 18 of 21 x 21, so that each of a block's arrays stays under 64 KiB; the
# attack-bound suite sizes its family-grid blocks by it too (3 norm ratios).
# Measured with the unit-norm kernel, the suite alone in a fresh process for
# each size (process CPU time, minimum of 40 runs, 2-core Xeon): 2^12 points
# 11.8 ms, 2^13 8.6 ms, 2^14 10.6 ms, 2^15 11.2 ms. Smaller blocks pay
# numpy's call overhead more often; from 2^14 on an array reaches 128 KiB,
# where glibc's malloc switches to mmap, and 12,000 or 16,000 points, still
# under it, were also slower than 2^13.
_BLOCK_POINTS = 1 << 13


def _linspace_rows(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Row e is np.linspace(lo[e], hi[e], n), bit for bit: a row takes
    linspace's zero-step path only when its own step is zero."""
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
    (value, c1, c2, n_xx share).

    The disturbance constraint pins the norm ratio to (3 - c2 - 4 eps) /
    (c1 + 4 eps - 1), and a point scores at the n_xx share ratio / (1 +
    ratio). The search's grids lie above the c1 floor, where every ratio is
    non-negative; a ValueError names a disturbance whose grid is not.
    """
    eps, c1, c2 = eps[:, None, None], c1[:, :, None], c2[:, None, :]
    den = c1 + 4.0 * eps - 1.0
    num = 3.0 - c2 - 4.0 * eps
    feasible = (den > 0.0).all(axis=(1, 2)) & (num >= 0.0).all(axis=(1, 2))
    if not feasible.all():
        raise ValueError(f"disturbance {eps[~feasible][0, 0, 0]} has grid points with no non-negative ratio")
    x = num / den
    x /= x + 1.0
    values = _unit_norm_collision(x, c1, c2).reshape(len(eps), -1)
    shares = x.reshape(len(eps), -1)
    rows = np.arange(len(eps))
    k = np.argmax(values, axis=1)
    k1, k2 = np.divmod(k, c2.shape[2])
    return values[rows, k], c1[rows, k1, 0], c2[rows, 0, k2], shares[rows, k]


def _maximize_collisions(eps) -> tuple:
    """security.maximize_attack_collision's search run for every disturbance
    of a non-empty 1-D array (or sequence) at once, each in (2^-55, 1/2);
    returns the arrays (collision probability, c1, c2, n_xx share) of the
    maxima.

    Every disturbance follows its own search, with the scalar search's
    arithmetic element for element: its own linspace per level, the first
    argmax in c1-major order, and a best point replaced only by a strictly
    better one. Python's max and min become np.where on the same comparison.
    Each level's grids run in blocks of at most _BLOCK_POINTS points.
    """
    eps = np.asarray(eps, dtype=float)
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


# Block lengths whose hash family is every seed; longer blocks sample seeds.
_EXHAUSTIVE_N = 6
# Hashed inputs per block of keys: a block of n-bit keys covers
# _BLOCK_INPUTS >> n seeds, so the block, and its offset histogram, stays
# well under a mebibyte for every n. At 2^15 inputs a block's float64
# temporaries took 256 KiB, past glibc malloc's first mmap threshold of
# 128 KiB, so each cost an mmap and page faults: hashing and summing every
# block of the privacy-amp grid once per collision probability, run alone in
# process, took 12.6 ms at 2^15 and 9.8 ms at 2^14 (medians of 7 on a 2-core
# host).
_BLOCK_INPUTS = 1 << 14


def _toeplitz_matrices(n: int, r: int, seeds: np.ndarray) -> np.ndarray:
    """Stack of r x n binary Toeplitz matrices from seed rows of n + r - 1 bits."""
    rows = np.arange(r)[:, None]
    cols = np.arange(n)[None, :]
    return seeds[:, (n - 1) + rows - cols]


def _input_bits(n: int) -> np.ndarray:
    """Rows of the n bits of every n-bit input, least significant first."""
    xs = np.arange(1 << n, dtype=np.uint32)
    return ((xs[:, None] >> np.arange(n)[None, :]) & 1).astype(np.uint8)


def _family_seeds(n: int, r: int) -> np.ndarray:
    """Seed rows of n + r - 1 bits: every seed for n <= _EXHAUSTIVE_N and,
    for larger n, 10,000 seeds sampled from random.Random(0), fixed for
    reproducibility."""
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


def _seed_bins(keys: np.ndarray, r: int, weights: np.ndarray) -> np.ndarray:
    """Each seed's histogram of a (seeds, 2^n) key block, the inputs counted
    with the given weights: seed k's keys land in bins k 2^r .. (k+1) 2^r - 1."""
    n_seeds = keys.shape[0]
    offset = keys + (np.arange(n_seeds, dtype=np.int64)[:, None] << r)
    return np.bincount(offset.ravel(), weights=np.tile(weights, n_seeds), minlength=n_seeds << r)


@lru_cache(maxsize=None)
def _bin_histograms(n: int, r: int) -> tuple:
    """The distinct bin histograms of an exhaustive family (n <=
    _EXHAUSTIVE_N) as (rows, multiplicities, number of seeds): a bin's row
    counts the inputs of each popcount w = 0..n that its seed hashes to its
    key, and a row's multiplicity is the number of (seed, bin) pairs, empty
    bins included, that have it. At most 129 rows (n = 6).

    A bin's code is its row read as digits of radix 2^n + 1, below
    (2^n + 2)^n <= 66^6 < 2^53, so the float sums of _seed_bins are exact.
    Each key block is reduced to its distinct codes before the next is built.
    """
    radix = (1 << n) + 1
    powers = radix ** np.arange(n + 1)
    weights = powers[np.bitwise_count(np.arange(1 << n))].astype(float)
    codes, counts = [], []
    for keys in _hash_key_blocks(n, r):
        block_codes, block_counts = np.unique(_seed_bins(keys, r, weights).astype(np.int64),
                                              return_counts=True)
        codes.append(block_codes)
        counts.append(block_counts)
    distinct, slot = np.unique(np.concatenate(codes), return_inverse=True)
    multiplicity = np.bincount(slot, weights=np.concatenate(counts))
    rows = distinct[:, None] // powers % radix
    return rows.astype(float), multiplicity, int(multiplicity.sum()) >> r


def _popcount_probabilities(n: int, per_bit_pc: float) -> np.ndarray:
    """Probability of one n-bit input of each popcount w = 0..n, its bits
    i.i.d. with single-bit collision probability per_bit_pc."""
    p = 0.5 * (1.0 + math.sqrt(2.0 * per_bit_pc - 1.0))
    w = np.arange(n + 1)
    return p**w * (1.0 - p) ** (n - w) if p < 1.0 else (w == n).astype(float)


def _seed_entropy(n: int, per_bit_pc: float, r: int) -> float:
    """_hashed_entropy one seed at a time: the mean of the entropies of each
    seed's histogram of the inputs' probabilities."""
    probs = _popcount_probabilities(n, per_bit_pc)[np.bitwise_count(np.arange(1 << n))]
    entropies = []
    for keys in _hash_key_blocks(n, r):
        q = _seed_bins(keys, r, probs)
        log_q = np.log2(q, out=np.zeros_like(q), where=q > 0)
        entropies.extend((-(q * log_q).reshape(keys.shape[0], 1 << r).sum(axis=1)).tolist())
    return math.fsum(entropies) / len(entropies)


def _hashed_entropy(n: int, per_bit_pc: float, r: int) -> float:
    """security.pa_entropy_bound_check's H(K|G), for r >= 1: the exact
    entropy of the r-bit hash of the i.i.d. n-bit input whose single-bit
    collision probability is per_bit_pc, averaged over the seeds.

    For an exhaustive family the mean over its S seeds is (1/S) times the
    sum over all bins of -q log2 q, where a bin's q is its _bin_histograms
    row times the popcount probabilities: one product and one log2 per
    distinct row. It agrees with _seed_entropy to a few ulp. A sampled
    family (n > _EXHAUSTIVE_N) takes _seed_entropy, uncached: from n = 8 a
    row no longer fits one int64 code.
    """
    if n > _EXHAUSTIVE_N:
        return _seed_entropy(n, per_bit_pc, r)
    rows, multiplicity, n_seeds = _bin_histograms(n, r)
    q = rows @ _popcount_probabilities(n, per_bit_pc)
    log_q = np.log2(q, out=np.zeros_like(q), where=q > 0)
    return math.fsum((multiplicity * -(q * log_q)).tolist()) / n_seeds
