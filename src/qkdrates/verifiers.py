"""The array halves of the security verifiers, on numpy: the attack family's
collision probability and its constrained search, the collision bound over
arrays, and the Toeplitz hash family with its exact entropy average. The
security functions that need them, and verify's attack-bound suite, load
this module with their first call."""

from __future__ import annotations

import math
import random
from functools import lru_cache

import numpy as np

from .ratecore import _quadratic_bound
from .security import _epsilon_from


def _collision_bound_array(eps: np.ndarray) -> np.ndarray:
    """ratecore.collision_bound of every element of a float array, bit for
    bit; the scalar's ValueError names the first negative or NaN element."""
    valid = eps >= 0.0
    if not np.all(valid):
        raise ValueError(f"disturbance must be non-negative, got {float(eps[~valid][0])}")
    return np.where(eps >= 0.5, 1.0, _quadratic_bound(eps))


def _collision_from(x, y, c1, c2):
    """Collision probability of the attack with norms x, y and overlap
    cosines c1, c2, as floats or broadcastable numpy arrays.

    Each basis-dependent term drops out where its numerator vanishes; there
    its denominator may vanish too, so that division is masked, not taken.
    """
    x, y, c1, c2 = (np.asarray(v, dtype=float) for v in (x, y, c1, c2))
    total = x + y
    value = 0.75 - (x * c1 * c1 + y * c2 * c2) / (4.0 * total)
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in (1.0, -1.0):
            num = x * y * (1.0 + s * c1) * (1.0 + s * c2)
            den = 2.0 * total * (x * (1.0 + s * c1) + y * (1.0 + s * c2))
            value = value + np.where(num != 0.0, num / den, 0.0)
    return value


def _family_grid(ratio, cosines) -> tuple[np.ndarray, np.ndarray]:
    """security.attack_family_grid (see there)."""
    ratio = np.asarray(ratio, dtype=float)[..., None, None]
    x, y = ratio / (1.0 + ratio), 1.0 / (1.0 + ratio)
    cosines = np.asarray(cosines, dtype=float)
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
    values, shares = _grid_collision(eps[:, None, None], c1[:, :, None], c2[:, None, :])
    values, shares = values.reshape(eps.size, -1), shares.reshape(eps.size, -1)
    rows = np.arange(eps.size)
    k = np.argmax(values, axis=1)
    k1, k2 = np.divmod(k, c2.shape[1])
    return values[rows, k], c1[rows, k1], c2[rows, k2], shares[rows, k]


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
# 128 KiB, so each cost an mmap and page faults: run alone in process, the
# privacy-amp suite took 12.6 ms at 2^15 and 9.8 ms at 2^14 (medians of 7 on
# a 2-core host). Within verify --suite all the two take the same time,
# since glibc raises that threshold after the first large free.
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


@lru_cache(maxsize=None)
def _exhaustive_key_blocks(n: int, r: int) -> tuple:
    """_hash_key_blocks of an exhaustive family (n <= _EXHAUSTIVE_N), kept
    so that each per-bit collision probability reuses them; all of them
    together take about 0.3 MiB."""
    return tuple(_hash_key_blocks(n, r))


def _hashed_entropy(n: int, per_bit_pc: float, r: int) -> float:
    """security.pa_entropy_bound_check's H(K|G), for r >= 1: the exact
    entropy of the r-bit hash of the i.i.d. n-bit input whose single-bit
    collision probability is per_bit_pc, averaged over the seeds."""
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
    return math.fsum(entropies) / len(entropies)
