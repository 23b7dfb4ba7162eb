"""Brute-force occupation-number oracle for the down-conversion analysis.

Expands the two-mode-squeezed pair state exactly up to a pair-count cap,
pushes every photon through a beamsplitter loss channel, and reconstructs
the polarization density matrices of the kept photons as a dict from each
kept-photon sector (i, j) to its matrix. sector_densities lays the
expansion out once per ket set, for every state that shares it, and yields
one such dict per (state, transmission). Every matrix is V^T conj(V), a Gram
matrix, so it is Hermitian and positive semidefinite by construction; only
its finiteness is checked, since large amplitudes can overflow the product.
This is an independent check of the closed-form source coefficients and of
the claim that erasing coherences between photon-number sectors cannot
change any detection statistics.

Mode order everywhere: (a_x, a_y, b_x, b_y), the polarization modes of arms
a and b; lost photons exist only as the loss codes of _loss_expansion.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .channel import _is_integer, _is_real, checked_transmission
from .sources import PdcCoefficients

__all__ = [
    "RESOURCE_CAP",
    "FockVector",
    "truncation_tail",
    "build_pdc_state",
    "sector_densities",
    "apply_loss_and_trace",
    "sector_weights",
    "extract_pdc_coefficients",
    "pair_sector_residual",
    "dephasing_invariance_check",
]

RESOURCE_CAP = 8

# The largest photon count of one mode in a FockVector; see its docstring.
_COUNT_CAP = 13

_HALF_SQRT2 = 1.0 / math.sqrt(2.0)

# extract_pdc_coefficients' tolerances on the one-photon sectors and on the (1, 1) fit.
_PAIR_TOL = 1e-12
_RESIDUAL_TOL = 1e-10


def _is_count(k) -> bool:
    """True for a non-negative integer, numpy's included, but not a bool."""
    return _is_integer(k) and k >= 0


def _check_pump(chi: float, n_max: int) -> None:
    """Reject a pump parameter that is not a positive, finite real number (a
    bool or str is not), or a pair truncation that is not an integer of at
    least 1."""
    if not (_is_real(chi) and 0.0 < chi < math.inf):
        raise ValueError(f"pump parameter must be positive and finite, got {chi!r}")
    if not _is_count(n_max) or n_max < 1:
        raise ValueError(f"pair truncation must be an integer of at least 1, got {n_max!r}")


@dataclass(frozen=True)
class FockVector:
    """Pure state as a map from (a_x, a_y, b_x, b_y) occupations to amplitudes.

    Attributes:
        amps: Occupation tuple -> complex amplitude. The squared-amplitude
            sum may fall short of 1 by the truncation tail.

    Each count is at most _COUNT_CAP = 13, so every integer the oracle
    builds from a state fits in int64. With C the cap, _loss_expansion's
    loss codes are below (C + 1)^4 = 38,416, and _joint_outcomes' keys are
    below the number of loss codes times (2C + 1)^10, the tenth power of
    its per-receiver radix: 38,416 * 27^10 = 7.9e18 < 2^63 = 9.2e18. A cap
    of 14 would give 2.1e19. _split_amplitudes' binomials stay below 2^13,
    where float range ends only at C(1030, 515).
    """

    amps: dict

    def __post_init__(self):
        if not self.amps:
            raise ValueError("a state needs at least one occupation tuple")
        for occ, amp in self.amps.items():
            if len(occ) != 4 or not all(map(_is_count, occ)):
                raise ValueError(f"occupation tuples must be 4 non-negative integer counts, got {occ}")
            if max(occ) > _COUNT_CAP:
                raise ValueError(f"occupation {occ} has a count above the cap {_COUNT_CAP}")
            # a scalar that numpy holds in a numeric dtype: no bool, string, object or int past int64
            as_array = np.asarray(amp)
            if as_array.ndim or as_array.dtype.kind not in "iufc":
                raise ValueError(f"amplitude of {occ} must be a float, complex or int64 number, got {amp!r}")
            if not np.isfinite(amp):
                raise ValueError(f"amplitude of {occ} must be finite, got {amp}")

    def norm_squared(self) -> float:
        return math.fsum(abs(a) ** 2 for a in self.amps.values())

    def pair_balanced(self) -> bool:
        """True if every ket holds equal photon totals in arms a and b."""
        return all(occ[0] + occ[1] == occ[2] + occ[3] for occ in self.amps)


def truncation_tail(chi: float, n_max: int) -> float:
    """Weight of the discarded pair-number components above n_max.

    The pair count follows the geometric-like law (k + 1)(1 - q)^2 q^k with
    q = tanh^2(chi); the exact remainder past n_max is
    q^(n_max + 1) [(n_max + 2) - (n_max + 1) q].

    Args:
        chi: Pump parameter, positive and finite.
        n_max: Pair-count truncation, an integer of at least 1.
    """
    _check_pump(chi, n_max)
    q = math.tanh(chi) ** 2
    return q ** (n_max + 1) * ((n_max + 2) - (n_max + 1) * q)


def build_pdc_state(chi: float, n_max: int) -> FockVector:
    """Pair state truncated at n_max total pairs.

    The exact state is exp[tanh(chi) (a_x+ b_y+ + a_y+ b_x+)] |0> / cosh^2(chi),
    whose amplitude on n pairs in the x/y channel and m in the y/x channel
    is tanh^(n+m)(chi) / cosh^2(chi) at occupation (n, m, m, n).

    Args:
        chi: Pump parameter, positive and finite.
        n_max: Pair-count truncation, an integer in 1..RESOURCE_CAP.
    """
    _check_pump(chi, n_max)
    if n_max > RESOURCE_CAP:
        raise ValueError(f"n_max={n_max} exceeds the resource cap {RESOURCE_CAP}")
    pref = 1.0 / math.cosh(chi) ** 2
    t = math.tanh(chi)
    amps = {}
    for n in range(n_max + 1):
        for m in range(n_max + 1 - n):
            amps[(n, m, m, n)] = pref * t ** (n + m)
    return FockVector(amps=amps)


def _split_amplitudes(n: int, alpha: float) -> np.ndarray:
    """Beamsplitter amplitudes: |n> -> sum_k sqrt(C(n,k) a^k (1-a)^(n-k)) |k, n-k>,
    indexed by the transmitted count k."""
    return np.array(
        [math.sqrt(math.comb(n, k) * alpha**k * (1.0 - alpha) ** (n - k)) for k in range(n + 1)]
    )


class _Expansion(NamedTuple):
    """The loss expansion of a ket set before any transmission is chosen.

    Entry k is ket number ket[k] of the set, with kept occupation (k_ax,
    k_ay, k_bx, k_by) kept[k] and lost counts numbered codes[k], below
    radix^4. Its beamsplitter factor takes mode m's split amplitude from
    entry split[m, k] of _loss_factors' flat (radix, radix) table. Nothing in
    it depends on the amplitudes, so every state on the ket set shares it.
    """

    ket: np.ndarray
    split: np.ndarray
    codes: np.ndarray
    kept: np.ndarray
    radix: int


def _expand_kets(kets: list) -> _Expansion:
    """Every (ket, kept occupation) entry of a ket set, for any transmission.

    All kets expand together, one mode at a time: each entry with n
    photons in mode m splits into the n + 1 entries that keep k = 0..n of
    them, in that order. The entries thus follow the kets and, within a ket,
    its kept counts in C order, last mode fastest.
    """
    occs = np.array(kets, dtype=np.int64)
    radix = 1 + int(occs.max())
    ket = np.arange(len(occs))
    codes = np.zeros(len(occs), dtype=np.int64)
    kept, split = [], []
    for m in range(4):
        n = occs[ket, m]
        parent = np.repeat(np.arange(ket.size), n + 1)
        first = np.cumsum(n + 1) - (n + 1)  # each entry's first child
        k = np.arange(parent.size) - first[parent]
        n = n[parent]
        codes = codes[parent] * radix + (n - k)
        kept = [column[parent] for column in kept] + [k]
        split = [column[parent] for column in split] + [n * radix + k]
        ket = ket[parent]
    return _Expansion(ket, np.stack(split), codes, np.stack(kept, axis=1), radix)


def _amplitudes(state: FockVector, kets: list) -> np.ndarray:
    """The state's amplitudes in the order of kets, which must be its ket set."""
    return np.array([state.amps[occ] for occ in kets])


def _loss_factors(expansion: _Expansion, alpha: float) -> np.ndarray:
    """Each entry's beamsplitter factor at transmission alpha: the product of
    the four modes' split amplitudes taken left to right, as in
    ((s0 x s1) x s2) x s3. The split amplitudes live for one call only."""
    radix = expansion.radix
    table = np.zeros((radix, radix))  # row n: the split amplitudes of n photons
    for n in range(radix):
        table[n, : n + 1] = _split_amplitudes(n, alpha)
    table = table.ravel()
    s0, s1, s2, s3 = expansion.split
    return table[s0] * table[s1] * table[s2] * table[s3]


def _loss_expansion(state: FockVector, alpha: float) -> tuple:
    """The state after loss, as arrays (loss code, kept occupation, amplitude).

    Every mode passes a beamsplitter of transmission alpha. Entry k is the
    ket whose kept occupation (k_ax, k_ay, k_bx, k_by) is kept[k] and whose
    lost counts are numbered code[k]; the entries are _expand_kets' in its
    order, less those whose beamsplitter factor is zero. Kept plus lost
    photons give back the input ket, so no two entries share both. Kets with
    different loss codes can never interfere once the lost photons are traced
    out: each code labels an independent pure component.
    """
    kets = list(state.amps)
    expansion = _expand_kets(kets)
    factor = _loss_factors(expansion, alpha)
    nonzero = np.flatnonzero(factor)
    amps = _amplitudes(state, kets)[expansion.ket[nonzero]] * factor[nonzero]
    return expansion.codes[nonzero], expansion.kept[nonzero], amps


class _SectorLayout(NamedTuple):
    """Where the entries of one nonzero-factor pattern go, for any transmission.

    The entries at expansion indices source[e], in (sector, loss code)
    order, land at flat index scatter[e] of a buffer of v_size that holds
    every sector's V, row-major one after another. sectors lists, per
    sector, (key, V offset, rows, dim, density offset): its (dim, dim)
    density matrix sits row-major at that offset of a buffer of
    density_size.
    """

    source: np.ndarray
    scatter: np.ndarray
    v_size: int
    sectors: list
    density_size: int


def _sector_layout(expansion: _Expansion, nonzero: np.ndarray) -> _SectorLayout:
    """The layout of the entries at the given expansion indices.

    One stable sort by (sector, loss code) makes each run of equal codes one
    row of its sector's V, numbered from 0 per sector; an entry's column is
    its kept occupation (k_ax, i - k_ax, k_bx, j - k_bx) in the sector basis.
    """
    kept, codes = expansion.kept[nonzero], expansion.codes[nonzero]
    i = kept[:, 0] + kept[:, 1]
    j = kept[:, 2] + kept[:, 3]
    # initial=0: a restricted expansion may leave no entry, and then no sector
    sector = i * (1 + int(j.max(initial=0))) + j
    key = sector * (1 + int(codes.max(initial=0))) + codes
    order = np.argsort(key, kind="stable")
    bounds = np.flatnonzero(np.diff(sector[order], prepend=-1, append=-1))
    starts = bounds[:-1]
    owner = np.repeat(np.arange(starts.size), np.diff(bounds))  # each sorted entry's sector
    # each sorted entry's run of equal keys: a row of V, numbered across sectors
    run = np.cumsum(np.diff(key[order], prepend=-1) != 0) - 1
    first_run = run[starts]
    rows = run[bounds[1:] - 1] + 1 - first_run
    si, sj = i[order[starts]], j[order[starts]]
    dims = (si + 1) * (sj + 1)
    cols = ((i - kept[:, 0]) * (j + 1) + (j - kept[:, 2]))[order]
    v_offsets = np.cumsum(rows * dims) - rows * dims
    scatter = v_offsets[owner] + (run - first_run[owner]) * dims[owner] + cols
    offsets = np.cumsum(dims * dims) - dims * dims
    sectors = list(zip(zip(si.tolist(), sj.tolist()), v_offsets.tolist(), rows.tolist(),
                       dims.tolist(), offsets.tolist()))
    return _SectorLayout(nonzero[order], scatter, int((rows * dims).sum()), sectors,
                         int((dims * dims).sum()))


def _keep_sectors(expansion: _Expansion, sectors) -> _Expansion:
    """The entries of an expansion whose kept occupation lies in one of the
    given (i, j) sectors, in their order."""
    i = expansion.kept[:, 0] + expansion.kept[:, 1]
    j = expansion.kept[:, 2] + expansion.kept[:, 3]
    keep = np.zeros(i.size, dtype=bool)
    for a, b in sectors:
        keep |= (i == a) & (j == b)
    return _Expansion(expansion.ket[keep], expansion.split[:, keep], expansion.codes[keep],
                      expansion.kept[keep], expansion.radix)


def sector_densities(states, alphas, sectors=None) -> Iterator[dict]:
    """Push each state through equal per-arm loss at each transmission in
    turn and trace out the lost photons; yields one apply_loss_and_trace dict
    per (state, transmission), state-major: every transmission of the first
    state in order, then of the next. Given sectors, an iterable of (i, j)
    keys, each dict holds only those of them that the full dict holds, each
    matrix byte for byte the full build's: the expansion keeps only their
    entries, so no other sector costs a factor, a layout or a matmul.

    The states must share one ket set, as build_pdc_state gives at one
    n_max for any pump parameter; only their amplitudes differ. The
    expansion of the kets is built once for every state and transmission,
    the beamsplitter factors once per transmission, and the layout of each
    distinct pattern of nonzero factors (_sector_layout) once per pattern:
    alpha 0, alpha 1 and an alpha whose factors underflow each drop other
    entries. Nothing outlives the call, and only one (state, transmission)'s
    densities are built at a time. Each costs its amplitudes, one scatter
    into V, one matmul per sector and one finiteness check of all of them.

    Args:
        states: FockVectors on one ket set, e.g. (state,) for one state.
        alphas: Shared arm transmissions.
        sectors: The kept-photon sectors (i, j) to build; None builds all.

    Raises:
        ValueError: Before anything is yielded, if a transmission is not a
            real number in [0, 1] or the states' ket sets differ; before a
            (state, transmission) is yielded, if one of its densities is not
            finite, as when amplitudes of 1e154 or more overflow the matmul.
    """
    states = tuple(states)
    alphas = [checked_transmission(alpha) for alpha in alphas]
    if not states:
        return
    kets = list(states[0].amps)
    if any(state.amps.keys() != states[0].amps.keys() for state in states[1:]):
        raise ValueError("states must share one ket set")
    expansion = _expand_kets(kets)
    if sectors is not None:
        expansion = _keep_sectors(expansion, sectors)
    layouts = {}  # per pattern: its layout, and the ket of each entry it places
    plans = []  # per transmission: its layout and ket, and the factor of each entry
    for alpha in alphas:
        factor = _loss_factors(expansion, alpha)
        nonzero = np.flatnonzero(factor)
        pattern = nonzero.tobytes()
        if pattern not in layouts:
            layout = _sector_layout(expansion, nonzero)
            layouts[pattern] = layout, expansion.ket[layout.source]
        layout, ket = layouts[pattern]
        plans.append((layout, ket, factor[layout.source]))
    for state in states:
        state_amps = _amplitudes(state, kets)
        for layout, ket, factor in plans:
            amps = state_amps[ket] * factor
            v_flat = np.zeros(layout.v_size, dtype=amps.dtype)
            v_flat[layout.scatter] = amps
            density_flat = np.empty(layout.density_size, dtype=amps.dtype)
            out = {}
            for key, v_offset, rows, dim, offset in layout.sectors:
                v = v_flat[v_offset : v_offset + rows * dim].reshape(rows, dim)
                rho = density_flat[offset : offset + dim * dim].reshape(dim, dim)
                out[key] = np.matmul(v.T, v.conj(), out=rho)
            if not np.isfinite(density_flat).all():
                raise ValueError("sector density must be finite")
            yield out


def apply_loss_and_trace(state: FockVector, alpha: float) -> dict:
    """Push the state through equal per-arm loss and trace out the lost photons.

    Every mode passes a beamsplitter of transmission alpha, and the reflected
    photons are traced out. The result maps each kept-photon sector (i, j),
    i photons in arm a and j in arm b, to its unnormalized polarization
    density matrix, in (i, j) order. The matrix runs over the occupations
    (k_ax, i - k_ax, k_bx, j - k_bx), k_ax from i down to 0 and, within it,
    k_bx from j down to 0 (x-heavy first on each side); its trace is the
    sector weight.

    Each sector's density matrix is V^T conj(V), where row g of V holds the
    sector's amplitudes of one lost occupation: the sum of the pure
    components that the trace leaves. As a Gram matrix it is Hermitian and
    positive semidefinite by construction. The matrices are real when every
    amplitude of the state is.

    Args:
        state: Input FockVector.
        alpha: Shared arm transmission.
    """
    return next(sector_densities((state,), (alpha,)))


def _weight(matrix: np.ndarray) -> float:
    """Sector weight: the trace of its density matrix."""
    return math.fsum(matrix.diagonal().real)


def sector_weights(sectors: dict) -> dict:
    """Map (i, j) -> sector weight."""
    return {key: _weight(matrix) for key, matrix in sectors.items()}


def extract_pdc_coefficients(sectors: dict) -> PdcCoefficients:
    """Read the closed-form coefficients off apply_loss_and_trace's sector densities.

    B is the vacuum-sector weight and C the one-photon-sector weight, after
    checking that the (1, 0) and (0, 1) sectors agree and are unpolarized.
    The (1, 1) sector must decompose as A |psi+><psi+| + D I/4; A is
    recovered from the psi+ overlap and the residual of the decomposition is
    required to vanish within 1e-10.

    Raises:
        ValueError: If any structural check fails, which would falsify the
            claimed sector decomposition at the tested parameters.
    """
    B = _weight(sectors[(0, 0)]) if (0, 0) in sectors else 0.0

    w10 = _weight(sectors[(1, 0)]) if (1, 0) in sectors else 0.0
    w01 = _weight(sectors[(0, 1)]) if (0, 1) in sectors else 0.0
    if abs(w10 - w01) > _PAIR_TOL:
        raise ValueError(f"one-photon sectors disagree: {w10} vs {w01}")
    for sector in ((1, 0), (0, 1)):
        if sector in sectors:
            m = sectors[sector]
            if np.max(np.abs(m - 0.5 * np.trace(m).real * np.eye(2))) > _PAIR_TOL:
                raise ValueError(f"sector {sector} is not unpolarized")
    C = w10

    if (1, 1) in sectors:
        A, D, residual = _fit_pair_sector(sectors[(1, 1)])
        if residual > _RESIDUAL_TOL:
            raise ValueError(f"(1, 1) sector is not A psi+ + D I/4: residual {residual}")
    else:
        A = D = 0.0
    return PdcCoefficients(A=max(A, 0.0), B=B, C=C, D=max(D, 0.0))


def _fit_pair_sector(rho: np.ndarray) -> tuple:
    """Fit rho_11 = A |psi+><psi+| + D I/4; returns (A, D, residual).

    A comes from the psi+ overlap and D from the trace; the residual is the
    Frobenius norm of what the two-parameter form leaves unexplained. All
    three are Python floats, so a report that compares them holds bools.
    """
    trace = float(np.trace(rho).real)
    # basis order (xx, xy, yx, yy); psi+ = (|xy> + |yx>) / sqrt(2)
    overlap = float(0.5 * (rho[1, 1] + rho[2, 2] + rho[1, 2] + rho[2, 1]).real)
    A = (4.0 * overlap - trace) / 3.0
    D = trace - A
    psi_plus = np.zeros(4)
    psi_plus[1] = psi_plus[2] = _HALF_SQRT2
    model = A * np.outer(psi_plus, psi_plus) + 0.25 * D * np.eye(4)
    return A, D, float(np.linalg.norm(rho - model))


def pair_sector_residual(sectors: dict) -> float:
    """Distance of the (1, 1) sector from its claimed two-parameter form.

    Returns the Frobenius norm of rho_11 - A |psi+><psi+| - D I/4 with A and
    D fitted as in extract_pdc_coefficients, or 0 if the sector is absent.
    """
    return _fit_pair_sector(sectors[(1, 1)])[2] if (1, 1) in sectors else 0.0


@lru_cache(maxsize=None)
def _receiver_expansion(kx: int, ky: int) -> tuple:
    """Detector-occupation amplitudes of a kept two-mode receiver ket.

    The receiver splits each photon 50/50 between a native-basis analyzer
    and a rotated one: a_x+ -> x+/sqrt(2) + u+/2 + v+/2 and
    a_y+ -> y+/sqrt(2) + u+/2 - v+/2 (an isometry into the four detector
    modes x, y, u, v). Returns, for the normalized input ket |kx, ky>, the
    detector occupations (n_x, n_y, n_u, n_v) as rows, their _classify
    outcome classes and their amplitudes, as read-only arrays.
    """
    x_term = {(1, 0, 0, 0): _HALF_SQRT2, (0, 0, 1, 0): 0.5, (0, 0, 0, 1): 0.5}
    y_term = {(0, 1, 0, 0): _HALF_SQRT2, (0, 0, 1, 0): 0.5, (0, 0, 0, 1): -0.5}
    poly = {(0, 0, 0, 0): 1.0}
    for term in [x_term] * kx + [y_term] * ky:
        nxt: dict = defaultdict(float)
        for mono, coeff in poly.items():
            for step, factor in term.items():
                key = tuple(m + s for m, s in zip(mono, step))
                nxt[key] += coeff * factor
        poly = nxt
    norm = math.sqrt(math.factorial(kx) * math.factorial(ky))
    occs = np.array(list(poly))
    classes = np.array([_classify(occ) for occ in poly])
    amps = np.array(
        [coeff * math.sqrt(math.prod(math.factorial(n) for n in occ)) / norm
         for occ, coeff in poly.items()]
    )
    for arr in (occs, classes, amps):
        arr.flags.writeable = False
    return occs, classes, amps


def _classify(occ: tuple) -> int:
    """Outcome class of one receiver: 0 vacuum, 1-4 a single detector
    (x, y, u, v), 5 more than one detector firing."""
    fired = [k for k, n in enumerate(occ) if n > 0]
    if not fired:
        return 0
    if len(fired) == 1:
        return 1 + fired[0]
    return 5


def _joint_outcomes(codes: np.ndarray, kept: np.ndarray, amps: np.ndarray) -> tuple:
    """All joint detector amplitudes of a _loss_expansion, as flat arrays
    (key, sector tag, term, joint class 6 a + b). Terms that share a key
    (loss code and both receivers' detector occupations) add coherently.
    The tag is below radix^2, the key's last digit, so grouping by key + tag
    adds only within one kept-photon sector and never reorders the sums.

    The entries go in order of kept occupation, stably; each gives one term
    per pair (a-term, b-term) of its two receivers' _receiver_expansion
    tables, a-major. One pass builds them all: the tables of the distinct
    receiver kets are laid end to end once, every (entry, a-term) row is
    indexed with repeat and cumsum, and every row's b-terms again. A term
    is (amp * a_amp) * b_amp and a key the exact integer
    ((component * side + a_code) * side + b_code) * radix^2.

    Measured against a loop of outer products per kept occupation, it has
    no crossover up to RESOURCE_CAP: on build_pdc_state(0.3, n_max) at
    transmission 0.5 (2-core Xeon, one BLAS thread, medians) it took 0.36
    vs 2.5 ms at n_max 4 (23,156 terms), 7.1 vs 13.8 ms at n_max 6
    (430,782) and 55 vs 67 ms at n_max 8 (4,462,601), where its traced
    peak was 177 MiB against the loop's 274.
    """
    i = kept[:, 0] + kept[:, 1]
    j = kept[:, 2] + kept[:, 3]
    radix = 1 + int(max(i.max(), j.max()))  # bounds every count on one receiver
    powers = radix ** np.arange(3, -1, -1)
    side = radix**4  # one receiver's detector occupations are coded below side
    component = np.unique(codes, return_inverse=True)[1]
    tag = i * radix + j
    order = np.argsort(kept @ powers, kind="stable")
    # each entry's two receiver kets, numbered kx * radix + ky, among the distinct ones
    receivers = np.concatenate([kept[order, :2] @ powers[2:], kept[order, 2:] @ powers[2:]])
    distinct, receiver = np.unique(receivers, return_inverse=True)
    tables = [_receiver_expansion(*divmod(k, radix)) for k in distinct.tolist()]
    sizes = np.array([len(amp) for _, _, amp in tables])
    starts = np.cumsum(sizes) - sizes
    r_code = np.concatenate([occ @ powers for occ, _, _ in tables])
    r_class = np.concatenate([cls for _, cls, _ in tables])
    r_amp = np.concatenate([amp for _, _, amp in tables])
    a, b = receiver[: order.size], receiver[order.size :]
    na, nb = sizes[a], sizes[b]
    # rows: (entry, a-term), entry-major; a_term and b_term index the laid-out tables
    row_entry = np.repeat(order, na)
    a_term = np.arange(row_entry.size) - np.repeat(np.cumsum(na) - na - starts[a], na)
    row_width = np.repeat(nb, na)
    first = np.cumsum(row_width) - row_width  # each row's first term
    b_term = np.arange(first[-1] + row_width[-1]) - np.repeat(first - np.repeat(starts[b], na), row_width)
    keys = np.repeat((component[row_entry] * side + r_code[a_term]) * side * radix**2, row_width)
    keys += r_code[b_term] * radix**2
    terms = np.repeat(amps[row_entry] * r_amp[a_term], row_width)
    terms *= r_amp[b_term]
    classes = np.repeat(6 * r_class[a_term], row_width)
    classes += r_class[b_term]
    return keys, np.repeat(tag[row_entry], row_width), terms, classes


def _outcome_probabilities(keys: np.ndarray, terms: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Joint distribution over both receivers' 36 outcome classes: the terms
    add per key, and each key's squared magnitude counts toward its class."""
    unique_keys, slot = np.unique(keys, return_inverse=True)
    total = np.bincount(slot, weights=terms.real) + 1j * np.bincount(slot, weights=terms.imag)
    key_class = np.empty(len(unique_keys), dtype=int)
    key_class[slot] = classes
    return np.bincount(key_class, weights=np.abs(total) ** 2, minlength=36)


def dephasing_invariance_check(state: FockVector, alpha: float) -> float:
    """Largest detection-statistics shift caused by sector dephasing.

    Builds every joint detector amplitude of the post-loss state once
    (_joint_outcomes) and groups it twice into the joint distribution over
    both receivers' outcome classes (vacuum, each of four detectors alone,
    or a multi-detector event): once as is, once with amplitudes added only
    within one kept-photon-number sector. The sector tag is the photon total
    of the detector occupations that already key each amplitude, so both
    groupings add the same amplitudes whenever _receiver_expansion conserves
    photon number. That conservation is what the check tests: as built it
    cannot see coherences between sectors, and only a receiver expansion
    that creates or loses photons can make the result nonzero. The return
    value is the maximum absolute probability difference over the 36 joint
    classes.
    """
    expansion = _loss_expansion(state, checked_transmission(alpha))
    keys, tags, terms, classes = _joint_outcomes(*expansion)
    plain = _outcome_probabilities(keys, terms, classes)
    dephased = _outcome_probabilities(keys + tags, terms, classes)
    return float(np.max(np.abs(plain - dephased)))
