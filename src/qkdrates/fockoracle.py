"""Brute-force occupation-number oracle for the down-conversion analysis.

Expands the two-mode-squeezed pair state exactly up to a pair-count cap,
pushes every photon through a beamsplitter loss channel, and reconstructs
the per-sector polarization density matrices by tracing the loss modes.
This is an independent check of the closed-form source coefficients and of
the claim that erasing coherences between photon-number sectors cannot
change any detection statistics.

Mode order everywhere: (a_x, a_y, b_x, b_y, c_x, c_y, d_x, d_y), where c
and d collect the photons reflected out of arms a and b.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import ArmLoss, checked_transmission
from .sources import PdcCoefficients

__all__ = [
    "RESOURCE_CAP",
    "FockVector",
    "SectorDensity",
    "truncation_tail",
    "build_pdc_state",
    "apply_loss_and_trace",
    "sector_weights",
    "extract_pdc_coefficients",
    "pair_sector_residual",
    "dephasing_invariance_check",
]

RESOURCE_CAP = 8

_HALF_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class FockVector:
    """Pure state as a map from 8-mode occupation tuples to amplitudes.

    Attributes:
        amps: Occupation tuple -> complex amplitude. The squared-amplitude
            sum may fall short of 1 by the truncation tail.
        n_max: Pair-count cap the state was built with.
    """

    amps: dict
    n_max: int

    def __post_init__(self):
        for occ in self.amps:
            if len(occ) != 8 or any(k < 0 for k in occ):
                raise ValueError(f"occupation tuples must be 8 non-negative counts, got {occ}")

    def norm_squared(self) -> float:
        return math.fsum(abs(a) ** 2 for a in self.amps.values())

    def pair_balanced(self) -> bool:
        """True if every ket holds equal photon totals on the a/c and b/d sides."""
        return all(
            occ[0] + occ[1] + occ[4] + occ[5] == occ[2] + occ[3] + occ[6] + occ[7]
            for occ in self.amps
        )


@dataclass(frozen=True)
class SectorDensity:
    """Polarization density matrix of the (i, j) kept-photon sector.

    Attributes:
        i: Photons kept in arm a.
        j: Photons kept in arm b.
        basis: Occupation 4-tuples (k_ax, k_ay, k_bx, k_by) indexing the
            matrix, ordered x-heavy first on each side.
        matrix: Unnormalized density matrix; its trace is the sector weight.
    """

    i: int
    j: int
    basis: tuple
    matrix: np.ndarray

    def __post_init__(self):
        dim = (self.i + 1) * (self.j + 1)
        if self.matrix.shape != (dim, dim) or len(self.basis) != dim:
            raise ValueError(f"sector ({self.i}, {self.j}) needs a {dim} x {dim} matrix")
        if np.max(np.abs(self.matrix - self.matrix.conj().T)) > 1e-12:
            raise ValueError("sector density must be Hermitian")
        if float(np.min(np.linalg.eigvalsh(self.matrix))) < -1e-12:
            raise ValueError("sector density must be positive semidefinite")

    @property
    def weight(self) -> float:
        return math.fsum(self.matrix.diagonal().real)


def truncation_tail(chi: float, n_max: int) -> float:
    """Weight of the discarded pair-number components above n_max.

    The pair count follows the geometric-like law (k + 1)(1 - q)^2 q^k with
    q = tanh^2(chi); the exact remainder past n_max is
    q^(n_max + 1) [(n_max + 2) - (n_max + 1) q].
    """
    q = math.tanh(chi) ** 2
    return q ** (n_max + 1) * ((n_max + 2) - (n_max + 1) * q)


def build_pdc_state(chi: float, n_max: int, cap: int = RESOURCE_CAP) -> FockVector:
    """Pair state truncated at n_max total pairs.

    The exact state is exp[tanh(chi) (a_x+ b_y+ + a_y+ b_x+)] |0> / cosh^2(chi),
    whose amplitude on n pairs in the x/y channel and m in the y/x channel
    is tanh^(n+m)(chi) / cosh^2(chi) at occupation (n, m, m, n).

    Args:
        chi: Pump parameter, positive.
        n_max: Pair-count truncation, at least 1.
        cap: Resource guard; n_max beyond it raises.
    """
    if chi <= 0:
        raise ValueError("pump parameter must be positive")
    if n_max < 1:
        raise ValueError("need at least one pair")
    if n_max > cap:
        raise ValueError(f"n_max={n_max} exceeds the resource cap {cap}")
    pref = 1.0 / math.cosh(chi) ** 2
    t = math.tanh(chi)
    amps = {}
    for n in range(n_max + 1):
        for m in range(n_max + 1 - n):
            amps[(n, m, m, n, 0, 0, 0, 0)] = pref * t ** (n + m)
    return FockVector(amps=amps, n_max=n_max)


@lru_cache(maxsize=None)
def _split_amplitudes(n: int, alpha: float) -> tuple:
    """Beamsplitter amplitudes: |n> -> sum_k sqrt(C(n,k) a^k (1-a)^(n-k)) |k, n-k>."""
    return tuple(
        (k, math.sqrt(math.comb(n, k) * alpha**k * (1.0 - alpha) ** (n - k)))
        for k in range(n + 1)
    )


def _loss_groups(state: FockVector, alpha: float) -> dict:
    """Post-loss amplitudes grouped by the (traced-out) loss occupation.

    Returns a map loss-tuple -> {kept signal 4-tuple -> amplitude}. Kets
    with different loss tuples can never interfere after the trace, so each
    group contributes an independent pure component.
    """
    groups: dict = defaultdict(lambda: defaultdict(complex))
    for occ, amp in state.amps.items():
        if any(occ[4:]):
            raise ValueError("input state must start with empty loss modes")
        splits = [_split_amplitudes(occ[k], alpha) for k in range(4)]
        for kax, fax in splits[0]:
            for kay, fay in splits[1]:
                f_a = fax * fay
                if f_a == 0.0:
                    continue
                for kbx, fbx in splits[2]:
                    for kby, fby in splits[3]:
                        factor = f_a * fbx * fby
                        if factor == 0.0:
                            continue
                        lost = (occ[0] - kax, occ[1] - kay, occ[2] - kbx, occ[3] - kby)
                        groups[lost][(kax, kay, kbx, kby)] += amp * factor
    return groups


def _sector_basis(i: int, j: int) -> tuple:
    return tuple(
        (kax, i - kax, kbx, j - kbx)
        for kax in range(i, -1, -1)
        for kbx in range(j, -1, -1)
    )


def apply_loss_and_trace(state: FockVector, alpha: ArmLoss | float) -> list:
    """Push the state through equal per-arm loss and trace the loss modes.

    Every signal mode passes a beamsplitter of transmission alpha; the
    reflected photons land in the loss modes, whose occupations are then
    traced out. The result is the list of kept-photon SectorDensity blocks,
    ordered by (i, j).

    Args:
        state: Input FockVector with empty loss modes.
        alpha: Shared arm transmission.
    """
    groups = _loss_groups(state, checked_transmission(alpha))
    matrices: dict = {}
    bases: dict = {}
    for vec in groups.values():
        per_sector: dict = defaultdict(list)
        for sig, amp in vec.items():
            per_sector[(sig[0] + sig[1], sig[2] + sig[3])].append((sig, amp))
        for sector, entries in per_sector.items():
            if sector not in matrices:
                basis = _sector_basis(*sector)
                bases[sector] = {occ: idx for idx, occ in enumerate(basis)}
                matrices[sector] = np.zeros((len(basis), len(basis)), dtype=complex)
            index = bases[sector]
            v = np.zeros(len(index), dtype=complex)
            for sig, amp in entries:
                v[index[sig]] = amp
            matrices[sector] += np.outer(v, v.conj())
    return [
        SectorDensity(i=i, j=j, basis=_sector_basis(i, j), matrix=matrices[(i, j)])
        for i, j in sorted(matrices)
    ]


def sector_weights(sectors: list) -> dict:
    """Map (i, j) -> sector weight."""
    return {(s.i, s.j): s.weight for s in sectors}


def extract_pdc_coefficients(
    sectors: list, pair_tol: float = 1e-12, residual_tol: float = 1e-10
) -> PdcCoefficients:
    """Read the closed-form coefficients off brute-force sector densities.

    B is the vacuum-sector weight and C the one-photon-sector weight, after
    checking that the (1, 0) and (0, 1) sectors agree and are unpolarized.
    The (1, 1) sector must decompose as A |psi+><psi+| + D I/4; A is
    recovered from the psi+ overlap and the residual of the decomposition is
    required to vanish within residual_tol.

    Raises:
        ValueError: If any structural check fails, which would falsify the
            claimed sector decomposition at the tested parameters.
    """
    by_sector = {(s.i, s.j): s for s in sectors}
    B = by_sector[(0, 0)].weight if (0, 0) in by_sector else 0.0

    w10 = by_sector[(1, 0)].weight if (1, 0) in by_sector else 0.0
    w01 = by_sector[(0, 1)].weight if (0, 1) in by_sector else 0.0
    if abs(w10 - w01) > pair_tol:
        raise ValueError(f"one-photon sectors disagree: {w10} vs {w01}")
    for sector in ((1, 0), (0, 1)):
        if sector in by_sector:
            m = by_sector[sector].matrix
            if np.max(np.abs(m - 0.5 * np.trace(m).real * np.eye(2))) > pair_tol:
                raise ValueError(f"sector {sector} is not unpolarized")
    C = w10

    if (1, 1) in by_sector:
        A, D, residual = _fit_pair_sector(by_sector[(1, 1)].matrix)
        if residual > residual_tol:
            raise ValueError(f"(1, 1) sector is not A psi+ + D I/4: residual {residual}")
    else:
        A = D = 0.0
    return PdcCoefficients(A=max(A, 0.0), B=B, C=C, D=max(D, 0.0))


def _fit_pair_sector(rho: np.ndarray) -> tuple:
    """Fit rho_11 = A |psi+><psi+| + D I/4; returns (A, D, residual).

    A comes from the psi+ overlap and D from the trace; the residual is the
    Frobenius norm of what the two-parameter form leaves unexplained.
    """
    trace = np.trace(rho).real
    # basis order (xx, xy, yx, yy); psi+ = (|xy> + |yx>) / sqrt(2)
    overlap = 0.5 * (rho[1, 1] + rho[2, 2] + rho[1, 2] + rho[2, 1]).real
    A = (4.0 * overlap - trace) / 3.0
    D = trace - A
    psi_plus = np.zeros(4)
    psi_plus[1] = psi_plus[2] = _HALF_SQRT2
    model = A * np.outer(psi_plus, psi_plus) + 0.25 * D * np.eye(4)
    return A, D, float(np.linalg.norm(rho - model))


def pair_sector_residual(sectors: list) -> float:
    """Distance of the (1, 1) sector from its claimed two-parameter form.

    Returns the Frobenius norm of rho_11 - A |psi+><psi+| - D I/4 with A and
    D fitted as in extract_pdc_coefficients, or 0 if the sector is absent.
    """
    for s in sectors:
        if (s.i, s.j) == (1, 1):
            return _fit_pair_sector(s.matrix)[2]
    return 0.0


@lru_cache(maxsize=None)
def _receiver_expansion(kx: int, ky: int) -> tuple:
    """Detector-occupation amplitudes of a kept two-mode receiver ket.

    The receiver splits each photon 50/50 between a native-basis analyzer
    and a rotated one: a_x+ -> x+/sqrt(2) + u+/2 + v+/2 and
    a_y+ -> y+/sqrt(2) + u+/2 - v+/2 (an isometry into the four detector
    modes x, y, u, v). Returns ((n_x, n_y, n_u, n_v), amplitude) pairs for
    the normalized input ket |kx, ky>.
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
    return tuple(
        (occ, coeff * math.sqrt(math.prod(math.factorial(n) for n in occ)) / norm)
        for occ, coeff in poly.items()
    )


def _classify(occ: tuple) -> int:
    """Outcome class of one receiver: 0 vacuum, 1-4 a single detector
    (x, y, u, v), 5 more than one detector firing."""
    fired = [k for k, n in enumerate(occ) if n > 0]
    if not fired:
        return 0
    if len(fired) == 1:
        return 1 + fired[0]
    return 5


def _outcome_probabilities(groups: dict, dephase: bool) -> np.ndarray:
    probs = np.zeros(36)
    for vec in groups.values():
        acc: dict = defaultdict(complex)
        for (kax, kay, kbx, kby), amp in vec.items():
            tag = (kax + kay, kbx + kby) if dephase else None
            for a_occ, a_amp in _receiver_expansion(kax, kay):
                base = amp * a_amp
                for b_occ, b_amp in _receiver_expansion(kbx, kby):
                    acc[(tag, a_occ, b_occ)] += base * b_amp
        for (_, a_occ, b_occ), total in acc.items():
            probs[6 * _classify(a_occ) + _classify(b_occ)] += abs(total) ** 2
    return probs


def dephasing_invariance_check(state: FockVector, alpha: ArmLoss | float) -> float:
    """Largest detection-statistics shift caused by sector dephasing.

    Computes the joint distribution over both receivers' outcome classes
    (vacuum, each of four detectors alone, or a multi-detector event) twice:
    once for the post-loss state as is, once with all coherences between
    kept-photon-number sectors erased. Photon counting cannot see those
    coherences, so the difference must vanish; the return value is the
    maximum absolute probability difference over the 36 joint classes.
    """
    groups = _loss_groups(state, checked_transmission(alpha))
    plain = _outcome_probabilities(groups, dephase=False)
    dephased = _outcome_probabilities(groups, dephase=True)
    return float(np.max(np.abs(plain - dephased)))
