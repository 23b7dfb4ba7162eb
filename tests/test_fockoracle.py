"""Unit tests for the truncated occupation-number oracle."""

import gc
import itertools
import math
import re
import tracemalloc
from collections import defaultdict
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdrates.fockoracle import (
    FockVector,
    _joint_outcomes,
    _loss_expansion,
    _outcome_probabilities,
    _receiver_expansion,
    _split_amplitudes,
    apply_loss_and_trace,
    build_pdc_state,
    dephasing_invariance_check,
    extract_pdc_coefficients,
    pair_sector_residual,
    sector_densities,
    sector_weights,
    truncation_tail,
)
from qkdrates.sources import pdc_coefficients

HALF = 1.0 / math.sqrt(2.0)


class TestBuildState:
    def test_vacuum_amplitude(self):
        state = build_pdc_state(0.2, 6)
        assert state.amps[(0, 0, 0, 0)] == pytest.approx(0.9610429829661166, rel=1e-14)

    def test_single_pair_amplitude(self):
        state = build_pdc_state(0.2, 6)
        amp = state.amps[(1, 0, 0, 1)]
        assert amp == pytest.approx(0.1896861665128342, rel=1e-14)
        assert amp == state.amps[(0, 1, 1, 0)]

    def test_small_pump_is_nearly_vacuum(self):
        state = build_pdc_state(1e-4, 3)
        assert state.amps[(0, 0, 0, 0)] == pytest.approx(1.0, abs=1e-7)
        assert state.norm_squared() == pytest.approx(1.0, abs=1e-7)

    def test_pair_balance(self):
        assert build_pdc_state(0.3, 5).pair_balanced()

    def test_norm_deficit_matches_tail(self):
        for chi, n_max in ((0.2, 4), (0.3, 6), (0.1, 8)):
            state = build_pdc_state(chi, n_max)
            deficit = 1.0 - state.norm_squared()
            assert deficit == pytest.approx(truncation_tail(chi, n_max), abs=1e-13)
            # documented coarse bound
            assert deficit < math.tanh(chi) ** (2 * (n_max + 1)) * (n_max + 2)

    def test_resource_cap(self):
        with pytest.raises(ValueError):
            build_pdc_state(0.2, 9)
        with pytest.raises(ValueError):
            build_pdc_state(0.2, 0)
        with pytest.raises(ValueError):
            build_pdc_state(-0.1, 4)

    @pytest.mark.parametrize("chi", [math.inf, math.nan, -math.inf, 0.0], ids=repr)
    def test_non_finite_pump_rejected(self, chi):
        for build in (build_pdc_state, truncation_tail):
            with pytest.raises(ValueError, match="pump parameter must be positive and finite, got " + re.escape(repr(chi))):
                build(chi, 3)

    @pytest.mark.parametrize("chi", [True, "0.2", None, 0.2j, np.array([0.2])], ids=repr)
    def test_non_real_pump_rejected(self, chi):
        # True was taken as a pump parameter of 1, and "0.2" raised a bare TypeError
        for build in (build_pdc_state, truncation_tail):
            with pytest.raises(ValueError, match="^pump parameter must be positive and finite, got " + re.escape(repr(chi)) + "$"):
                build(chi, 3)

    def test_real_pump_types_accepted(self):
        assert truncation_tail(np.float64(0.2), 2) == truncation_tail(0.2, 2)
        assert build_pdc_state(np.float32(0.25), 2).amps == build_pdc_state(0.25, 2).amps

    @pytest.mark.parametrize("n_max", [2.0, 2.5, True, -5, 0, "3", None], ids=repr)
    def test_non_integer_truncation_rejected(self, n_max):
        for build in (build_pdc_state, truncation_tail):
            with pytest.raises(ValueError, match="pair truncation must be an integer of at least 1, got " + re.escape(repr(n_max))):
                build(0.2, n_max)

    def test_numpy_integer_truncation_accepted(self):
        assert build_pdc_state(0.2, np.int64(3)).amps == build_pdc_state(0.2, 3).amps
        assert truncation_tail(0.2, np.int8(3)) == truncation_tail(0.2, 3)


class TestLossAndSectors:
    def test_lossless_pair_sector_is_pure(self):
        state = build_pdc_state(0.2, 6)
        sectors = apply_loss_and_trace(state, 1.0)
        rho = sectors[(1, 1)]
        psi = np.zeros(4)
        psi[1] = psi[2] = HALF
        weight = sector_weights(sectors)[(1, 1)]
        assert np.allclose(rho, weight * np.outer(psi, psi), atol=1e-15)

    def test_total_loss_leaves_vacuum(self):
        state = build_pdc_state(0.2, 6)
        weights = sector_weights(apply_loss_and_trace(state, 0.0))
        assert set(weights) == {(0, 0)}
        assert weights[(0, 0)] == pytest.approx(state.norm_squared(), rel=1e-12)

    def test_weights_sum_to_norm(self):
        state = build_pdc_state(0.2, 6)
        weights = sector_weights(apply_loss_and_trace(state, 0.5))
        assert math.fsum(weights.values()) == pytest.approx(
            1.0 - truncation_tail(0.2, 6), abs=1e-12
        )

    def test_one_photon_sectors_match(self):
        state = build_pdc_state(0.2, 6)
        weights = sector_weights(apply_loss_and_trace(state, 0.5))
        assert weights[(1, 0)] == pytest.approx(weights[(0, 1)], abs=1e-15)

    def test_old_eight_mode_layout_rejected(self):
        # an 8-mode tuple fails at construction, also when its last four counts are zero
        for occ in [(0, 0, 0, 0, 1, 0, 0, 0), (1, 0, 0, 1) + (0,) * 4]:
            with pytest.raises(ValueError, match="must be 4 non-negative integer counts, got " + re.escape(repr(occ))):
                FockVector(amps={occ: 1.0})

    def test_no_memory_is_kept_per_alpha(self):
        # nothing keyed on the float alpha may outlive a call
        state = build_pdc_state(0.3, 2)
        apply_loss_and_trace(state, 0.5)
        gc.collect()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(500):
                apply_loss_and_trace(state, (k + 0.5) / 500)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert retained < 64 * 1024

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            apply_loss_and_trace(build_pdc_state(0.2, 2), 1.5)

    @pytest.mark.parametrize("alpha", ["0.5", b"0.5", True], ids=repr)
    def test_alpha_is_not_coerced(self, alpha):
        state = build_pdc_state(0.2, 2)
        for call in (apply_loss_and_trace, dephasing_invariance_check):
            with pytest.raises(ValueError, match="arm transmission must be a real number, got " + re.escape(repr(alpha))):
                call(state, alpha)


def reference_loss_groups(state, alpha):
    """Per-ket reference of the loss channel: kept ket -> amplitude, grouped
    by the loss occupation that the trace removes."""
    groups = defaultdict(lambda: defaultdict(complex))
    for occ, amp in state.amps.items():
        for kept in itertools.product(*(range(n + 1) for n in occ[:4])):
            factor = math.prod(
                math.sqrt(math.comb(n, k) * alpha**k * (1.0 - alpha) ** (n - k))
                for n, k in zip(occ[:4], kept)
            )
            if factor != 0.0:
                lost = tuple(n - k for n, k in zip(occ[:4], kept))
                groups[lost][kept] += amp * factor
    return groups


def reference_loss_and_trace(state, alpha):
    """One outer product per loss occupation and sector, summed."""
    matrices = {}
    for vec in reference_loss_groups(state, alpha).values():
        for (i, j) in {(k[0] + k[1], k[2] + k[3]) for k in vec}:
            basis = [(kax, i - kax, kbx, j - kbx) for kax in range(i, -1, -1) for kbx in range(j, -1, -1)]
            v = np.array([vec.get(occ, 0.0) for occ in basis], dtype=complex)
            matrices[(i, j)] = matrices.get((i, j), 0.0) + np.outer(v, v.conj())
    return matrices


def reference_outcome_probabilities(state, alpha, dephase):
    """The 36 joint outcome classes, one dict entry per (sector tag, detector occupations)."""
    probs = np.zeros(36)
    for vec in reference_loss_groups(state, alpha).values():
        acc = defaultdict(complex)
        for (kax, kay, kbx, kby), amp in vec.items():
            tag = (kax + kay, kbx + kby) if dephase else None
            a_occ, a_cls, a_amp = _receiver_expansion(kax, kay)
            b_occ, b_cls, b_amp = _receiver_expansion(kbx, kby)
            for oa, ca, xa in zip(a_occ.tolist(), a_cls.tolist(), a_amp.tolist()):
                for ob, cb, xb in zip(b_occ.tolist(), b_cls.tolist(), b_amp.tolist()):
                    acc[(tag, tuple(oa), tuple(ob), 6 * ca + cb)] += amp * xa * xb
        for key, total in acc.items():
            probs[key[-1]] += abs(total) ** 2
    return probs


def grouped_outcome_probabilities(state, alpha, dephase):
    """The 36 joint outcome classes from _joint_outcomes, grouped by key or by key + sector tag."""
    keys, tags, terms, classes = _joint_outcomes(*_loss_expansion(state, alpha))
    return _outcome_probabilities(keys + tags if dephase else keys, terms, classes)


EQUIVALENCE_STATES = {
    "pdc": build_pdc_state(0.3, 3),
    "complex": FockVector(
        amps={
            (1, 0, 0, 1): 0.6,
            (0, 1, 1, 0): 0.48j,
            (2, 1, 0, 3): 0.3 - 0.4j,
            (0, 0, 2, 0): -0.2 + 0.1j,
        }
    ),
    "vacuum": FockVector(amps={(0, 0, 0, 0): 1.0}),
}


# the dephasing suite's cases
SUPERPOSITION = FockVector(amps={(0, 0, 0, 0): HALF, (1, 0, 0, 0): HALF})
DEPHASING_CASES = [
    pytest.param(build_pdc_state(0.3, 4), 0.5, id="pdc chi=0.3 alpha=0.5"),
    pytest.param(build_pdc_state(0.3, 4), 1.0, id="pdc chi=0.3 alpha=1.0"),
    pytest.param(build_pdc_state(0.2, 3), 0.7, id="pdc chi=0.2 alpha=0.7"),
    pytest.param(SUPERPOSITION, 1.0, id="superposition alpha=1.0"),
    pytest.param(SUPERPOSITION, 0.6, id="superposition alpha=0.6"),
    pytest.param(FockVector(amps={(1, 0, 0, 1): 1.0}), 0.8, id="number-diagonal alpha=0.8"),
]


class TestLossEquivalence:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_STATES))
    def test_matches_per_ket_reference(self, name, alpha):
        state = EQUIVALENCE_STATES[name]
        sectors = apply_loss_and_trace(state, alpha)
        reference = reference_loss_and_trace(state, alpha)
        assert list(sectors) == sorted(reference)
        for key, matrix in sectors.items():
            assert np.max(np.abs(matrix - reference[key])) <= 1e-14


    @pytest.mark.parametrize("dephase", [False, True])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_STATES))
    def test_outcome_classes_match_per_ket_reference(self, name, alpha, dephase):
        state = EQUIVALENCE_STATES[name]
        probs = grouped_outcome_probabilities(state, alpha, dephase)
        assert np.max(np.abs(probs - reference_outcome_probabilities(state, alpha, dephase))) <= 1e-14
        assert math.fsum(probs) == pytest.approx(state.norm_squared(), abs=1e-14)

    @pytest.mark.parametrize("dephase", [False, True])
    @pytest.mark.parametrize("state, alpha", DEPHASING_CASES)
    def test_dephasing_suite_outcomes_match_per_ket_reference(self, state, alpha, dephase):
        probs = grouped_outcome_probabilities(state, alpha, dephase)
        assert np.max(np.abs(probs - reference_outcome_probabilities(state, alpha, dephase))) <= 1e-14
        assert math.fsum(probs) == pytest.approx(state.norm_squared(), abs=1e-14)


# the pdc-oracle suite's grid
ORACLE_CHIS = (0.05, 0.1, 0.2, 0.3)
ORACLE_ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
ORACLE_GRID = [(chi, alpha) for chi in ORACLE_CHIS for alpha in ORACLE_ALPHAS]
CHECK_CASES = [
    *(pytest.param(build_pdc_state(chi, 8), alpha, id=f"pdc chi={chi} alpha={alpha}")
      for chi, alpha in ORACLE_GRID),
    *(pytest.param(state, alpha, id=f"{name} alpha={alpha}")
      for name, state in EQUIVALENCE_STATES.items() for alpha in (0.0, 0.5, 1.0)),
]


def reference_loss_expansion(state, alpha):
    """The expansion one ket at a time: an outer product of the four modes'
    split amplitudes per ket, its zero factors dropped."""
    radix = 1 + max(max(occ[:4]) for occ in state.amps)
    powers = radix ** np.arange(3, -1, -1)
    split = [_split_amplitudes(n, alpha) for n in range(radix)]
    codes, kept, amps = [], [], []
    for occ, amp in state.amps.items():
        factor = reduce(np.multiply.outer, [split[n] for n in occ[:4]]).ravel()
        nonzero = factor != 0.0
        ks = np.indices([n + 1 for n in occ[:4]]).reshape(4, -1).T[nonzero]
        codes.append((np.array(occ[:4]) - ks) @ powers)
        kept.append(ks)
        amps.append(amp * factor[nonzero])
    return np.concatenate(codes), np.concatenate(kept), np.concatenate(amps)


EXPANSION_CASES = [*CHECK_CASES, *DEPHASING_CASES]


class TestLossExpansion:
    @pytest.mark.parametrize("state, alpha", EXPANSION_CASES)
    def test_matches_per_ket_reference_bitwise(self, state, alpha):
        for got, want in zip(_loss_expansion(state, alpha), reference_loss_expansion(state, alpha)):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

    def test_numpy_counts_expand_like_python_counts(self):
        state = EQUIVALENCE_STATES["complex"]
        numpy_state = FockVector(amps={tuple(np.int32(k) for k in occ): amp for occ, amp in state.amps.items()})
        for got, want in zip(_loss_expansion(numpy_state, 0.5), _loss_expansion(state, 0.5)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def joint_outcomes_by_group(codes, kept, amps):
    """_joint_outcomes as a loop over kept occupations: per occupation, the
    entries that keep it times both receivers' expansion tables, as four
    outer products, a repeat and a tile, all concatenated at the end."""
    i = kept[:, 0] + kept[:, 1]
    j = kept[:, 2] + kept[:, 3]
    radix = 1 + int(max(i.max(), j.max()))
    powers = radix ** np.arange(3, -1, -1)
    side = radix**4
    component = np.unique(codes, return_inverse=True)[1]
    tag = i * radix + j
    occupation = kept @ powers
    order = np.argsort(occupation, kind="stable")
    bounds = np.flatnonzero(np.diff(occupation[order], prepend=-1, append=-1)).tolist()
    keys, tags, terms, classes = [], [], [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sel = order[lo:hi]
        kax, kay, kbx, kby = kept[sel[0]].tolist()
        a_occ, a_cls, a_amp = _receiver_expansion(kax, kay)
        b_occ, b_cls, b_amp = _receiver_expansion(kbx, kby)
        joint = np.add.outer((a_occ @ powers) * side, b_occ @ powers).ravel()
        keys.append(np.add.outer(component[sel] * side**2, joint).ravel() * radix**2)
        tags.append(np.repeat(tag[sel], len(joint)))
        terms.append(np.multiply.outer(np.multiply.outer(amps[sel], a_amp), b_amp).ravel())
        classes.append(np.tile(np.add.outer(6 * a_cls, b_cls).ravel(), len(sel)))
    return tuple(np.concatenate(parts) for parts in (keys, tags, terms, classes))


def assert_joint_outcomes_match_by_group(state, alpha):
    expansion = _loss_expansion(state, alpha)
    got, want = _joint_outcomes(*expansion), joint_outcomes_by_group(*expansion)
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


OCCUPATIONS = st.tuples(*[st.integers(min_value=0, max_value=3)] * 4)
REAL_AMPLITUDES = st.floats(min_value=-1.0, max_value=1.0)
COMPLEX_AMPLITUDES = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
RANDOM_STATES = st.one_of(
    *(st.dictionaries(OCCUPATIONS, amplitudes, min_size=1, max_size=8).map(lambda amps: FockVector(amps=amps))
      for amplitudes in (REAL_AMPLITUDES, COMPLEX_AMPLITUDES))
)
TRANSMISSIONS = st.one_of(st.sampled_from([0.0, 1.0, 1e-300]), st.floats(min_value=0.0, max_value=1.0))
PSI_PLUS = FockVector(amps={(1, 0, 0, 1): HALF, (0, 1, 1, 0): HALF})


class TestJointOutcomes:
    @pytest.mark.parametrize("state, alpha", [
        *DEPHASING_CASES,
        *(pytest.param(PSI_PLUS, alpha, id=f"psi+ alpha={alpha}") for alpha in ORACLE_ALPHAS),
    ])
    def test_suite_states_match_the_loop_over_occupations_bitwise(self, state, alpha):
        assert_joint_outcomes_match_by_group(state, alpha)

    @given(RANDOM_STATES, TRANSMISSIONS)
    @settings(max_examples=300, deadline=None)
    def test_random_states_match_the_loop_over_occupations_bitwise(self, state, alpha):
        assert_joint_outcomes_match_by_group(state, alpha)


# the transmissions of one sector_densities call: total loss, one whose
# factors underflow past one photon per mode, a generic one, and no loss
MIXED_ALPHAS = [0.0, 1e-200, 0.5, 1.0]
# the sectors that the pdc-oracle suite reads
PDC_ORACLE_SECTORS = [(0, 0), (0, 1), (1, 0), (1, 1)]
# psi+ on the same kets, its amplitudes past the square root of the largest float
OVERFLOWING = FockVector(amps={(1, 0, 0, 1): 1e200, (0, 1, 1, 0): 1e200})


def populated_columns(state, alpha):
    """(i, j) -> sorted sector-basis columns that some kept ket occupies."""
    used = defaultdict(set)
    for vec in reference_loss_groups(state, alpha).values():
        for kax, kay, kbx, kby in vec:
            i, j = kax + kay, kbx + kby
            used[(i, j)].add((i - kax) * (j + 1) + (j - kbx))
    return {key: sorted(cols) for key, cols in used.items()}


def reference_components(state, alpha):
    """(i, j) -> the sector's column components, each a sorted list, by a
    union-find over reference_loss_groups: two columns are joined when one
    loss occupation populates both."""
    parent = {}

    def find(node):
        while parent.setdefault(node, node) != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for vec in reference_loss_groups(state, alpha).values():
        first = {}
        for kax, kay, kbx, kby in vec:
            i, j = kax + kay, kbx + kby
            node = (i, j, (i - kax) * (j + 1) + (j - kbx))
            root = find(node)
            if (i, j) in first:
                parent[root] = find(first[(i, j)])
            else:
                first[(i, j)] = node
    members = defaultdict(list)
    for node in list(parent):
        members[find(node)].append(node)
    components = defaultdict(list)
    for nodes in members.values():
        components[nodes[0][:2]].append(sorted(col for _, _, col in nodes))
    return components


def assert_gram_blocks(state, alpha, sectors):
    """One transmission's sectors hold the structure of a sum of Gram
    matrices: each sector's components cover exactly its populated columns,
    its matrix is exactly zero off their blocks, every block is Hermitian
    and positive semidefinite within 1e-13 of the matrix's largest entry,
    and the blocks' spectra make up its own."""
    components = reference_components(state, alpha)
    columns = populated_columns(state, alpha)
    assert list(sectors) == sorted(columns)
    for key, matrix in sectors.items():
        comps = components[key]
        assert sorted(col for comp in comps for col in comp) == columns[key]
        inside = np.zeros(matrix.shape, dtype=bool)
        for comp in comps:
            inside[np.ix_(comp, comp)] = True
        assert np.all(matrix[~inside] == 0.0)
        bound = 1e-13 * np.abs(matrix).max()
        block_min = math.inf
        for comp in comps:
            block = matrix[np.ix_(comp, comp)]
            assert np.abs(block - block.conj().T).max() <= bound
            block_min = min(block_min, np.linalg.eigvalsh(block).min())
        assert block_min >= -bound
        if len(columns[key]) < len(matrix):
            block_min = min(block_min, 0.0)
        assert abs(block_min - np.linalg.eigvalsh(matrix).min()) <= 1e-15


class TestSectorStructure:
    @pytest.mark.parametrize("state, alpha", EXPANSION_CASES)
    def test_sectors_are_gram_blocks_of_their_components(self, state, alpha):
        assert_gram_blocks(state, alpha, apply_loss_and_trace(state, alpha))

    @pytest.mark.parametrize("state", [
        *(pytest.param(state, id=name) for name, state in EQUIVALENCE_STATES.items()),
        pytest.param(build_pdc_state(0.3, 8), id="pdc n=8"),
    ])
    def test_every_transmission_of_one_call_is_gram_blocks(self, state):
        # one call over transmissions of different nonzero patterns
        for alpha, sectors in zip(MIXED_ALPHAS, sector_densities((state,), MIXED_ALPHAS)):
            assert_gram_blocks(state, alpha, sectors)

    def test_every_state_of_one_call_is_gram_blocks(self):
        # the states share one layout, and each (state, alpha) keeps its own structure
        states = [build_pdc_state(chi, 4) for chi in ORACLE_CHIS]
        pairs = [(state, alpha) for state in states for alpha in MIXED_ALPHAS]
        for (state, alpha), sectors in zip(pairs, sector_densities(states, MIXED_ALPHAS)):
            assert_gram_blocks(state, alpha, sectors)

    def test_entry_between_components_breaks_the_structure(self):
        # a symmetric entry joining two components keeps the matrix Hermitian
        state = build_pdc_state(0.3, 3)
        sectors = apply_loss_and_trace(state, 0.5)
        key, comps = next((key, comps) for key, comps in reference_components(state, 0.5).items()
                          if len(comps) > 1)
        a, b = comps[0][0], comps[1][0]
        sectors[key] = sectors[key].copy()
        sectors[key][a, b] = sectors[key][b, a] = 1e-3
        with pytest.raises(AssertionError):
            assert_gram_blocks(state, 0.5, sectors)


SWEEP_CASES = [
    *(pytest.param(build_pdc_state(chi, 8), ORACLE_ALPHAS, id=f"pdc chi={chi}") for chi in ORACLE_CHIS),
    *(pytest.param(state, MIXED_ALPHAS, id=name) for name, state in EQUIVALENCE_STATES.items()),
]


class TestSectorDensities:
    @pytest.mark.parametrize("state, alphas", SWEEP_CASES)
    def test_one_call_matches_one_call_per_transmission(self, state, alphas):
        together = list(sector_densities((state,), alphas))
        assert len(together) == len(alphas)
        for alpha, sectors in zip(alphas, together):
            alone = apply_loss_and_trace(state, alpha)
            assert list(sectors) == list(alone)
            for key, matrix in alone.items():
                assert (sectors[key].dtype, sectors[key].shape) == (matrix.dtype, matrix.shape)
                assert sectors[key].tobytes() == matrix.tobytes()

    def test_mixed_alphas_have_distinct_patterns(self):
        # 0 and 1 keep different entries; 1e-200 keeps entries that 0 drops,
        # and its underflow drops entries that 0.5 keeps
        state = EQUIVALENCE_STATES["pdc"]
        kept = [_loss_expansion(state, alpha)[1] for alpha in MIXED_ALPHAS]
        assert len({k.tobytes() for k in kept}) == len(kept)
        assert len(kept[0]) < len(kept[1]) < len(kept[2])

    def test_bad_transmission_raises_before_any_yield(self):
        densities = sector_densities((build_pdc_state(0.2, 2),), [0.5, 1.5])
        with pytest.raises(ValueError, match="arm transmission must lie in"):
            next(densities)

    def test_empty_transmissions_yield_nothing(self):
        assert list(sector_densities((build_pdc_state(0.2, 2),), [])) == []
        assert list(sector_densities((), [0.5])) == []

    def test_states_on_one_ket_set_match_one_state_calls(self):
        # the pdc-oracle suite's one call: state-major, each (state, alpha) as if alone
        states = [build_pdc_state(chi, 8) for chi in ORACLE_CHIS]
        together = list(sector_densities(states, ORACLE_ALPHAS))
        assert len(together) == len(ORACLE_GRID)
        for (chi, alpha), sectors in zip(ORACLE_GRID, together):
            alone = next(sector_densities((build_pdc_state(chi, 8),), (alpha,)))
            assert list(sectors) == list(alone)
            for key, matrix in alone.items():
                assert (sectors[key].dtype, sectors[key].shape) == (matrix.dtype, matrix.shape)
                assert sectors[key].tobytes() == matrix.tobytes()

    def test_ket_order_and_amplitude_type_are_per_state(self):
        # a reordered ket set is the same set; a complex state keeps its dtype
        # beside a real one on the same kets
        state = EQUIVALENCE_STATES["complex"]
        reordered = FockVector(amps=dict(reversed(state.amps.items())))
        real = FockVector(amps={occ: 0.5 for occ in state.amps})
        states = (real, reordered, state)
        together = list(sector_densities(states, MIXED_ALPHAS))
        wanted = [sectors for one in states for sectors in sector_densities((one,), MIXED_ALPHAS)]
        assert len(together) == len(wanted) == 3 * len(MIXED_ALPHAS)
        for sectors, alone in zip(together, wanted):
            assert list(sectors) == list(alone)
            for key, matrix in alone.items():
                assert (sectors[key].dtype, sectors[key].tobytes()) == (matrix.dtype, matrix.tobytes())

    @pytest.mark.parametrize("other", [
        pytest.param(build_pdc_state(0.2, 3), id="more kets"),
        pytest.param(FockVector(amps={(0, 0, 0, 0): 1.0, (1, 0, 0, 1): 0.5, (0, 1, 1, 0): 0.5}), id="fewer kets"),
        pytest.param(FockVector(amps={(0, 0, 0, 0): 1.0, (1, 0, 0, 1): 0.5, (0, 1, 1, 0): 0.5,
                                      (1, 1, 1, 1): 0.1, (0, 2, 2, 0): 0.1, (0, 0, 1, 1): 0.1}),
                     id="same count"),
    ])
    def test_different_ket_sets_raise_before_any_yield(self, other):
        base = build_pdc_state(0.2, 2)
        assert len(base.amps) == 6
        for states in ((base, other), (other, base), (base, base, other)):
            densities = sector_densities(states, [0.5])
            with pytest.raises(ValueError, match="^states must share one ket set$"):
                next(densities)

    def test_bad_transmission_of_many_states_raises_before_any_yield(self):
        states = [build_pdc_state(chi, 2) for chi in (0.1, 0.2)]
        with pytest.raises(ValueError, match="arm transmission must lie in"):
            next(sector_densities(states, [0.5, -0.1]))

    @pytest.mark.parametrize("sectors", [
        pytest.param(PDC_ORACLE_SECTORS, id="pdc-oracle's four"),
        pytest.param([(1, 1)], id="(1,1)"),
        pytest.param([(2, 0), (0, 0), (3, 4), (9, 9)], id="unordered, one never built"),
    ])
    @pytest.mark.parametrize("state, alphas", SWEEP_CASES)
    def test_restricted_sectors_equal_the_full_build(self, state, alphas, sectors):
        # ORACLE_ALPHAS and MIXED_ALPHAS: 0, 1 and the underflow pattern included
        full = list(sector_densities((state,), alphas))
        restricted = list(sector_densities((state,), alphas, sectors))
        assert len(restricted) == len(full) == len(alphas)
        for whole, part in zip(full, restricted):
            assert list(part) == [key for key in whole if key in sectors]
            for key, matrix in part.items():
                assert (matrix.dtype, matrix.shape) == (whole[key].dtype, whole[key].shape)
                assert matrix.tobytes() == whole[key].tobytes()

    def test_pdc_oracle_call_equals_the_full_build(self):
        states = [build_pdc_state(chi, 8) for chi in ORACLE_CHIS]
        full = list(sector_densities(states, ORACLE_ALPHAS))
        restricted = list(sector_densities(states, ORACLE_ALPHAS, PDC_ORACLE_SECTORS))
        assert len(restricted) == len(full) == len(ORACLE_GRID)
        for whole, part in zip(full, restricted):
            assert list(part) == [key for key in whole if key in PDC_ORACLE_SECTORS]
            assert all(part[key].tobytes() == whole[key].tobytes() for key in part)

    def test_sector_absent_from_the_full_build_is_absent(self):
        # total loss leaves only the vacuum, so a request without (0, 0) keeps no entry
        state = build_pdc_state(0.2, 3)
        assert list(next(sector_densities((state,), [0.0]))) == [(0, 0)]
        assert [list(part) for part in sector_densities((state,), [0.0, 0.5], [(1, 1)])] == [[], [(1, 1)]]
        assert list(sector_densities((state,), [0.0, 1.0], [(4, 4), (1, 0)])) == [{}, {}]

    @pytest.mark.parametrize("sectors", [[(1, 1)], [(0, 0)]], ids=repr)
    def test_overflowing_restricted_sector_raises(self, sectors):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="^sector density must be finite$"):
            next(sector_densities((OVERFLOWING,), [0.5], sectors))
        # a request that builds no sector computes no product to overflow
        assert next(sector_densities((OVERFLOWING,), [0.5], [(2, 2)])) == {}

    def test_overflowing_density_raises(self):
        # finite amplitudes whose squares pass float range
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="^sector density must be finite$"):
            apply_loss_and_trace(OVERFLOWING, 0.5)

    def test_overflowing_state_raises_before_its_densities_are_yielded(self):
        densities = sector_densities((PSI_PLUS, OVERFLOWING), [0.5])
        assert list(next(densities)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="^sector density must be finite$"):
            next(densities)

    def test_large_amplitudes_scale_the_densities(self):
        # each density is scaled by 1e300 and stays finite; its rounding
        # errors scale with it, past any absolute Hermitian or eigenvalue bound
        state = build_pdc_state(0.3, 6)
        scaled = FockVector(amps={occ: amp * 1e150 for occ, amp in state.amps.items()})
        want = apply_loss_and_trace(state, 0.37)
        got = apply_loss_and_trace(scaled, 0.37)
        assert list(got) == list(want)
        for key, matrix in want.items():
            np.testing.assert_allclose(got[key], matrix * 1e300, rtol=1e-12, atol=0.0)


class TestCoefficientExtraction:
    def test_matches_closed_form_at_benchmark_point(self):
        sectors = apply_loss_and_trace(build_pdc_state(0.2, 8), 0.5)
        oracle = extract_pdc_coefficients(sectors)
        closed = pdc_coefficients(0.2, 0.5)
        assert oracle.A == pytest.approx(closed.A, abs=1e-6)
        assert oracle.B == pytest.approx(closed.B, abs=1e-6)
        assert oracle.C == pytest.approx(closed.C, abs=1e-6)
        assert oracle.D == pytest.approx(closed.D, abs=1e-6)

    def test_lossless_coefficients(self):
        chi = 0.2
        sectors = apply_loss_and_trace(build_pdc_state(chi, 8), 1.0)
        oracle = extract_pdc_coefficients(sectors)
        assert oracle.A == pytest.approx(
            2.0 * math.tanh(chi) ** 2 / math.cosh(chi) ** 4, rel=1e-10
        )
        assert oracle.C == 0.0
        assert oracle.D == pytest.approx(0.0, abs=1e-12)

    def test_near_vacuum_pump(self):
        sectors = apply_loss_and_trace(build_pdc_state(1e-3, 4), 0.5)
        oracle = extract_pdc_coefficients(sectors)
        assert oracle.B == pytest.approx(1.0, abs=1e-5)
        assert oracle.A == pytest.approx(0.0, abs=1e-5)

    def test_pair_sector_residual_is_tiny(self):
        sectors = apply_loss_and_trace(build_pdc_state(0.3, 8), 0.7)
        assert pair_sector_residual(sectors) < 1e-10

    def test_coefficients_are_python_floats(self):
        # a report compares them with its tolerances and serializes the
        # comparison: a numpy bool there is not JSON
        oracle = extract_pdc_coefficients(apply_loss_and_trace(build_pdc_state(0.2, 4), 0.5))
        assert all(type(value) is float for value in (oracle.A, oracle.B, oracle.C, oracle.D))

    def test_disagreeing_one_photon_sectors_rejected(self):
        sectors = {(0, 0): np.array([[0.7]]), (1, 0): 0.1 * np.eye(2), (0, 1): 0.05 * np.eye(2)}
        with pytest.raises(ValueError, match="^one-photon sectors disagree: 0.2 vs 0.1$"):
            extract_pdc_coefficients(sectors)

    def test_no_pair_sector_means_no_pair_weights(self):
        # total loss leaves only the vacuum sector
        sectors = apply_loss_and_trace(build_pdc_state(0.2, 4), 0.0)
        assert set(sectors) == {(0, 0)}
        oracle = extract_pdc_coefficients(sectors)
        assert (oracle.A, oracle.C, oracle.D) == (0.0, 0.0, 0.0)
        assert oracle.B == pytest.approx(1.0, abs=1e-5)


class TestDephasing:
    def test_number_superposition_is_invisible_to_counters(self):
        state = FockVector(amps={(0, 0, 0, 0): HALF, (1, 0, 0, 0): HALF})
        assert dephasing_invariance_check(state, 1.0) <= 1e-15
        assert dephasing_invariance_check(state, 0.6) <= 1e-15

    def test_pdc_state_after_loss(self):
        deviation = dephasing_invariance_check(build_pdc_state(0.3, 4), 0.5)
        assert deviation < 1e-12

    def test_number_diagonal_state_is_exactly_invariant(self):
        state = FockVector(amps={(1, 0, 0, 1): 1.0})
        assert dephasing_invariance_check(state, 0.8) == 0.0


class TestFockVectorValidation:
    def test_empty_state_rejected(self):
        with pytest.raises(ValueError):
            FockVector(amps={})

    def test_occupation_shape(self):
        with pytest.raises(ValueError):
            FockVector(amps={(1, 0, 0): 1.0})
        with pytest.raises(ValueError):
            FockVector(amps={(1, 0, 0, -1): 1.0})

    @pytest.mark.parametrize("count", [1.5, "1", None, True, np.float64(1.0), np.True_], ids=repr)
    def test_non_integer_count_rejected(self, count):
        occ = (0, 0, 0, count)
        with pytest.raises(ValueError, match="integer counts, got " + re.escape(repr(occ))):
            FockVector(amps={occ: 1.0})

    def test_numpy_integer_counts_accepted(self):
        occ = (np.int64(1), np.int8(0), np.uint16(2), 0)
        assert FockVector(amps={occ: 1.0}).amps == {(1, 0, 2, 0): 1.0}

    @pytest.mark.parametrize("count", [14, 10**4, 2**63], ids=repr)
    def test_count_above_cap_rejected(self, count):
        # C(10**4, k) leaves float range in _split_amplitudes, and 2**63 leaves int64
        occ = (count, 0, 0, 0)
        with pytest.raises(ValueError, match=re.escape(f"occupation {occ} has a count above the cap 13")):
            apply_loss_and_trace(FockVector(amps={occ: 1.0}), 0.5)

    def test_count_at_cap_accepted(self):
        state = FockVector(amps={(13, 0, 0, 13): 1.0})
        weights = sector_weights(apply_loss_and_trace(state, 0.5))
        assert math.fsum(weights.values()) == pytest.approx(1.0, abs=1e-12)
        assert dephasing_invariance_check(state, 0.5) == 0.0

    @pytest.mark.parametrize("amp", [
        float("nan"), float("inf"), -float("inf"), complex(float("nan"), 0.0), complex(0.0, float("inf")),
        complex(float("nan"), float("nan")), np.float64("nan"),
    ], ids=repr)
    def test_non_finite_amplitude_rejected(self, amp):
        with pytest.raises(ValueError, match=r"amplitude of \(1, 0, 0, 1\) must be finite"):
            FockVector(amps={(0, 0, 0, 0): 0.5, (1, 0, 0, 1): amp})

    @pytest.mark.parametrize("amp", ["1", b"1", None, True, np.True_, [0.5], 2**70], ids=repr)
    def test_non_numeric_amplitude_rejected(self, amp):
        with pytest.raises(ValueError, match=r"amplitude of \(1, 0, 0, 1\) must be a float, complex or int64 number, got "
                           + re.escape(repr(amp))):
            FockVector(amps={(0, 0, 0, 0): 0.5, (1, 0, 0, 1): amp})

    @pytest.mark.parametrize("amp", [1, np.int32(-1), np.float32(0.5), np.complex64(0.5j), np.float64(0.5)], ids=repr)
    def test_numeric_amplitude_accepted(self, amp):
        state = FockVector(amps={(0, 0, 0, 0): 0.5, (1, 0, 0, 1): amp})
        assert math.fsum(sector_weights(apply_loss_and_trace(state, 1.0)).values()) == pytest.approx(
            state.norm_squared(), rel=1e-6)
