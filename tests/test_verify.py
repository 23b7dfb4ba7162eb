"""Resource guard and mutation table for the verification suites."""

import contextlib
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from qkdrates import cli, fockoracle, ratecore, security, sources, verifiers, verify

# The largest suite, dephasing, peaks near 1.9 MiB, and near 2.1 MiB on its
# first run in a process, which also loads fockoracle; pdc-oracle, which
# builds only the four sectors it reads, peaks near 1.2 MiB.
# Evaluating a whole grid at once (a 50^3 attack meshgrid, every hash seed in
# one histogram) would pass 5 MiB.
PEAK_LIMIT = 5 * 2**20


@pytest.mark.parametrize("name", list(verify.VERIFY_SUITES))
def test_suite_memory_peak(name):
    # measure the cold path: privacy-amp hashes its keys into bin histograms
    # only when the cache is empty, and an earlier test may have filled it
    verifiers._bin_histograms.cache_clear()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = verify.VERIFY_SUITES[name]()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert all(p["pass"] for p in report["properties"])
    assert peak <= PEAK_LIMIT, f"{name} peaked at {peak / 2**20:.2f} MiB"


def _scaled_weight(index, factor):
    """Mutate _pdc_weights: scale its weight A, B, C or D (index 0-3)."""
    def mutate(weights):
        def mutant(*args):
            out = list(weights(*args))
            out[index] = out[index] * factor
            return tuple(out)
        return mutant
    return mutate


def _swapped_ports(split):
    """Mutate the beamsplitter: index its amplitudes by the reflected count."""
    return lambda n, alpha: split(n, 1.0 - alpha)


def _squared(factors):
    """Mutate the loss factors: square each entry's beamsplitter factor."""
    return lambda expansion, alpha: factors(expansion, alpha) ** 2


def _lowered(delta):
    """Mutate a collision bound, scalar or array: lower it by delta."""
    return lambda bound: lambda eps: bound(eps) - delta


def _scaled_kernel(factor):
    """Mutate the attack family's collision kernel: scale its collision
    probabilities by factor."""
    return lambda kernel: lambda *args: kernel(*args) * factor


def _halved_ratio_bound(bound):
    # 2^(i-2) in place of 2^(i-1)
    return lambda i, j: 0.0 if i == 1 or j == 1 else float((2 ** (i - 2) - 1) * (2 ** (j - 1) - 1))


def _one_zero_seed(seeds):
    return lambda n, r: np.zeros((1, n + r - 1), dtype=np.uint8)


def _shaved_margin(entropy):
    """Mutate the hashed-key entropy: the bound itself, less 5e-13."""
    return lambda n, pc, r: r - math.ldexp(pc**n, r) / math.log(2.0) - 5e-13


COEFFICIENTS = "closed-form coefficients match brute force"
PAIR_SECTOR = "(1,1) sector decomposes as A psi+ + D I/4"
MAXIMUM = "constrained maximum matches 1/2 + 2e - 2e^2"
GRID = "no grid point exceeds the collision bound"
PA_BOUND = "H(K|G) >= r - 2^r pc^n / ln 2, exhaustive n <= 6"
BOUNDS = ((ratecore, "collision_bound"), (verifiers, "_collision_bound_array"))

# (suite, {module attribute the suite calls through: mutation, which maps
# the attribute to its stand-in}, the properties that must turn false).
# pdc-oracle's resolution, with its 1e-6 tolerance against a 3.1e-10
# truncation deviation: C scaled by 1 - 1e-5 and D by 1 - 1e-4 still pass,
# so those rows use 1e-4 and 1e-3. The two fockoracle rows break the brute
# force instead; every density it builds is still a Gram matrix. The last
# row leaves every margin 5e-13 short of the bound, so it fails only on a
# verdict that applies no slack below the reported tolerance of 0. The bound
# rows lower the bound. The kernel rows scale the one collision kernel that
# the search and the family grid share: shrunk, the grid stays below the
# bound and only the maximum fails; raised, the points nearest the bound
# (3.6e-10 below it) pass it, and both fail.
MUTATIONS = [
    ("pdc-oracle", {(sources, "_pdc_weights"): _scaled_weight(0, 1 - 1e-5)}, {COEFFICIENTS}),
    ("pdc-oracle", {(sources, "_pdc_weights"): _scaled_weight(1, 1 - 1e-5)}, {COEFFICIENTS}),
    ("pdc-oracle", {(sources, "_pdc_weights"): _scaled_weight(2, 1 - 1e-4)}, {COEFFICIENTS}),
    ("pdc-oracle", {(sources, "_pdc_weights"): _scaled_weight(3, 1 - 1e-3)}, {COEFFICIENTS}),
    ("pdc-oracle", {(fockoracle, "_split_amplitudes"): _swapped_ports}, {COEFFICIENTS}),
    ("pdc-oracle", {(fockoracle, "_loss_factors"): _squared}, {COEFFICIENTS, PAIR_SECTOR}),
    ("attack-bound", {bound: _lowered(1e-7) for bound in BOUNDS}, {GRID}),
    ("attack-bound", {bound: _lowered(1e-5) for bound in BOUNDS}, {MAXIMUM, GRID}),
    ("attack-bound", {(verifiers, "_unit_norm_collision"): _scaled_kernel(1.0 - 1e-5)}, {MAXIMUM}),
    ("attack-bound", {(verifiers, "_unit_norm_collision"): _scaled_kernel(1.0 + 1e-5)}, {MAXIMUM, GRID}),
    ("multi-photon", {(security, "multiphoton_ratio_bound"): _halved_ratio_bound},
     {"dual-fire ratio bound >= 1 for i, j in 2..10"}),
    ("privacy-amp", {(verifiers, "_family_seeds"): _one_zero_seed}, {PA_BOUND}),
    ("privacy-amp", {(verifiers, "_hashed_entropy"): _shaved_margin}, {PA_BOUND}),
]
MUTATION_IDS = [
    "pdc-A", "pdc-B", "pdc-C", "pdc-D", "pdc-swapped-ports", "pdc-squared-loss",
    "bound-1e-7", "bound-1e-5", "search-shrunk-1e-5", "kernel-raised-1e-5", "ratio-2^(i-2)", "zero-seed", "pa-shaved-margin",
]

# dephasing groups the same amplitudes twice, by tags that the detector
# occupations already fix, so no mutation of a closed form reaches it: it
# passes under any receiver model until a failable partner suite exists.
MUTATION_EXEMPT = {"dephasing"}


def test_mutation_table_covers_every_suite():
    assert {suite for suite, _, _ in MUTATIONS} | MUTATION_EXEMPT == set(verify.VERIFY_SUITES)


@pytest.mark.parametrize("suite, mutations, failing", MUTATIONS, ids=MUTATION_IDS)
def test_mutated_suite_fails_through_the_cli(suite, mutations, failing, tmp_path):
    out = tmp_path / "report.json"
    with contextlib.ExitStack() as stack:
        for (module, name), mutate in mutations.items():
            stack.enter_context(mock.patch.object(module, name, mutate(getattr(module, name))))
        # privacy-amp's bin histograms are cached per (n, r): a run on cached
        # histograms would not see a mutated seed family, and histograms
        # built from it must not outlive the mutation
        verifiers._bin_histograms.cache_clear()
        stack.callback(verifiers._bin_histograms.cache_clear)
        status = cli.main(["verify", "--suite", suite, "--out", str(out)])
    report = json.loads(out.read_text())
    assert status == 1 and report["pass"] is False
    assert {p["name"] for p in report["properties"] if p["pass"] is not True} == failing
    assert all(type(p["pass"]) is bool for p in report["properties"])
