"""End-to-end acceptance gate.

Each test exercises one shipped claim at its stated tolerance and runtime
budget and prints a single pass/fail line. The reference channel is a
0.2 dB/km fiber with 18 % detector efficiency, 1 dB receiver loss,
5e-5 dark-click probability per slot, and a 1 % baseline error fraction.
"""

import time
from importlib import resources

from qkdrates.channel import ChannelParams, arm_alpha
from qkdrates.cli import main, run_verify_suite
from qkdrates.protocols import (
    cutoff_distance,
    optimize_source_param,
    point_rate,
    point_stats,
    rate_bb84,
)
from qkdrates.ratecore import binary_entropy, tau
from qkdrates.security import multiphoton_ratio_bound
from qkdrates.sources import IdealEpr, IdealSingle, SwapChain

FIBER = ChannelParams(sigma=0.2, eta=0.18, receiver_loss_db=1.0, d=5e-05, mu=0.01)
SEARCH = (1.0, 400.0)


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}", flush=True)


def test_criterion_01_ideal_epr_cutoff_window():
    t0 = time.perf_counter()
    km = cutoff_distance("ekert", FIBER, SEARCH, src=IdealEpr())
    elapsed = time.perf_counter() - t0
    in_band = 155.0 <= km <= 180.0
    report(1, in_band and elapsed < 10.0, f"ideal-pair cutoff {km:.3f} km, target [155, 180], {elapsed:.2f} s")
    assert elapsed < 10.0
    assert in_band


def test_criterion_02_cutoff_ordering():
    t0 = time.perf_counter()
    poisson = cutoff_distance("bb84", FIBER, SEARCH, src=None)
    single = cutoff_distance("bb84", FIBER, SEARCH, src=IdealSingle())
    pdc = cutoff_distance("ekert", FIBER, SEARCH, src=None)
    epr = cutoff_distance("ekert", FIBER, SEARCH, src=IdealEpr())
    elapsed = time.perf_counter() - t0
    ordered = poisson < single < pdc <= epr
    report(
        2,
        ordered and elapsed < 60.0,
        f"cutoffs {poisson:.1f} < {single:.1f} < {pdc:.1f} <= {epr:.1f} km, {elapsed:.2f} s",
    )
    assert elapsed < 60.0
    assert ordered


def test_criterion_03_pump_optimum_interior():
    t0 = time.perf_counter()
    results = {km: optimize_source_param("ekert", FIBER, km) for km in (25.0, 50.0, 75.0, 100.0)}
    elapsed = time.perf_counter() - t0
    ok = all(not r.zero_rate and 0.0 < r.param < 1.0 and r.rate > 0.0 for r in results.values())
    chis = ", ".join(f"{km:g} km: {r.param:.4f}" for km, r in results.items())
    report(3, ok and elapsed < 30.0, f"optimal chi in (0, 1) at {chis}, {elapsed:.2f} s")
    assert elapsed < 30.0
    assert ok


def test_criterion_04_attack_family_maximum():
    t0 = time.perf_counter()
    rep = run_verify_suite("attack-bound")
    elapsed = time.perf_counter() - t0
    gap = rep["properties"][0]["max_deviation"]
    violation = rep["properties"][1]["max_deviation"]
    ok = gap <= 1e-06 and violation <= 1e-09
    report(
        4,
        ok and elapsed < 60.0,
        f"attack maximum gap {gap:.2e} (tol 1e-06), grid excess {violation:.2e} (tol 1e-09), {elapsed:.2f} s",
    )
    assert elapsed < 60.0
    assert gap <= 1e-06
    assert violation <= 1e-09


def test_criterion_05_pdc_closed_forms_vs_oracle():
    t0 = time.perf_counter()
    rep = run_verify_suite("pdc-oracle")
    elapsed = time.perf_counter() - t0
    dev = rep["properties"][0]["max_deviation"]
    residual = rep["properties"][1]["max_deviation"]
    ok = dev <= 1e-06 and residual <= 1e-10
    report(
        5,
        ok and elapsed < 300.0,
        f"worst coefficient gap {dev:.2e} (tol 1e-06), decomposition residual {residual:.2e} "
        f"(tol 1e-10) over 24 grid points at n_max=8, {elapsed:.2f} s",
    )
    assert elapsed < 300.0
    assert dev <= 1e-06
    assert residual <= 1e-10


def test_criterion_06_dephasing_invariance():
    t0 = time.perf_counter()
    rep = run_verify_suite("dephasing")
    elapsed = time.perf_counter() - t0
    dev = rep["properties"][0]["max_deviation"]
    ok = dev < 1e-12
    report(6, ok and elapsed < 60.0, f"detection statistics shift {dev:.2e} (tol 1e-12), {elapsed:.2f} s")
    assert elapsed < 60.0
    assert dev < 1e-12


def test_criterion_07_hash_entropy_bound_exhaustive():
    t0 = time.perf_counter()
    rep = run_verify_suite("privacy-amp")
    elapsed = time.perf_counter() - t0
    margin = rep["properties"][0]["min_margin"]
    ok = rep["pass"]
    report(
        7,
        ok and elapsed < 120.0,
        f"hash entropy bound holds for all n <= 6, r <= n; min margin {margin:.6f}, {elapsed:.2f} s",
    )
    assert elapsed < 120.0
    assert ok


def test_criterion_08_dual_fire_ratio_bound():
    t0 = time.perf_counter()
    worst = min(multiphoton_ratio_bound(i, j) for i in range(2, 11) for j in range(2, 11))
    anomaly = [multiphoton_ratio_bound(1, j) for j in range(1, 11)]
    elapsed = time.perf_counter() - t0
    ok = worst >= 1.0
    report(
        8,
        ok and elapsed < 1.0,
        f"min ratio {worst:g} for 2 <= i, j <= 10; single-photon column degenerates to "
        f"{anomaly} (reported, not asserted), {elapsed:.2f} s",
    )
    assert elapsed < 1.0
    assert ok


def test_criterion_09_trivial_limits():
    t0 = time.perf_counter()
    lossless = ChannelParams(sigma=0.2, eta=0.37)
    stats = point_stats("bb84", IdealSingle(), lossless, 42.0)
    expected = 0.5 * float(arm_alpha(lossless, 42.0))
    symmetry = max(
        abs(binary_entropy(j / 1000.0) - binary_entropy(1.0 - j / 1000.0)) for j in range(1, 1000)
    )
    elapsed = time.perf_counter() - t0
    ok = (
        tau(0.0) == 1.0
        and tau(0.5) == 0.0
        and rate_bb84(stats) == expected
        and symmetry <= 1e-12
    )
    report(
        9,
        ok and elapsed < 1.0,
        f"tau(0)=1 and tau(1/2)=0 exact, noiseless rate = alpha/2 exact, "
        f"entropy symmetry {symmetry:.2e} (tol 1e-12), {elapsed:.2f} s",
    )
    assert elapsed < 1.0
    assert tau(0.0) == 1.0
    assert tau(0.5) == 0.0
    assert rate_bb84(stats) == expected
    assert symmetry <= 1e-12


def test_criterion_10_sweep_determinism(tmp_path):
    config = str(resources.files("qkdrates") / "configs" / "fig3a_fiber.json")
    first = tmp_path / "run1.csv"
    second = tmp_path / "run2.csv"
    t0 = time.perf_counter()
    assert main(["sweep", "--config", config, "--out", str(first)]) == 0
    assert main(["sweep", "--config", config, "--out", str(second)]) == 0
    elapsed = time.perf_counter() - t0
    identical = first.read_bytes() == second.read_bytes()
    report(
        10,
        identical and elapsed < 30.0,
        f"two fiber-benchmark sweeps byte-identical ({first.stat().st_size} bytes), {elapsed:.2f} s",
    )
    assert elapsed < 30.0
    assert identical


def test_criterion_11_swap_chain_reach():
    t0 = time.perf_counter()
    chains = [IdealEpr()] + [SwapChain(n_swaps=n) for n in (1, 2, 3)]
    cutoffs = [cutoff_distance("ekert", FIBER, (1.0, 1000.0), src=src) for src in chains]
    rates = [point_rate("ekert", src, FIBER, 100.0).rate for src in chains]
    elapsed = time.perf_counter() - t0
    further = all(a < b for a, b in zip(cutoffs, cutoffs[1:]))
    slower = all(a > b for a, b in zip(rates, rates[1:])) and rates[-1] > 0.0
    report(
        11,
        further and slower and elapsed < 10.0,
        f"cutoffs {' < '.join(f'{km:.1f}' for km in cutoffs)} km and rates at 100 km "
        f"{' > '.join(f'{r:.1e}' for r in rates)} for 0..3 swaps, {elapsed:.2f} s",
    )
    assert elapsed < 10.0
    assert further
    assert slower
