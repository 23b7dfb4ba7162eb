"""Verification suites: brute-force oracles run against the closed forms
they certify.

Each suite returns a JSON-ready report whose ``properties`` each carry a
tolerance, the measured extreme and a ``pass`` flag decided from those two
alone: a ``max_deviation`` passes up to its tolerance, a minimum down to its
bound less its tolerance, so privacy-amp's ``min_margin`` must be >= 0
exactly. A pdc-oracle point that fails ``fockoracle.extract_pdc_coefficients``'
structure checks (``_PAIR_TOL`` 1e-12, ``_RESIDUAL_TOL`` 1e-10) is an
``error`` row, and fails the coefficient property. ``VERIFY_SUITES`` maps
suite names to the functions that build these reports; ``run_verify_suite``
runs one or all by name for the CLI, each report with its name as ``suite``.

The suites call the certified functions through their modules
(``ratecore.collision_bound``, ``verifiers._collision_bound_array``,
``sources.pdc_coefficients``, ``security.*``, ``fockoracle.*``) rather
than importing the names here. A caller that rebinds a module attribute,
such as a tracer that wraps it, then sees every call the suites make; a
name bound in this module would bypass the rebinding.

``fockoracle`` (``pdc-oracle``, ``dephasing``) and ``verifiers``
(``attack-bound``, ``privacy-amp``) load with the first suite that needs
them, so importing this module, and ``qkdrates.cli`` with it, loads
neither, nor numpy.
"""

from __future__ import annotations

import itertools
import math

from . import ratecore, security, sources

__all__ = ["VERIFY_SUITES", "run_verify_suite"]


def _property(name: str, tolerance: float, excess: float, **measured) -> dict:
    """One checked property of a suite report: its tolerance, the measured
    extreme under a named key, and ``pass``, which holds when the extreme
    lies at most the tolerance past the property's bound (its excess; a
    Python bool, which JSON takes where a numpy bool is rejected)."""
    return {"name": name, "tolerance": tolerance, **measured, "pass": bool(excess <= tolerance)}


def _within(name: str, tolerance: float, deviation: float, readable: bool = True) -> dict:
    """A max_deviation property; an oracle point that could not be read fails it."""
    return _property(name, tolerance, deviation if readable else math.inf, max_deviation=deviation)


def _suite_attack_bound() -> dict:
    from . import verifiers

    # maximize_attack_collision's search, run once for all 49 disturbances
    grid = [k / 100.0 for k in range(1, 50)]
    values = verifiers._maximize_collisions(grid)[0]
    worst_gap = 0.0
    for eps, value in zip(grid, values.tolist()):
        worst_gap = max(worst_gap, abs(value - ratecore.collision_bound(eps)))
    # every (ratio, phi1, phi2) point of a 50^3 grid, in blocks of whole norm
    # ratios of at most the search's _BLOCK_POINTS points: 3 of 50 x 50
    worst_violation = -math.inf
    cosines = [math.cos(math.pi * i / 49.0) for i in range(50)]
    ratios = [10.0 ** (-3.0 + 6.0 * i / 49.0) for i in range(50)]
    block = verifiers._BLOCK_POINTS // len(cosines) ** 2
    for lo in range(0, len(ratios), block):
        eps, collision = security.attack_family_grid(ratios[lo : lo + block], cosines)
        bound = verifiers._collision_bound_array(eps)
        worst_violation = max(worst_violation, float((collision - bound).max()))
    return {
        "properties": [
            _within("constrained maximum matches 1/2 + 2e - 2e^2", 1e-6, worst_gap),
            _within("no grid point exceeds the collision bound", 1e-9, max(worst_violation, 0.0)),
        ],
    }


def _suite_pdc_oracle() -> dict:
    from . import fockoracle

    worst_coeff = 0.0
    worst_residual = 0.0
    unreadable = False
    table = []
    chis = (0.05, 0.1, 0.2, 0.3)
    alphas = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    # the four states share one ket set, so one call expands it for all of them
    states = [fockoracle.build_pdc_state(chi, 8) for chi in chis]
    densities = fockoracle.sector_densities(states, alphas)
    for (chi, alpha), sectors in zip(itertools.product(chis, alphas), densities):
        formula = sources.pdc_coefficients(chi, alpha)
        closed = [formula.A, formula.B, formula.C, formula.D]
        worst_residual = max(worst_residual, fockoracle.pair_sector_residual(sectors))
        try:
            brute = fockoracle.extract_pdc_coefficients(sectors)
        except ValueError as err:
            # a failed structure check leaves no oracle coefficients to compare
            unreadable = True
            table.append({"chi": chi, "alpha": alpha, "closed_form": closed, "error": str(err)})
            continue
        oracle = [brute.A, brute.B, brute.C, brute.D]
        deviation = max(abs(x - y) for x, y in zip(closed, oracle))
        worst_coeff = max(worst_coeff, deviation)
        table.append({"chi": chi, "alpha": alpha, "closed_form": closed, "oracle": oracle,
                      "deviation": deviation})
    return {
        "properties": [
            _within("closed-form coefficients match brute force", 1e-6, worst_coeff, not unreadable),
            _within("(1,1) sector decomposes as A psi+ + D I/4", fockoracle._RESIDUAL_TOL, worst_residual),
        ],
        "grid": table,
    }


def _suite_dephasing() -> dict:
    from . import fockoracle

    half = 1.0 / math.sqrt(2.0)
    superposition = fockoracle.FockVector(amps={(0, 0, 0, 0): half, (1, 0, 0, 0): half})
    diagonal = fockoracle.FockVector(amps={(1, 0, 0, 1): 1.0})
    cases = [
        ("pdc chi=0.3 alpha=0.5", fockoracle.build_pdc_state(0.3, 4), 0.5),
        ("pdc chi=0.3 alpha=1.0", fockoracle.build_pdc_state(0.3, 4), 1.0),
        ("pdc chi=0.2 alpha=0.7", fockoracle.build_pdc_state(0.2, 3), 0.7),
        ("single-mode number superposition", superposition, 1.0),
        ("single-mode number superposition, lossy", superposition, 0.6),
        ("number-diagonal ket", diagonal, 0.8),
    ]
    worst = 0.0
    detail = []
    for name, state, alpha in cases:
        deviation = fockoracle.dephasing_invariance_check(state, alpha)
        worst = max(worst, deviation)
        detail.append({"state": name, "deviation": deviation})
    return {
        "properties": [
            _within("sector dephasing leaves detection statistics unchanged", 1e-12, worst)
        ],
        "states": detail,
    }


def _suite_privacy_amp() -> dict:
    min_margin = math.inf
    for n in range(1, 7):
        for pc in (0.5, 0.595, 0.75, 0.875, 1.0):
            for r in range(n + 1):
                lhs, rhs, _ = security.pa_entropy_bound_check(n, pc, r)
                min_margin = min(min_margin, lhs - rhs)
    return {
        "properties": [
            _property("H(K|G) >= r - 2^r pc^n / ln 2, exhaustive n <= 6", 0.0, -min_margin,
                      min_margin=min_margin)
        ],
    }


def _suite_multi_photon() -> dict:
    worst = math.inf
    for i in range(2, 11):
        for j in range(2, 11):
            worst = min(worst, security.multiphoton_ratio_bound(i, j))
    anomaly = [
        {"i": 1, "j": j, "value": security.multiphoton_ratio_bound(1, j)} for j in range(1, 11)
    ]
    return {
        "properties": [
            _property("dual-fire ratio bound >= 1 for i, j in 2..10", 0.0, 1.0 - worst,
                      min_value=worst)
        ],
        "single_photon_anomaly": {
            "note": "the bound degenerates to 0 whenever either side holds one photon;"
            " reported for information, not asserted",
            "values": anomaly,
        },
    }


VERIFY_SUITES = {
    "attack-bound": _suite_attack_bound,
    "pdc-oracle": _suite_pdc_oracle,
    "dephasing": _suite_dephasing,
    "privacy-amp": _suite_privacy_amp,
    "multi-photon": _suite_multi_photon,
}


def run_verify_suite(name: str) -> dict:
    """Run one named verification suite, or all of them; each report's
    ``suite`` is its VERIFY_SUITES name, and ``pass`` ANDs their properties'."""
    if name != "all" and name not in VERIFY_SUITES:
        raise sources.ConfigError(
            f"unknown suite {name!r}; expected one of {sorted(VERIFY_SUITES)} or 'all'"
        )
    reports = [{"suite": suite, **run()} for suite, run in VERIFY_SUITES.items() if name in ("all", suite)]
    holds = all(p["pass"] for report in reports for p in report["properties"])
    if name == "all":
        return {"suite": "all", "reports": reports, "pass": holds}
    return {**reports[0], "pass": holds}
