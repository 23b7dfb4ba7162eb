"""Verification suites: brute-force oracles run against the closed forms
they certify.

Each suite returns a JSON-ready report whose ``properties`` each carry a
tolerance, the measured extreme and a ``pass`` flag. ``VERIFY_SUITES`` maps
suite names to the functions that build these reports;
``cli.run_verify_suite`` adds the name to a report as its ``suite``.

The suites call the certified functions through their modules
(``ratecore.collision_bound``, ``sources.pdc_coefficients``,
``security.*``, ``fockoracle.*``) rather than importing the names here. A
caller that rebinds a module attribute, such as a tracer that wraps it,
then sees every call the suites make; a name bound in this module would
bypass the rebinding.
"""

from __future__ import annotations

import math

from . import fockoracle, ratecore, security, sources

__all__ = ["VERIFY_SUITES"]


def _property(name: str, tolerance: float, holds: bool, **measured) -> dict:
    """One checked property of a suite report: its tolerance, the measured
    extreme under a named key, and whether the property holds."""
    return {"name": name, "tolerance": tolerance, **measured, "pass": holds}


def _suite_attack_bound() -> dict:
    worst_gap = 0.0
    for k in range(1, 50):
        eps = k / 100.0
        _, value = security.maximize_attack_collision(eps)
        worst_gap = max(worst_gap, abs(value - ratecore.collision_bound(eps)))
    worst_violation = -math.inf
    ratios = [10.0 ** (-3.0 + 6.0 * i / 49.0) for i in range(50)]
    angles = [math.pi * i / 49.0 for i in range(50)]
    for ratio in ratios:
        for phi1 in angles:
            for phi2 in angles:
                a = security.AttackParams(
                    n_xx=ratio / (1.0 + ratio),
                    n_xy=1.0 / (1.0 + ratio),
                    phi_xx_yy=phi1,
                    phi_xy_yx=phi2,
                )
                excess = security.attack_collision(a) - ratecore.collision_bound(
                    security.attack_epsilon(a)
                )
                worst_violation = max(worst_violation, excess)
    return {
        "properties": [
            _property("constrained maximum matches 1/2 + 2e - 2e^2", 1e-6, worst_gap <= 1e-6,
                      max_deviation=worst_gap),
            _property("no grid point exceeds the collision bound", 1e-9, worst_violation <= 1e-9,
                      max_deviation=max(worst_violation, 0.0)),
        ],
    }


def _suite_pdc_oracle() -> dict:
    worst_coeff = 0.0
    worst_residual = 0.0
    table = []
    for chi in (0.05, 0.1, 0.2, 0.3):
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            formula = sources.pdc_coefficients(chi, alpha)
            sectors = fockoracle.apply_loss_and_trace(
                fockoracle.build_pdc_state(chi, 8), alpha
            )
            brute = fockoracle.extract_pdc_coefficients(sectors)
            closed = [formula.A, formula.B, formula.C, formula.D]
            oracle = [brute.A, brute.B, brute.C, brute.D]
            deviation = max(abs(x - y) for x, y in zip(closed, oracle))
            worst_coeff = max(worst_coeff, deviation)
            worst_residual = max(worst_residual, fockoracle.pair_sector_residual(sectors))
            table.append(
                {
                    "chi": chi,
                    "alpha": alpha,
                    "closed_form": closed,
                    "oracle": oracle,
                    "deviation": deviation,
                }
            )
    return {
        "properties": [
            _property("closed-form coefficients match brute force", 1e-6, worst_coeff <= 1e-6,
                      max_deviation=worst_coeff),
            _property("(1,1) sector decomposes as A psi+ + D I/4", 1e-10, worst_residual <= 1e-10,
                      max_deviation=worst_residual),
        ],
        "grid": table,
    }


def _suite_dephasing() -> dict:
    half = 1.0 / math.sqrt(2.0)
    superposition = fockoracle.FockVector(amps={(0,) * 8: half, (1, 0, 0, 0, 0, 0, 0, 0): half})
    diagonal = fockoracle.FockVector(amps={(1, 0, 0, 1, 0, 0, 0, 0): 1.0})
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
            _property("sector dephasing leaves detection statistics unchanged", 1e-12, worst <= 1e-12,
                      max_deviation=worst)
        ],
        "states": detail,
    }


def _suite_privacy_amp() -> dict:
    min_margin = math.inf
    all_hold = True
    for n in range(1, 7):
        for pc in (0.5, 0.595, 0.75, 0.875, 1.0):
            for r in range(n + 1):
                lhs, rhs, holds = security.pa_entropy_bound_check(n, pc, r)
                all_hold = all_hold and holds
                min_margin = min(min_margin, lhs - rhs)
    return {
        "properties": [
            _property("H(K|G) >= r - 2^r pc^n / ln 2, exhaustive n <= 6", 0.0, all_hold,
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
            _property("dual-fire ratio bound >= 1 for i, j in 2..10", 0.0, worst >= 1.0,
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
