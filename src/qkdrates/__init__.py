"""Provably secure key rates for entangled-photon and single-photon quantum
key distribution under individual attacks.

The package models realistic sources (attenuated laser pulses, parametric
down-conversion, chains of entanglement swaps), lossy channels with dark
counts, error-correction leakage, and privacy amplification, and ships
independent brute-force oracles for its own security bounds.
"""

from .channel import (
    ChannelParams,
    arm_alpha,
    arm_alpha_from_loss_db,
    dark_click_prob,
    db_to_transmission,
    fiber_transmission,
)
from .protocols import (
    OptimizeResult,
    RatePoint,
    SweepSpec,
    cutoff_distance,
    optimize_source_param,
    point_rate,
    point_stats,
    rate_bb84,
    rate_ekert,
    sweep,
)
from .ratecore import (
    binary_entropy,
    collision_bound,
    ec_efficiency,
    tau,
    tau_multiphoton,
)
from .security import (
    AttackParams,
    KeyBudget,
    SecurityParams,
    attack_collision,
    attack_epsilon,
    ec_leak_bits,
    eve_info_bound,
    final_key_length,
    markov_leak_probability,
    maximize_attack_collision,
    multiphoton_ratio_bound,
    pa_entropy_bound_check,
)
from .sources import (
    ClickStats,
    CoincidenceStats,
    IdealEpr,
    IdealSingle,
    Pdc,
    PdcCoefficients,
    Poisson,
    SwapChain,
    bb84_stats,
    ekert_ideal_stats,
    parse_source,
    pdc_coefficients,
    pdc_stats,
    source_to_dict,
    swap_stats_from_segment,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ChannelParams",
    "arm_alpha",
    "arm_alpha_from_loss_db",
    "dark_click_prob",
    "db_to_transmission",
    "fiber_transmission",
    "binary_entropy",
    "collision_bound",
    "ec_efficiency",
    "tau",
    "tau_multiphoton",
    "ClickStats",
    "CoincidenceStats",
    "IdealEpr",
    "IdealSingle",
    "Pdc",
    "PdcCoefficients",
    "Poisson",
    "SwapChain",
    "bb84_stats",
    "ekert_ideal_stats",
    "parse_source",
    "pdc_coefficients",
    "pdc_stats",
    "source_to_dict",
    "swap_stats_from_segment",
    "OptimizeResult",
    "RatePoint",
    "SweepSpec",
    "cutoff_distance",
    "optimize_source_param",
    "point_rate",
    "point_stats",
    "rate_bb84",
    "rate_ekert",
    "sweep",
    "AttackParams",
    "KeyBudget",
    "SecurityParams",
    "attack_collision",
    "attack_epsilon",
    "ec_leak_bits",
    "eve_info_bound",
    "final_key_length",
    "markov_leak_probability",
    "maximize_attack_collision",
    "multiphoton_ratio_bound",
    "pa_entropy_bound_check",
]
