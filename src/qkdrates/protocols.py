"""Secure-rate assembly: per-protocol rate formulas, source-parameter
optimization, cutoff-distance search, and sweep curve generation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .channel import ChannelParams, receiver_arm_loss_db, span_loss_db
from .ratecore import (
    DEFAULT_EC_TABLE,
    EcBenchmarkTable,
    binary_entropy,
    ec_efficiency,
    tau,
    tau_multiphoton,
)
from .sources import (
    PROTOCOLS,
    ClickStats,
    CoincidenceStats,
    Pdc,
    Poisson,
    SourceSpec,
    SwapChain,
    bb84_stats,
    check_source,
    ekert_ideal_stats,
    pdc_stats,
    swap_stats_from_segment,
)

__all__ = [
    "PROTOCOLS",
    "SWEEP_MODES",
    "RatePoint",
    "SweepSpec",
    "OptimizeResult",
    "rate_bb84",
    "rate_ekert",
    "point_stats",
    "point_rate",
    "optimize_source_param",
    "cutoff_distance",
    "sweep",
]

SWEEP_MODES = ("distance", "total-loss")

NBAR_BOX = (1e-4, 2.0)
CHI_BOX = (1e-3, 1.5)

_COARSE_POINTS = 64
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REL_TOL = 1e-4


@dataclass(frozen=True)
class RatePoint:
    """One evaluated abscissa of a rate curve.

    Attributes:
        abscissa: Distance in km or total loss in dB, per the sweep mode.
        rate: Clamped secret bits per clock pulse, never negative.
        rate_raw: Unclamped formula value; negative once error correction
            costs more than the secure fraction yields.
        optimal_param: Optimizing nbar or chi when the source was optimized.
        stats: The underlying per-pulse statistics, if they were computable.
        note: Diagnostic tag for points that failed to evaluate.
    """

    abscissa: float
    rate: float
    rate_raw: float
    optimal_param: float | None = None
    stats: ClickStats | CoincidenceStats | None = None
    note: str = ""

    def __post_init__(self):
        if self.rate < 0.0:
            raise ValueError("clamped rate cannot be negative")


@dataclass(frozen=True)
class SweepSpec:
    """A rate curve request: protocol, channel, source, and abscissa grid.

    The source may be None, meaning the free parameter (Poisson nbar or
    PDC chi) is optimized independently at every grid point.
    """

    protocol: str
    params: ChannelParams
    source: SourceSpec | None
    start: float
    stop: float
    step: float
    mode: str = "distance"
    table: EcBenchmarkTable = field(default=DEFAULT_EC_TABLE)

    def __post_init__(self):
        check_source(self.protocol, self.source)
        if self.mode not in SWEEP_MODES:
            raise ValueError(f"unknown sweep mode {self.mode!r}; expected one of {SWEEP_MODES}")
        if not self.start < self.stop:
            raise ValueError("sweep start must be below stop")
        if self.step <= 0:
            raise ValueError("sweep step must be positive")

    def grid(self) -> list[float]:
        count = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return [self.start + i * self.step for i in range(count)]


class OptimizeResult(NamedTuple):
    """Outcome of a one-dimensional source-parameter search."""

    param: float
    rate: float
    zero_rate: bool = False


def rate_bb84(
    stats: ClickStats, table: EcBenchmarkTable = DEFAULT_EC_TABLE, clamp: bool = True
) -> float:
    """Secret bits per clock pulse for a one-way single-receiver protocol.

    R = (p_click / 2) * (beta * tau(e / beta) - f(e) * h(e)), where the
    beta factor discounts multi-photon pulses vulnerable to splitting.
    Returns 0 outright when beta <= 0 or e / beta >= 1/2 (the multi-photon
    fraction has consumed the secure margin); otherwise negative values are
    clamped to 0 unless clamp is false.
    """
    if stats.beta <= 0.0 or stats.e >= 0.5 * stats.beta:
        return 0.0
    secure = tau_multiphoton(stats.e, stats.beta)
    ec = ec_efficiency(stats.e, table) * binary_entropy(stats.e)
    raw = 0.5 * stats.p_click * (secure - ec)
    if clamp and raw < 0.0:
        return 0.0
    return raw


def rate_ekert(
    stats: CoincidenceStats, table: EcBenchmarkTable = DEFAULT_EC_TABLE, clamp: bool = True
) -> float:
    """Secret bits per clock pulse for a two-receiver coincidence protocol.

    R = (p_coin / 2) * (tau(e) - f(e) * h(e)). No beta factor appears:
    splitting a pair destroys the coincidence, so multi-photon emissions
    carry no analog of the splitting attack.
    """
    if stats.e >= 0.5:
        return 0.0
    raw = 0.5 * stats.p_coin * (tau(stats.e) - ec_efficiency(stats.e, table) * binary_entropy(stats.e))
    if clamp and raw < 0.0:
        return 0.0
    return raw


def point_stats(
    protocol: str, src: SourceSpec, p: ChannelParams, abscissa: float, mode: str = "distance"
) -> ClickStats | CoincidenceStats:
    """Per-pulse statistics for one protocol/source/channel combination.

    In distance mode the abscissa is the Alice-to-Bob separation in km, with
    two-arm sources placed midway. In total-loss mode it is the summed
    channel loss in dB. Either is split equally over the arms or segments.
    """
    check_source(protocol, src)
    if mode not in SWEEP_MODES:
        raise ValueError(f"unknown sweep mode {mode!r}; expected one of {SWEEP_MODES}")
    if abscissa < 0:
        raise ValueError("abscissa must be non-negative")
    if isinstance(src, SwapChain):
        segment_db = span_loss_db(p, abscissa, mode, src.segments)
        return swap_stats_from_segment(src, 10.0 ** (-segment_db / 10.0), p)
    arms = 1 if protocol == "bb84" else 2
    loss_db = span_loss_db(p, abscissa, mode, arms)
    alpha = p.eta * 10.0 ** (-receiver_arm_loss_db(p, arms) / 10.0) * 10.0 ** (-loss_db / 10.0)
    if protocol == "bb84":
        return bb84_stats(src, alpha, p)
    if isinstance(src, Pdc):
        return pdc_stats(src.chi, alpha, p)
    return ekert_ideal_stats(alpha, p)


def point_rate(
    protocol: str,
    src: SourceSpec | None,
    p: ChannelParams,
    abscissa: float,
    mode: str = "distance",
    table: EcBenchmarkTable = DEFAULT_EC_TABLE,
) -> RatePoint:
    """Evaluate one curve point for a fixed source, or with src None at the
    optimized free source, whose parameter it carries as optimal_param (the
    box midpoint where no parameter gives a positive rate)."""
    if src is None:
        opt = optimize_source_param(protocol, p, abscissa, mode, table)
        best = point_rate(protocol, _free_source(protocol, opt.param), p, abscissa, mode, table)
        return replace(best, optimal_param=opt.param)
    try:
        stats = point_stats(protocol, src, p, abscissa, mode)
    except ValueError as err:
        return RatePoint(abscissa=abscissa, rate=0.0, rate_raw=0.0, note=str(err))
    if protocol == "bb84":
        raw = rate_bb84(stats, table, clamp=False)
    else:
        raw = rate_ekert(stats, table, clamp=False)
    return RatePoint(abscissa=abscissa, rate=max(0.0, raw), rate_raw=raw, stats=stats)


def _free_source(protocol: str, param: float) -> SourceSpec:
    return Poisson(param) if protocol == "bb84" else Pdc(param)


def optimize_source_param(
    protocol: str,
    p: ChannelParams,
    abscissa: float,
    mode: str = "distance",
    table: EcBenchmarkTable = DEFAULT_EC_TABLE,
) -> OptimizeResult:
    """Maximize the clamped rate over the free source parameter.

    BB84 optimizes the Poisson mean photon number over [1e-4, 2]; the
    coincidence protocol optimizes the down-conversion pump parameter over
    [1e-3, 1.5]. A 64-point logarithmic grid brackets the maximum, then
    golden-section search refines it to a relative tolerance of 1e-4. If the
    rate vanishes over the whole box the result carries a zero_rate flag and
    the box midpoint.
    """
    lo, hi = NBAR_BOX if protocol == "bb84" else CHI_BOX

    def objective(param: float) -> float:
        return point_rate(protocol, _free_source(protocol, param), p, abscissa, mode, table).rate

    log_lo, log_hi = math.log(lo), math.log(hi)
    grid = [math.exp(log_lo + i * (log_hi - log_lo) / (_COARSE_POINTS - 1)) for i in range(_COARSE_POINTS)]
    values = [objective(g) for g in grid]
    best = max(range(_COARSE_POINTS), key=values.__getitem__)
    if values[best] == 0.0:
        return OptimizeResult(param=0.5 * (lo + hi), rate=0.0, zero_rate=True)
    a = math.log(grid[max(best - 1, 0)])
    b = math.log(grid[min(best + 1, _COARSE_POINTS - 1)])
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = objective(math.exp(x1)), objective(math.exp(x2))
    while b - a > _REL_TOL:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = objective(math.exp(x2))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = objective(math.exp(x1))
    param = math.exp(0.5 * (a + b))
    rate = objective(param)
    if rate < values[best]:
        param, rate = grid[best], values[best]
    return OptimizeResult(param=param, rate=rate)


def cutoff_distance(
    protocol: str,
    p: ChannelParams,
    search: tuple[float, float],
    src: SourceSpec | None = None,
    table: EcBenchmarkTable = DEFAULT_EC_TABLE,
    resolution: float = 0.5,
) -> float:
    """Largest distance with positive optimized rate, by bisection.

    Args:
        protocol: Protocol tag.
        p: Channel parameters.
        search: (low, high) bracket in km; the rate must be positive at low
            and zero at high.
        src: Fixed source, or None to optimize the free parameter per point.
        table: Error-correction benchmark table.
        resolution: Bracket width at which bisection stops, in km.

    Returns:
        The positive-rate end of the final bracket.
    """
    def rate_at(km: float) -> float:
        if src is None:
            # The optimizer's own rate, 0 on zero_rate; point_rate(None)
            # would re-evaluate the box midpoint instead.
            return optimize_source_param(protocol, p, km, "distance", table).rate
        return point_rate(protocol, src, p, km, "distance", table).rate

    lo, hi = search
    if not 0 <= lo < hi:
        raise ValueError("search bracket must satisfy 0 <= low < high")
    if rate_at(lo) <= 0.0:
        raise ValueError(f"rate is zero at the lower search edge {lo} km; no cutoff to bracket")
    if rate_at(hi) > 0.0:
        raise ValueError(f"rate is still positive at the upper search edge {hi} km; widen the bracket")
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if rate_at(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def sweep(spec: SweepSpec) -> list[RatePoint]:
    """Evaluate a full rate curve, one RatePoint per grid abscissa.

    Points are independent; un-evaluable points (degenerate statistics)
    become zero-rate points carrying a diagnostic note rather than aborting
    the sweep.
    """
    return [
        point_rate(spec.protocol, spec.source, spec.params, x, spec.mode, spec.table)
        for x in spec.grid()
    ]
