"""Rate evaluation over the closed forms of sources and ratecore: point
rates, source-parameter optimization, cutoff-distance search and sweep
curves.

The array passes (a sweep, an optimized cutoff) are in grid, which loads
numpy and is loaded by their first call: a scalar point_rate,
optimize_source_param or fixed-source cutoff_distance runs on math alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Any, NamedTuple

from .channel import (
    ChannelParams,
    _is_real,
    db_to_transmission,
    receiver_arm_loss_db,
    span_loss_db,
)
from .ratecore import (
    _key_rate,
    tau,  # unused here; bench/tests checks that tracing wraps this binding
)
from .sources import (
    PROTOCOLS,
    ClickStats,
    CoincidenceStats,
    IdealEpr,
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
    "MAX_SWEEP_ROWS",
    "RatePoint",
    "SweepSpec",
    "SweepColumns",
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

# Bound on the rows of one sweep curve, so that a grid cannot allocate without
# limit; the largest grid of any shipped config or benchmark workload has 300.
MAX_SWEEP_ROWS = 100_000

NBAR_BOX = (1e-4, 2.0)
CHI_BOX = (1e-3, 1.5)

_COARSE_POINTS = 64
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REL_TOL = 1e-4
_CUTOFF_RESOLUTION_KM = 0.5
# Bisection steps that an optimized cutoff probes in one kernel call. A call
# costs about 80 us plus 5-10 us per row, so deeper rounds pay for midpoints
# the path skips and shallower ones pay for more calls: per cutoff, depths 3
# to 5 measured within 15 % of each other and 6 about 50 % slower. Depth 4
# takes a 1-1000 km bracket in 3 calls.
_CUTOFF_DEPTH = 4


def _check_request(protocol: str, src: SourceSpec | None, mode: str, *abscissas) -> None:
    """The one rule for a rate request: a ValueError names an unknown protocol
    or a source it cannot use (check_source), a mode outside SWEEP_MODES, or
    an abscissa that is not a real number, non-negative and finite."""
    check_source(protocol, src)
    if mode not in SWEEP_MODES:
        raise ValueError(f"unknown sweep mode {mode!r}; expected one of {SWEEP_MODES}")
    for x in abscissas:
        # an exact float, the rate path's case, pays only the type test
        if type(x) is not float and not _is_real(x):
            raise ValueError(f"abscissa must be a real number, got {x!r}")
        if not 0.0 <= x < math.inf:
            rule = "finite" if x == math.inf else "non-negative"
            raise ValueError(f"abscissa must be {rule}, got {x}")


@dataclass(frozen=True)
class RatePoint:
    """One evaluated abscissa of a rate curve.

    Attributes:
        abscissa: Distance in km or total loss in dB, per the sweep mode.
        rate_raw: Unclamped formula value; negative once error correction
            costs more than the secure fraction yields.
        optimal_param: Optimizing nbar or chi when the source was optimized.
        stats: The underlying per-pulse statistics, if they were computable.
        note: Diagnostic tag for points that failed to evaluate.
    """

    abscissa: float
    rate_raw: float
    optimal_param: float | None = None
    stats: ClickStats | CoincidenceStats | None = None
    note: str = ""

    @property
    def rate(self) -> float:
        """Clamped secret bits per clock pulse, never negative."""
        return max(0.0, self.rate_raw)


@dataclass(frozen=True)
class SweepSpec:
    """A rate curve request: protocol, channel, source, and abscissa grid.

    A None source has its free parameter (Poisson nbar or PDC chi)
    optimized at every grid point. Past _check_request (the step too), the
    grid needs start < stop, step > 0 and at most MAX_SWEEP_ROWS rows.
    """

    protocol: str
    params: ChannelParams
    source: SourceSpec | None
    start: float
    stop: float
    step: float
    mode: str = "distance"

    def __post_init__(self):
        _check_request(self.protocol, self.source, self.mode, self.start, self.stop, self.step)
        if not self.start < self.stop:
            raise ValueError("sweep start must be below stop")
        if self.step <= 0:
            raise ValueError("sweep step must be positive")
        if not (self.stop - self.start) / self.step + 1e-9 < MAX_SWEEP_ROWS:
            raise ValueError(f"sweep grid exceeds {MAX_SWEEP_ROWS} rows")

    def grid(self) -> list[float]:
        count = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return [self.start + i * self.step for i in range(count)]


class OptimizeResult(NamedTuple):
    """Outcome of a one-dimensional source-parameter search."""

    param: float
    rate: float

    @property
    def zero_rate(self) -> bool:
        """Whether no source parameter in the box gave a positive rate."""
        return self.rate == 0.0


def rate_bb84(stats: ClickStats, clamp: bool = True) -> float:
    """Secret bits per clock pulse for a one-way single-receiver protocol.

    R = (p_click / 2) * (beta * tau(e / beta) - f(e) * h(e)), where the
    beta factor discounts multi-photon pulses vulnerable to splitting.
    Returns 0 outright when beta <= 0 or e / beta >= 1/2 (the multi-photon
    fraction has consumed the secure margin); otherwise negative values are
    clamped to 0 unless clamp is false.
    """
    return _key_rate(stats.p_click, stats.e, stats.beta, clamp)


def rate_ekert(stats: CoincidenceStats, clamp: bool = True) -> float:
    """Secret bits per clock pulse for a two-receiver coincidence protocol.

    R = (p_coin / 2) * (tau(e) - f(e) * h(e)), the one-way formula at
    beta = 1. No beta factor appears: splitting a pair destroys the
    coincidence, so multi-photon emissions carry no analog of the splitting
    attack.
    """
    return _key_rate(stats.p_coin, stats.e, 1.0, clamp)


def point_stats(
    protocol: str, src: SourceSpec, p: ChannelParams, abscissa: float, mode: str = "distance"
) -> ClickStats | CoincidenceStats:
    """Per-pulse statistics for one protocol/source/channel combination.

    In distance mode the abscissa is the Alice-to-Bob separation in km, with
    two-arm sources placed midway. In total-loss mode it is the summed
    channel loss in dB. Either is split equally over the arms or segments.
    _check_request checks the request, the statistics function the
    transmission; a free source (None) has none and raises ValueError.
    """
    _check_request(protocol, src, mode, abscissa)
    t = _transmissions(protocol, src, p, abscissa, mode)
    if isinstance(src, SwapChain):
        return swap_stats_from_segment(src, t, p)
    if protocol == "bb84":
        return bb84_stats(src, t, p)
    if isinstance(src, Pdc):
        return pdc_stats(src.chi, t, p)
    if isinstance(src, IdealEpr):
        return ekert_ideal_stats(t, p)
    raise ValueError(f"ekert statistics need an ideal-epr, pdc or swap source, got {src!r}")


def point_rate(
    protocol: str,
    src: SourceSpec | None,
    p: ChannelParams,
    abscissa: float,
    mode: str = "distance",
) -> RatePoint:
    """Evaluate one curve point for a fixed source, or with src None at the
    free source of optimize_source_param's parameter, which it carries as
    optimal_param (the box midpoint where no parameter gives a positive
    rate). It never raises: a malformed request (no optimal_param) or
    failed or overflowing statistics give a zero-rate point noting why."""
    param = None
    try:
        if src is None:
            param = optimize_source_param(protocol, p, abscissa, mode).param
            src = _free_source(protocol, param)
        stats = point_stats(protocol, src, p, abscissa, mode)
    except (ValueError, OverflowError) as err:
        return RatePoint(abscissa, 0.0, param, note=str(err))
    raw = (rate_bb84 if protocol == "bb84" else rate_ekert)(stats, clamp=False)
    return RatePoint(abscissa, raw, param, stats)


def _free_source(protocol: str, param: float) -> SourceSpec:
    return Poisson(param) if protocol == "bb84" else Pdc(param)


def _free_source_box(protocol: str) -> tuple[float, float]:
    return NBAR_BOX if protocol == "bb84" else CHI_BOX


@lru_cache(maxsize=None)
def _coarse_params(lo: float, hi: float) -> tuple:
    """The optimizer's _COARSE_POINTS log-spaced parameters over [lo, hi],
    as floats, computed once per box."""
    log_lo, log_hi = math.log(lo), math.log(hi)
    return tuple(
        math.exp(log_lo + i * (log_hi - log_lo) / (_COARSE_POINTS - 1)) for i in range(_COARSE_POINTS)
    )


def _transmissions(protocol: str, src: SourceSpec | None, p: ChannelParams, x, mode: str, power=pow):
    """The unchecked transmission at an abscissa x, a float or an array: a
    swap chain's per segment, 10^(-loss/10), or else per arm of a bb84 link
    or a midway two-arm one, eta 10^(-receiver dB/10) 10^(-loss/10), with
    the abscissa's loss split equally. An array's loss splits with + - * /
    as on floats, and its caller hands in libm's pow for each element
    (grid._ROW_MATHS.power), so every element has a float's bits.
    """
    if isinstance(src, SwapChain):
        return power(10.0, -span_loss_db(p, x, mode, src.segments) / 10.0)
    arms = 1 if protocol == "bb84" else 2
    loss = power(10.0, -span_loss_db(p, x, mode, arms) / 10.0)
    return p.eta * db_to_transmission(receiver_arm_loss_db(p, arms)) * loss


def optimize_source_param(
    protocol: str,
    p: ChannelParams,
    abscissa: float,
    mode: str = "distance",
) -> OptimizeResult:
    """Maximize the clamped rate over the free source parameter.

    BB84 optimizes the Poisson mean photon number over [1e-4, 2]; the
    coincidence protocol optimizes the down-conversion pump parameter over
    [1e-3, 1.5]. A 64-point logarithmic grid brackets the maximum, then
    golden-section search refines it to a relative tolerance of 1e-4. If the
    rate vanishes over the whole grid the result is rate 0 at the box
    midpoint; otherwise its rate is at least the grid maximum, so zero_rate
    tells the two cases apart. _check_request rejects a malformed request.
    """
    _check_request(protocol, None, mode, abscissa)
    lo, hi = _free_source_box(protocol)

    def objective(param: float) -> float:
        return point_rate(protocol, _free_source(protocol, param), p, abscissa, mode).rate

    grid = _coarse_params(lo, hi)
    values = [objective(g) for g in grid]
    best = max(range(_COARSE_POINTS), key=values.__getitem__)
    if values[best] == 0.0:
        return OptimizeResult(param=0.5 * (lo + hi), rate=0.0)
    a = math.log(grid[max(best - 1, 0)])
    b = math.log(grid[min(best + 1, _COARSE_POINTS - 1)])
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = objective(math.exp(x1)), objective(math.exp(x2))
    while b - a > _REL_TOL:
        # a step that closes the bracket leaves its probe unrated: no step reads it
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            if b - a > _REL_TOL:
                f2 = objective(math.exp(x2))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            if b - a > _REL_TOL:
                f1 = objective(math.exp(x1))
    param = math.exp(0.5 * (a + b))
    rate = objective(param)
    if rate < values[best]:
        param, rate = grid[best], values[best]
    return OptimizeResult(param=param, rate=rate)


def _bisection_midpoints(lo: float, hi: float, depth: int) -> list[float]:
    """Every midpoint that the next depth steps of cutoff_distance's
    bisection from (lo, hi) could probe, computed as the bisection does."""
    mid = 0.5 * (lo + hi)
    if depth == 0 or hi - lo <= _CUTOFF_RESOLUTION_KM or mid in (lo, hi):
        return []
    return [mid] + _bisection_midpoints(lo, mid, depth - 1) + _bisection_midpoints(mid, hi, depth - 1)


def cutoff_distance(
    protocol: str,
    p: ChannelParams,
    search: tuple[float, float],
    src: SourceSpec | None = None,
) -> float:
    """Largest distance with positive optimized rate, by bisection down to a
    bracket of 0.5 km, or until the midpoint rounds to an end (past 2^52 km).

    A probe needs only the sign of the rate. With src None that is the sign
    of the maximum of optimize_source_param's coarse grid: the optimizer
    returns zero_rate when that maximum is 0, and otherwise a rate at or
    above it. So one grid._coarse_positive call rates the coarse grids at the
    arm transmissions of every midpoint that the next _CUTOFF_DEPTH
    bisection steps could visit (the first call: both edges and the next
    _CUTOFF_DEPTH - 1 steps), and the bisection replays its path from their
    signs, calling again when it leaves them. It probes the same distances,
    and returns the same bound, as one optimize_source_param per step; the
    kernel rates a grid point as point_rate does to rounding, so only a grid
    maximum that is 0 to rounding could take the other sign. A fixed source
    probes one point_rate per step.

    Args:
        protocol: Protocol tag.
        p: Channel parameters.
        search: (low, high) bracket in km, ends that pass _check_request,
            low below high; the rate must be positive at low, zero at high.
        src: Fixed source, or None to optimize the free parameter per point.

    Returns:
        The positive-rate end of the final bracket.
    """
    def probe(kms: list[float]) -> dict[float, bool]:
        if src is None:
            from .grid import _coarse_positive

            positive = _coarse_positive(protocol, p, kms)
        else:
            positive = [point_rate(protocol, src, p, km, "distance").rate > 0.0 for km in kms]
        return dict(zip(kms, positive))

    lo, hi = search
    _check_request(protocol, src, "distance", lo, hi)
    if not lo < hi:
        raise ValueError("search bracket must satisfy low < high")
    depth = _CUTOFF_DEPTH if src is None else 1
    positive = probe([lo, hi] + _bisection_midpoints(lo, hi, depth - 1))
    if not positive[lo]:
        raise ValueError(f"rate is zero at the lower search edge {lo} km; no cutoff to bracket")
    if positive[hi]:
        raise ValueError(f"rate is still positive at the upper search edge {hi} km; widen the bracket")
    while hi - lo > _CUTOFF_RESOLUTION_KM:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mid not in positive:
            positive.update(probe(_bisection_midpoints(lo, hi, depth)))
        if positive[mid]:
            lo = mid
        else:
            hi = mid
    return lo


# a numpy array, named without importing numpy, which loads with grid
_Array = Any


class SweepColumns(NamedTuple):
    """A sweep curve as columns, one entry per grid abscissa: what sweep
    returns, and what the CLI writes as CSV; points() gives its RatePoints.

    Attributes:
        protocol: The curve's protocol, which fixes its statistics class:
            ClickStats for bb84, CoincidenceStats for ekert.
        abscissa: The grid.
        rate_raw: The unclamped rates.
        optimal_param: The optimized nbar or chi, or None for a fixed source.
        stats: One column per field of the statistics class, in field order.
            A row without statistics holds 0.0 in each.
        notes: The rows whose statistics could not be computed, by index,
            with the note that says why.
    """

    protocol: str
    abscissa: _Array
    rate_raw: _Array
    optimal_param: _Array | None
    stats: tuple
    notes: dict

    def points(self) -> list[RatePoint]:
        """The rows as RatePoints, their statistics built (and checked) by
        the statistics class."""
        cls = ClickStats if self.protocol == "bb84" else CoincidenceStats
        params = repeat(None) if self.optimal_param is None else self.optimal_param.tolist()
        stats = zip(*(column.tolist() for column in self.stats))
        rows = enumerate(zip(self.abscissa.tolist(), self.rate_raw.tolist(), params, stats))
        return [
            RatePoint(x, raw, param, note=self.notes[i]) if i in self.notes
            else RatePoint(x, raw, param, cls(*fields))
            for i, (x, raw, param, fields) in rows
        ]


def sweep(spec: SweepSpec) -> SweepColumns:
    """Evaluate a full rate curve as columns, one row per grid abscissa;
    sweep(spec).points() gives the rows as RatePoints.

    Points are independent; un-evaluable points (degenerate statistics)
    become zero-rate points carrying a diagnostic note rather than aborting
    the sweep. The rows' transmissions are computed once: a free source is
    optimized on them for all rows at once (see grid._optimal_params), each
    row carrying its optimal parameter, and then all rows are rated on them
    in one array pass, grid._rate_columns with libm's functions, which gives
    each row the bits of point_rate at its source. A row whose statistics
    the pass rejects is evaluated by point_rate itself, so its note and zero
    rate are the scalar's; where a libm function raises (a pump parameter
    whose cosh overflows), every row is.
    """
    from .grid import _sweep_columns

    return _sweep_columns(spec)
