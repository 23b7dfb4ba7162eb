"""The array passes of protocols, on numpy: the free-source rate kernel and
its lockstep optimizer, an optimized cutoff's probes and the sweep row pass,
with the maths (libm's or numpy's) that each pass takes. protocols loads it
with the first sweep or optimized cutoff_distance."""

from __future__ import annotations

import math
import operator
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import protocols
from .channel import ChannelParams
from .protocols import _COARSE_POINTS, _GOLDEN, _REL_TOL, SweepColumns, SweepSpec
from .protocols import _coarse_params, _free_source, _free_source_box, _transmissions
from .ratecore import _EC_KNOTS, _EC_SEGMENTS, _ec_line, _entropy, _live, _quadratic_bound
from .sources import PROTOCOLS, SourceSpec, _stats_columns

# Sweep rows whose coarse grids are evaluated together: a block's temporaries
# stay near 16 KiB each, where a whole 300-row grid would add megabytes.
_ROW_BLOCK = 32
# optimize_source_param's coarse grid over each protocol's free-source box
# (protocols._coarse_params), and its math.log, as arrays built once
_COARSE_GRID = {protocol: np.array(_coarse_params(*_free_source_box(protocol))) for protocol in PROTOCOLS}
_COARSE_LOGS = {protocol: np.array([math.log(g) for g in grid]) for protocol, grid in _COARSE_GRID.items()}


class _Maths(NamedTuple):
    """The transcendental functions that _rate_columns hands to the
    closed-form bodies: each takes floats or arrays, power as (base,
    exponent)."""

    exp: object
    tanh: object
    cosh: object
    log2: object
    power: object


def _libm(f):
    """The element map of a math function f over one numpy array, any other
    argument taken as a scalar (two arrays fail to unpack); on scalars alone
    it is f. It has the scalar path's bits, libm's, where numpy's ufuncs
    can differ in the last place: 1 - exp(-alpha nbar) keeps only the
    absolute rounding of the exponential, so at small alpha nbar one ulp of
    numpy's exp moves bb84_stats' signal far more than its relative
    rounding. Like f, the map raises where f raises."""
    def apply(*args):
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        if not arrays:
            return f(*args)
        (array,) = arrays
        columns = [a.ravel().tolist() if a is array else repeat(a) for a in args]
        return np.fromiter(map(f, *columns), float, array.size).reshape(array.shape)

    return apply


def _row_log2(x: np.ndarray) -> np.ndarray:
    """math.log2 of each element, and numpy's -inf or NaN at 0 and below,
    where math.log2 raises: a row's entropy at e = 0 and the rate of a row
    past the secure margin reach those, to be masked."""
    out = np.log2(x)
    positive = x > 0.0
    out[positive] = _libm(math.log2)(x[positive])
    return out


# The free-source kernel's functions: numpy's, but libm's exp (see _libm).
_KERNEL_MATHS = _Maths(_libm(math.exp), np.tanh, np.cosh, np.log2, operator.pow)
# Sweep rows take libm's throughout, as the scalar path does (math.pow is the
# pow that ** calls on floats), so every row has the scalar's bits.
_ROW_MATHS = _Maths(*map(_libm, (math.exp, math.tanh, math.cosh)), _row_log2, _libm(math.pow))

# ec_efficiency's lookup for _key_rate_columns: the knots, and one array per
# segment field, as take gathers the fields of a 32x64 block in 5 us, where a
# fancy index into one (4, segments) array took 17 us.
_EC_KNOT_ARRAY = np.array(_EC_KNOTS)
_EC_SEGMENT_COLUMNS = tuple(np.array(field) for field in zip(*_EC_SEGMENTS))


def _key_rate_columns(p_sift, e, beta, ok, log2) -> np.ndarray:
    """ratecore._key_rate unclamped over numpy arrays, with log2 handed in,
    and 0 where ok is false. f(e) is ec_efficiency's segment line, each
    element's segment gathered by take from _EC_SEGMENT_COLUMNS."""
    live = ok & _live(e, beta)
    # A live row has e / beta <= 1/2, where collision_bound is the quadratic
    # (at 1/2 both are 1).
    secure = beta * -log2(_quadratic_bound(e / beta))
    entropy = np.where(e > 0.0, _entropy(e, log2), 0.0)
    segment = np.searchsorted(_EC_KNOT_ARRAY, e)
    f = _ec_line(e, *(field.take(segment) for field in _EC_SEGMENT_COLUMNS))
    raw = 0.5 * p_sift * (secure - f * entropy)
    return np.where(live, raw, 0.0)


def _rate_columns(
    protocol: str, src: SourceSpec | None, p: ChannelParams, t: np.ndarray, maths: _Maths, param=None
) -> tuple[np.ndarray, tuple, np.ndarray]:
    """point_rate(protocol, src, p, x, mode) over the abscissas x whose
    transmissions (see protocols._transmissions) are t, or with src None at
    the free source of parameters param, as (raw, stats, ok), raw 0 where
    not live: _stats_columns and _key_rate_columns, with _ROW_MATHS bit for
    bit."""
    with np.errstate(all="ignore"):
        rate_args, stats, ok = _stats_columns(protocol, src, p, t, maths, param)
        raw = _key_rate_columns(*rate_args, ok, maths.log2)
    return raw, stats, ok


def _free_rate_kernel(protocol: str, p: ChannelParams, alpha, param) -> np.ndarray:
    """Clamped rate of the free source over broadcast arrays of arm
    transmission and source parameter (Poisson nbar for bb84, PDC chi for
    ekert): _rate_columns with numpy's tanh, cosh, log2 and power, which can
    differ from libm's in the last bit, and libm's exp.

    The array form of point_rate(protocol, _free_source(protocol, param), p,
    x, mode).rate at the abscissa x whose arm transmission is alpha, to
    rounding, and +0.0 where the scalar path raises or rates 0 or less.
    """
    alpha, param = np.asarray(alpha, dtype=float), np.asarray(param, dtype=float)
    raw = _rate_columns(protocol, None, p, alpha, _KERNEL_MATHS, param)[0]
    return np.where(raw > 0.0, raw, 0.0)


def _coarse_maxima(protocol: str, p: ChannelParams, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first argmax and the maximum of the free source's rate over
    optimize_source_param's coarse grid at each arm transmission of alpha,
    _ROW_BLOCK rows per _free_rate_kernel call; a row out of range has
    maximum 0, as point_stats raises there at every parameter."""
    grid = _COARSE_GRID[protocol]
    best, top = np.zeros(len(alpha), dtype=int), np.zeros(len(alpha))
    for start in range(0, len(alpha), _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        values = _free_rate_kernel(protocol, p, alpha[block, None], grid)
        best[block] = values.argmax(axis=1)
        top[block] = values.max(axis=1)
    return best, top


def _coarse_positive(protocol: str, p: ChannelParams, kms: list[float]) -> list[bool]:
    """Whether the free source's coarse-grid maximum (see _coarse_maxima)
    is positive at each distance of kms: an optimized cutoff's probes."""
    with np.errstate(over="ignore"):  # a loss past float range is inf, as on floats
        alpha = _transmissions(protocol, None, p, np.array(kms, dtype=float), "distance", _ROW_MATHS.power)
    return (_coarse_maxima(protocol, p, alpha)[1] > 0.0).tolist()


def _optimal_params(protocol: str, p: ChannelParams, alpha: np.ndarray) -> np.ndarray:
    """optimize_source_param's param, as a float64 array, at each arm
    transmission of alpha (see protocols._transmissions), all rows in
    lockstep on _free_rate_kernel.

    Each row takes optimize_source_param's steps: the coarse grid (see
    _coarse_maxima), the bracket around its first maximum, the
    golden-section updates until its own bracket is below _REL_TOL, and the
    fallback to the grid point when the bracket midpoint rates lower. A row
    whose rate is 0 over the whole grid, or whose arm transmission is out of
    range, gets the box midpoint. The kernel's numpy tanh, cosh, log2
    and ** can differ from libm's in the last bit, so where two probes of a
    row rate the same to rounding, the row may take the other branch and end
    elsewhere inside _REL_TOL.

    The golden-section updates go two to a kernel call. A step's probe is
    known before its rate is, so one call rates it together with the two
    probes the step after it could take, one for each outcome of its
    comparison; that step then picks its probe and rate from them. Every row
    takes the one-step-per-call loop's steps, with its bits.
    """
    lo, hi = _free_source_box(protocol)
    params = np.full(len(alpha), 0.5 * (lo + hi))
    best, top = _coarse_maxima(protocol, p, alpha)
    found = np.flatnonzero(top > 0.0)
    if not found.size:
        return params
    alpha, best, top = alpha[found], best[found], top[found]
    grid, logs = _COARSE_GRID[protocol], _COARSE_LOGS[protocol]

    def rate(param: np.ndarray) -> np.ndarray:
        return _free_rate_kernel(protocol, p, alpha, param)

    def probes(a, b, x1, x2):
        # the next step's probe if the rate rises from x1 to x2 (a becomes x1,
        # and the probe is a + G (b - a)), and if it does not (b becomes x2,
        # and the probe is b - G (b - a))
        return x1 + _GOLDEN * (b - x1), x2 - _GOLDEN * (x2 - a)

    a = logs[np.maximum(best - 1, 0)]
    b = logs[np.minimum(best + 1, _COARSE_POINTS - 1)]
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = rate(np.exp(np.stack([x1, x2])))
    active = b - a > _REL_TOL
    step_probes, foreseen = probes(a, b, x1, x2), None
    while active.any():
        up = f1 < f2
        probe = np.where(up, *step_probes)
        a = np.where(active & up, x1, a)
        b = np.where(active & ~up, x2, b)
        x1, x2 = np.where(up, x2, probe), np.where(up, probe, x1)
        active = b - a > _REL_TOL
        step_probes = probes(a, b, x1, x2)
        if foreseen is not None:
            f, foreseen = np.where(up, *foreseen), None
        elif active.any():
            # this step's probe, and both that the next step could take
            f, *foreseen = rate(np.exp(np.stack([probe, *step_probes])))
        else:
            break  # no row reads this probe's rate
        f1, f2 = np.where(up, f2, f), np.where(up, f, f1)
    # math.exp, as optimize_source_param takes it, fixes the reported parameter
    param = np.array([math.exp(v) for v in (0.5 * (a + b)).tolist()])
    params[found] = np.where(rate(param) < top, grid[best], param)
    return params


def _sweep_columns(spec: SweepSpec) -> SweepColumns:
    """protocols.sweep's row pass (see there). A row that the pass rejects,
    and every row where it raises, keeps its zeros and takes only the note
    of protocols.point_rate, looked up on the module, so that a tracer that
    wraps it there counts the call."""
    protocol, src, p, mode = spec.protocol, spec.source, spec.params, spec.mode
    xs = spec.grid()
    abscissa = np.array(xs, dtype=float)
    optimal_param = None
    try:
        with np.errstate(over="ignore"):  # a loss past float range is inf, as on floats
            t = _transmissions(protocol, src, p, abscissa, mode, _ROW_MATHS.power)
        if src is None:
            optimal_param = _optimal_params(protocol, p, t)
        raw, stats, ok = _rate_columns(protocol, src, p, t, _ROW_MATHS, optimal_param)
    except (ValueError, OverflowError):
        # a pump whose cosh overflows, or a swap count past float range, raised
        # at every row, as on the scalar path: the pass rates no row
        raw, stats, ok = np.zeros(len(xs)), (0.0, 0.0, 0.0), np.zeros(len(xs), dtype=bool)
    stats = tuple(np.where(ok, column, 0.0) for column in stats)
    notes = {}
    for i in np.flatnonzero(~ok).tolist():
        row_src = src if optimal_param is None else _free_source(protocol, optimal_param.item(i))
        notes[i] = protocols.point_rate(protocol, row_src, p, xs[i], mode).note
    return SweepColumns(protocol, abscissa, raw, optimal_param, stats, notes)
