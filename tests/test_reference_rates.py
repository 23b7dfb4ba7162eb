"""A 50-digit reference for the rate chain.

Every rated row of the three shipped sweeps, and every rate and optimize
query of bench/reference/points.json, is rated again with mpmath at 50
digits from its own float inputs (abscissa, channel, source, and the
optimized parameter where there is one), and compared with the float that
the program returns. Each optimized cutoff of points.json is checked on the
50-digit coarse-grid maximum that its bisection probes: positive at the
cutoff and not positive 0.5 km past it.

The reference runs the program's own closed-form bodies on mpmath numbers:
protocols._transmissions, sources._stats_columns and ratecore's _live,
_quadratic_bound, _entropy and _ec_line, with the EC table interpolated at
50 digits. So it shares the code under test: it measures the rounding of
the float evaluation, not whether the formulas are right. Each bound sits
just above the error measured when the test was written; a numerical fix,
such as expm1 in place of 1 - exp in the Poisson clicks, tightens them.
"""

import json
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest
from mpmath import mp

from qkdrates import cli, protocols, ratecore, sources
from qkdrates.channel import ChannelParams

POINTS = Path(__file__).resolve().parents[1] / "bench" / "reference" / "points.json"
SHIPPED = ("fig3a_fiber", "fig3b_freespace", "fig5_swaps")
CUTOFF_SEARCH = (1.0, 1000.0)
CUTOFF_RESOLUTION_KM = 0.5

# |raw - exact| / max(|exact|, p_sift / 2), the scale of bench/check: 3.49e-11
# at fig3b_freespace's bb84-poisson-optimized row at 19 dB, where
# 1 - exp(-alpha nbar) keeps only the exponential's absolute rounding
SWEEP_BOUND = 3.5e-11
# |raw - exact| / exact over the positive rates: 2.11e-10, the same curve at 20 dB
POSITIVE_RELATIVE_BOUND = 2.12e-10
# the points.json rate and optimize queries on bench/check's scale: 2.83e-13
POINT_BOUND = 2.9e-13

DIGITS = 50
_MATHS = SimpleNamespace(exp=mp.exp, tanh=mp.tanh, cosh=mp.cosh, power=mp.power)
_EC_TABLE = [(mp.mpf(e), mp.mpf(f)) for e, f in ratecore._EC_TABLE]


def _log2(x):
    return mp.log(x, 2)


def _ec_efficiency(e):
    """ratecore.ec_efficiency's table, interpolated at 50 digits."""
    if e <= _EC_TABLE[0][0]:
        return _EC_TABLE[0][1]
    for (e0, f0), (e1, f1) in zip(_EC_TABLE, _EC_TABLE[1:]):
        if e <= e1:
            return ratecore._ec_line(e, e0, f0, f1 - f0, e1 - e0)
    return _EC_TABLE[-1][1]


def exact_rate(protocol, src, p, x, mode="distance", param=None):
    """(raw rate, p_sift) at 50 digits: point_rate's chain for a fixed
    source, or with src None at the free source of parameter param."""
    with mp.workdps(DIGITS):
        t = protocols._transmissions(protocol, src, p, mp.mpf(x), mode, mp.power)
        param = None if param is None else mp.mpf(param)
        (p_sift, e, beta), _, ok = sources._stats_columns(protocol, src, p, t, _MATHS, param)
        assert ok
        if not ratecore._live(e, beta):
            return mp.zero, p_sift
        entropy = ratecore._entropy(e, _log2) if e > 0 else mp.zero
        secure = beta * -_log2(ratecore._quadratic_bound(e / beta))
        return 0.5 * p_sift * (secure - _ec_efficiency(e) * entropy), p_sift


def check_scale_error(raw, exact, p_sift):
    return float(abs(raw - exact) / max(abs(exact), p_sift / 2))


def channel(block):
    return ChannelParams(**{attr: block[key] for key, attr, *_ in cli._CHANNEL_KEYS if key in block})


@pytest.fixture(scope="module")
def sweep_rows():
    """(where, float raw rate, exact raw rate, exact p_sift) of every rated
    row of the shipped sweeps, run live."""
    rows = []
    for name in SHIPPED:
        config = cli.load_config(str(resources.files("qkdrates") / "configs" / f"{name}.json"))
        for curve in config.curves:
            columns = protocols.sweep(cli._sweep_spec(config, curve))
            params = columns.optimal_param
            for i, x in enumerate(columns.abscissa.tolist()):
                if i in columns.notes:
                    continue
                param = None if params is None else params.item(i)
                exact, p_sift = exact_rate(curve.protocol, curve.source, config.channel, x, config.mode, param)
                rows.append(((name, curve.label, x), columns.rate_raw.item(i), exact, p_sift))
    return rows


@pytest.fixture(scope="module")
def queries():
    """The points.json queries by kind, each with its channel."""
    by_kind = {"rate": [], "optimize": [], "cutoff": []}
    for entry in json.loads(POINTS.read_text()):
        query = entry["query"]
        by_kind[query["kind"]].append((query, channel(query["channel"])))
    return by_kind


def test_sweep_rows_round_within_the_check_scale_bound(sweep_rows):
    assert len(sweep_rows) == 991
    errors = {where: check_scale_error(raw, exact, p_sift) for where, raw, exact, p_sift in sweep_rows}
    worst = max(errors, key=errors.get)
    assert errors[worst] <= SWEEP_BOUND, (worst, errors[worst])


def test_positive_sweep_rates_within_the_relative_bound(sweep_rows):
    errors = {where: float(abs(raw - exact) / exact) for where, raw, exact, _ in sweep_rows if exact > 0}
    worst = max(errors, key=errors.get)
    assert errors[worst] <= POSITIVE_RELATIVE_BOUND, (worst, errors[worst])


def test_no_sweep_row_changes_sign(sweep_rows):
    assert [where for where, raw, exact, _ in sweep_rows if (raw > 0.0) != (exact > 0)] == []


def test_point_queries_within_the_check_scale_bound(queries):
    errors = []
    for query, p in queries["rate"]:
        spec = dict(query["source"])
        src = sources.parse_source({"source": spec.pop("type"), **spec})
        raw = protocols.point_rate(query["protocol"], src, p, query["distance_km"]).rate_raw
        exact, p_sift = exact_rate(query["protocol"], src, p, query["distance_km"])
        assert (raw > 0.0) == (exact > 0)
        errors.append(check_scale_error(raw, exact, p_sift))
    for query, p in queries["optimize"]:
        result = protocols.optimize_source_param(query["protocol"], p, query["distance_km"])
        exact, p_sift = exact_rate(query["protocol"], None, p, query["distance_km"], param=result.param)
        # the optimizer reports the clamped rate
        assert (result.rate > 0.0) == (exact > 0)
        errors.append(check_scale_error(result.rate, max(exact, mp.zero), p_sift))
    assert len(errors) == 40
    assert max(errors) <= POINT_BOUND


def test_optimized_cutoffs_bracket_the_exact_sign_change(queries):
    assert len(queries["cutoff"]) == 20
    for query, p in queries["cutoff"]:
        protocol = query["protocol"]
        km = protocols.cutoff_distance(protocol, p, CUTOFF_SEARCH)
        grid = protocols._coarse_params(*protocols._free_source_box(protocol))

        def coarse_maximum(x):
            return max(exact_rate(protocol, None, p, x, param=g)[0] for g in grid)

        assert coarse_maximum(km) > 0, (query, km)
        assert coarse_maximum(min(km + CUTOFF_RESOLUTION_KM, CUTOFF_SEARCH[1])) <= 0, (query, km)
