"""Fuzzing of the command line: hypothesis builds configs, valid and
malformed, and each runs through cli.main in process. Every run must exit 0
or 2, raise nothing, write an error line when it exits 2, and write only
finite numbers: JSON without NaN or Infinity, CSV without nan or inf."""

import contextlib
import csv
import io
import json
import math
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdrates.cli import main

# Values that no config key takes as they are: bools, strings, null, integers
# past float range, non-finite numbers, arrays and objects.
_JUNK = st.one_of(
    st.booleans(),
    st.sampled_from(["", "0.1", "inf", "optimize", "ekert"]),
    st.none(),
    st.sampled_from([2**1024, -(2**1024), 10**400]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.builds(list),
    st.builds(dict),
)
# Numbers that a key may take or reject: negative, past one, huge or tiny.
_OUT_OF_RANGE = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.sampled_from([-1.0, -0.0, 0.0, 1.0, 1.5, 5e-324, 1e300, -1e300, 10**308]),
)


def _number(lo, hi):
    # three of four draws in range
    valid = st.floats(min_value=lo, max_value=hi)
    return st.one_of(valid, valid, valid, _OUT_OF_RANGE)


_CHANNEL = {
    "sigma_db_per_km": _number(0.0, 1.0),
    "detector_efficiency": _number(1e-3, 1.0),
    "receiver_loss_db": _number(0.0, 10.0),
    "dark_count_prob": st.one_of(_number(0.0, 1e-3), _number(0.0, 0.3)),
    "baseline_error_fraction": _number(0.0, 0.1),
    "receiver_loss_per_arm": st.booleans(),
}
_SOURCES = {
    "bb84": st.one_of(
        st.just("optimize"),
        st.fixed_dictionaries({"type": st.just("ideal-single")}),
        st.fixed_dictionaries({"type": st.just("poisson"), "nbar": _number(1e-6, 10.0)}),
    ),
    "ekert": st.one_of(
        st.just("optimize"),
        st.fixed_dictionaries({"type": st.just("ideal-epr")}),
        st.fixed_dictionaries({"type": st.just("pdc"), "chi": st.one_of(_number(1e-4, 2.0), _number(1.0, 1e3))}),
        st.fixed_dictionaries(
            {"type": st.just("swap"), "n_swaps": st.one_of(st.integers(1, 40), st.just(10**308))},
            optional={"literal_exponent": st.booleans()},
        ),
    ),
}
_OPTIONAL_BLOCKS = {
    "security": st.fixed_dictionaries({}, optional={
        "s_bits": st.integers(0, 200), "t_bits": st.integers(0, 200), "n_tot_pulses": st.integers(1, 10**15),
    }),
    "cutoff": st.fixed_dictionaries({}, optional={
        "search_low_km": _number(0.0, 50.0), "search_high_km": _number(100.0, 3000.0),
    }),
}


def _slots(node):
    """Every (container, key) of a config, nested ones included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield node, key
        yield from _slots(value)


@st.composite
def _configs(draw, block):
    """A config with a point or a sweep block, valid as drawn; then, in half
    the draws, one or two slots get junk, an unknown key or an unknown
    source tag, or lose their key."""
    protocol = draw(st.sampled_from(["bb84", "ekert"]))
    curve = {"protocol": protocol, "source": draw(_SOURCES[protocol])}
    cfg = {"channel": draw(st.fixed_dictionaries({}, optional=_CHANNEL))}
    if draw(st.booleans()):
        cfg.update(curve)
    else:
        other = draw(st.sampled_from(["bb84", "ekert"]))
        second = {"label": draw(st.sampled_from(["a", "b"])), "protocol": other, "source": draw(_SOURCES[other])}
        cfg["curves"] = [{"label": "a", **curve}, second][:draw(st.integers(1, 2))]
    mode = draw(st.sampled_from(["distance", "total-loss"]))
    if block == "point":
        key, reach = ("distance_km", 800.0) if mode == "distance" else ("total_loss_db", 200.0)
        cfg["point"] = {key: draw(_number(0.0, reach))}
    else:
        unit = "km" if mode == "distance" else "db"
        start, step = draw(_number(0.0, 300.0)), draw(st.floats(0.5, 100.0))
        stop = start + step * draw(st.integers(1, 40)) if isinstance(start, float) and start < 1e6 else 1.0
        cfg["sweep"] = {"mode": mode, f"start_{unit}": start, f"stop_{unit}": stop, f"step_{unit}": step}
    for name, strategy in _OPTIONAL_BLOCKS.items():
        if draw(st.booleans()):
            cfg[name] = draw(strategy)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        container, key = draw(st.sampled_from(list(_slots(cfg))))
        change = draw(st.sampled_from(["junk", "unknown key", "unknown tag", "delete"]))
        if change == "junk":
            container[key] = draw(_JUNK)
        elif change == "unknown key" and isinstance(container, dict):
            container["bogus"] = 1.0
        elif change == "unknown tag" and isinstance(container, dict):
            container["type"] = "laser"
        elif isinstance(container, dict):
            del container[key]
    return cfg


def _run(path, argv):
    """cli.main on argv, bounded by a 5 s timer: (status, stdout, stderr)."""
    def hang(signum, frame):
        raise TimeoutError(f"{argv} did not return")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main([*argv, "--config", str(path)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    return status, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def _check_run(path, argv):
    status, out, err = _run(path, argv)
    assert status in (0, 2), (argv, status, err)
    if status == 2:
        assert out == "" and err.startswith("error: "), (argv, out, err)
    elif argv[-1] == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        for row in rows[1:]:
            assert len(row) == len(rows[0]) == 8, row
            assert all(math.isfinite(float(cell)) for cell in row[1:] if cell), row
    else:
        json.loads(out, parse_constant=_reject_constant)
    return status


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


class TestCliFuzz:
    @given(_configs("point"))
    @settings(max_examples=600, derandomize=True, deadline=None)
    def test_point_commands(self, config_path, cfg):
        config_path.write_text(json.dumps(cfg))
        for command in ("rate", "optimize", "cutoff"):
            _check_run(config_path, [command])

    @given(_configs("sweep"))
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_sweep_commands(self, config_path, cfg):
        config_path.write_text(json.dumps(cfg))
        statuses = {_check_run(config_path, ["sweep", "--format", fmt]) for fmt in ("csv", "json")}
        assert len(statuses) == 1  # the two formats accept the same configs
