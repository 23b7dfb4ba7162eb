"""Tests of the benchmark's own logic: input generation, tracing, checks and
statistics. Run from the root of a checkout:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# --- generator ---------------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    for index in range(12):
        assert workloads.point_query(7, index) == workloads.point_query(7, index)
        assert workloads.sweep_variant(7, index) == workloads.sweep_variant(7, index)
    assert workloads.point_query(7, 4) != workloads.point_query(8, 4)
    assert workloads.sweep_variant(7, 4) != workloads.sweep_variant(8, 4)


def test_point_query_kinds_cycle_in_equal_counts():
    kinds = [workloads.point_query(0, i)["kind"] for i in range(30)]
    assert all(kinds.count(k) == 10 for k in workloads.KINDS)


def test_sweep_variants_hit_every_shape_with_the_planned_grid_length():
    for index, (_mix, mode, rows) in enumerate(workloads.SHAPES):
        config = workloads.sweep_variant(3, index)
        got_mode, grid = workloads._grid_of(config)
        assert (got_mode, len(grid)) == (mode, rows)


# --- tracing -----------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_on_a_synthetic_span_tree():
    """root (span) -> two leaf calls (counter) and a child span -> leaf."""
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf():
        clock.now += 5

    leaf_t = tracer.counter("m.leaf", leaf)

    def child():
        clock.now += 7
        leaf_t()

    child_t = tracer.span("m.child", child)

    def root():
        clock.now += 100
        leaf_t()
        leaf_t()
        child_t()
        clock.now += 3

    tracer.span("m.root", root)()
    spans = {s["name"]: s for s in tracer.spans}
    assert spans["m.root"]["end"] - spans["m.root"]["start"] == 125
    assert spans["m.root"]["self_ns"] == 103
    assert spans["m.child"]["self_ns"] == 7
    assert spans["m.child"]["parent"] == spans["m.root"]["id"]
    assert tracer.counters[("m.leaf", "m.root")] == [2, 2, 0, 10, 10]
    assert tracer.counters[("m.leaf", "m.child")] == [1, 1, 0, 5, 5]


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import qkdrates
    from qkdrates import channel, cli, protocols

    namespaces = tracing.namespaces()
    before = {name: dict(vars(mod)) for name, mod in namespaces.items()}
    suites = dict(cli.VERIFY_SUITES)
    tracer = tracing.Tracer()
    tracer.install(namespaces, cli.VERIFY_SUITES)
    try:
        assert cli.sweep is protocols.sweep is qkdrates.sweep
        assert cli.sweep.__wrapped__ is before["protocols"]["sweep"]
        assert protocols.tau.__wrapped__ is before["ratecore"]["tau"]
        assert all(cli.VERIFY_SUITES[s].__wrapped__ is suites[s] for s in suites)
        protocols.optimize_source_param("bb84", channel.ChannelParams(eta=0.2, d=1e-6), 10.0)
    finally:
        tracer.uninstall()
    for name, mod in namespaces.items():
        assert dict(vars(mod)) == before[name]
    assert cli.VERIFY_SUITES == suites
    out = tracing.layer_metrics(*tracer.drain())
    assert out["protocols.optimize_source_param.calls"] == 1
    assert out["protocols.optimize_source_param.evals_per_call"] == out["protocols.point_rate.calls"]
    assert out["protocols.point_rate.calls"] > 64


def test_layer_metrics_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = list(tracing.layer_metrics([], {})) + ["trace.overhead_pct"]
    assert [m["name"] for m in bench["per_layer"]] == produced
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)


def test_combine_passes_takes_first_counts_and_median_times():
    passes = [
        {"a.calls": 3, "a.self_ms": 1.0},
        {"a.calls": 3, "a.self_ms": 5.0},
        {"a.calls": 4, "a.self_ms": 2.0},
    ]
    combined, unstable = tracing.combine_passes(passes)
    assert combined == {"a.calls": 3, "a.self_ms": 2.0}
    assert unstable == ["a.calls"]


# --- output checks -----------------------------------------------------------


def _reference(name="fig3a_fiber"):
    return (workloads.REFERENCE_DIR / f"{name}.csv").read_text()


def _perturb(text: str, row: int, col: int, factor: float) -> str:
    lines = text.splitlines()
    fields = lines[row + 1].split(",")
    fields[col] = repr(float(fields[col]) * factor)
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_output_check_accepts_the_reference():
    assert check.compare_sweep_csv(_reference(), _reference()) == []


@pytest.mark.parametrize("col", [2, 4, 5, 7])
def test_output_check_rejects_a_perturbed_row(col):
    rows = check.parse_csv(_reference())
    row = next(i for i, r in enumerate(rows) if r[col] and float(r[3]) > 0.0)
    assert check.compare_sweep_csv(_perturb(_reference(), row, col, 1.0 + 1e-6), _reference())


def test_output_check_passes_a_last_ulp_change():
    rows = check.parse_csv(_reference())
    row = next(i for i, r in enumerate(rows) if r[4])
    nudged = _perturb(_reference(), row, 4, 1.0 + 2.0**-52)
    assert nudged != _reference()
    assert check.compare_sweep_csv(nudged, _reference()) == []


def test_output_check_rejects_a_changed_abscissa_or_status():
    lines = _reference().splitlines()
    fields = lines[1].split(",")
    fields[1] = "0.5"
    moved = "\n".join([lines[0], ",".join(fields), *lines[2:]]) + "\n"
    assert check.compare_sweep_csv(moved, _reference())
    rows = check.parse_csv(_reference())
    row = next(i for i, r in enumerate(rows) if float(r[3]) > 0.0)
    zeroed = _perturb(_perturb(_reference(), row, 3, 0.0), row, 2, -1.0)
    assert check.compare_sweep_csv(zeroed, _reference())


def test_verify_tree_check_tolerates_rounding_but_not_a_shift():
    ref = json.loads((workloads.REFERENCE_DIR / "verify.json").read_text())
    same = json.loads(json.dumps(ref))
    same["reports"][1]["properties"][1]["max_deviation"] += 1e-16
    assert check.compare_tree(same, ref) == []
    shifted = json.loads(json.dumps(ref))
    shifted["reports"][1]["properties"][0]["max_deviation"] *= 1.01
    assert check.compare_tree(shifted, ref)


def test_cutoff_is_compared_at_bisection_resolution():
    ref = {"kind": "cutoff", "cutoff_km": 120.0}
    assert check.compare_point({"kind": "cutoff", "cutoff_km": 120.4}, ref) == []
    assert check.compare_point({"kind": "cutoff", "cutoff_km": 120.6}, ref)


# --- statistics --------------------------------------------------------------


@pytest.mark.parametrize("n", [22, 23, 50, 100, 999, 5000])
def test_tail_percentile_leaves_at_least_ten_samples_beyond(n):
    samples = [float((i * 7919) % n) for i in range(n)]
    t = metrics.tail(samples)
    assert sum(1 for s in samples if s > t["value"]) >= 10
    assert t["beyond"] == 10
    assert t["percentile"] > 50.0
    assert t["value"] > metrics.median(samples)


@pytest.mark.parametrize("n", [1, 5, 21])
def test_tail_of_a_small_sample_is_its_maximum(n):
    t = metrics.tail([float(i) for i in range(n)])
    assert (t["value"], t["percentile"], t["beyond"]) == (n - 1.0, 100.0, 0)
