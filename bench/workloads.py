"""The three seeded workloads: their inputs, the timed call of each op, and
the check of its output.

Every op's inputs come from ``random.Random(f"{workload}:{seed}:{index}")``,
so op i is the same for a seed however many ops ran before it, and the
program sees only the generated inputs. Library functions are looked up on
their modules at call time, so a tracer installed later sees the calls.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from qkdrates import protocols, sources

import check

DEFAULT_SEED = 0
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
SHIPPED = ("fig3a_fiber", "fig3b_freespace", "fig5_swaps")
BOXES = {"bb84": protocols.NBAR_BOX, "ekert": protocols.CHI_BOX}
SECURITY = {"s_bits": 30, "t_bits": 30, "n_tot_pulses": 1000000000}
N_TOT = 10**9
CUTOFF_SEARCH = (1.0, 1000.0)


def library(package: str) -> SimpleNamespace:
    """The modules the workloads call, from one copy of the package: the
    program (``qkdrates``) or the frozen baseline (``qkdrates_baseline``)."""
    return SimpleNamespace(**{
        name: importlib.import_module(f"{package}.{name}")
        for name in ("cli", "protocols", "security", "sources", "channel")
    })


CURRENT = library("qkdrates")


@dataclass
class Op:
    """One timed call and the check of what it returned.

    Attributes:
        kind: Op kind, e.g. "sweep", "rate", "optimize", "cutoff", "verify".
        call: The timed call.
        baseline: The same call on the frozen baseline; not checked.
        check: Maps the call's return value to (problems, tallies).
        prepare: Untimed step run before each call, such as writing the
            config file the call reads.
        tallies: Input properties counted for every run of the op.
    """

    kind: str
    call: object
    baseline: object
    check: object
    prepare: object = None
    tallies: dict = field(default_factory=dict)


def run_cli(argv: list, lib: SimpleNamespace = CURRENT) -> tuple:
    """In-process ``qkdrates`` run: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_problems(result: tuple) -> list:
    code, _out, err = result
    return [] if code == 0 else [f"exit {code}: {err.strip()[:200]}"]


def draw_channel(rng: random.Random) -> dict:
    """A device inside the ranges on which every op evaluates without error."""
    return {
        "sigma_db_per_km": rng.uniform(0.18, 0.30),
        "detector_efficiency": rng.uniform(0.1, 0.6),
        "receiver_loss_db": rng.uniform(0.0, 3.0),
        "dark_count_prob": 10.0 ** rng.uniform(-7.0, -4.5),
        "baseline_error_fraction": rng.uniform(0.0, 0.03),
    }


def channel_params(block: dict, lib: SimpleNamespace = CURRENT):
    return lib.channel.ChannelParams(
        sigma=block["sigma_db_per_km"],
        eta=block["detector_efficiency"],
        receiver_loss_db=block["receiver_loss_db"],
        d=block["dark_count_prob"],
        mu=block["baseline_error_fraction"],
    )


# --- figure-sweeps -----------------------------------------------------------

# The curve mixes of the shipped figure configs.
MIXES = {
    "fig3": [
        {"label": "ekert-ideal-epr", "protocol": "ekert", "source": {"type": "ideal-epr"}},
        {"label": "ekert-pdc-optimized", "protocol": "ekert", "source": "optimize"},
        {"label": "bb84-ideal-single", "protocol": "bb84", "source": {"type": "ideal-single"}},
        {"label": "bb84-poisson-optimized", "protocol": "bb84", "source": "optimize"},
    ],
    "swaps": [
        {"label": "no-swap-ideal-epr", "protocol": "ekert", "source": {"type": "ideal-epr"}},
        {"label": "one-swap", "protocol": "ekert", "source": {"type": "swap", "n_swaps": 1}},
        {"label": "two-swaps", "protocol": "ekert", "source": {"type": "swap", "n_swaps": 2}},
    ],
}
# Abscissa span per (mix, mode): km in distance mode, dB in total-loss mode,
# reaching past the cutoffs so every curve has zero-rate rows.
SPANS = {
    ("fig3", "distance"): (150.0, 250.0),
    ("fig3", "total-loss"): (50.0, 80.0),
    ("swaps", "distance"): (300.0, 500.0),
    ("swaps", "total-loss"): (60.0, 100.0),
}
# Variants cycle through every shape, so the mix of op sizes is the same for
# every seed and only the channel and grid placement are drawn. Op cost grows
# with the optimized rows, so the 14 shapes sort into tiers: four cheap swap
# sweeps, then the fig3 lengths in pairs. The median op falls inside the
# 60-row tier rather than on the edge between two tiers, where it would jump.
SHAPES = tuple(
    (mix, mode, rows)
    for mix, lengths in (("fig3", (24, 60, 100, 150, 300)), ("swaps", (60, 300)))
    for rows in lengths
    for mode in ("distance", "total-loss")
)


def sweep_variant(seed: int, index: int) -> dict:
    """The index-th seeded variant sweep config."""
    rng = random.Random(f"figure-sweeps:{seed}:{index}")
    mix, mode, rows = SHAPES[index % len(SHAPES)]
    unit = "km" if mode == "distance" else "db"
    start = rng.uniform(0.0, 5.0)
    span = rng.uniform(*SPANS[(mix, mode)])
    channel = draw_channel(rng)
    return {
        "channel": channel,
        "curves": MIXES[mix],
        "sweep": {
            "mode": mode,
            f"start_{unit}": start,
            f"stop_{unit}": start + span,
            f"step_{unit}": span / (rows - 1),
        },
        "security": SECURITY,
    }


def _grid_of(config: dict) -> tuple:
    block = config["sweep"]
    unit = "km" if block["mode"] == "distance" else "db"
    return block["mode"], check.expected_grid(*(block[f"{k}_{unit}"] for k in ("start", "stop", "step")))


def _free_source(protocol: str, param: float):
    return sources.Poisson(param) if protocol == "bb84" else sources.Pdc(param)


def _p_sift(stats, lib: SimpleNamespace = CURRENT) -> float:
    return stats.p_click if isinstance(stats, lib.sources.ClickStats) else stats.p_coin


def _fixed_source(spec: dict, lib: SimpleNamespace = CURRENT):
    return lib.sources.parse_source({"source": spec["type"], **{k: v for k, v in spec.items() if k != "type"}})


def _recompute_problems(config: dict, rows: list, grid: list) -> list:
    """Re-evaluate sampled rows through point_rate and probe optimality.

    The first, middle and last row of each curve must match a direct
    point_rate call at the row's source (the fixed one, or the reported
    optimal parameter). An optimized positive rate must not be beaten at
    the parameter scaled by 1.01 or 1/1.01 inside the search box.
    """
    mode, _ = _grid_of(config)
    ch = channel_params(config["channel"])
    problems = []
    for c, curve in enumerate(config["curves"]):
        protocol = curve["protocol"]
        for i in sorted({0, len(grid) // 2, len(grid) - 1}):
            row = rows[c * len(grid) + i]
            x = float(row[1])
            if curve["source"] == "optimize":
                param = float(row[4])
                src = _free_source(protocol, param)
            else:
                src = _fixed_source(curve["source"])
            pt = protocols.point_rate(protocol, src, ch, x, mode)
            if not check.close(pt.rate_raw, float(row[2]), check.sift_scale(row)):
                problems.append(f"{curve['label']} @ {x!r}: point_rate gives {pt.rate_raw!r}, row {row[2]}")
            if curve["source"] == "optimize" and pt.rate > 0.0:
                lo, hi = BOXES[protocol]
                for probe in (param * 1.01, param / 1.01):
                    if lo <= probe <= hi:
                        other = protocols.point_rate(protocol, _free_source(protocol, probe), ch, x, mode)
                        if other.rate > pt.rate * (1.0 + check.RTOL):
                            problems.append(f"{curve['label']} @ {x!r}: rate at param {probe!r} beats the optimum")
    return problems


class FigureSweeps:
    """``qkdrates sweep`` in process: the shipped configs, then seeded variants."""

    name = "figure-sweeps"
    trace_pass_len = len(SHIPPED) + len(SHAPES)

    def __init__(self, root: Path, seed: int, scratch: Path, baseline: SimpleNamespace):
        self.root = root
        self.seed = seed
        self.config_path = scratch / "sweep-config.json"
        self.baseline = baseline

    def op(self, index: int) -> Op:
        if index < len(SHIPPED):
            return self._shipped(SHIPPED[index])
        return self._variant(sweep_variant(self.seed, index - len(SHIPPED)))

    def _shipped(self, name: str) -> Op:
        path = self.root / "src" / "qkdrates" / "configs" / f"{name}.json"
        reference = (REFERENCE_DIR / f"{name}.csv").read_text()
        config = json.loads(path.read_text())

        def verdict(result):
            problems = _cli_problems(result) or check.compare_sweep_csv(result[1], reference)
            return problems, _row_tallies(result[1])

        argv = ["sweep", "--config", str(path)]
        return Op("sweep", lambda: run_cli(argv), lambda: run_cli(argv, self.baseline), verdict,
                  tallies=_shape_tallies(config))

    def _variant(self, config: dict) -> Op:
        _, grid = _grid_of(config)
        curves = [(c["label"], c["protocol"], c["source"] == "optimize") for c in config["curves"]]
        text = json.dumps(config)
        path = self.config_path

        def prepare():
            path.write_text(text)

        def verdict(result):
            problems = _cli_problems(result)
            if problems:
                return problems, {}
            problems, rows = check.check_sweep_rows(result[1], curves, grid, BOXES)
            if not problems:
                problems = _recompute_problems(config, rows, grid)
            return problems, _row_tallies(result[1])

        argv = ["sweep", "--config", str(path)]
        return Op("sweep", lambda: run_cli(argv), lambda: run_cli(argv, self.baseline), verdict,
                  prepare=prepare, tallies=_shape_tallies(config))

    def reference_ops(self) -> list:
        return []


def _shape_tallies(config: dict) -> dict:
    _, grid = _grid_of(config)
    optimized = sum(1 for c in config["curves"] if c["source"] == "optimize")
    return {
        "rows": len(grid) * len(config["curves"]),
        "optimized_rows": len(grid) * optimized,
        f"grid_length={len(grid)}": len(config["curves"]),
    }


def _row_tallies(text: str) -> dict:
    """Optimized rows whose rate is zero: the optimizer found no positive rate."""
    zero = 0
    for row in text.splitlines()[1:]:
        fields = row.split(",")
        if len(fields) == 8 and fields[4] and fields[3] and float(fields[3]) == 0.0:
            zero += 1
    return {"zero_rate_optimized_rows": zero}


# --- point-queries -------------------------------------------------------------

KINDS = ("rate", "optimize", "cutoff")
RATE_SOURCES = (
    ("bb84", {"type": "ideal-single"}),
    ("ekert", {"type": "ideal-epr"}),
    ("bb84", {"type": "poisson"}),
    ("ekert", {"type": "pdc"}),
    ("ekert", {"type": "swap", "n_swaps": 1}),
    ("ekert", {"type": "swap", "n_swaps": 2}),
)


def point_query(seed: int, index: int) -> dict:
    """The index-th seeded query; kinds and protocols cycle, values are drawn."""
    rng = random.Random(f"point-queries:{seed}:{index}")
    kind = KINDS[index % len(KINDS)]
    turn = index // len(KINDS)
    query = {"kind": kind, "channel": draw_channel(rng), "distance_km": rng.uniform(0.0, 100.0)}
    if kind == "rate":
        protocol, source = RATE_SOURCES[turn % len(RATE_SOURCES)]
        source = dict(source)
        if source["type"] == "poisson":
            source["nbar"] = rng.uniform(0.05, 0.5)
        elif source["type"] == "pdc":
            source["chi"] = rng.uniform(0.05, 0.4)
        query.update(protocol=protocol, source=source)
    else:
        query["protocol"] = ("bb84", "ekert")[turn % 2]
    return query


def query_call(query: dict, lib: SimpleNamespace = CURRENT):
    """The timed library call of a query, following README "Library use"."""
    protocols, security = lib.protocols, lib.security
    protocol = query["protocol"]
    ch = channel_params(query["channel"], lib)
    x = query["distance_km"]
    if query["kind"] == "rate":
        src = _fixed_source(query["source"], lib)

        def call():
            pt = protocols.point_rate(protocol, src, ch, x)
            budget = None
            if pt.stats is not None:
                n_rec = int(N_TOT * _p_sift(pt.stats, lib) / 2)
                if n_rec > 0 and pt.stats.e < 0.5:
                    kappa = security.ec_leak_bits(n_rec, pt.stats.e)
                    budget = security.final_key_length(
                        n_rec, pt.stats.e, kappa, security.SecurityParams(s=30, t=30)
                    )
            return pt, budget

    elif query["kind"] == "optimize":

        def call():
            return protocols.optimize_source_param(protocol, ch, x)

    else:

        def call():
            return protocols.cutoff_distance(protocol, ch, CUTOFF_SEARCH)

    return call


def summarize(query: dict, result) -> dict:
    """The checked outputs of a query; key-budget numbers are left out."""
    kind = query["kind"]
    if kind == "rate":
        pt, _budget = result
        stats = pt.stats
        return {
            "kind": kind, "rate": pt.rate, "rate_raw": pt.rate_raw, "note": pt.note,
            "p_sift": _p_sift(stats) if stats else 0.0, "e": stats.e if stats else 0.0,
        }
    if kind == "optimize":
        return {"kind": kind, "param": result.param, "rate": result.rate, "zero_rate": result.zero_rate}
    return {"kind": kind, "cutoff_km": result}


def _optimized_rate(protocol: str, ch, km: float) -> float:
    return protocols.optimize_source_param(protocol, ch, km).rate


def query_problems(query: dict, result) -> list:
    """Invariants every query result must satisfy, without a stored reference."""
    got = summarize(query, result)
    protocol = query["protocol"]
    ch = channel_params(query["channel"])
    if query["kind"] == "rate":
        pt, budget = result
        if pt.note or pt.stats is None:
            return [f"point did not evaluate: {pt.note}"]
        if not all(math.isfinite(v) for v in (pt.rate, pt.rate_raw, got["e"])):
            return ["non-finite rate"]
        if pt.rate != max(0.0, pt.rate_raw):
            return [f"clamped rate {pt.rate!r} != max(0, {pt.rate_raw!r})"]
        if budget is not None and (budget.r < 0 or budget.kappa < 0):
            return ["negative key budget"]
        return []
    if query["kind"] == "optimize":
        lo, hi = BOXES[protocol]
        if not lo <= got["param"] <= hi:
            return [f"optimal param {got['param']!r} outside the box"]
        if got["zero_rate"]:
            return [] if got["rate"] == 0.0 else ["zero_rate with a positive rate"]
        direct = protocols.point_rate(protocol, _free_source(protocol, got["param"]), ch,
                                      query["distance_km"])
        if got["rate"] <= 0.0 or not check.close(got["rate"], direct.rate):
            return [f"optimum rate {got['rate']!r}, point_rate gives {direct.rate!r}"]
        return []
    km = got["cutoff_km"]
    if not CUTOFF_SEARCH[0] <= km < CUTOFF_SEARCH[1]:
        return [f"cutoff {km} km outside the search bracket"]
    if _optimized_rate(protocol, ch, km) <= 0.0:
        return [f"rate is zero at the reported cutoff {km} km"]
    if _optimized_rate(protocol, ch, min(km + check.CUTOFF_KM, CUTOFF_SEARCH[1])) > 0.0:
        return [f"rate still positive {check.CUTOFF_KM} km past the cutoff {km} km"]
    return []


def query_op(query: dict, baseline: SimpleNamespace, reference: dict | None = None) -> Op:
    def verdict(result):
        problems = query_problems(query, result)
        if not problems and reference is not None:
            problems = check.compare_point(summarize(query, result), reference)
        tallies = {}
        if query["kind"] == "optimize":
            tallies["zero_rate_optimizations"] = int(result.zero_rate)
        return problems, tallies

    return Op(query["kind"], query_call(query), query_call(query, baseline), verdict,
              tallies={f"{query['kind']}_queries": 1})


class PointQueries:
    """Library calls one point at a time, in three kinds with equal counts."""

    name = "point-queries"
    trace_pass_len = 60

    def __init__(self, root: Path, seed: int, scratch: Path, baseline: SimpleNamespace):
        self.seed = seed
        self.baseline = baseline

    def op(self, index: int) -> Op:
        return query_op(point_query(self.seed, index), self.baseline)

    def reference_ops(self) -> list:
        """The recorded default-seed queries, re-run and compared every run."""
        recorded = json.loads((REFERENCE_DIR / "points.json").read_text())
        return [query_op(entry["query"], self.baseline, entry["result"]) for entry in recorded]


# --- verify-all ----------------------------------------------------------------


class VerifyAll:
    """``qkdrates verify --suite all`` in process; the suites fix their grids."""

    name = "verify-all"
    trace_pass_len = 1

    def __init__(self, root: Path, seed: int, scratch: Path, baseline: SimpleNamespace):
        self.reference = json.loads((REFERENCE_DIR / "verify.json").read_text())
        self.baseline = baseline

    def op(self, index: int) -> Op:
        def verdict(result):
            problems = _cli_problems(result)
            if not problems:
                report = json.loads(result[1])
                problems = check.verify_passes(report) or check.compare_tree(report, self.reference)
            return problems[:5], {}

        argv = ["verify", "--suite", "all"]
        return Op("verify", lambda: run_cli(argv), lambda: run_cli(argv, self.baseline), verdict)

    def reference_ops(self) -> list:
        return []


WORKLOADS = {w.name: w for w in (FigureSweeps, PointQueries, VerifyAll)}
