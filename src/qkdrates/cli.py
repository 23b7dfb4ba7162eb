"""Command-line front end: point rates, curve sweeps, parameter
optimization, cutoff search, and the verification suites.

Configuration is a single JSON file with explicit units in key names; see
the shipped examples under ``qkdrates/configs``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, dataclass

from . import fockoracle, security
from .channel import ChannelParams, dark_click_prob
from .protocols import (
    SweepSpec,
    _free_source,
    cutoff_distance,
    optimize_source_param,
    point_rate,
    sweep,
)
from .ratecore import collision_bound
from .sources import (
    BB84_DETECTORS,
    ClickStats,
    SourceSpec,
    check_source,
    json_value,
    parse_source,
    pdc_coefficients,
    read_block,
    source_to_dict,
    write_block,
)

__all__ = [
    "CurveSpec",
    "RunConfig",
    "parse_config",
    "config_to_dict",
    "load_config",
    "run_verify_suite",
    "VERIFY_SUITES",
    "main",
]


@dataclass(frozen=True)
class CurveSpec:
    """One curve of a run: protocol plus a fixed or optimized source."""

    label: str
    protocol: str
    source: SourceSpec | None


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration file."""

    curves: tuple
    channel: ChannelParams
    mode: str
    point: float | None
    grid: tuple | None
    security: security.SecurityParams
    n_tot: int
    cutoff_search: tuple


class ConfigError(ValueError):
    """Raised for malformed configuration files."""


# Key tables, (JSON key, attribute, JSON kind, default) per row, read by
# sources.read_block and written by sources.write_block; MISSING marks a
# required key. A source's own parameters are read by parse_source.
_CURVE_KEYS = (
    ("label", "label", str, None),
    ("protocol", "protocol", str, None),
    ("source", "source", object, "optimize"),
)
# A single-curve config gives the curve keys at the top level.
_CONFIG_KEYS = _CURVE_KEYS + (
    ("curves", "curves", list, None),
    ("channel", "channel", dict, {}),
    ("point", "point", dict, None),
    ("sweep", "sweep", dict, None),
    ("security", "security", dict, {}),
    ("cutoff", "cutoff", dict, {}),
)
_CHANNEL_KEYS = (
    ("sigma_db_per_km", "sigma", float, ChannelParams.sigma),
    ("detector_efficiency", "eta", float, ChannelParams.eta),
    ("receiver_loss_db", "receiver_loss_db", float, ChannelParams.receiver_loss_db),
    ("dark_count_prob", "d", float, ChannelParams.d),
    ("baseline_error_fraction", "mu", float, ChannelParams.mu),
    ("receiver_loss_per_arm", "receiver_loss_per_arm", bool, ChannelParams.receiver_loss_per_arm),
)
# n_tot_pulses sizes the key budget; it sits in the security block beside the margins.
_SECURITY_KEYS = (
    ("s_bits", "s", int, security.SecurityParams.s),
    ("t_bits", "t", int, security.SecurityParams.t),
    ("n_tot_pulses", "n_tot", int, 10**9),
)
_CUTOFF_KEYS = (
    ("search_low_km", "low", float, 1.0),
    ("search_high_km", "high", float, 500.0),
)
# A point gives its abscissa under the key of its mode.
_POINT_KEYS = {
    "distance": (("distance_km", "x", float, MISSING),),
    "total-loss": (("total_loss_db", "x", float, MISSING),),
}


def _sweep_keys(mode: str) -> tuple:
    """The sweep block's key table: the grid is in km in distance mode, in dB otherwise."""
    unit = "km" if mode == "distance" else "db"
    return (("mode", "mode", str, "distance"),) + tuple(
        (f"{k}_{unit}", k, float, MISSING) for k in ("start", "stop", "step")
    )


def _curve_source_dict(src: SourceSpec | None):
    if src is None:
        return "optimize"
    d = source_to_dict(src)
    return {"type": d.pop("source"), **d}


def parse_config(raw: dict) -> RunConfig:
    """Validate and parse a configuration mapping.

    Raises:
        ConfigError: On any structural problem.
    """
    try:
        return _parse_config(raw)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _parse_config(raw) -> RunConfig:
    top = read_block(json_value(raw, dict, "config root"), _CONFIG_KEYS, "top-level")
    if top["curves"] is not None:
        stray = sorted(set(raw) & {key for key, _, _, _ in _CURVE_KEYS})
        if stray:
            raise ValueError(f"top-level {stray} cannot be given beside 'curves'")
        curve_blocks = [
            read_block(json_value(obj, dict, "curve"), _CURVE_KEYS, "curve")
            for obj in top["curves"]
        ]
    elif top["protocol"] is not None:
        curve_blocks = [top]
    else:
        raise ValueError("config needs either 'curves' or a top-level 'protocol'")
    if not curve_blocks:
        raise ValueError("'curves' must not be empty")
    curves = []
    for c in curve_blocks:
        src = None
        if c["source"] != "optimize":
            spec = dict(json_value(c["source"], dict, "source"))
            src = parse_source({"source": spec.pop("type", None), **spec})
        check_source(c["protocol"], src)
        label = c["protocol"] if c["label"] is None else c["label"]
        curves.append(CurveSpec(label=label, protocol=c["protocol"], source=src))
    labels = [c.label for c in curves]
    if len(set(labels)) != len(labels):
        raise ValueError("curve labels must be unique")

    if (top["point"] is None) == (top["sweep"] is None):
        raise ValueError("config needs exactly one of 'point' or 'sweep'")
    if top["sweep"] is not None:
        mode = json_value(top["sweep"].get("mode", "distance"), str, "mode")
        sw = read_block(top["sweep"], _sweep_keys(mode), f"{mode} sweep")
        grid = (sw["start"], sw["stop"], sw["step"])
        point = None
    else:
        mode = "distance" if "distance_km" in top["point"] else "total-loss"
        point = read_block(top["point"], _POINT_KEYS[mode], "point")["x"]
        if point < 0:
            raise ValueError("point abscissa must be non-negative")
        grid = None

    margins = read_block(top["security"], _SECURITY_KEYS, "security")
    n_tot = margins.pop("n_tot")
    if n_tot <= 0:
        raise ValueError("n_tot_pulses must be positive")
    cutoff = read_block(top["cutoff"], _CUTOFF_KEYS, "cutoff")
    config = RunConfig(
        curves=tuple(curves),
        channel=ChannelParams(**read_block(top["channel"], _CHANNEL_KEYS, "channel")),
        mode=mode,
        point=point,
        grid=grid,
        security=security.SecurityParams(**margins),
        n_tot=n_tot,
        cutoff_search=(cutoff["low"], cutoff["high"]),
    )
    if config.grid is not None:
        _sweep_spec(config, config.curves[0])
    return config


def config_to_dict(config: RunConfig) -> dict:
    """Serialize a RunConfig back to its canonical mapping: every value that
    differs from its default."""
    out: dict = {
        "channel": write_block(vars(config.channel), _CHANNEL_KEYS),
        "curves": [
            {"label": c.label, "protocol": c.protocol, "source": _curve_source_dict(c.source)}
            for c in config.curves
        ],
    }
    if config.grid is not None:
        start, stop, step = config.grid
        grid = {"mode": config.mode, "start": start, "stop": stop, "step": step}
        out["sweep"] = write_block(grid, _sweep_keys(config.mode))
    else:
        out["point"] = write_block({"x": config.point}, _POINT_KEYS[config.mode])
    out["security"] = write_block({**vars(config.security), "n_tot": config.n_tot}, _SECURITY_KEYS)
    low, high = config.cutoff_search
    out["cutoff"] = write_block({"low": low, "high": high}, _CUTOFF_KEYS)
    return out


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    return parse_config(raw)


def _sweep_spec(config: RunConfig, curve: CurveSpec) -> SweepSpec:
    start, stop, step = config.grid
    return SweepSpec(
        protocol=curve.protocol,
        params=config.channel,
        source=curve.source,
        start=start,
        stop=stop,
        step=step,
        mode=config.mode,
    )


def _stats_dict(stats) -> dict:
    if isinstance(stats, ClickStats):
        return {"p_click": stats.p_click, "e": stats.e, "beta": stats.beta}
    return {
        "p_true": stats.p_true,
        "p_false": stats.p_false,
        "p_coin": stats.p_coin,
        "e": stats.e,
    }


def _point_report(config: RunConfig, curve: CurveSpec) -> dict:
    pt = point_rate(curve.protocol, curve.source, config.channel, config.point, config.mode)
    src = curve.source if curve.source is not None else _free_source(curve.protocol, pt.optimal_param)
    report = {
        "protocol": curve.protocol,
        "mode": config.mode,
        "abscissa": config.point,
        "source": _curve_source_dict(src),
        "rate_bits_per_pulse": pt.rate,
        "rate_raw": pt.rate_raw,
    }
    if pt.optimal_param is not None:
        report["optimal_param"] = pt.optimal_param
    if pt.note:
        report["note"] = pt.note
    if pt.stats is not None:
        report["stats"] = _stats_dict(pt.stats)
    if pt.rate == 0.0:
        report.setdefault("note", "no secure key at this point")
    else:
        p_sift = pt.stats.p_click if isinstance(pt.stats, ClickStats) else pt.stats.p_coin
        n_rec = int(config.n_tot * p_sift / 2.0)
        if n_rec > 0 and pt.stats.e < 0.5:
            kappa = security.ec_leak_bits(n_rec, pt.stats.e)
            budget = security.final_key_length(n_rec, pt.stats.e, kappa, config.security)
            report["key_budget"] = {
                "n_tot_pulses": config.n_tot,
                "n_rec_bits": budget.n_rec,
                "secure_fraction": budget.tau_bits,
                "ec_leak_bits": budget.kappa,
                "final_key_bits": budget.r,
                "eve_info_bits": budget.eve_info,
                "markov_leak_probability": security.markov_leak_probability(budget.eve_info, 1.0),
            }
    return report


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _sweep_rows(config: RunConfig) -> list:
    rows = []
    for curve in config.curves:
        for pt in sweep(_sweep_spec(config, curve)):
            rows.append((curve.label, pt))
    return rows


def _sweep_csv(config: RunConfig, rows: list) -> str:
    lines = ["curve,abscissa,rate_raw,rate_clamped,optimal_param,p_true_or_signal,p_false_or_dark,e"]
    p_dark = dark_click_prob(config.channel.d, BB84_DETECTORS)
    for label, pt in rows:
        if pt.stats is None:
            true_col = false_col = e_col = ""
        elif isinstance(pt.stats, ClickStats):
            true_col = _fmt(pt.stats.p_click - p_dark)
            false_col = _fmt(p_dark)
            e_col = _fmt(pt.stats.e)
        else:
            true_col = _fmt(pt.stats.p_true)
            false_col = _fmt(pt.stats.p_false)
            e_col = _fmt(pt.stats.e)
        lines.append(
            ",".join(
                [
                    label,
                    _fmt(pt.abscissa),
                    _fmt(pt.rate_raw),
                    _fmt(pt.rate),
                    _fmt(pt.optimal_param),
                    true_col,
                    false_col,
                    e_col,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _sweep_json(rows: list) -> list:
    out = []
    for label, pt in rows:
        entry = {
            "curve": label,
            "abscissa": pt.abscissa,
            "rate": pt.rate,
            "rate_raw": pt.rate_raw,
        }
        if pt.optimal_param is not None:
            entry["optimal_param"] = pt.optimal_param
        if pt.stats is not None:
            entry["stats"] = _stats_dict(pt.stats)
        if pt.note:
            entry["note"] = pt.note
        out.append(entry)
    return out


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_json(doc, out_path: str | None) -> None:
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", out_path)


# --- verification suites ---------------------------------------------------


def _property(name: str, tolerance: float, holds: bool, **measured) -> dict:
    """One checked property of a suite report: its tolerance, the measured
    extreme under a named key, and whether the property holds."""
    return {"name": name, "tolerance": tolerance, **measured, "pass": holds}


def _suite_attack_bound() -> dict:
    worst_gap = 0.0
    for k in range(1, 50):
        eps = k / 100.0
        _, value = security.maximize_attack_collision(eps)
        worst_gap = max(worst_gap, abs(value - collision_bound(eps)))
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
                excess = security.attack_collision(a) - collision_bound(security.attack_epsilon(a))
                worst_violation = max(worst_violation, excess)
    return {
        "suite": "attack-bound",
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
            closed = pdc_coefficients(chi, alpha)
            sectors = fockoracle.apply_loss_and_trace(
                fockoracle.build_pdc_state(chi, 8), alpha
            )
            oracle = fockoracle.extract_pdc_coefficients(sectors)
            deviation = max(
                abs(closed.A - oracle.A),
                abs(closed.B - oracle.B),
                abs(closed.C - oracle.C),
                abs(closed.D - oracle.D),
            )
            worst_coeff = max(worst_coeff, deviation)
            worst_residual = max(worst_residual, fockoracle.pair_sector_residual(sectors))
            table.append(
                {
                    "chi": chi,
                    "alpha": alpha,
                    "closed_form": [closed.A, closed.B, closed.C, closed.D],
                    "oracle": [oracle.A, oracle.B, oracle.C, oracle.D],
                    "deviation": deviation,
                }
            )
    return {
        "suite": "pdc-oracle",
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
    superposition = fockoracle.FockVector(
        amps={(0,) * 8: half, (1, 0, 0, 0, 0, 0, 0, 0): half}, n_max=1
    )
    diagonal = fockoracle.FockVector(amps={(1, 0, 0, 1, 0, 0, 0, 0): 1.0}, n_max=1)
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
        "suite": "dephasing",
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
        "suite": "privacy-amp",
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
        "suite": "multi-photon",
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


def run_verify_suite(name: str) -> dict:
    """Run one named verification suite, or all of them."""
    if name == "all":
        reports = [fn() for fn in VERIFY_SUITES.values()]
        return {
            "suite": "all",
            "reports": reports,
            "pass": all(p["pass"] for rep in reports for p in rep["properties"]),
        }
    if name not in VERIFY_SUITES:
        raise ConfigError(
            f"unknown suite {name!r}; expected one of {sorted(VERIFY_SUITES)} or 'all'"
        )
    report = VERIFY_SUITES[name]()
    report["pass"] = all(p["pass"] for p in report["properties"])
    return report


# --- subcommands -----------------------------------------------------------


def _cmd_rate(args) -> int:
    config = load_config(args.config)
    if config.point is None:
        raise ConfigError("the rate command needs a 'point' config")
    report = (
        _point_report(config, config.curves[0])
        if len(config.curves) == 1
        else {"points": [_point_report(config, c) for c in config.curves]}
    )
    _emit_json(report, args.out)
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    if config.grid is None:
        raise ConfigError("the sweep command needs a 'sweep' config")
    rows = _sweep_rows(config)
    if args.format == "json":
        _emit_json(_sweep_json(rows), args.out)
    else:
        _emit(_sweep_csv(config, rows), args.out)
    return 0


def _cmd_optimize(args) -> int:
    config = load_config(args.config)
    if config.point is None:
        raise ConfigError("the optimize command needs a 'point' config")
    reports = []
    for curve in config.curves:
        opt = optimize_source_param(curve.protocol, config.channel, config.point, config.mode)
        reports.append(
            {
                "label": curve.label,
                "protocol": curve.protocol,
                "abscissa": config.point,
                "optimal_param": opt.param,
                "rate_bits_per_pulse": opt.rate,
                "zero_rate": opt.zero_rate,
            }
        )
    _emit_json(reports[0] if len(reports) == 1 else {"points": reports}, args.out)
    return 0


def _cmd_cutoff(args) -> int:
    config = load_config(args.config)
    reports = []
    for curve in config.curves:
        km = cutoff_distance(
            curve.protocol, config.channel, config.cutoff_search, src=curve.source
        )
        reports.append({"label": curve.label, "protocol": curve.protocol, "cutoff_km": km})
    _emit_json(reports[0] if len(reports) == 1 else {"curves": reports}, args.out)
    return 0


def _cmd_verify(args) -> int:
    report = run_verify_suite(args.suite)
    _emit_json(report, args.out)
    return 0 if report["pass"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdrates",
        description="Secure key rates for entangled-photon and single-photon "
        "quantum key distribution under individual attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_config=True):
        p = sub.add_parser(name, help=help_text)
        if needs_config:
            p.add_argument("--config", required=True, help="path to a JSON run configuration")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        return p

    add("rate", "evaluate the secure rate and key budget at one point")
    p_sweep = add("sweep", "evaluate rate curves over an abscissa grid")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    add("optimize", "find the optimal source parameter at one point")
    add("cutoff", "bisect for the largest distance with positive rate")
    p_verify = add("verify", "run a verification suite", needs_config=False)
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=sorted(VERIFY_SUITES) + ["all"],
        help="which property suite to run",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "rate": _cmd_rate,
        "sweep": _cmd_sweep,
        "optimize": _cmd_optimize,
        "cutoff": _cmd_cutoff,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
