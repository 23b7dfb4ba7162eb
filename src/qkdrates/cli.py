"""Command-line front end: point rates, curve sweeps, parameter
optimization and cutoff search.

Configuration is a single JSON file with explicit units in key names; see
the shipped examples under ``qkdrates/configs``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import MISSING, dataclass
from itertools import repeat

from . import security
from .channel import ChannelParams, dark_click_prob
from .protocols import (
    RatePoint,
    SweepColumns,
    SweepSpec,
    _check_request,
    _free_source,
    cutoff_distance,
    optimize_source_param,
    point_rate,
    sweep,
)
from .sources import (
    BB84_DETECTORS,
    ClickStats,
    CoincidenceStats,
    ConfigError,
    SourceSpec,
    json_value,
    parse_source,
    read_block,
    source_to_dict,
    write_block,
)
from .verify import VERIFY_SUITES, run_verify_suite

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
            if "source" in spec:
                raise ValueError("a source block names its kind under 'type', not 'source'")
            src = parse_source({"source": spec.pop("type", None), **spec})
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
    for curve in config.curves:
        if config.grid is None:
            _check_request(curve.protocol, curve.source, mode, point)
        else:
            _sweep_spec(config, curve)
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


def _unique_keys(pairs: list) -> dict:
    """json.load's object_pairs_hook: the object as a dict, or a ConfigError
    naming a key that it repeats, which json.load would keep the last of."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key {key!r} in a config object")
        obj[key] = value
    return obj


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
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
    """The statistics' fields, plus p_coin for coincidence statistics."""
    out = dict(vars(stats))
    if isinstance(stats, CoincidenceStats):
        out["p_coin"] = stats.p_coin
    return out


def _point_fields(pt: RatePoint) -> dict:
    """The JSON fields that the rate report and a sweep entry share; the
    optional ones appear only when set."""
    fields = {"abscissa": pt.abscissa, "rate_raw": pt.rate_raw}
    if pt.optimal_param is not None:
        fields["optimal_param"] = pt.optimal_param
    if pt.stats is not None:
        fields["stats"] = _stats_dict(pt.stats)
    if pt.note:
        fields["note"] = pt.note
    return fields


def _point_report(config: RunConfig, curve: CurveSpec) -> dict:
    pt = point_rate(curve.protocol, curve.source, config.channel, config.point, config.mode)
    src = curve.source if curve.source is not None else _free_source(curve.protocol, pt.optimal_param)
    report = {
        "protocol": curve.protocol,
        "mode": config.mode,
        "source": _curve_source_dict(src),
        "rate_bits_per_pulse": pt.rate,
        **_point_fields(pt),
    }
    if pt.rate == 0.0:
        report.setdefault("note", "no secure key at this point")
    else:
        if isinstance(pt.stats, ClickStats):
            p_sift, beta = pt.stats.p_click, pt.stats.beta
        else:
            p_sift, beta = pt.stats.p_coin, 1.0
        n_rec = int(config.n_tot * p_sift / 2.0)
        if n_rec > 0 and pt.stats.e < 0.5:
            kappa = security.ec_leak_bits(n_rec, pt.stats.e)
            # sized from the secure fraction of the rate, beta tau(e / beta)
            budget = security.final_key_length(n_rec, pt.stats.e, kappa, config.security, beta)
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


def _reprs(column) -> list:
    """repr of every float of an array, formatted in one C-level pass."""
    return repr(column.tolist())[1:-1].split(", ")


def _csv_field(text: str) -> str:
    """The text as one CSV field: as it is, or quoted as RFC 4180 asks where
    it holds a comma, a double quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _sweep_csv(config: RunConfig, curves: list[tuple[str, SweepColumns]]) -> str:
    """The CSV of a run's (label, SweepColumns) curves, every value in full
    repr. Each column is formatted in one pass, and each distinct value
    once: the grid abscissas once for all curves (every curve runs
    over the first curve's grid, so row i of each shares it), the clamped
    rate as the raw rate's string where that is positive and "0.0" otherwise
    (what repr(max(0.0, raw)) gives), and the bb84 dark-click column once
    per run, at the first curve with ClickStats rows: a sweep without one
    never asks the four-detector linear model about its dark-count
    probability. A row without statistics leaves their columns empty. A
    label is written by _csv_field."""
    lines = ["curve,abscissa,rate_raw,rate_clamped,optimal_param,p_true_or_signal,p_false_or_dark,e"]
    dark = None
    abscissas = _reprs(curves[0][1].abscissa)
    for label, curve in curves:
        raw = _reprs(curve.rate_raw)
        clamped = [text if value > 0.0 else "0.0" for text, value in zip(raw, curve.rate_raw.tolist())]
        params = repeat("") if curve.optimal_param is None else _reprs(curve.optimal_param)
        # (signal, noise, e)
        if len(curve.notes) == len(raw):
            columns = [repeat("")] * 3
        else:
            if curve.protocol == "bb84":
                if dark is None:
                    p_dark = dark_click_prob(config.channel.d, BB84_DETECTORS)
                    dark = repr(float(p_dark))
                p_click, e, _ = curve.stats
                columns = [_reprs(p_click - p_dark), [dark] * len(raw), _reprs(e)]
            else:
                columns = [_reprs(column) for column in curve.stats]
            for i in curve.notes:
                for column in columns:
                    column[i] = ""
        lines.extend(map(",".join, zip(repeat(_csv_field(label)), abscissas, raw, clamped, params, *columns)))
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as err:
        raise ValueError(f"cannot write output {out_path}: {err}") from err


def _emit_json(doc, out_path: str | None) -> None:
    _emit(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n", out_path)


# --- subcommands -----------------------------------------------------------


def _optimize_report(config: RunConfig, curve: CurveSpec) -> dict:
    if curve.source is not None:
        fixed = f"curve {curve.label!r} has a fixed {curve.source.tag} source"
        raise ConfigError(f"{fixed}; the optimize command needs optimized curves")
    opt = optimize_source_param(curve.protocol, config.channel, config.point, config.mode)
    return {
        "label": curve.label, "protocol": curve.protocol, "abscissa": config.point,
        "optimal_param": opt.param, "rate_bits_per_pulse": opt.rate, "zero_rate": opt.zero_rate,
    }


def _cutoff_report(config: RunConfig, curve: CurveSpec) -> dict:
    km = cutoff_distance(curve.protocol, config.channel, config.cutoff_search, src=curve.source)
    return {"label": curve.label, "protocol": curve.protocol, "cutoff_km": km}


# command -> (report of one curve, whether it needs a point, key of several reports)
_PER_CURVE = {
    "rate": (_point_report, True, "points"),
    "optimize": (_optimize_report, True, "points"),
    "cutoff": (_cutoff_report, False, "curves"),
}


def _cmd_per_curve(args) -> int:
    report, needs_point, key = _PER_CURVE[args.command]
    config = load_config(args.config)
    if needs_point and config.point is None:
        raise ConfigError(f"the {args.command} command needs a 'point' config")
    reports = [report(config, curve) for curve in config.curves]
    _emit_json(reports[0] if len(reports) == 1 else {key: reports}, args.out)
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    if config.grid is None:
        raise ConfigError("the sweep command needs a 'sweep' config")
    curves = [(curve.label, sweep(_sweep_spec(config, curve))) for curve in config.curves]
    if args.format == "json":
        rows = [{"curve": label, "rate": pt.rate, **_point_fields(pt)}
                for label, curve in curves for pt in curve.points()]
        _emit_json(rows, args.out)
    else:
        _emit(_sweep_csv(config, curves), args.out)
    return 0


def _cmd_verify(args) -> int:
    report = run_verify_suite(args.suite)
    _emit_json(report, args.out)
    return 0 if report["pass"] else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls, and the parser costs about half a millisecond to
    build."""
    parser = argparse.ArgumentParser(
        prog="qkdrates",
        description="Secure key rates for entangled-photon and single-photon "
        "quantum key distribution under individual attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help_text, needs_config=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        if needs_config:
            p.add_argument("--config", required=True, help="path to a JSON run configuration")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        return p

    add("rate", _cmd_per_curve, "evaluate the secure rate and key budget at one point")
    p_sweep = add("sweep", _cmd_sweep, "evaluate rate curves over an abscissa grid")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    add("optimize", _cmd_per_curve, "find the optimal source parameter at one point")
    add("cutoff", _cmd_per_curve, "bisect for the largest distance with positive rate")
    p_verify = add("verify", _cmd_verify, "run a verification suite", needs_config=False)
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=sorted(VERIFY_SUITES) + ["all"],
        help="which property suite to run",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
