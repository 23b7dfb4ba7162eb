"""Tests for the command-line interface and configuration handling."""

import csv
import dataclasses
import json
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from qkdrates import cli, fockoracle, protocols, sources, verify
from qkdrates.cli import (
    ConfigError,
    config_to_dict,
    load_config,
    main,
    parse_config,
    run_verify_suite,
)
from qkdrates.channel import dark_click_prob
from qkdrates.grid import _ROW_MATHS, _optimal_params
from qkdrates.protocols import OptimizeResult, RatePoint, SweepColumns, point_rate, sweep
from qkdrates.ratecore import tau_multiphoton
from qkdrates.sources import BB84_DETECTORS, ClickStats, CoincidenceStats

BASE_CHANNEL = {
    "sigma_db_per_km": 0.2,
    "detector_efficiency": 0.18,
    "receiver_loss_db": 1.0,
    "dark_count_prob": 5e-05,
    "baseline_error_fraction": 0.01,
}
SIGMA_FREE_CHANNEL = {k: v for k, v in BASE_CHANNEL.items() if k != "sigma_db_per_km"}

# The JSON fields every rate report and every sweep entry carry, and those of a key budget.
REPORT_KEYS = {"protocol", "mode", "abscissa", "source", "rate_bits_per_pulse", "rate_raw"}
ENTRY_KEYS = {"curve", "abscissa", "rate", "rate_raw"}
KEY_BUDGET_KEYS = {
    "n_tot_pulses",
    "n_rec_bits",
    "secure_fraction",
    "ec_leak_bits",
    "final_key_bits",
    "eve_info_bits",
    "markov_leak_probability",
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def shipped_config(name):
    return str(resources.files("qkdrates") / "configs" / name)


REFERENCE_DIR = Path(__file__).resolve().parents[1] / "bench" / "reference"


class TestConfigParsing:
    def test_minimal_point_config(self):
        config = parse_config(
            {
                "protocol": "ekert",
                "source": {"type": "ideal-epr"},
                "channel": BASE_CHANNEL,
                "point": {"distance_km": 100.0},
            }
        )
        assert config.point == 100.0
        assert config.mode == "distance"
        assert len(config.curves) == 1

    def test_round_trip_identity(self):
        configs = [load_config(shipped_config(name))
                   for name in ("fig3a_fiber.json", "fig3b_freespace.json", "fig5_swaps.json")]
        # point configs, one in each mode; the shipped configs are all sweeps
        configs += [
            parse_config({
                "curves": [{"protocol": "ekert", "source": "optimize"},
                           {"label": "pair", "protocol": "ekert", "source": {"type": "pdc", "chi": 0.2}}],
                "channel": BASE_CHANNEL,
                "point": point,
                "security": {"s_bits": 40, "n_tot_pulses": 10**6},
                "cutoff": {"search_high_km": 300.0},
            })
            for point in ({"distance_km": 100.0}, {"total_loss_db": 20.0})
        ]
        assert [config.mode for config in configs[3:]] == ["distance", "total-loss"]
        for config in configs:
            assert parse_config(config_to_dict(config)) == config

    def test_point_and_sweep_are_exclusive(self):
        base = {
            "protocol": "bb84",
            "source": {"type": "ideal-single"},
            "channel": BASE_CHANNEL,
        }
        with pytest.raises(ConfigError):
            parse_config(base)
        with pytest.raises(ConfigError):
            parse_config(
                {
                    **base,
                    "point": {"distance_km": 1.0},
                    "sweep": {"mode": "distance", "start_km": 0, "stop_km": 1, "step_km": 1},
                }
            )

    def test_bad_grid(self):
        with pytest.raises(ConfigError):
            parse_config(
                {
                    "protocol": "bb84",
                    "source": {"type": "ideal-single"},
                    "channel": BASE_CHANNEL,
                    "sweep": {"mode": "distance", "start_km": 10, "stop_km": 5, "step_km": 1},
                }
            )

    def test_unknown_source(self):
        with pytest.raises(ConfigError):
            parse_config(
                {
                    "protocol": "bb84",
                    "source": {"type": "laser"},
                    "channel": BASE_CHANNEL,
                    "point": {"distance_km": 1.0},
                }
            )

    # Each row overrides keys of a valid config (None drops one) and gives the
    # start of the error message.
    @pytest.mark.parametrize(
        "override, message",
        [
            ({"channel": {**BASE_CHANNEL, "receiver_loss_per_arm": "false"}},
             "receiver_loss_per_arm must be true or false, got 'false'"),
            ({"source": {"type": "swap", "n_swaps": 1, "literal_exponent": "false"}},
             "literal_exponent must be true or false, got 'false'"),
            ({"security": {"s_bits": 1.9}}, "s_bits must be an integer, got 1.9"),
            ({"security": {"t_bits": 1.9}}, "t_bits must be an integer, got 1.9"),
            ({"security": {"n_tot_pulses": 1.9}}, "n_tot_pulses must be an integer, got 1.9"),
            ({"security": {"s_bits": True}}, "s_bits must be an integer, got True"),
            ({"channel": [1]}, "channel must be a JSON object, got [1]"),
            ({"security": "strict"}, "security must be a JSON object, got 'strict'"),
            ({"cutoff": [1.0, 400.0]}, "cutoff must be a JSON object, got [1.0, 400.0]"),
            ({"point": 100.0}, "point must be a JSON object, got 100.0"),
            ({"point": {"distance_km": float("nan")}}, "distance_km must be a finite number, got nan"),
            ({"channel": {**BASE_CHANNEL, "sigma_db_per_km": "0.2"}},
             "sigma_db_per_km must be a finite number, got '0.2'"),
            ({"channel": {**BASE_CHANNEL, "sigma_db_per_km": 10**400}},
             "sigma_db_per_km must be a finite number, got 1000"),
            ({"cutoff": {"search_high_km": float("nan")}}, "search_high_km must be a finite number, got nan"),
            ({"source": {"type": "swap", "n_swaps": 1.9}}, "n_swaps must be an integer, got 1.9"),
            ({"protocol": "bb84", "source": {"type": "poisson", "nbar": "0.1"}},
             "nbar must be a finite number, got '0.1'"),
            ({"curves": 5}, "curves must be an array, got 5"),
            ({"protocol": None, "source": None, "curves": [5]}, "curve must be a JSON object, got 5"),
            ({"label": [1]}, "label must be a string, got [1]"),
            ({"channel": {**SIGMA_FREE_CHANNEL, "sigma_db_per_kn": 0.3}},
             "unknown channel key(s) ['sigma_db_per_kn']"),
            ({"cutof": {"search_high_km": 400.0}}, "unknown top-level key(s) ['cutof']"),
            ({"point": {"distance_km": -1.0}}, "abscissa must be non-negative, got -1.0"),
            ({"point": {"total_loss_db": -3.0}}, "abscissa must be non-negative, got -3.0"),
            ({"curves": [{"protocol": "ekert", "source": {"type": "ideal-epr"}}]},
             "top-level ['protocol', 'source'] cannot be given beside 'curves'"),
            ({"source": {"type": "ideal-epr", "source": "pdc", "chi": 0.1}},
             "a source block names its kind under 'type', not 'source'"),
            ({"source": {"source": "pdc", "chi": 0.1}},
             "a source block names its kind under 'type', not 'source'"),
            ({"protocol": None, "source": None}, "config needs either 'curves' or a top-level 'protocol'"),
            ({"protocol": None, "source": None, "curves": []}, "'curves' must not be empty"),
            ({"security": {"n_tot_pulses": 0}}, "n_tot_pulses must be positive"),
        ],
        ids=[
            "receiver_loss_per_arm-string",
            "literal_exponent-string",
            "s_bits-float",
            "t_bits-float",
            "n_tot_pulses-float",
            "s_bits-bool",
            "channel-list",
            "security-string",
            "cutoff-list",
            "point-number",
            "distance_km-nan",
            "sigma_db_per_km-string",
            "sigma_db_per_km-400-digits",
            "search_high_km-nan",
            "n_swaps-float",
            "nbar-string",
            "curves-number",
            "curves-number-entry",
            "label-list",
            "channel-misspelt-key",
            "unknown-top-level-key",
            "distance_km-negative",
            "total_loss_db-negative",
            "curves-beside-top-level-curve",
            "source-key-beside-type",
            "source-key-without-type",
            "no-protocol-or-curves",
            "curves-empty",
            "n_tot_pulses-zero",
        ],
    )
    def test_mistyped_values_exit_2(self, tmp_path, capsys, override, message):
        cfg = {
            "protocol": "ekert",
            "source": {"type": "ideal-epr"},
            "channel": BASE_CHANNEL,
            "point": {"distance_km": 100.0},
            **override,
        }
        cfg = {key: value for key, value in cfg.items() if value is not None}
        assert main(["rate", "--config", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_mistyped_sweep_block_exits_2(self, tmp_path, capsys):
        cfg = {"protocol": "ekert", "channel": BASE_CHANNEL, "sweep": [0.0, 10.0, 5.0]}
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
        assert "error" in capsys.readouterr().err

    def test_duplicate_labels(self):
        with pytest.raises(ConfigError):
            parse_config(
                {
                    "curves": [
                        {"label": "a", "protocol": "bb84", "source": {"type": "ideal-single"}},
                        {"label": "a", "protocol": "ekert", "source": {"type": "ideal-epr"}},
                    ],
                    "channel": BASE_CHANNEL,
                    "point": {"distance_km": 1.0},
                }
            )


class TestRateCommand:
    def test_trivial_bb84_point(self, tmp_path, capsys):
        cfg = {
            "protocol": "bb84",
            "source": {"type": "ideal-single"},
            "channel": {"detector_efficiency": 0.5},
            "point": {"distance_km": 0.0},
        }
        assert main(["rate", "--config", write_config(tmp_path, cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rate_bits_per_pulse"] == 0.25
        assert report["stats"]["p_click"] == 0.5
        assert report["key_budget"]["final_key_bits"] > 0

    def test_zero_rate_note(self, tmp_path, capsys):
        cfg = {
            "protocol": "ekert",
            "source": {"type": "ideal-epr"},
            "channel": BASE_CHANNEL,
            "point": {"distance_km": 300.0},
        }
        assert main(["rate", "--config", write_config(tmp_path, cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rate_bits_per_pulse"] == 0.0
        assert "note" in report

    def test_poisson_key_budget_uses_the_rate_secure_fraction(self, tmp_path, capsys):
        # the rate counts multi-photon bits as known to Eve, beta tau(e / beta);
        # a budget sized from tau(e) would promise more key than the rate allows
        cfg = {
            "protocol": "bb84",
            "source": {"type": "poisson", "nbar": 0.1},
            "channel": BASE_CHANNEL,
            "point": {"distance_km": 10.0},
        }
        assert main(["rate", "--config", write_config(tmp_path, cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        stats, budget = report["stats"], report["key_budget"]
        assert report["rate_bits_per_pulse"] > 0.0
        assert stats["beta"] < 1.0
        assert budget["secure_fraction"] == tau_multiphoton(stats["e"], stats["beta"])
        assert budget["final_key_bits"] == math.floor(
            budget["n_rec_bits"] * budget["secure_fraction"] - budget["ec_leak_bits"] - 60
        )
        assert 0 < budget["final_key_bits"] <= budget["n_tot_pulses"] * report["rate_bits_per_pulse"]

    def test_zero_rate_point_has_no_key_budget(self, tmp_path, capsys):
        cfg = {
            "protocol": "bb84",
            "source": {"type": "poisson", "nbar": 0.5},
            "channel": BASE_CHANNEL,
            "point": {"distance_km": 40.0},
        }
        assert main(["rate", "--config", write_config(tmp_path, cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rate_bits_per_pulse"] == 0.0
        assert report["stats"]["beta"] < 0.0
        assert "key_budget" not in report

    @pytest.mark.parametrize(
        "protocol, source",
        [
            ("b92", {"type": "ideal-single"}),
            ("b92", "optimize"),
            ("bb84", {"type": "ideal-epr"}),
            ("ekert", {"type": "poisson", "nbar": 0.1}),
        ],
    )
    def test_protocol_source_mismatch_exits_2(self, tmp_path, capsys, protocol, source):
        cfg = {
            "protocol": protocol,
            "source": source,
            "channel": BASE_CHANNEL,
            "point": {"distance_km": 10.0},
        }
        assert main(["rate", "--config", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    @pytest.mark.parametrize(
        "source, note",
        [
            ({"type": "pdc", "chi": 200.0}, "math range error"),
            ({"type": "pdc", "chi": 1e300}, "math range error"),
            ({"type": "swap", "n_swaps": 10**308}, "int too large to convert to float"),
        ],
        ids=["cosh4-overflow", "chi-overflow", "n_swaps-overflow"],
    )
    def test_overflowing_source_is_a_zero_rate_point(self, tmp_path, capsys, source, note):
        cfg = {
            "protocol": "ekert",
            "source": source,
            "channel": BASE_CHANNEL,
            "point": {"distance_km": 10.0},
        }
        path = write_config(tmp_path, cfg)
        assert main(["rate", "--config", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rate_bits_per_pulse"] == 0.0
        assert report["note"] == note
        assert "stats" not in report
        assert main(["cutoff", "--config", path]) == 2
        assert "rate is zero at the lower search edge" in capsys.readouterr().err

    def test_saturated_pump_at_zero_transmission_is_a_zero_rate_point(self, tmp_path, capsys):
        # tanh(25)**2 rounds to 1 and 20,000 km leave no transmission, so the
        # PDC weights would divide by 1 - z = 0; this once printed a traceback
        cfg = {
            "protocol": "ekert",
            "source": {"type": "pdc", "chi": 25.0},
            "channel": {},
            "point": {"distance_km": 20000.0},
        }
        assert main(["rate", "--config", write_config(tmp_path, cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rate_bits_per_pulse"] == 0.0
        assert report["note"] == "degenerate statistics: tanh^2(chi) (1 - alpha)^2 rounds to 1"
        assert "stats" not in report

    @pytest.mark.parametrize(
        "argv, abscissae",
        [
            (["rate"], {"point": {"distance_km": 1e308}}),
            (
                ["sweep", "--format", "json"],
                {"sweep": {"mode": "distance", "start_km": 1e308, "stop_km": 1.1e308, "step_km": 1e307}},
            ),
        ],
        ids=["rate", "sweep"],
    )
    def test_non_finite_beta_is_a_zero_rate_point(self, tmp_path, capsys, argv, abscissae):
        # a subnormal click probability, where beta = (p_click - p_m) / p_click
        # overflowed to -inf, gives no statistics: the point notes the floor
        cfg = {
            "protocol": "bb84",
            "source": {"type": "poisson", "nbar": 0.5},
            "channel": {"dark_count_prob": 5e-324},
            **abscissae,
        }

        def reject(constant):
            raise AssertionError(f"JSON output carries {constant}")

        assert main([*argv, "--config", write_config(tmp_path, cfg)]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        for point in doc if isinstance(doc, list) else [doc]:
            assert point["rate_raw"] == 0.0
            assert "stats" not in point
            assert point["note"] == "degenerate statistics: click probability is below the smallest normal float"

    def test_non_finite_output_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "optimize_source_param", lambda *args: OptimizeResult(0.1, math.nan))
        cfg = {
            "protocol": "bb84",
            "source": "optimize",
            "channel": BASE_CHANNEL,
            "point": {"distance_km": 10.0},
        }
        assert main(["optimize", "--config", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("text, message", [
        ("{not json", "config {path} is not valid JSON: "),
        (None, "cannot read config {path}: "),
    ], ids=["invalid-json", "unreadable"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "broken.json"
        if text is not None:
            path.write_text(text)
        assert main(["rate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: " + message.format(path=path))

    @pytest.mark.parametrize("text, key", [
        ('{"protocol": "ekert", "protocol": "bb84", "source": {"type": "ideal-epr"},'
         ' "point": {"distance_km": 100.0}}', "protocol"),
        ('{"protocol": "ekert", "source": {"type": "ideal-epr"}, "point": {"distance_km": 100.0},'
         ' "channel": {"sigma_db_per_km": 0.2, "sigma_db_per_km": 0.3}}', "sigma_db_per_km"),
    ], ids=["top-level", "nested"])
    def test_duplicate_key_exits_2(self, tmp_path, capsys, text, key):
        # json.load alone keeps the last value: the nested case ran at 0.3 dB/km
        path = tmp_path / "duplicate.json"
        path.write_text(text)
        assert main(["rate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: duplicate key {key!r} in a config object\n"

    def test_missing_point_exits_2(self, tmp_path, capsys):
        cfg = {
            "protocol": "bb84",
            "source": {"type": "ideal-single"},
            "channel": BASE_CHANNEL,
            "sweep": {"mode": "distance", "start_km": 0, "stop_km": 10, "step_km": 5},
        }
        assert main(["rate", "--config", write_config(tmp_path, cfg)]) == 2
        capsys.readouterr()


class TestJsonFields:
    @pytest.mark.parametrize(
        "curve, x, report_extra, entry_extra, stats_keys",
        [
            (
                {"protocol": "ekert", "source": {"type": "ideal-epr"}, "channel": BASE_CHANNEL},
                10.0,
                {"stats", "key_budget"},
                {"stats"},
                {"p_true", "p_false", "p_coin", "e"},
            ),
            (
                {"protocol": "bb84", "source": "optimize", "channel": BASE_CHANNEL},
                10.0,
                {"optimal_param", "stats", "key_budget"},
                {"optimal_param", "stats"},
                {"p_click", "e", "beta"},
            ),
            (
                {"protocol": "ekert", "source": {"type": "ideal-epr"}, "channel": BASE_CHANNEL},
                300.0,
                {"stats", "note"},
                {"stats"},
                {"p_true", "p_false", "p_coin", "e"},
            ),
            (
                {
                    "protocol": "bb84",
                    "source": {"type": "poisson", "nbar": 0.5},
                    "channel": {"dark_count_prob": 5e-324},
                },
                1e308,
                {"note"},
                {"note"},
                set(),
            ),
        ],
        ids=["fixed-positive", "optimized", "zero-rate", "no-stats"],
    )
    def test_key_sets(self, tmp_path, capsys, curve, x, report_extra, entry_extra, stats_keys):
        point_path = write_config(tmp_path, {**curve, "point": {"distance_km": x}}, "point.json")
        grid = {"mode": "distance", "start_km": x, "stop_km": 1.5 * x, "step_km": x}
        sweep_path = write_config(tmp_path, {**curve, "sweep": grid}, "sweep.json")
        assert main(["rate", "--config", point_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert main(["sweep", "--format", "json", "--config", sweep_path]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert set(report) == REPORT_KEYS | report_extra
        assert [set(entry) for entry in entries] == [ENTRY_KEYS | entry_extra]
        for point in (report, *entries):
            assert set(point.get("stats", {})) == stats_keys
        if "key_budget" in report_extra:
            assert set(report["key_budget"]) == KEY_BUDGET_KEYS


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["rate", "sweep", "verify"])
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_exits_2(self, tmp_path, capsys, command, target):
        curve = {"protocol": "ekert", "source": {"type": "ideal-epr"}, "channel": BASE_CHANNEL}
        if command == "rate":
            cfg = {**curve, "point": {"distance_km": 10.0}}
            argv = ["rate", "--config", write_config(tmp_path, cfg)]
        elif command == "sweep":
            grid = {"mode": "distance", "start_km": 0, "stop_km": 20, "step_km": 10}
            cfg = {**curve, "sweep": grid}
            argv = ["sweep", "--config", write_config(tmp_path, cfg)]
        else:
            argv = ["verify", "--suite", "multi-photon"]
        out = tmp_path / "missing" / "out" if target == "missing-directory" else tmp_path
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write output {out}: ")


class TestSweepCommand:
    def test_csv_output(self, tmp_path):
        cfg = {
            "protocol": "ekert",
            "source": {"type": "ideal-epr"},
            "channel": BASE_CHANNEL,
            "sweep": {"mode": "distance", "start_km": 0.0, "stop_km": 20.0, "step_km": 10.0},
        }
        out = tmp_path / "curve.csv"
        code = main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "curve,abscissa,rate_raw,rate_clamped,optimal_param,"
            "p_true_or_signal,p_false_or_dark,e"
        )
        assert len(lines) == 4
        assert out.read_bytes().endswith(b"\n")
        assert b"\r" not in out.read_bytes()

    def test_csv_quotes_labels_that_hold_separators(self, tmp_path):
        labels = ["ideal, pair\nx", 'say "pair"', "carriage\rreturn", "plain"]
        cfg = {
            "curves": [
                {"label": label, "protocol": "ekert", "source": {"type": "ideal-epr"}} for label in labels
            ],
            "channel": BASE_CHANNEL,
            "sweep": {"mode": "distance", "start_km": 0.0, "stop_km": 20.0, "step_km": 10.0},
        }
        out = tmp_path / "curve.csv"
        assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [8] * (1 + 3 * len(labels))
        assert [row[0] for row in rows[1:]] == [label for label in labels for _ in range(3)]
        # a plain label is written as it is
        assert out.read_text().endswith("\n".join(",".join(row) for row in rows[-3:]) + "\n")

    def test_json_output(self, tmp_path):
        cfg = {
            "protocol": "bb84",
            "source": {"type": "poisson", "nbar": 0.1},
            "channel": BASE_CHANNEL,
            "sweep": {"mode": "distance", "start_km": 0.0, "stop_km": 10.0, "step_km": 5.0},
        }
        out = tmp_path / "curve.json"
        code = main(
            ["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out), "--format", "json"]
        )
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 3
        assert all(row["curve"] == "bb84" for row in rows)

    @pytest.mark.parametrize(
        "source, note",
        [
            ({"type": "pdc", "chi": 200.0}, "math range error"),
            ({"type": "pdc", "chi": 1e300}, "math range error"),
            ({"type": "swap", "n_swaps": 10**308}, "int too large to convert to float"),
        ],
        ids=["cosh4-overflow", "chi-overflow", "n_swaps-overflow"],
    )
    def test_overflowing_source_is_a_curve_of_notes(self, tmp_path, capsys, source, note):
        # a swap count past float range once raised out of the sweep's
        # transmissions, where rate gives a zero-rate point with this note
        cfg = {
            "protocol": "ekert",
            "source": source,
            "channel": BASE_CHANNEL,
            "sweep": {"mode": "distance", "start_km": 0.0, "stop_km": 20.0, "step_km": 10.0},
        }
        path = write_config(tmp_path, cfg)
        assert main(["sweep", "--config", path, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [(row["rate_raw"], row.get("stats"), row["note"]) for row in rows] == [(0.0, None, note)] * 3
        assert main(["sweep", "--config", path]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [line.split(",", 1)[1] for line in lines] == [f"{x},0.0,0.0,,,," for x in ("0.0", "10.0", "20.0")]

    def test_mismatched_curve_exits_2(self, tmp_path, capsys):
        cfg = {
            "curves": [
                {"label": "fine", "protocol": "ekert", "source": {"type": "ideal-epr"}},
                {"label": "mismatch", "protocol": "bb84", "source": {"type": "ideal-epr"}},
            ],
            "channel": BASE_CHANNEL,
            "sweep": {"mode": "distance", "start_km": 0.0, "stop_km": 20.0, "step_km": 10.0},
        }
        out = tmp_path / "curve.csv"
        assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert "does not serve protocol 'bb84'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid",
        [
            {"start_km": 0, "stop_km": 1e300, "step_km": 1e-300},
            {"start_km": 0, "stop_km": 100_000, "step_km": 1},
            {"start_km": -10, "stop_km": 10, "step_km": 5},
        ],
        ids=["overflowing", "over-cap", "negative-start"],
    )
    def test_unbounded_grid_exits_2(self, tmp_path, capsys, grid):
        cfg = {
            "protocol": "ekert",
            "source": {"type": "ideal-epr"},
            "channel": BASE_CHANNEL,
            "sweep": {"mode": "distance", **grid},
        }
        out = tmp_path / "curve.csv"
        assert main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["fig3a_fiber", "fig3b_freespace", "fig5_swaps"])
    def test_shipped_sweep_matches_reference(self, tmp_path, name, bench_module):
        out = tmp_path / f"{name}.csv"
        assert main(["sweep", "--config", shipped_config(f"{name}.json"), "--out", str(out)]) == 0
        reference = (REFERENCE_DIR / f"{name}.csv").read_text()
        assert bench_module("check").compare_sweep_csv(out.read_text(), reference) == []

    @pytest.mark.parametrize("name", ["fig3a_fiber", "fig3b_freespace", "fig5_swaps"])
    def test_shipped_sweep_is_byte_identical_to_reference(self, tmp_path, name):
        out = tmp_path / f"{name}.csv"
        assert main(["sweep", "--config", shipped_config(f"{name}.json"), "--out", str(out)]) == 0
        assert out.read_bytes() == (REFERENCE_DIR / f"{name}.csv").read_bytes()

    @pytest.mark.parametrize("name", ["fig3a_fiber", "fig3b_freespace", "fig5_swaps"])
    def test_shipped_json_sweep_matches_reference(self, tmp_path, name):
        # the JSON rows come from SweepColumns.points(); each value must be
        # the reference CSV's, repr for repr (json keeps a float's repr)
        out = tmp_path / f"{name}.json"
        config_path = shipped_config(f"{name}.json")
        assert main(["sweep", "--config", config_path, "--out", str(out), "--format", "json"]) == 0
        rows = json.loads(out.read_text())
        lines = (REFERENCE_DIR / f"{name}.csv").read_text().splitlines()[1:]
        p_dark = dark_click_prob(load_config(config_path).channel.d, BB84_DETECTORS)
        assert len(rows) == len(lines)
        for row, line in zip(rows, lines):
            stats = row.get("stats")
            if stats is None:
                assert "note" in row, line
                columns = ["", "", ""]
            elif "p_click" in stats:
                columns = [repr(stats["p_click"] - p_dark), repr(p_dark), repr(stats["e"])]
            else:
                columns = [repr(stats["p_true"]), repr(stats["p_false"]), repr(stats["e"])]
            param = repr(row["optimal_param"]) if "optimal_param" in row else ""
            values = [row["curve"], repr(row["abscissa"]), repr(row["rate_raw"]), repr(row["rate"]), param]
            assert values + columns == line.split(","), line

    @pytest.mark.parametrize("name", ["fig3a_fiber", "fig3b_freespace"])
    def test_optimized_rows_match_point_rate(self, name, bench_module):
        # sweep optimizes all rows in lockstep; point_rate(src=None) runs the
        # scalar optimizer for one abscissa
        config = load_config(shipped_config(f"{name}.json"))
        rtol = bench_module("check").RTOL
        optimized = [curve for curve in config.curves if curve.source is None]
        assert {curve.protocol for curve in optimized} == {"bb84", "ekert"}
        for curve in optimized:
            spec = cli._sweep_spec(config, curve)
            for pt in sweep(spec).points():
                ref = point_rate(curve.protocol, None, config.channel, pt.abscissa, config.mode)
                where = f"{curve.label} @ {pt.abscissa}"
                assert (pt.rate > 0.0) == (ref.rate > 0.0), where
                assert pt.optimal_param == pytest.approx(ref.optimal_param, rel=rtol, abs=0.0), where

    def test_swap_bundle_runs(self, tmp_path):
        out = tmp_path / "fig5.csv"
        code = main(["sweep", "--config", shipped_config("fig5_swaps.json"), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 3 * 101


def plain_sweep_csv(config, curves):
    """The sweep CSV with every value formatted on its own by repr; the
    dark-click column is computed for ClickStats rows only."""
    lines = ["curve,abscissa,rate_raw,rate_clamped,optimal_param,p_true_or_signal,p_false_or_dark,e"]
    for label, points in curves:
        for pt in points:
            if pt.stats is None:
                columns = (None, None, None)
            elif isinstance(pt.stats, ClickStats):
                p_dark = dark_click_prob(config.channel.d, BB84_DETECTORS)
                columns = (pt.stats.p_click - p_dark, p_dark, pt.stats.e)
            else:
                columns = (pt.stats.p_true, pt.stats.p_false, pt.stats.e)
            values = (pt.abscissa, pt.rate_raw, max(0.0, pt.rate_raw), pt.optimal_param, *columns)
            lines.append(",".join([label, *("" if v is None else repr(float(v)) for v in values)]))
    return "\n".join(lines) + "\n"


def scalar_curves(config):
    """(label, points) of every curve with one scalar call per row:
    point_rate at a fixed source, or at the free source of the lockstep
    optimizer's parameter, which the row carries."""
    curves = []
    for curve in config.curves:
        spec = cli._sweep_spec(config, curve)
        xs, p, mode = spec.grid(), config.channel, config.mode
        if curve.source is None:
            alpha = protocols._transmissions(curve.protocol, None, p, np.array(xs), mode, _ROW_MATHS.power)
            params = _optimal_params(curve.protocol, p, alpha).tolist()
            points = [
                dataclasses.replace(
                    point_rate(curve.protocol, protocols._free_source(curve.protocol, v), p, x, mode),
                    optimal_param=v,
                )
                for x, v in zip(xs, params)
            ]
        else:
            points = [point_rate(curve.protocol, curve.source, p, x, mode) for x in xs]
        curves.append((curve.label, points))
    return curves


def columns_of(protocol, points):
    """The SweepColumns of a list of points, such as hand-built ones."""
    fields = ("p_click", "e", "beta") if protocol == "bb84" else ("p_true", "p_false", "e")
    params = [pt.optimal_param for pt in points]
    return SweepColumns(
        protocol=protocol,
        abscissa=np.array([pt.abscissa for pt in points]),
        rate_raw=np.array([pt.rate_raw for pt in points]),
        optimal_param=None if params[0] is None else np.array(params),
        stats=tuple(
            np.array([getattr(pt.stats, field) if pt.stats else 0.0 for pt in points]) for field in fields
        ),
        notes={i: pt.note for i, pt in enumerate(points) if pt.stats is None},
    )


class TestSweepCsv:
    """cli._sweep_csv writes each column of a sweep's SweepColumns in one
    pass; its text is that of plain_sweep_csv on the scalar path's rows."""

    CONFIG = {
        "curves": [
            {"label": "opt", "protocol": "bb84"},
            {"label": "pair", "protocol": "ekert", "source": {"type": "ideal-epr"}},
        ],
        "channel": BASE_CHANNEL,
        "sweep": {"mode": "distance", "start_km": -0.0, "stop_km": 20.0, "step_km": 10.0},
    }

    def test_hand_built_rows(self):
        config = parse_config(self.CONFIG)
        p_dark = dark_click_prob(config.channel.d, BB84_DETECTORS)
        xs = (-0.0, 10.0, 1.0 / 3.0)
        click = ClickStats(p_click=0.01 + p_dark, e=0.03, beta=0.9)
        coincidence = CoincidenceStats(p_true=1e-4, p_false=3e-7, e=0.012)
        curves = [
            ("opt", [
                RatePoint(xs[0], 1.234e-4, optimal_param=0.3, stats=click),
                RatePoint(xs[1], -2.5e-7, optimal_param=1.0 / 7.0, stats=click),
                RatePoint(xs[2], 0.0, optimal_param=1.0, note="degenerate statistics"),
            ]),
            ("pair", [
                RatePoint(xs[0], -0.0, stats=coincidence),
                RatePoint(xs[1], 3.0e-6, stats=coincidence),
                RatePoint(xs[2], 0.0, note="degenerate statistics"),
            ]),
        ]
        columns = [(label, columns_of(protocol, points)) for (label, points), protocol in zip(curves, ("bb84", "ekert"))]
        assert [curve.points() for _, curve in columns] == [points for _, points in curves]
        text = cli._sweep_csv(config, columns)
        assert text == plain_sweep_csv(config, curves)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [row[1] for row in rows] == ["-0.0", "10.0", repr(1.0 / 3.0)] * 2
        assert [row[3] for row in rows] == ["0.0001234", "0.0", "0.0", "0.0", "3e-06", "0.0"]

    def test_sweep_without_bb84_rows_ignores_the_dark_click_model(self, tmp_path):
        # d = 0.3 puts four bb84 detectors past the linear model, which an
        # ekert-only sweep never uses: CSV must exit 0 like JSON
        cfg = {
            "curves": [{"label": "pair", "protocol": "ekert", "source": {"type": "ideal-epr"}}],
            "channel": {**BASE_CHANNEL, "dark_count_prob": 0.3},
            "sweep": {"mode": "distance", "start_km": 0.0, "stop_km": 20.0, "step_km": 10.0},
        }
        path = write_config(tmp_path, cfg)
        for fmt in ("csv", "json"):
            out = tmp_path / f"curve.{fmt}"
            assert main(["sweep", "--config", path, "--format", fmt, "--out", str(out)]) == 0
        config = load_config(path)
        assert (tmp_path / "curve.csv").read_text() == plain_sweep_csv(config, scalar_curves(config))
        assert len(json.loads((tmp_path / "curve.json").read_text())) == 3

    def test_negative_zero_start(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["sweep", "--config", write_config(tmp_path, self.CONFIG), "--out", str(out)]) == 0
        config = load_config(str(tmp_path / "config.json"))
        assert config.grid[0] == 0.0 and math.copysign(1.0, config.grid[0]) == -1.0
        assert out.read_text() == plain_sweep_csv(config, scalar_curves(config))

    def test_rows_the_array_pass_rejects(self, tmp_path):
        # every row of the chi = 200 curve overflows cosh(chi)**4 and falls
        # back to point_rate; without dark counts the ideal-single curve's
        # click probability falls below the smallest normal float past about
        # 15,340 km (the 16,000 km row is subnormal, not zero); d = 0.26 puts
        # the bb84 curve past the linear model at every row
        cfg = {
            "curves": [
                {"label": "hot", "protocol": "ekert", "source": {"type": "pdc", "chi": 200.0}},
                {"label": "single", "protocol": "bb84", "source": {"type": "ideal-single"}},
                {"label": "opt", "protocol": "ekert"},
            ],
            "channel": {**BASE_CHANNEL, "dark_count_prob": 0.0},
            "sweep": {"mode": "distance", "start_km": 0.0, "stop_km": 40000.0, "step_km": 4000.0},
        }
        for d, blank in ((0.0, 7), (0.26, 11)):
            cfg["channel"]["dark_count_prob"] = d
            path = write_config(tmp_path, cfg)
            out = tmp_path / "curve.csv"
            assert main(["sweep", "--config", path, "--out", str(out)]) == 0
            config = load_config(path)
            assert out.read_text() == plain_sweep_csv(config, scalar_curves(config))
            rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
            assert all(row[5:] == ["", "", ""] for row in rows[:11])
            assert sum(row[5:] == ["", "", ""] for row in rows[11:22]) == blank


class TestOptimizeAndCutoffCommands:
    def test_optimize_reports_parameter(self, tmp_path, capsys):
        cfg = {
            "protocol": "ekert",
            "source": "optimize",
            "channel": BASE_CHANNEL,
            "point": {"distance_km": 50.0},
        }
        assert main(["optimize", "--config", write_config(tmp_path, cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 < report["optimal_param"] < 1.0
        assert report["rate_bits_per_pulse"] > 0.0

    def test_cutoff_bisects(self, tmp_path, capsys):
        cfg = {
            "protocol": "bb84",
            "source": {"type": "ideal-single"},
            "channel": BASE_CHANNEL,
            "point": {"distance_km": 1.0},
            "cutoff": {"search_low_km": 1.0, "search_high_km": 400.0},
        }
        assert main(["cutoff", "--config", write_config(tmp_path, cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 100.0 < report["cutoff_km"] < 120.0


class TestPerCurveCommands:
    """rate, optimize and cutoff write one report per curve: a single curve's
    report bare, several under the command's key in curve order."""

    CURVES = (
        {"label": "pair", "protocol": "ekert", "source": "optimize"},
        {"label": "weak pulses", "protocol": "bb84", "source": "optimize"},
    )

    def output(self, tmp_path, capsys, command, curves):
        cfg = {"curves": list(curves), "channel": BASE_CHANNEL, "point": {"distance_km": 20.0}}
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 0
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize(
        "command, key, field",
        [("rate", "points", "rate_bits_per_pulse"), ("optimize", "points", "optimal_param"),
         ("cutoff", "curves", "cutoff_km")],
    )
    def test_one_curve_is_bare_and_several_are_keyed(self, tmp_path, capsys, command, key, field):
        alone = [self.output(tmp_path, capsys, command, [curve]) for curve in self.CURVES]
        assert all(field in report for report in alone)
        assert self.output(tmp_path, capsys, command, self.CURVES) == {key: alone}
        assert self.output(tmp_path, capsys, command, self.CURVES[::-1]) == {key: alone[::-1]}

    @pytest.mark.parametrize(
        "command, needed", [("rate", "point"), ("optimize", "point"), ("sweep", "sweep")]
    )
    def test_config_of_the_other_kind_exits_2(self, tmp_path, capsys, command, needed):
        given = {
            "point": {"sweep": {"mode": "distance", "start_km": 0, "stop_km": 10, "step_km": 5}},
            "sweep": {"point": {"distance_km": 20.0}},
        }[needed]
        cfg = {"curves": list(self.CURVES), "channel": BASE_CHANNEL, **given}
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the {command} command needs a '{needed}' config\n"

    def test_optimize_rejects_a_fixed_source(self, tmp_path, capsys):
        cfg = {
            "curves": [
                self.CURVES[0],
                {"label": "chain", "protocol": "ekert", "source": {"type": "swap", "n_swaps": 1}},
            ],
            "channel": BASE_CHANNEL,
            "point": {"distance_km": 100.0},
        }
        assert main(["optimize", "--config", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "'chain'" in captured.err and "swap" in captured.err


class TestParser:
    """The parser is built once per process and reused by every main call."""

    COMMANDS = {
        "rate": cli._cmd_per_curve,
        "sweep": cli._cmd_sweep,
        "optimize": cli._cmd_per_curve,
        "cutoff": cli._cmd_per_curve,
        "verify": cli._cmd_verify,
    }

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_commands_and_suites(self):
        parser = cli._build_parser()
        for command, run in self.COMMANDS.items():
            argv = [command, "--suite", "all"] if command == "verify" else [command, "--config", "c.json"]
            assert parser.parse_args(argv).run is run
        for suite in [*verify.VERIFY_SUITES, "all"]:
            assert parser.parse_args(["verify", "--suite", suite]).suite == suite

    def test_calls_in_turn_behave_as_alone(self, tmp_path, capsys):
        cfg = {
            "protocol": "ekert",
            "source": {"type": "ideal-epr"},
            "channel": BASE_CHANNEL,
            "sweep": {"mode": "distance", "start_km": 0.0, "stop_km": 20.0, "step_km": 10.0},
        }
        path = write_config(tmp_path, cfg)
        calls = (
            ["sweep", "--config", path],
            ["verify", "--suite", "multi-photon"],
            ["sweep", "--config", path, "--bogus"],
        )

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            return code, *capsys.readouterr()

        alone = []
        for argv in calls:
            cli._build_parser.cache_clear()
            alone.append(run(argv))
        in_turn = [run(argv) for argv in calls + calls]
        assert [code for code, _, _ in alone] == [0, 0, 2]
        assert "unrecognized arguments: --bogus" in alone[2][2]
        assert in_turn == alone + alone


class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys):
        assert main(["verify", "--suite", "multi-photon"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert "single_photon_anomaly" in report

    def test_failed_oracle_structure_check_is_a_failed_property(self, capsys, monkeypatch):
        build = fockoracle.build_pdc_state

        def polarized(chi, n_max):
            # an x/x pair, which the pair state never holds, polarizes the one-photon sectors
            state = build(chi, n_max)
            return fockoracle.FockVector(amps={**state.amps, (1, 0, 1, 0): 0.05})

        monkeypatch.setattr(fockoracle, "build_pdc_state", polarized)
        assert main(["verify", "--suite", "pdc-oracle"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False
        assert report["properties"][0]["pass"] is False
        assert all("error" in row and "oracle" not in row for row in report["grid"])
        assert report["grid"][0]["error"] == "sector (1, 0) is not unpolarized"

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nonsense"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_run_verify_suite_rejects_unknown(self):
        with pytest.raises(ConfigError):
            run_verify_suite("nonsense")

    def test_run_verify_suite_lives_with_the_suites(self):
        # the CLI re-exports the runner and its error from the modules that define them
        assert cli.run_verify_suite is verify.run_verify_suite
        assert cli.ConfigError is sources.ConfigError

    def test_all_matches_reference(self, bench_module):
        # bench/run.py traces cli.VERIFY_SUITES; it must be the dict the suites live in
        assert cli.VERIFY_SUITES is verify.VERIFY_SUITES
        reference = json.loads((REFERENCE_DIR / "verify.json").read_text())
        assert bench_module("check").compare_tree(run_verify_suite("all"), reference) == []

    def test_suites_call_traced_functions_through_their_modules(self, bench_module):
        # the tracer rebinds these names only inside the modules it knows, so a
        # copy bound in qkdrates.verify would escape the per-layer counts
        tracing = bench_module("tracing")
        namespaces = tracing.namespaces()
        traced = [getattr(namespaces[module], func) for module, func, _ in tracing.LAYERS]
        bound = [name for name, value in vars(verify).items() if any(value is fn for fn in traced)]
        assert bound == []
