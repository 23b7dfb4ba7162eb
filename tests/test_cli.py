"""Tests for the command-line interface and configuration handling."""

import importlib.util
import json
import math
from importlib import resources
from pathlib import Path

import pytest

from qkdrates import cli, verify
from qkdrates.cli import (
    ConfigError,
    config_to_dict,
    load_config,
    main,
    parse_config,
    run_verify_suite,
)
from qkdrates.protocols import OptimizeResult

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


def bench_module(name):
    """A module of the benchmark, such as bench/check.py, loaded by path and read only."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", REFERENCE_DIR.parent / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
        for name in ("fig3a_fiber.json", "fig3b_freespace.json", "fig5_swaps.json"):
            config = load_config(shipped_config(name))
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

    @pytest.mark.parametrize(
        "override",
        [
            {"channel": {**BASE_CHANNEL, "receiver_loss_per_arm": "false"}},
            {"source": {"type": "swap", "n_swaps": 1, "literal_exponent": "false"}},
            {"security": {"s_bits": 1.9}},
            {"security": {"t_bits": 1.9}},
            {"security": {"n_tot_pulses": 1.9}},
            {"security": {"s_bits": True}},
            {"channel": [1]},
            {"security": "strict"},
            {"cutoff": [1.0, 400.0]},
            {"point": 100.0},
            {"point": {"distance_km": float("nan")}},
            {"channel": {**BASE_CHANNEL, "sigma_db_per_km": "0.2"}},
            {"channel": {**BASE_CHANNEL, "sigma_db_per_km": 10**400}},
            {"cutoff": {"search_high_km": float("nan")}},
            {"source": {"type": "swap", "n_swaps": 1.9}},
            {"protocol": "bb84", "source": {"type": "poisson", "nbar": "0.1"}},
            {"curves": 5},
            {"curves": [5]},
            {"label": [1]},
            {"channel": {**SIGMA_FREE_CHANNEL, "sigma_db_per_kn": 0.3}},
            {"cutof": {"search_high_km": 400.0}},
            {"point": {"distance_km": -1.0}},
            {"point": {"total_loss_db": -3.0}},
            {"curves": [{"protocol": "ekert", "source": {"type": "ideal-epr"}}]},
            {"source": {"type": "ideal-epr", "source": "pdc", "chi": 0.1}},
            {"source": {"source": "pdc", "chi": 0.1}},
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
        ],
    )
    def test_mistyped_values_exit_2(self, tmp_path, capsys, override):
        cfg = {
            "protocol": "ekert",
            "source": {"type": "ideal-epr"},
            "channel": BASE_CHANNEL,
            "point": {"distance_km": 100.0},
            **override,
        }
        assert main(["rate", "--config", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

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
            ({"type": "pdc", "chi": 1e300}, "math range error"),
            ({"type": "swap", "n_swaps": 10**308}, "int too large to convert to float"),
        ],
        ids=["chi-overflow", "n_swaps-overflow"],
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
        # a subnormal click probability makes beta = (p_click - p_m) / p_click overflow
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
            assert point["note"] == "beta must be finite, got -inf"

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

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["rate", "--config", str(path)]) == 2
        assert "error" in capsys.readouterr().err

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
    def test_shipped_sweep_matches_reference(self, tmp_path, name):
        out = tmp_path / f"{name}.csv"
        assert main(["sweep", "--config", shipped_config(f"{name}.json"), "--out", str(out)]) == 0
        reference = (REFERENCE_DIR / f"{name}.csv").read_text()
        assert bench_module("check").compare_sweep_csv(out.read_text(), reference) == []

    def test_swap_bundle_runs(self, tmp_path):
        out = tmp_path / "fig5.csv"
        code = main(["sweep", "--config", shipped_config("fig5_swaps.json"), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 3 * 101


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


class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys):
        assert main(["verify", "--suite", "multi-photon"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert "single_photon_anomaly" in report

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nonsense"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_run_verify_suite_rejects_unknown(self):
        with pytest.raises(ConfigError):
            run_verify_suite("nonsense")

    def test_all_matches_reference(self):
        # bench/run.py traces cli.VERIFY_SUITES; it must be the dict the suites live in
        assert cli.VERIFY_SUITES is verify.VERIFY_SUITES
        reference = json.loads((REFERENCE_DIR / "verify.json").read_text())
        assert bench_module("check").compare_tree(run_verify_suite("all"), reference) == []

    def test_suites_call_traced_functions_through_their_modules(self):
        # the tracer rebinds these names only inside the modules it knows, so a
        # copy bound in qkdrates.verify would escape the per-layer counts
        tracing = bench_module("tracing")
        namespaces = tracing.namespaces()
        traced = [getattr(namespaces[module], func) for module, func, _ in tracing.LAYERS]
        bound = [name for name, value in vars(verify).items() if any(value is fn for fn in traced)]
        assert bound == []
