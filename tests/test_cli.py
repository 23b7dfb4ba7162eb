"""Tests for the command-line interface and configuration handling."""

import importlib.util
import json
from importlib import resources
from pathlib import Path

import pytest

from qkdrates.cli import (
    ConfigError,
    config_to_dict,
    load_config,
    main,
    parse_config,
    run_verify_suite,
)

BASE_CHANNEL = {
    "sigma_db_per_km": 0.2,
    "detector_efficiency": 0.18,
    "receiver_loss_db": 1.0,
    "dark_count_prob": 5e-05,
    "baseline_error_fraction": 0.01,
}
SIGMA_FREE_CHANNEL = {k: v for k, v in BASE_CHANNEL.items() if k != "sigma_db_per_km"}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def shipped_config(name):
    return str(resources.files("qkdrates") / "configs" / name)


REFERENCE_DIR = Path(__file__).resolve().parents[1] / "bench" / "reference"


def bench_check():
    """The benchmark's output comparator, bench/check.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "bench_check", REFERENCE_DIR.parent / "check.py"
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
        assert bench_check().compare_sweep_csv(out.read_text(), reference) == []

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
