"""Tests of the package as installed code: what importing it pulls in."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(code: str, *args: str) -> str:
    """The stdout of a fresh interpreter that runs code with args, the
    package's source on its path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    ).stdout

# numpy is the one runtime dependency; these are test or oracle tools only
TEST_ONLY = ("scipy", "mpmath", "sympy", "hypothesis")

_IMPORT_ALL = f"""
import importlib, json, pkgutil, sys
import qkdrates
names = [m.name for m in pkgutil.iter_modules(qkdrates.__path__)]
for name in names:
    importlib.import_module("qkdrates." + name)
print(json.dumps([names, [m for m in {TEST_ONLY!r} if m in sys.modules]]))
"""


def test_importing_every_module_loads_no_test_only_package():
    names, loaded = json.loads(_python(_IMPORT_ALL))
    assert {"cli", "protocols", "sources", "fockoracle", "verify"} <= set(names)
    assert loaded == []


def _private_names_taken(module: str, lenders: tuple) -> set:
    """The private names, as "lender._name", that a qkdrates module imports
    from the lender modules or reads as their attributes."""
    tree = ast.parse((SRC / "qkdrates" / f"{module}.py").read_text())
    relative = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1]
    modules = {a.asname or a.name: a.name for node in relative if node.module is None for a in node.names}
    taken = {f"{node.module}.{a.name}" for node in relative if node.module in lenders for a in node.names}
    taken |= {
        f"{modules[node.value.id]}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and modules.get(node.value.id) in lenders
    }
    return {name for name in taken if name.split(".")[1].startswith("_")}


def test_protocols_takes_only_the_entry_points_of_sources_and_ratecore():
    # the closed forms, array forms included, stay inside the modules that own
    # them; protocols drives evaluation through these three
    assert _private_names_taken("protocols", ("sources", "ratecore")) == {
        "sources._stats_columns",
        "ratecore._key_rate",
        "ratecore._key_rate_columns",
    }


def test_cli_takes_only_two_private_names_of_the_library():
    # the front end parses configs and writes reports; library logic stays in
    # the library, which it reaches through these two helpers
    lenders = ("protocols", "sources", "ratecore", "channel", "security", "verify", "fockoracle")
    assert _private_names_taken("cli", lenders) == {"protocols._check_request", "protocols._free_source"}


_LAZY_ORACLE = """
import contextlib, io, json, sys
import qkdrates.cli
before = "qkdrates.fockoracle" in sys.modules
with contextlib.redirect_stdout(io.StringIO()) as report:
    status = qkdrates.cli.main(["verify", "--suite", "dephasing"])
print(json.dumps([before, status, json.loads(report.getvalue())["pass"], "qkdrates.fockoracle" in sys.modules]))
"""


def test_cli_import_leaves_the_oracle_unloaded_until_a_suite_needs_it():
    # rate, sweep, optimize and cutoff runs start with this import and never
    # use the oracle; verify loads it with the first suite that does
    assert json.loads(_python(_LAZY_ORACLE)) == [False, 0, True, True]


# Imports the package and its CLI, then runs each command line given as a
# JSON list; prints, after each step, its name, the command's exit status
# and whether numpy is loaded.
_LAZY_NUMPY = """
import contextlib, io, json, sys
import qkdrates
steps = [["import qkdrates", None, "numpy" in sys.modules]]
import qkdrates.cli
steps.append(["import qkdrates.cli", None, "numpy" in sys.modules])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        status = qkdrates.cli.main(argv)
    steps.append([argv[0], status, "numpy" in sys.modules])
print(json.dumps(steps))
"""

_CHANNEL = {"sigma_db_per_km": 0.2, "detector_efficiency": 0.18, "receiver_loss_db": 1.0,
            "dark_count_prob": 5e-05, "baseline_error_fraction": 0.01}
_CONFIGS = {
    "fixed.json": {"protocol": "ekert", "source": {"type": "ideal-epr"}, "channel": _CHANNEL,
                   "point": {"distance_km": 100.0}},
    "optimized.json": {"curves": [{"label": "pdc", "protocol": "ekert", "source": "optimize"},
                                  {"label": "poisson", "protocol": "bb84", "source": "optimize"}],
                       "channel": _CHANNEL, "point": {"distance_km": 20.0}},
    "sweep.json": {"protocol": "ekert", "source": {"type": "ideal-epr"}, "channel": _CHANNEL,
                   "sweep": {"mode": "distance", "start_km": 0.0, "stop_km": 20.0, "step_km": 10.0}},
}


def _numpy_steps(tmp_path, commands: list) -> list:
    """_LAZY_NUMPY's steps for the command lines, each a string whose
    _CONFIGS names become paths of those configs written under tmp_path."""
    for name, cfg in _CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(cfg))
    argvs = [[str(tmp_path / arg) if arg in _CONFIGS else arg for arg in line.split()] for line in commands]
    return json.loads(_python(_LAZY_NUMPY, json.dumps(argvs)))


def test_import_and_scalar_commands_leave_numpy_unloaded(tmp_path):
    # a point rate, a source optimization, a fixed-source cutoff and the
    # multi-photon suite are answered by math; loading numpy for them would
    # more than double the import time
    steps = _numpy_steps(tmp_path, [
        "rate --config fixed.json",
        "rate --config optimized.json",
        "optimize --config optimized.json",
        "cutoff --config fixed.json",
        "verify --suite multi-photon",
    ])
    assert steps == [
        ["import qkdrates", None, False],
        ["import qkdrates.cli", None, False],
        ["rate", 0, False],
        ["rate", 0, False],
        ["optimize", 0, False],
        ["cutoff", 0, False],
        ["verify", 0, False],
    ]


@pytest.mark.parametrize("command", [
    "sweep --config sweep.json", "cutoff --config optimized.json", "verify --suite attack-bound",
], ids=["sweep", "optimized-cutoff", "verify"])
def test_array_commands_load_numpy(tmp_path, command):
    steps = _numpy_steps(tmp_path, [command])
    assert [step[1:] for step in steps] == [[None, False], [None, False], [0, True]]
