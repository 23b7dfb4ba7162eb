"""Tests of the package as installed code: what importing it pulls in."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

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
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL], env=env, capture_output=True, text=True, check=True
    ).stdout
    names, loaded = json.loads(out)
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
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", _LAZY_ORACLE], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == [False, 0, True, True]
