"""Tests of the package as installed code: what importing it pulls in."""

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
