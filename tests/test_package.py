"""Tests of the package as installed code: what importing it pulls in."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import typing
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


def test_every_public_annotation_resolves():
    # documentation generators and other tools evaluate annotations in the
    # defining module's namespace, where a name the module never imports fails
    import qkdrates

    unresolved = []
    for info in pkgutil.iter_modules(qkdrates.__path__):
        module = importlib.import_module(f"qkdrates.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                try:
                    typing.get_type_hints(obj)
                except NameError as error:
                    unresolved.append(f"{info.name}.{name}: {error}")
    assert unresolved == []


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
    # the closed forms stay inside the modules that own them; protocols drives
    # scalar evaluation through _key_rate, and its array passes in grid run
    # the same bodies through _stats_columns and ratecore's closed forms
    assert _private_names_taken("protocols", ("sources", "ratecore")) == {"ratecore._key_rate"}
    assert _private_names_taken("grid", ("sources", "ratecore")) == {
        "sources._stats_columns",
        "ratecore._EC_KNOTS",
        "ratecore._EC_SEGMENTS",
        "ratecore._ec_line",
        "ratecore._entropy",
        "ratecore._live",
        "ratecore._quadratic_bound",
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


# numpy and the two modules that import it at the top for the array passes
_ARRAY_MODULES = ("numpy", "qkdrates.grid", "qkdrates.verifiers")
# Imports the package and its CLI, then runs each command line given as a
# JSON list; prints, after each step, its name, the command's exit status
# and which _ARRAY_MODULES are loaded.
_LAZY_NUMPY = f"""
import contextlib, io, json, sys
def loaded():
    return [name for name in {_ARRAY_MODULES!r} if name in sys.modules]
import qkdrates
steps = [["import qkdrates", None, loaded()]]
import qkdrates.cli
steps.append(["import qkdrates.cli", None, loaded()])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        status = qkdrates.cli.main(argv)
    steps.append([argv[0], status, loaded()])
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
    # multi-photon suite are answered by math; loading numpy, or the array
    # modules that import it, for them would more than double the import time
    steps = _numpy_steps(tmp_path, [
        "rate --config fixed.json",
        "rate --config optimized.json",
        "optimize --config optimized.json",
        "cutoff --config fixed.json",
        "verify --suite multi-photon",
    ])
    assert steps == [
        ["import qkdrates", None, []],
        ["import qkdrates.cli", None, []],
        ["rate", 0, []],
        ["rate", 0, []],
        ["optimize", 0, []],
        ["cutoff", 0, []],
        ["verify", 0, []],
    ]


@pytest.mark.parametrize("command, loaded", [
    ("sweep --config sweep.json", ["numpy", "qkdrates.grid"]),
    ("cutoff --config optimized.json", ["numpy", "qkdrates.grid"]),
    ("verify --suite attack-bound", ["numpy", "qkdrates.verifiers"]),
    ("verify --suite privacy-amp", ["numpy", "qkdrates.verifiers"]),
], ids=["sweep", "optimized-cutoff", "verify", "verify-privacy-amp"])
def test_array_commands_load_numpy(tmp_path, command, loaded):
    steps = _numpy_steps(tmp_path, [command])
    assert [step[1:] for step in steps] == [[None, []], [None, []], [0, loaded]]


def _load_bench_tracing():
    """bench/tracing.py, loaded by path; nothing in it is changed."""
    spec = importlib.util.spec_from_file_location("bench_tracing", SRC.parent / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _modules() -> dict:
    """The parsed source of every qkdrates module, by module name."""
    return {path.stem: ast.parse(path.read_text()) for path in sorted((SRC / "qkdrates").glob("*.py"))}


def _own_nodes(function):
    """The nodes of a function's body, without those of functions or
    classes defined inside it."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _imports_numpy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "numpy"


def test_numpy_is_imported_at_the_top_of_the_array_modules():
    # the array passes live in modules that import numpy at the top (grid,
    # verifiers, fockoracle), and the scalar modules reach them through a
    # function-level import of that module, never of numpy
    inside = [
        f"{module}.{function.name}"
        for module, tree in _modules().items()
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in _own_nodes(function)
        if _imports_numpy(node)
    ]
    assert inside == []
    at_the_top = [module for module, tree in _modules().items() if any(map(_imports_numpy, tree.body))]
    assert at_the_top == ["fockoracle", "grid", "verifiers"]


def test_no_untraced_module_binds_a_traced_function():
    # the tracer wraps each LAYERS function at the module attributes of the
    # namespaces it searches; a traced function bound by a from-import in any
    # other module would run unwrapped there, its calls uncounted, and no
    # error would say so
    tracing = _load_bench_tracing()
    traced = {(module, function) for module, function, _ in tracing.LAYERS}
    searched = {"__init__" if name == "qkdrates" else name for name in tracing.namespaces()}
    assert set(tracing.MODULES) < searched
    modules = _modules()
    bindings = [
        f"{module}: from {node.module} import {alias.name}"
        for module, tree in modules.items()
        if module not in searched
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or node.module.startswith("qkdrates."))
        for alias in node.names
        if ((node.module or "").rpartition(".")[2], alias.name) in traced
    ]
    assert bindings == []
    assert set(modules) - searched == {"grid", "verifiers", "verify"}
