"""Fixtures shared by the test modules."""

import importlib.util
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench_module():
    """The loader of a benchmark module by name: bench_module("check") is
    bench/check.py, loaded by path and read only."""

    def load(name):
        spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load
