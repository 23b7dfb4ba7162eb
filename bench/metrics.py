"""Timing statistics, set-up timing and the run environment record."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

TAIL_BEYOND = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
_IMPORT_TIMER = (
    "import importlib, sys, time; t = time.perf_counter(); "
    "importlib.import_module(sys.argv[1] + '.cli'); print(repr(time.perf_counter() - t))"
)


def tail(samples: list) -> dict:
    """Highest percentile of samples with at least TAIL_BEYOND samples above it.

    The value is the (TAIL_BEYOND + 1)-th largest sample, whose percentile
    rank is 100 * k / (n - 1) for its 0-based sorted index k. With fewer than
    2 * TAIL_BEYOND + 1 samples that rank would fall at or below the median,
    so the maximum is reported instead, with rank 100 and nothing beyond it.

    Returns:
        {"value", "percentile", "beyond", "n"}.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    k = n - 1 - TAIL_BEYOND
    if 2 * k <= n - 1:
        return {"value": ordered[-1], "percentile": 100.0, "beyond": 0, "n": n}
    return {"value": ordered[k], "percentile": 100.0 * k / (n - 1), "beyond": n - 1 - k, "n": n}


def median(samples) -> float:
    return statistics.median(samples)


def measure_setup(root: Path, repeats: int = SETUP_REPEATS) -> tuple:
    """Seconds fresh interpreters take to import the program's cli, and the
    frozen baseline's, alternating which goes first.

    One untimed import of each runs first so that every timed one finds the
    byte-code cache written. Returns (program times, baseline times).
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "bench" / "baseline")]))
    times: dict = {"qkdrates": [], "qkdrates_baseline": []}
    for i in range(repeats + 1):
        order = list(times) if i % 2 else list(reversed(times))
        for package in order:
            done = subprocess.run(
                [sys.executable, "-c", _IMPORT_TIMER, package],
                cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            if i:
                times[package].append(float(done.stdout))
    return times["qkdrates"], times["qkdrates_baseline"]


def _git_commit(root: Path) -> str | None:
    """HEAD commit read from the .git directory itself, without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: Path) -> str:
    """SHA-256 over the package sources, identifying a checkout without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "qkdrates").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int, load_at_start: tuple) -> dict:
    import numpy

    return {
        "commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "seed": seed,
        "loadavg_at_start": list(load_at_start),
    }
