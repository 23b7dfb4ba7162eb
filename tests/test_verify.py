"""Resource guard for the verification suites."""

import tracemalloc

import pytest

from qkdrates import security, verify

# The largest suite, pdc-oracle, peaks near 3.2 MiB with its four states'
# shared loss expansion, and near 4.2 MiB on its first run in a process, which
# also loads fockoracle.
# Evaluating a whole grid at once (a 50^3 attack meshgrid, every hash seed in
# one histogram) would pass 5 MiB.
PEAK_LIMIT = 5 * 2**20


@pytest.mark.parametrize("name", list(verify.VERIFY_SUITES))
def test_suite_memory_peak(name):
    # measure the cold path: privacy-amp builds its hash keys only when the
    # cache is empty, and an earlier test may have filled it
    security._exhaustive_key_blocks.cache_clear()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = verify.VERIFY_SUITES[name]()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert all(p["pass"] for p in report["properties"])
    assert peak <= PEAK_LIMIT, f"{name} peaked at {peak / 2**20:.2f} MiB"
