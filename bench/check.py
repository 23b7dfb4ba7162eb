"""Output checks against references recorded at the commit that defined the
benchmark, and invariants for seeded outputs that have no stored reference.

Tolerances:

- Labels, abscissae, empty fields and zero-versus-positive rate status must
  match exactly.
- Other floats must agree to RTOL = 1e-9 relative. That passes a last-ulp
  change (about 1e-16, amplified at most a few hundred times through the
  optimizer) and fails any change of the physics, which moves rates by far
  more. Rates are compared relative to max(|a|, |b|, p_sift / 2), the size of
  the two terms whose difference the rate is, so that a point near its
  cutoff, where the difference cancels, is not held to a tighter bound than
  its terms.
- Verify reports are compared leaf by leaf with RTOL plus an absolute floor
  of VERIFY_ATOL = 1e-12: deviations sit at rounding level (1e-17 to 1e-10)
  and their property tolerances are 1e-12 or larger.
- Cutoffs must agree within the 0.5 km bisection resolution.
"""

from __future__ import annotations

import math

RTOL = 1e-9
VERIFY_ATOL = 1e-12
CUTOFF_KM = 0.5
CSV_HEADER = "curve,abscissa,rate_raw,rate_clamped,optimal_param,p_true_or_signal,p_false_or_dark,e"
_MAX_PROBLEMS = 5


def close(a: float, b: float, scale: float = 0.0, atol: float = 0.0) -> bool:
    """|a - b| <= RTOL * max(|a|, |b|, scale) + atol."""
    return abs(a - b) <= RTOL * max(abs(a), abs(b), scale) + atol


def parse_csv(text: str) -> list:
    """Rows of a sweep CSV as lists of 8 strings; the header must match."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {lines[:1]!r}")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        if len(row) != 8:
            raise ValueError(f"row has {len(row)} fields, expected 8: {row!r}")
    return rows


def _num(field: str) -> float | None:
    return float(field) if field else None


def sift_scale(row: list) -> float:
    """p_sift / 2 of a row: p_true + p_false, or signal + dark for BB84."""
    if row[5] and row[6]:
        return 0.5 * (float(row[5]) + float(row[6]))
    return 0.0


def compare_sweep_csv(got_text: str, ref_text: str) -> list:
    """Problems found comparing a sweep CSV with its reference; [] if none."""
    try:
        got, ref = parse_csv(got_text), parse_csv(ref_text)
    except ValueError as err:
        return [str(err)]
    if len(got) != len(ref):
        return [f"{len(got)} rows, reference has {len(ref)}"]
    problems = []
    for i, (g, r) in enumerate(zip(got, ref)):
        where = f"row {i} ({r[0]} @ {r[1]})"
        if g[0] != r[0] or _num(g[1]) != _num(r[1]):
            problems.append(f"{where}: label/abscissa {g[0]},{g[1]}")
            continue
        if [bool(f) for f in g] != [bool(f) for f in r]:
            problems.append(f"{where}: empty fields differ")
            continue
        if (float(g[3]) > 0.0) != (float(r[3]) > 0.0):
            problems.append(f"{where}: zero/positive status {g[3]} vs {r[3]}")
            continue
        scale = sift_scale(r)
        for col in range(2, 8):
            if not r[col]:
                continue
            a, b = float(g[col]), float(r[col])
            if not close(a, b, scale if col in (2, 3) else 0.0):
                problems.append(f"{where}: column {col} {a!r} vs {b!r}")
                break
        if len(problems) >= _MAX_PROBLEMS:
            break
    return problems


def expected_grid(start: float, stop: float, step: float) -> list:
    """Abscissae of a sweep block, by the grid rule of the configuration format."""
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def check_sweep_rows(text: str, curves: list, grid: list, boxes: dict) -> tuple:
    """Invariants of a sweep CSV for which no reference is stored.

    Args:
        text: The CSV.
        curves: (label, protocol, optimized) per curve, in config order.
        grid: Expected abscissae of every curve.
        boxes: protocol -> (low, high) search box of the optimized parameter.

    Returns:
        (problems, rows) with rows the parsed CSV rows.
    """
    try:
        rows = parse_csv(text)
    except ValueError as err:
        return [str(err)], []
    if len(rows) != len(curves) * len(grid):
        return [f"{len(rows)} rows, expected {len(curves) * len(grid)}"], rows
    problems = []
    for i, row in enumerate(rows):
        label, protocol, optimized = curves[i // len(grid)]
        x = grid[i % len(grid)]
        where = f"row {i} ({label} @ {x!r})"
        if row[0] != label or float(row[1]) != x:
            problems.append(f"{where}: got {row[0]},{row[1]}")
        elif not all(row[c] for c in (2, 3, 5, 6, 7)):
            problems.append(f"{where}: point did not evaluate")
        elif not all(math.isfinite(float(f)) for f in row[1:] if f):
            problems.append(f"{where}: non-finite field")
        elif float(row[3]) != max(0.0, float(row[2])):
            problems.append(f"{where}: clamped rate {row[3]} != max(0, {row[2]})")
        elif bool(row[4]) != optimized:
            problems.append(f"{where}: optimal_param presence")
        elif optimized and not boxes[protocol][0] <= float(row[4]) <= boxes[protocol][1]:
            problems.append(f"{where}: optimal_param {row[4]} outside the box")
        elif not 0.0 <= float(row[7]) <= 0.5 + RTOL:
            problems.append(f"{where}: error fraction {row[7]}")
        if len(problems) >= _MAX_PROBLEMS:
            break
    return problems, rows


def compare_tree(got, ref, path: str = "") -> list:
    """Leaf-by-leaf comparison of two JSON documents (verify reports)."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys differ"]
        return [p for k in ref for p in compare_tree(got[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: length differs"]
        return [p for i, (g, r) in enumerate(zip(got, ref)) for p in compare_tree(g, r, f"{path}[{i}]")]
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return [] if close(got, ref, atol=VERIFY_ATOL) else [f"{path}: {got!r} vs {ref!r}"]
    return [] if got == ref and type(got) is type(ref) else [f"{path}: {got!r} vs {ref!r}"]


def verify_passes(report: dict) -> list:
    """Problems if any property of a verify report failed."""
    problems = [
        f"{rep['suite']}: {prop['name']} failed"
        for rep in report.get("reports", [])
        for prop in rep["properties"]
        if prop["pass"] is not True
    ]
    if report.get("pass") is not True:
        problems.append("verify reported failure")
    return problems


def compare_point(got: dict, ref: dict) -> list:
    """Problems comparing one point-query summary with its reference."""
    kind = ref["kind"]
    if got["kind"] != kind:
        return [f"kind {got['kind']} vs {kind}"]
    if kind == "cutoff":
        ok = abs(got["cutoff_km"] - ref["cutoff_km"]) <= CUTOFF_KM
        return [] if ok else [f"cutoff {got['cutoff_km']} vs {ref['cutoff_km']} km"]
    if (got["rate"] > 0.0) != (ref["rate"] > 0.0):
        return [f"zero/positive status {got['rate']} vs {ref['rate']}"]
    problems = []
    if kind == "rate":
        scale = 0.5 * ref["p_sift"]
        pairs = [("rate_raw", scale), ("p_sift", 0.0), ("e", 0.0)]
        if got["note"] != ref["note"]:
            problems.append(f"note {got['note']!r} vs {ref['note']!r}")
    else:
        pairs = [("rate", 0.0), ("param", 0.0)]
        if got["zero_rate"] != ref["zero_rate"]:
            problems.append(f"zero_rate {got['zero_rate']} vs {ref['zero_rate']}")
    for key, scale in pairs:
        if not close(got[key], ref[key], scale):
            problems.append(f"{key} {got[key]!r} vs {ref[key]!r}")
    return problems
