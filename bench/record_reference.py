"""Record the reference outputs the benchmark checks against.

Run from the root of a checkout, only when a change is meant to alter these
outputs, and say so in the change:

    python3 bench/record_reference.py

Writes bench/reference/: the CSV of each shipped sweep config, the
``verify --suite all`` report, and the first REFERENCE_QUERIES point queries
of the default seed with their checked outputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

REFERENCE_QUERIES = 60


def main() -> int:
    out = workloads.REFERENCE_DIR
    out.mkdir(exist_ok=True)
    for name in workloads.SHIPPED:
        config = ROOT / "src" / "qkdrates" / "configs" / f"{name}.json"
        code, csv, err = workloads.run_cli(["sweep", "--config", str(config)])
        if code != 0:
            raise SystemExit(f"sweep {name} failed: {err}")
        (out / f"{name}.csv").write_text(csv)
    code, report, err = workloads.run_cli(["verify", "--suite", "all"])
    if code != 0:
        raise SystemExit(f"verify failed: {err}")
    (out / "verify.json").write_text(report)
    points = []
    for index in range(REFERENCE_QUERIES):
        query = workloads.point_query(workloads.DEFAULT_SEED, index)
        result = workloads.query_call(query)()
        problems = workloads.query_problems(query, result)
        if problems:
            raise SystemExit(f"query {index} fails its own check: {problems}")
        points.append({"query": query, "result": workloads.summarize(query, result)})
    (out / "points.json").write_text(json.dumps(points, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
