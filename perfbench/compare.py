"""Compare two sets of benchmark runs, refusing any pair whose inputs differ.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds the ``*.json`` run records that ``run.py`` writes to
``.perfbench_out/``, for example copied there from two checkouts. Runs are
matched by workload, trace mode and seed. A workload where any matched seed
has different input fingerprints on the two sides is flagged and not
reported, because its figures would measure different inputs.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory) -> dict:
    """(workload, trace) -> seed -> list of (fingerprints, metrics)."""
    runs: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        d = doc["detail"]
        if d.get("smallest"):
            continue
        runs.setdefault((d["workload"], d["trace"]), {}).setdefault(d["seed"], []).append(
            (d["fingerprints"]["inputs"], doc["metrics"]))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(before: dict, after: dict) -> list[str]:
    lines = []
    for key in sorted(set(before) & set(after)):
        workload, trace = key
        seeds = sorted(set(before[key]) & set(after[key]))
        differing = [s for s in seeds
                     if {f for f, _ in before[key][s]} != {f for f, _ in after[key][s]}]
        if not seeds:
            lines.append(f"{workload} trace={trace}: no seed was run on both sides")
            continue
        if differing:
            lines.append(f"{workload} trace={trace}: NOT COMPARED, inputs differ for seeds {differing}")
            continue
        lines.append(f"{workload} trace={trace}: {len(seeds)} seeds")
        names = sorted(set().union(*(m for s in seeds for _, m in before[key][s])))
        for name in names:
            sides = []
            for runs in (before[key], after[key]):
                values = [m[name] for s in seeds for _, m in runs[s] if name in m]
                sides.append(quartiles(values) if values else None)
            if None in sides:
                continue
            (b1, b2, b3), (a1, a2, a3) = sides
            change = (a2 - b2) / b2 if b2 else float("nan")
            lines.append(f"  {name:34s} before {b2:.6g} [{b1:.6g}, {b3:.6g}]  "
                         f"after {a2:.6g} [{a1:.6g}, {a3:.6g}]  {change:+.1%}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print("\n".join(compare(load(args[0]), load(args[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
