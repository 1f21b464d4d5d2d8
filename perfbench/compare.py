"""Compare two sets of benchmark results, metric by metric.

Usage: python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py (the
``.perfbench_runs/results`` of two checkouts, or copies of them). For
every workload and end-to-end metric it prints both medians with their
quartiles, the change as a share of the base median, and whether that
change stays within the metric's bound from BENCHMARK.json. Runs whose
kernel backend, Python or numpy differ are refused: their numbers
measure different programs. So are runs whose outputs failed their
checks: a wrong output is a failure, not a time. Exits 1 when some metric got worse by more
than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SAME_PROGRAM = ("backend", "python", "numpy")


def load(directory: Path) -> list[dict]:
    runs = [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]
    return [r for r in runs if r.get("trace") == 0]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    if not base or not new:
        print("error: both directories need result files of untraced runs", file=sys.stderr)
        return 2
    wrong = sorted({f"{r['workload']} seed {r['seed']}" for r in base + new if r["problems"]})
    if wrong:
        print(f"error: refusing to compare runs whose outputs failed their checks: {', '.join(wrong)}",
              file=sys.stderr)
        return 2
    programs = {tuple(r["stamp"][k] for k in SAME_PROGRAM) for r in base + new}
    if len(programs) > 1:
        print(f"error: refusing to compare runs of different {'/'.join(SAME_PROGRAM)}: {sorted(programs)}",
              file=sys.stderr)
        return 2
    machines = {(r["stamp"]["nproc"], r["stamp"]["cpu_model"]) for r in base + new}
    if len(machines) > 1:
        print(f"warning: runs come from different machines: {sorted(machines)}")

    spec = json.loads(BENCHMARK.read_text())["end_to_end"]
    worse = 0
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        a = [r for r in base if r["workload"] == workload]
        b = [r for r in new if r["workload"] == workload]
        print(f"{workload}: {len(a)} base runs, {len(b)} new runs")
        for m in spec:
            va = [r["end_to_end"][m["name"]] for r in a if r["end_to_end"].get(m["name"]) is not None]
            vb = [r["end_to_end"][m["name"]] for r in b if r["end_to_end"].get(m["name"]) is not None]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if ma else 0.0
            regress = change > m["bound"] if m["better"] == "lower" else change < -m["bound"]
            worse += regress
            (qa1, qa3), (qb1, qb3) = quartiles(va), quartiles(vb)
            print(f"  {m['name']:<16} base {ma:<12.6g} [{qa1:.6g}, {qa3:.6g}]  new {mb:<12.6g} [{qb1:.6g}, {qb3:.6g}]"
                  f"  {change:+.1%} (bound {m['bound']:.0%}){'  WORSE' if regress else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
