"""Compare two sets of end-to-end result files, one row per workload x metric.

    python3 benchmarks/perf/compare.py PARENT_DIR CHANGE_DIR

Each argument is a directory of `e2e-*.json` files (or the files
themselves, comma-separated).  Runs of a workload are paired in run
order; a row gives each side's median and quartiles, the ratio with its
base, and a verdict:

- `regressed`  the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
- `unresolved` the parent's own quartile spread exceeds that bound, so
  the runs cannot tell (unless every run of the change reads at least as
  well as every run of the parent);
- `ok` otherwise.

Exits non-zero when any row is `regressed`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import stats

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def bounds() -> dict[str, tuple[float, bool]]:
    """metric -> (bound as a share of the parent's median, lower is better)."""
    spec = json.loads(BENCHMARK.read_text())
    return {
        m["name"]: (float(m["bound"]), m["better"] == "lower")
        for m in spec["end_to_end"]
    }


def load(paths) -> dict[str, list[dict]]:
    """workload -> that workload's runs (metric -> value), in run order."""
    files: list[Path] = []
    for path in paths:
        path = Path(path)
        files.extend(sorted(path.glob("e2e-*.json")) if path.is_dir() else [path])
    records = sorted(
        (json.loads(f.read_text()) for f in files), key=lambda r: r["started_ns"]
    )
    runs: dict[str, list[dict]] = {}
    for record in records:
        if record.get("traced"):
            continue
        values = {name: m["value"] for name, m in record["metrics"].items()}
        runs.setdefault(record["workload"], []).append(values)
    return runs


def verdict(parent: list[float], change: list[float], bound: float, lower: bool) -> str:
    base = stats.summarise(parent)["value"]
    new = stats.summarise(change)["value"]
    worse_by = (new - base) / abs(base) if base else 0.0
    if not lower:
        worse_by = -worse_by
    if lower:
        change_never_worse = max(change) <= min(parent)
    else:
        change_never_worse = min(change) >= max(parent)
    if stats.spread(parent) > bound and not change_never_worse:
        return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def compare(parent: dict[str, list[dict]], change: dict[str, list[dict]]) -> list[dict]:
    rows = []
    limits = bounds()
    for workload in parent:
        pairs = min(len(parent[workload]), len(change.get(workload, [])))
        if not pairs:
            continue
        for metric, (bound, lower) in limits.items():
            a = [run[metric] for run in parent[workload][:pairs]]
            b = [run[metric] for run in change[workload][:pairs]]
            sa, sb = stats.summarise(a), stats.summarise(b)
            rows.append(
                {
                    "workload": workload,
                    "metric": metric,
                    "pairs": pairs,
                    "parent": sa,
                    "change": sb,
                    "ratio": sb["value"] / sa["value"] if sa["value"] else float("nan"),
                    "bound": bound,
                    "verdict": verdict(a, b, bound, lower),
                }
            )
    return rows


def print_rows(rows: list[dict]) -> None:
    print(
        f"{'workload':<13} {'metric':<18} {'n':>2} {'parent median [q1, q3]':>36} "
        f"{'change median [q1, q3]':>36} {'ratio':>7} {'bound':>6}  verdict"
    )
    for r in rows:
        def cell(s):
            return f"{s['value']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"

        print(
            f"{r['workload']:<13} {r['metric']:<18} {r['pairs']:>2} "
            f"{cell(r['parent']):>36} {cell(r['change']):>36} "
            f"{r['ratio']:>7.4f} {r['bound']:>6.3f}  {r['verdict']}"
        )


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__)
        return 2
    parent, change = (load(arg.split(",")) for arg in args)
    rows = compare(parent, change)
    print_rows(rows)
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
