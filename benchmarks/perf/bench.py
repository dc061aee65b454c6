"""One command per workload: end-to-end metrics, or the traced per-layer run.

    python3 benchmarks/perf/bench.py --workload small-table3 --seed 7
    python3 benchmarks/perf/bench.py --workload small-table3 --seed 7 --trace 1
    python3 benchmarks/perf/bench.py --smoke
    python3 benchmarks/perf/bench.py selfcheck

Each run is a fresh process: three set-ups in a process of their own (the
median is `setup_s`),
a discarded warm-up, `--seconds / 3` rounds of 3 s, a 300-query
verification pass against the numpy oracle and the engine's own audit.
Every timed metric is the median over the rounds.  The last line of
standard output is one JSON object; the exit code is non-zero when any
answer was wrong, any operation failed or an audit found a violation.
See README.md for the metric definitions and the measured noise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
#: runs per side per workload of `selfcheck`
SELFCHECK_RUNS = 5


def _pin_hash_seed() -> None:
    """Measure only with string hashing fixed, in this process and the shards.

    Unset, the interpreter randomises it per process: restart once with
    it fixed (shards inherit the environment).  Set to anything else,
    somebody asked for randomisation: refuse.
    """
    value = os.environ.get("PYTHONHASHSEED")
    if value == "0":
        return
    if value is None:
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(f"refusing to measure with PYTHONHASHSEED={value!r}; set it to 0")


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"the program under test is missing: no {src}/repro")
    sys.path.insert(0, str(src))


def stop_children() -> None:
    """Leave no process behind, on any way out of this one.

    Shards ignore SIGTERM and outlive a parent that forgot them, so any
    still alive here is killed and waited for.  The `spawn` context's
    resource tracker ends only when this process does, and is then
    nobody's child: stop it and wait for it here instead.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def host_fingerprint() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                "",
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


# -- output -----------------------------------------------------------------


def print_table(result: dict) -> None:
    print(f"{'metric':<42} {'value':>14} {'unit':<6} {'q1':>12} {'q3':>12} {'n':>6}")
    for name, m in result["metrics"].items():
        q1 = f"{m['q1']:.6g}" if "q1" in m else "-"
        q3 = f"{m['q3']:.6g}" if "q3" in m else "-"
        print(
            f"{name:<42} {m['value']:>14.6g} {m['unit']:<6} {q1:>12} {q3:>12} "
            f"{m.get('n', 1):>6}"
        )
    for note in result["notes"]:
        print(f"# {note}")
    for problem in result["problems"]:
        print(f"! {problem}")


def write_result(result: dict, workload: str, seed: int, traced: bool) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    started = time.time_ns()
    record = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "started_ns": started,
        "git_sha": git_sha(),
        "host": host_fingerprint(),
        **result,
    }
    kind = "trace" if traced else "e2e"
    path = OUT / f"{kind}-{workload}-{started}.json"
    path.write_text(json.dumps(record, indent=1))
    return path


def final_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": not result["problems"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in result["metrics"].items()
            },
        }
    )


def run_one(workload_name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> bool:
    import worlds

    workload = worlds.WORKLOADS[workload_name]
    if smoke:
        workload = workload.tiny()
    if traced:
        import layers

        result = layers.run_traced(workload, seed, smoke)
    else:
        import e2e

        result = e2e.run_end_to_end(workload, seed, seconds, smoke)
    print(f"== {workload_name} seed={seed} {'traced' if traced else 'end-to-end'} ==")
    print_table(result)
    if not smoke:
        print(f"# result file {write_result(result, workload_name, seed, traced)}")
    print(final_line(result), flush=True)
    return not result["problems"]


def selfcheck(names, seed: int) -> int:
    """The same tree as A B A B ..., SELFCHECK_RUNS per side: every row must read `ok`."""
    import compare

    sides: dict[str, list[Path]] = {"A": [], "B": []}
    for name in names:
        for i in range(2 * SELFCHECK_RUNS):
            before = set(OUT.glob("e2e-*.json")) if OUT.is_dir() else set()
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed + i // 2)],
                stdout=subprocess.DEVNULL,
            )
            if done.returncode != 0:
                print(f"selfcheck: {name} run {i} exited {done.returncode}")
                return 1
            sides["AB"[i % 2]].extend(set(OUT.glob("e2e-*.json")) - before)
    rows = compare.compare(compare.load(sides["A"]), compare.load(sides["B"]))
    compare.print_rows(rows)
    bad = [r for r in rows if r["verdict"] != "ok"]
    print(f"selfcheck: {len(rows) - len(bad)} of {len(rows)} rows ok")
    return 1 if bad else 0


def main(argv=None) -> int:
    import worlds

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="?", default="run",
                        choices=["run", "selfcheck", "setup"],
                        help="setup: the timed set-ups, for the run that spawned it")
    parser.add_argument("--workload", choices=sorted(worlds.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="timed seconds per run: rounds of 3 s (default 8 rounds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1 = the traced fixed-count pass with per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny worlds, 1 round x 1 s, all workloads (or one)")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(worlds.WORKLOADS)
    if args.command == "selfcheck":
        return selfcheck(names, args.seed)
    if args.command == "setup":
        import e2e

        workload = worlds.WORKLOADS[args.workload]
        plan = e2e.SMOKE if args.smoke else e2e.FULL
        workload = workload.tiny() if args.smoke else workload
        print(json.dumps(e2e.setups(workload, args.seed, plan.setups)))
        return 0
    if args.smoke:
        ok = [run_one(n, args.seed, 1.0, bool(args.trace), True) for n in names]
        return 0 if all(ok) else 1
    if not args.workload:
        parser.error("--workload is required (or --smoke, or selfcheck)")
    return 0 if run_one(args.workload, args.seed, args.seconds, bool(args.trace), False) else 1


if __name__ == "__main__":
    _pin_hash_seed()
    _import_program()
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
