"""End-to-end + per-layer benchmark of the reproduction (see README.md).

    python3 benchmarks/e2e/bench.py [--workload W] [--seed N]
                                    [--seconds S] [--trace [0|1]]
                                    [--out FILE]
    python3 benchmarks/e2e/bench.py --compare A.json B.json
    python3 benchmarks/e2e/bench.py --regen-expected

Every measurement runs in a fresh subprocess (cold imports, cold
compile and code caches, ``PYTHONHASHSEED=0``), strictly one after
another.  The last line printed is the result object of the builder
contract; with no ``--workload`` all four run and one line is printed
per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
CHILD = os.path.join(HERE, "child.py")
SETUP_PROBES = 2            # set-ups sampled besides the measured run's
CHILD_TIMEOUT = 170


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def spawn(mode: str, workload: str = "", seed: int = 0,
          trace: int = 0) -> dict:
    """Run child.py to completion in a fresh interpreter; its last
    stdout line, if any, is its result."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, CHILD, mode, workload, "--seed", str(seed),
         "--trace", str(trace), "--spawned-at", repr(time.monotonic())],
        env=env, stdout=subprocess.PIPE, text=True,
        timeout=None if mode == "regen" else CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise SystemExit(f"bench: {mode} {workload} exited with "
                         f"{proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def combine(runs: list[dict], metrics: dict) -> dict:
    return {"attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failed_units": sorted({u for r in runs
                                    for u in r["failed_units"]}),
            "schedule_seed": runs[0]["schedule_seed"],
            "runs": len(runs), "metrics": metrics}


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced: ``--seconds`` is the measuring budget.  The workload is
    fixed work, so it runs once and then again while another run of the
    same length still fits; metrics are medians over those runs."""
    probes = [spawn("setup", workload, seed)["setup_s"]
              for _ in range(SETUP_PROBES)]
    runs, spent = [], 0.0
    while not runs or spent + spent / len(runs) <= seconds:
        started = time.monotonic()
        runs.append(spawn("run", workload, seed))
        spent += time.monotonic() - started
    metrics = {name: statistics.median(r["metrics"][name] for r in runs)
               for name in runs[0]["metrics"]}
    metrics["setup_s"] = statistics.median(
        probes + [r["setup_s"] for r in runs])
    return combine(runs, metrics)


def measure_traced(workload: str, seed: int) -> dict:
    """One untraced run, then one traced: the traced run gives the
    per-layer numbers, the pair gives the tracing overhead."""
    plain = spawn("run", workload, seed)
    traced = spawn("run", workload, seed, trace=1)
    base, wall = plain["metrics"]["wall_s"], traced["metrics"]["wall_s"]
    metrics = dict(traced["layers"])
    metrics["bench.untraced_wall_s"] = base
    metrics["bench.traced_wall_s"] = wall
    metrics["bench.trace_overhead_share"] = (wall - base) / base
    return combine([plain, traced], metrics)


def run_workload(manifest: dict, workload: str, seed: int, seconds: float,
                 trace: int, out: str | None) -> bool:
    if trace:
        record = measure_traced(workload, seed)
    else:
        record = measure(workload, seed, seconds)
    declared = {m["name"]: m["unit"]
                for m in manifest["per_layer" if trace else "end_to_end"]}
    unknown = sorted(set(record["metrics"]) - set(declared))
    missing = sorted(set(declared) - set(record["metrics"]))
    if unknown or (missing and not trace):
        raise SystemExit(f"bench: metrics do not match BENCHMARK.json: "
                         f"unknown {unknown}, missing {missing}")
    # A layer the workload never enters reads 0.
    values = {name: record["metrics"].get(name, 0) for name in declared}

    correct = record["failed"] == 0
    print(f"# {workload} seed={seed} "
          f"(schedule_seed={record['schedule_seed']}) "
          f"trace={trace} runs={record['runs']}")
    for name, value in values.items():
        print(f"{name:40s} {value:>16.6f} {declared[name]}")
    if record["failed_units"]:
        print(f"# FAILED units: {record['failed_units']}")
    result = {"correct": correct, "attempted": record["attempted"],
              "failed": record["failed"],
              "metrics": {name: {"value": value, "unit": declared[name]}
                          for name, value in values.items()}}
    if out:
        append_result(out, {"workload": workload, "seed": seed,
                            "trace": trace, **result})
    print(json.dumps(result))
    return correct


# ----------------------------------------------------------------------
# Result files and --compare.
# ----------------------------------------------------------------------
def work_path(name: str) -> str:
    return name if os.path.isabs(name) or os.path.exists(name) \
        else os.path.join(WORK, name)


def append_result(name: str, record: dict) -> None:
    os.makedirs(WORK, exist_ok=True)
    path = work_path(name)
    records = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            records = json.load(fh)
    records.append(record)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(manifest: dict, path_a: str, path_b: str) -> int:
    """B against A: each (workload, end-to-end metric) on its own row.
    ``unresolved`` when either side's spread exceeds the bound, unless
    every run of B reads better than every run of A."""
    sides = []
    for path in (path_a, path_b):
        with open(work_path(path), encoding="utf-8") as fh:
            sides.append([r for r in json.load(fh) if not r["trace"]])
    breaches = 0
    print(f"{'workload':16s} {'metric':14s} {'A median':>12s} "
          f"{'B median':>12s} {'worse by':>9s} {'bound':>6s} "
          f"{'spread A/B':>13s}  verdict")
    for workload in [w["name"] for w in manifest["workloads"]]:
        for metric in manifest["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([r["metrics"][name]["value"] for r in side
                     if r["workload"] == workload] for side in sides)
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (med_b - med_a) / med_a
            all_better = max(sign * v for v in b) < min(sign * v for v in a)
            if max(spread(a), spread(b)) > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "BREACH"
                breaches += 1
            else:
                verdict = "ok"
            print(f"{workload:16s} {name:14s} {med_a:12.4f} {med_b:12.4f} "
                  f"{worse:+9.2%} {bound:6.0%} "
                  f"{spread(a):6.2%}/{spread(b):6.2%}  {verdict}")
        for side, label in zip(sides, "AB"):
            failed = sum(r["failed"] for r in side
                         if r["workload"] == workload)
            if failed:
                print(f"{workload:16s} {label}: {failed} failed operations")
                breaches += 1
    return 1 if breaches else 0


def main() -> int:
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", metavar="FILE",
                        help="append the result to FILE (under .work/)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"bench: no program to measure at {SRC}")
    if args.compare:
        return compare(manifest, *args.compare)
    if args.regen_expected:
        spawn("regen")
        return 0
    ok = True
    for workload in [args.workload] if args.workload else names:
        ok &= run_workload(manifest, workload, args.seed, args.seconds,
                           args.trace, args.out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
