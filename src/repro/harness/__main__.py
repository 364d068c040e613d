"""Command-line suite sweeps: ``python -m repro.harness``.

Runs one registered suite through the resilient harness and prints a
per-benchmark summary plus the suite roll-up.  ``--jobs N`` runs the
units on N supervised worker processes (byte-identical results; a
crashed or hung worker is respawned); ``--durable DIR`` journals every
stage into DIR and caches completed units in a content-addressed store,
so a killed sweep continues with ``--resume DIR`` instead of starting
over (see :mod:`repro.harness.durable`).

Options::

    python -m repro.harness                          # renaissance, serial
    python -m repro.harness dacapo --jobs 4          # 4 supervised workers
    python -m repro.harness renaissance:scrabble,philosophers
    python -m repro.harness --jit none --warmup 1 --measure 1
    python -m repro.harness --sanitize               # checked mode
    python -m repro.harness --jobs 4 --durable .sweep     # crash-safe
    python -m repro.harness --jobs 4 --resume .sweep      # ...continue it
    python -m repro.harness --report out.json        # machine-readable

Exit codes are distinct per failure class so CI can triage without
parsing output: 0 all good; 1 at least one benchmark failed; 2 nothing
failed but quarantined benchmarks were skipped; 3 clean results but the
durable supervisor had to respawn a shard; 4 the sweep was interrupted
(SIGINT/SIGTERM) after draining — resume it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

#: Distinct exit codes (documented above; asserted by tests).
EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_QUARANTINED = 2
EXIT_RESPAWNED = 3
EXIT_INTERRUPTED = 4


def exit_code(suite) -> int:
    """Most severe applicable code: failures > quarantined > respawns."""
    if suite.failures:
        return EXIT_FAILURES
    if suite.skipped:
        return EXIT_QUARANTINED
    if suite.respawns:
        return EXIT_RESPAWNED
    return EXIT_OK


def _resolve_spec(spec: str):
    """``suite`` or ``suite:bench1,bench2`` -> run_suite's workload arg."""
    if ":" not in spec:
        return spec, spec
    from repro.suites.registry import get_benchmark

    suite_name, names = spec.split(":", 1)
    benches = [get_benchmark(name.strip(), suite=suite_name)
               for name in names.split(",") if name.strip()]
    return benches, spec


def write_report(suite, path: str, code: int) -> None:
    """Stable JSON report: suite roll-up + FailureReport.to_json dicts."""
    doc = suite.to_report_dict()
    doc["exit_code"] = code
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def referenced_digests(sweep_dir: str) -> set:
    """Digests any journal in ``sweep_dir`` still refers to.

    Both journal flavors count: a durable sweep's ``journal.wal``
    (``unit-done``/``unit-cached`` records) and a service's
    ``serve.wal`` (the per-job digest lists journaled at submit).
    """
    import os

    from repro.harness.journal import Journal

    referenced: set = set()
    for name in ("journal.wal", "serve.wal"):
        path = os.path.join(sweep_dir, name)
        if not os.path.exists(path):
            continue
        for record in Journal(path).replay().records:
            if "digest" in record:
                referenced.add(record["digest"])
            for digest in record.get("digests", ()):
                referenced.add(digest)
    return referenced


def store_maintenance(ls_dir: str | None, gc_dir: str | None) -> int:
    """``--store-ls`` / ``--store-gc``: inspect or prune a result store."""
    from repro.harness.store import ResultStore

    if ls_dir:
        store = ResultStore(ls_dir)
        entries = store.ls()
        referenced = referenced_digests(ls_dir)
        bad = 0
        for entry in entries:
            mark = "ok" if entry["ok"] else f"BAD ({entry['reason']})"
            ref = "" if entry["digest"] in referenced else "  unreferenced"
            print(f"{entry['digest']}  {entry['bytes']:>8d}B  {mark}{ref}")
            if not entry["ok"]:
                bad += 1
        print(f"{len(entries)} objects, {bad} bad, "
              f"{len(referenced)} journal-referenced")
        return EXIT_OK if bad == 0 else EXIT_FAILURES
    store = ResultStore(gc_dir)
    stats = store.gc(referenced=referenced_digests(gc_dir))
    print(f"store-gc: kept {stats['kept']}, pruned "
          f"{stats['pruned_corrupt']} corrupt + "
          f"{stats['pruned_unreferenced']} unreferenced + "
          f"{stats['pruned_tmp']} temp "
          f"({stats['bytes_freed']} bytes freed)")
    return EXIT_OK


def main(argv=None) -> int:
    from repro.runtime.vm import TIER_LADDERS

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Run a benchmark suite through the resilient harness")
    parser.add_argument(
        "spec", nargs="?", default=None,
        help="suite name, optionally with a benchmark subset: "
             "'renaissance' or 'renaissance:scrabble,philosophers' "
             "(default: renaissance)")
    parser.add_argument("--suite", default=None,
                        help="registered suite name (same as the "
                             "positional spec; kept for compatibility)")
    parser.add_argument("--benchmarks", default=None,
                        help="comma-separated benchmark subset of the suite")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = serial, the default)")
    parser.add_argument("--jit", default="graal",
                        help='"graal", "c2" or "none" (interpreter only)')
    parser.add_argument("--engine", default="threaded",
                        choices=tuple(TIER_LADDERS),
                        help="host execution engine (byte-identical "
                             "results; tier1 compiles hot methods to "
                             "superblock closures, tier2 additionally "
                             "host-compiles guest-JIT machine code at "
                             "region leaders, with interpreted resumes "
                             "and a deopt chain)")
    parser.add_argument("--cores", type=int, default=8,
                        help="simulated cores per VM")
    parser.add_argument("--seed", type=int, default=0,
                        help="schedule seed (same seed for every shard)")
    parser.add_argument("--warmup", type=int, default=None)
    parser.add_argument("--measure", type=int, default=None)
    parser.add_argument("--repeat", type=int, default=1,
                        help="whole-suite sweep repetitions")
    parser.add_argument("--sanitize", action="store_true",
                        help="checked mode: happens-before race sanitizer")
    parser.add_argument("--metrics", action="store_true",
                        help="attach the Table-2 MetricsPlugin")
    parser.add_argument("--trace", action="store_true",
                        help="attach the flight-recorder TracePlugin")
    parser.add_argument("--durable", metavar="DIR", default=None,
                        help="journal + result store directory: the sweep "
                             "becomes crash-safe and resumable")
    parser.add_argument("--resume", metavar="DIR", default=None,
                        help="resume the durable sweep in DIR, serving "
                             "completed units from its store")
    parser.add_argument("--report", metavar="OUT.json", default=None,
                        help="write a machine-readable failure report")
    parser.add_argument("--store-ls", metavar="DIR", default=None,
                        help="list the content-addressed store in DIR "
                             "(digest, size, checksum verdict) and exit")
    parser.add_argument("--store-gc", metavar="DIR", default=None,
                        help="prune corrupt, orphaned and journal-"
                             "unreferenced store objects in DIR and exit")
    args = parser.parse_args(argv)

    if args.store_ls or args.store_gc:
        return store_maintenance(args.store_ls, args.store_gc)

    from repro.errors import DurableSweepError, SweepInterrupted
    from repro.faults.resilience import run_suite

    spec = args.spec or args.suite or "renaissance"
    if args.benchmarks:
        spec = f"{spec.split(':', 1)[0]}:{args.benchmarks}"
    try:
        workload, spec_label = _resolve_spec(spec)
    except Exception as exc:
        print(f"error: bad spec {spec!r}: {exc}", file=sys.stderr)
        return EXIT_FAILURES

    plugins = []
    if args.metrics:
        from repro.metrics.profiler import MetricsPlugin
        plugins.append(MetricsPlugin())
    if args.trace:
        from repro.trace import TracePlugin
        plugins.append(TracePlugin())

    durable_dir = args.resume or args.durable
    jit = None if args.jit in ("none", "None") else args.jit
    started = time.perf_counter()
    try:
        suite = run_suite(
            workload, jobs=args.jobs, jit=jit, cores=args.cores,
            schedule_seed=args.seed, warmup=args.warmup,
            measure=args.measure, repeat=args.repeat,
            plugins=tuple(plugins),
            sanitize=True if args.sanitize else None,
            durable_dir=durable_dir, resume=args.resume is not None,
            engine=args.engine)
    except SweepInterrupted as exc:
        print(f"INTERRUPTED: {exc}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except DurableSweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURES
    host_seconds = time.perf_counter() - started

    for result in suite.results:
        print(f"  {result.benchmark:24s} mean_wall={result.mean_wall:>12.0f} "
              f"cycles  host={result.host_seconds:.3f}s")
    for report in suite.race_reports:
        if not report.clean:
            print(f"  race: {report.format()}")
    print(suite.format())
    if suite.durable:
        d = suite.durable
        print(f"durable: {d['executed']} executed, "
              f"{d['served_from_store']} served from store, "
              f"{d['respawns']} respawns "
              f"({spec_label} -> {durable_dir})")
    tier1 = suite.tier1_summary()
    if tier1:
        deopts = sum(tier1["deopts"].values())
        print(f"tier1: {tier1['promotions']} promotions, "
              f"{tier1['compiled_blocks']} superblocks, {deopts} deopts, "
              f"{tier1['compile_cycles']} compile cycles")
    tier2 = suite.tier2_summary()
    if tier2:
        deopts = sum(tier2["deopts"].values())
        print(f"tier2: {tier2['promotions']} promotions, "
              f"{tier2['compiled_blocks']} superblocks, "
              f"{tier2['osr_entries']} interpreted resumes, "
              f"{deopts} deopts, "
              f"{tier2['compile_cycles']} compile cycles "
              f"({tier2['compile_seconds']:.3f}s host compile)")
    print(f"host wall time: {host_seconds:.2f}s (jobs={args.jobs})")

    code = exit_code(suite)
    if code != EXIT_OK:
        print(f"FAIL[{code}]: {suite.summary_line()}", file=sys.stderr)
    if args.report:
        write_report(suite, args.report, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
