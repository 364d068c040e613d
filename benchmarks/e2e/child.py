"""One workload, run once, in this fresh process (spawned by bench.py).

Prints one JSON object as its last line.  Modes: ``run`` (set up, then
measure), ``setup`` (set up only, to sample ``setup_s``), ``regen``
(oracle fingerprints for ``expected.json``).
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import resource
import shutil
import statistics
import tempfile
import time

import spans as spanlib

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, ".work")
EXPECTED = os.path.join(HERE, "expected.json")

#: Renaissance units left out so that the driver's 92 runs fit its time
#: cap: gauss-mix (a third of a cold sweep by itself) and the heavier
#: twin of each same-algorithm pair, whose lighter twin stays
#: (rx-scrabble, fj-kmeans, par-mnemonics).  See README.md, "Sizes".
LEFT_OUT = ("gauss-mix", "scrabble", "scala-kmeans", "streams-mnemonics")
COMPARISON_SUITES = ("dacapo", "scalabench", "specjvm")

#: expected.json profile -> the run_suite kwargs that shape its guest work
PROFILES = {"roster": {}, "registry-short": {"warmup": 1, "measure": 1}}
#: expected.json holds the oracle's fingerprints for these schedule
#: seeds; ``--seed n`` runs ``schedule_seed = n mod 2``.
SCHEDULE_SEEDS = (0, 1)

#: workload -> (profile, the host engine, if not the library default)
SWEEPS = {
    "cold-sweep": ("roster", {}),
    "ladder-sweep": ("roster", {"engine": "tier2"}),
    "short-registry": ("registry-short", {}),
}
SERVED_PROFILE = "roster"
CACHED_JOBS = 100


def units_of(profile: str) -> list:
    from repro.suites.registry import benchmarks_of

    if profile == "roster":
        return [b for b in benchmarks_of("renaissance")
                if b.name not in LEFT_OUT]
    return [b for suite in COMPARISON_SUITES for b in benchmarks_of(suite)]


def unit_id(bench) -> str:
    """``sunflow`` is in two suites, so a name alone is not a key."""
    return f"{bench.suite}/{bench.name}"


def load_expected(profile: str, seed: int) -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)["profiles"][profile][str(seed)]


def mismatches(expected: dict, observed: dict) -> list[str]:
    """Units whose fingerprint (and instruction total, where the result
    still carries its VM) differs from the oracle's, or that one side
    lacks."""
    bad = []
    for name in sorted(set(expected) | set(observed)):
        want, got = expected.get(name), observed.get(name)
        if want is None or got is None or want["fingerprint"] != got[0] \
                or (got[1] is not None and want["instructions"] != got[1]):
            bad.append(name)
    return bad


def peak_rss_mb(*who) -> float:
    return sum(resource.getrusage(w).ru_maxrss for w in who) / 1024.0


def percentile(values, q: float) -> float:
    """Nearest rank: of 100 values, p90 is the 90th, 10 lie beyond."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Setup:
    """Marks the end of set-up: spawn (timed by the parent, on the
    system-wide monotonic clock) to the first measured call."""

    def __init__(self, spawned_at: float, only: bool) -> None:
        self.spawned_at = spawned_at
        self.only = only
        self.seconds = None

    def done(self) -> bool:
        """True when the caller should go on to measure."""
        self.seconds = time.monotonic() - self.spawned_at
        return not self.only


# ----------------------------------------------------------------------
# In-process sweeps.
# ----------------------------------------------------------------------
def run_sweep(workload: str, seed: int, rec, setup: Setup) -> dict:
    from repro.faults.resilience import run_suite
    from repro.harness.core import compile_cache_info

    profile, engine = SWEEPS[workload]
    kwargs = dict(PROFILES[profile], **engine, schedule_seed=seed)
    benches = units_of(profile)
    expected = load_expected(profile, seed)
    if rec is not None:
        import layers
        layers.install(rec)
        kwargs["plugins"] = (layers.IterationSpans(rec),)
    if not setup.done():
        return {}

    root = rec.begin("bench.sweep") if rec is not None else None
    started = time.perf_counter()
    suite = run_suite(benches, **kwargs)
    wall = time.perf_counter() - started
    if rec is not None:
        rec.end(root)

    # Results keep sweep order; a unit that failed or was skipped is
    # simply absent from them.
    results = suite.results
    observed, done = {}, 0
    for bench in benches:
        if done < len(results) and results[done].benchmark == bench.name:
            result = results[done]
            done += 1
            observed[unit_id(bench)] = (
                result.fingerprint(), result.vm.counters.instructions)
    failed = mismatches(expected, observed)
    instructions = sum(r.vm.counters.instructions for r in results)
    out = {
        "attempted": len(benches), "failed": len(failed),
        "failed_units": failed,
        "metrics": {
            "wall_s": wall,
            "steady_wall_s": sum(r.host_seconds for r in results),
            "guest_mips": instructions / wall / 1e6,
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
        },
    }
    if rec is not None:
        out["layers"] = {
            **layers.span_metrics(workload, rec.spans),
            **layers.sweep_metrics(rec.spans, root, results,
                                   compile_cache_info()),
        }
    return out


# ----------------------------------------------------------------------
# The service: one client, closed loop.
# ----------------------------------------------------------------------
def run_served(seed: int, rec, setup: Setup) -> dict:
    from repro.harness.store import ResultStore
    from repro.serve.testing import ServiceThread

    benches = units_of(SERVED_PROFILE)
    expected = load_expected(SERVED_PROFILE, seed)
    ids = {b.name: unit_id(b) for b in benches}
    spec = {"suite": "renaissance", "schedule_seed": seed,
            "benchmarks": list(ids)}
    workers = min(2, os.cpu_count() or 1)
    if rec is not None:
        import layers
        layers.install(rec)
    os.makedirs(WORK, exist_ok=True)
    store_dir = tempfile.mkdtemp(prefix="serve-", dir=WORK)
    service = ServiceThread(store_dir, workers=workers)
    try:
        started = time.perf_counter()
        service.start()
        client = service.client()
        conn = http.client.HTTPConnection(client.host, client.port,
                                          timeout=30)
        conn.request("GET", "/healthz")
        if conn.getresponse().status != 200:
            raise RuntimeError("service did not answer /healthz")
        conn.close()
        start_s = time.perf_counter() - started
        if not setup.done():
            return {}

        submit_ms, fetch_ms = [], []

        def job() -> tuple[float, list, dict]:
            """POST -> events to the terminal one -> every result
            fetched and decoded.  Returns latency, events, results."""
            t0 = time.perf_counter()
            jid = client.submit(spec)["id"]
            t1 = time.perf_counter()
            submit_ms.append((t1 - t0) * 1e3)
            events = list(client.events(jid))
            outcomes = {}
            for event in events:
                if event["kind"] in ("unit-done", "unit-cached"):
                    t2 = time.perf_counter()
                    outcomes[ids[event["benchmark"]]] = \
                        client.result(event["digest"])
                    fetch_ms.append((time.perf_counter() - t2) * 1e3)
            return time.perf_counter() - t0, events, outcomes

        def bad_units(outcomes: dict) -> list[str]:
            return mismatches(expected, {
                name: (o["result"].fingerprint(), None)
                for name, o in outcomes.items() if o["kind"] == "result"})

        cold_s, cold_events, cold = job()
        failed_units = bad_units(cold)
        put_bytes = sum(e["bytes"] for e in ResultStore(store_dir).ls())

        cached_ms, cached_failed, events_total = [], 0, len(cold_events)
        for _ in range(CACHED_JOBS):
            latency, events, outcomes = job()
            cached_ms.append(latency * 1e3)
            events_total += len(events)
            executed = any(e["kind"] == "unit-begin" for e in events)
            cached_failed += bool(executed or bad_units(outcomes))

        served = client.metrics()
        started = time.perf_counter()
        unfinished = service.stop()
        drain_s = time.perf_counter() - started
        if unfinished:
            raise RuntimeError(f"service left jobs open: {unfinished}")
    finally:
        service.stop()                  # does nothing once stopped
        shutil.rmtree(store_dir, ignore_errors=True)

    good = [n for n in cold if n not in failed_units]
    instructions = sum(expected[n]["instructions"] for n in good)
    out = {
        "attempted": len(benches) + CACHED_JOBS,
        "failed": len(failed_units) + cached_failed,
        "failed_units": failed_units,
        "metrics": {
            "wall_s": cold_s,
            "steady_wall_s": sum(
                cold[n]["result"].host_seconds for n in good),
            "guest_mips": instructions / cold_s / 1e6,
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF,
                                       resource.RUSAGE_CHILDREN),
        },
    }
    if rec is not None:
        at = {(e["kind"], e.get("digest")): e["t"] for e in cold_events}
        digests = [d for kind, d in at if kind == "unit-done"]
        waits = [at["unit-begin", d] - at["job-queued", None]
                 for d in digests]
        execs = [at["unit-done", d] - at["unit-begin", d] for d in digests]
        out["layers"] = {
            **layers.span_metrics("served-jobs", rec.spans),
            "jvm.instructions": instructions,
            "harness.store.put_bytes": put_bytes,
            "serve.start_s": start_s,
            "serve.submit_ms_p50": statistics.median(submit_ms),
            "serve.queue_wait_s_p50": statistics.median(waits),
            "serve.queue_wait_s_max": max(waits),
            "serve.unit_exec_s_sum": sum(execs),
            "serve.unit_exec_s_max": max(execs),
            "serve.pool_utilization": sum(execs) / (workers * cold_s),
            "serve.result_fetch_ms_p50": statistics.median(fetch_ms),
            "serve.events_per_job": events_total / (1 + CACHED_JOBS),
            "serve.cached_job_ms_p50": statistics.median(cached_ms),
            "serve.cached_job_ms_p90": percentile(cached_ms, 0.9),
            "serve.drain_s": drain_s,
            **{f"serve.{name}": served[f"serve_{name}"] for name in (
                "http_requests", "units_executed", "units_cached",
                "units_deduped", "workers_respawned")},
        }
    return out


# ----------------------------------------------------------------------
# Oracle fingerprints.
# ----------------------------------------------------------------------
def regen_expected() -> None:
    """Fingerprints and instruction totals under ``engine="reference"``,
    the hand-written interpreter, never an engine under test."""
    from repro.faults.resilience import run_suite

    profiles = {}
    for profile, kwargs in PROFILES.items():
        benches = units_of(profile)
        for seed in SCHEDULE_SEEDS:
            suite = run_suite(benches, schedule_seed=seed,
                              engine="reference", **kwargs)
            if not suite.ok:
                raise RuntimeError(suite.format())
            profiles.setdefault(profile, {})[str(seed)] = {
                unit_id(b): {"fingerprint": r.fingerprint(),
                             "instructions": r.vm.counters.instructions}
                for b, r in zip(benches, suite.results)}
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump({"schema": "e2e-expected/1", "engine": "reference",
                   "profiles": profiles}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("run", "setup", "regen"))
    parser.add_argument("workload", nargs="?")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args()

    if args.mode == "regen":
        regen_expected()
        return
    seed = SCHEDULE_SEEDS[args.seed % len(SCHEDULE_SEEDS)]
    rec = spanlib.Recorder() if args.trace else None
    setup = Setup(args.spawned_at, args.mode == "setup")
    if args.workload in SWEEPS:
        out = run_sweep(args.workload, seed, rec, setup)
    else:
        out = run_served(seed, rec, setup)
    out["setup_s"] = setup.seconds
    out["schedule_seed"] = seed
    if rec is not None and args.mode == "run":
        os.makedirs(WORK, exist_ok=True)
        spanlib.write_chrome_trace(rec.spans, os.path.join(
            WORK, f"trace-{args.workload}-seed{seed}.json"))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
