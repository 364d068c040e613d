"""Durable sweeps: crash-safe, resumable suite execution.

:class:`DurableSweep` is the controller behind every sweep that is
journaled, stored, or run on worker processes — ``run_suite(durable_dir=
...)`` and ``run_suite(jobs=N)`` alike:

- every (suite, benchmark, config, seed, round, engine) **unit** runs
  through an explicit stage lifecycle — ``prepare → run → collect →
  teardown`` — with per-stage host-wall-clock deadlines and
  infrastructure retry (exponential backoff + deterministic jitter) *on
  top of* the benchmark-level retry-with-reseed that
  :func:`~repro.faults.resilience.run_resilient` already does,
- all state flows through a write-ahead :class:`~repro.harness.journal.
  Journal` plus a content-addressed :class:`~repro.harness.store.
  ResultStore`; a ``kill -9`` at any instant loses at most the units in
  flight, and ``--resume`` serves completed units from the store so the
  merged :class:`~repro.faults.resilience.SuiteResult` is byte-identical
  to an uninterrupted sweep,
- the sweep's units are one job on the service's
  :class:`~repro.serve.scheduler.Scheduler` (``asyncio.run`` on a
  helper thread), which admits them against the store, chains rounds
  and runs them on ``max(1, jobs)`` supervised workers: a hung or
  crashed worker is killed and respawned and its unit retried.  The
  sweep keeps what is its own — the lock, the journal and its resume
  check, SIGINT/SIGTERM draining (journaled before
  :class:`~repro.errors.SweepInterrupted` is raised), the merge and
  compaction,
- a failed unit is recorded, persisted, and quarantined — never fatal
  (``continue_on_error=False`` raises only after the merge).

Byte-identity holds because unit outcomes are pure functions of their
keys (fresh VM per run, fully seeded), execution happens on the forked
workers' copies of the plugins, and the merge reads every outcome back
from the store, so the caller's plugins absorb the per-unit
:class:`~repro.harness.plugins.MergeablePlugin` snapshots in serial
sweep order (round-major, registry order) whether a unit ran in this
session or an earlier one.
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass

from repro.errors import (
    DurableSweepError,
    ReproError,
    StageTimeout,
    SweepInterrupted,
)
from repro.faults.report import FailureReport
from repro.harness.config import SweepConfig, plans_of, resolve_suite
from repro.harness.core import GuestBenchmark
from repro.harness.journal import Journal
from repro.harness.plugins import MergeablePlugin
from repro.harness.store import StoreLock, canonical_digest, decode_outcome

#: Stage lifecycle, in order.  ``prepare`` warms the compile cache,
#: ``run`` executes warmup+measure through
#: :func:`~repro.faults.resilience.run_resilient`, ``collect`` snapshots
#: plugins and packs the outcome, ``teardown`` drops VM references.
STAGES = ("prepare", "run", "collect", "teardown")


@dataclass
class DurablePolicy:
    """Tunables of the durability layer (not of the benchmarks)."""

    #: Infrastructure retries per stage (host-side exceptions only —
    #: benchmark failures are handled by the resilience layer and are
    #: deterministic, so re-running them would reproduce the failure).
    max_stage_retries: int = 2
    #: Exponential backoff: ``base * 2**attempt`` capped at ``cap``,
    #: plus deterministic jitter derived from (unit digest, stage,
    #: attempt) so replays sleep identically.
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: Host-wall-clock deadline per stage (seconds); None = unlimited.
    #: The supervisor kills a worker whose stage overruns it; a stage
    #: that ends past it fails in the worker (``StageTimeout``).
    stage_deadlines: dict | None = None
    #: Worker heartbeat cadence and the staleness that declares a
    #: worker dead even when the OS still lists the process.
    heartbeat_interval: float = 0.25
    heartbeat_timeout: float = 15.0
    #: Total dispatch attempts per unit before the controller gives up
    #: and synthesizes a quarantining FailureReport (covers workers
    #: that crash or hang deterministically on one unit).
    max_unit_attempts: int = 2
    #: How long graceful draining waits for in-flight units on
    #: SIGINT/SIGTERM before killing the workers outright.
    drain_timeout: float = 30.0
    #: fsync journal appends (slower, survives power loss too).
    fsync: bool = False
    #: Testing hook: behave as if SIGINT arrived after this many units
    #: were executed and persisted in this session.
    abort_after_units: int | None = None

    def deadline_for(self, stage: str) -> float | None:
        return (self.stage_deadlines or {}).get(stage)

    def backoff_delay(self, digest: str, stage: str, attempt: int) -> float:
        base = min(self.backoff_cap, self.backoff_base * (2 ** attempt))
        seed = hashlib.sha256(
            f"{digest}:{stage}:{attempt}".encode()).hexdigest()[:8]
        return base + (int(seed, 16) / 0xFFFFFFFF) * self.backoff_base


@dataclass(frozen=True)
class SweepUnit:
    """One schedulable cell of the sweep matrix."""

    index: int                  # registry position within the suite
    round: int                  # sweep repetition this cell belongs to
    benchmark: GuestBenchmark
    digest: str                 # content address of the unit key

    @property
    def name(self) -> str:
        return self.benchmark.name


# ----------------------------------------------------------------------
# Unit keys.
# ----------------------------------------------------------------------
def unit_digest(bench: GuestBenchmark, rnd: int, fingerprint: dict) -> str:
    key = {
        "benchmark": bench.name,
        "source": hashlib.sha256(bench.source.encode()).hexdigest(),
        "entry": bench.entry,
        "args": repr(bench.args),
        "expected": repr(bench.expected),
        "round": rnd,
        "sweep": fingerprint,
    }
    return canonical_digest(key)


def sweep_units(benches, repeat: int, fingerprint: dict) -> list[SweepUnit]:
    """Every unit of a sweep, in serial order (round-major, benchmark
    order within a round) — the one matrix the CLI sweep and the
    service both mint digests from."""
    return [SweepUnit(idx, rnd, bench, unit_digest(bench, rnd, fingerprint))
            for rnd in range(repeat) for idx, bench in enumerate(benches)]


# ----------------------------------------------------------------------
# Stage lifecycle (runs in a worker process).
# ----------------------------------------------------------------------
def execute_unit(unit: SweepUnit, config: SweepConfig, plan,
                 plugins: tuple, policy: DurablePolicy, notify) -> dict:
    """Run one unit through prepare → run → collect → teardown.

    Returns an outcome dict (kind ``"result"`` or ``"failure"``).  Host
    exceptions retry with backoff+jitter up to ``max_stage_retries`` and
    then become a synthesized, quarantining FailureReport — a sick stage
    never kills the sweep.  Benchmark-level failures arrive here already
    folded into a FailureReport by the resilience layer.
    """
    state: dict = {}
    stage_trace: list = []

    def _prepare():
        try:                          # warm the compile cache; a real
            unit.benchmark.compile()  # compile error surfaces in run()
        except ReproError:            # through the resilience layer so
            pass                      # the report matches a plain sweep

    def _run():
        # Lazy: repro.faults.resilience loads repro.harness, hence us.
        from repro.faults.resilience import run_resilient

        state["outcome"] = run_resilient(unit.benchmark, config, plan,
                                         plugins)

    def _collect():
        payloads = tuple(p.snapshot_run() for p in plugins)
        res = state["outcome"]
        if res.ok:
            res.result.vm = None      # VMs neither pickle nor merge
            state["packed"] = {
                "kind": "result", "result": res.result,
                "race": res.race_report, "plugins": payloads,
                "retries": res.retries}
        else:
            state["packed"] = {
                "kind": "failure", "failure": res.failure,
                "plugins": payloads}

    def _teardown():
        state.pop("outcome", None)

    stage_fns = {"prepare": _prepare, "run": _run,
                 "collect": _collect, "teardown": _teardown}
    for stage in STAGES:
        try:
            _run_stage(unit, stage, stage_fns[stage], policy,
                       stage_trace, notify)
        except Exception as exc:      # infra failure after retries
            report = FailureReport(
                benchmark=unit.name,
                config=config.config_name,
                error_type=type(exc).__name__,
                message=str(exc),
                phase=f"stage:{stage}",
                schedule_seed=config.schedule_seed,
                extra={"stage": stage,
                       "traceback": traceback.format_exc()})
            return {"kind": "failure", "failure": report, "plugins": None,
                    "stages": tuple(stage_trace)}
    packed = state["packed"]
    packed["stages"] = tuple(stage_trace)
    return packed


def _run_stage(unit, stage, fn, policy, stage_trace, notify) -> None:
    deadline = policy.deadline_for(stage)
    attempt = 0
    while True:
        notify(stage, attempt)
        started = time.perf_counter()
        try:
            fn()
        except ReproError:
            raise                     # deterministic — retry is futile
        except Exception:
            if attempt >= policy.max_stage_retries:
                raise
            time.sleep(policy.backoff_delay(unit.digest, stage, attempt))
            attempt += 1
            continue
        elapsed = time.perf_counter() - started
        stage_trace.append((stage, attempt))
        if deadline is not None and elapsed > deadline:
            # A stage that ended late; one that never ends is killed by
            # the supervisor (Worker.step) instead.
            raise StageTimeout(
                f"{unit.name} stage {stage} took {elapsed:.3f}s "
                f"(deadline {deadline:.3f}s)",
                stage=stage, deadline=deadline, elapsed=elapsed)
        return


# ----------------------------------------------------------------------
# The controller.
# ----------------------------------------------------------------------
class DurableSweep:
    """Journaled, resumable, supervised execution of one suite sweep."""

    def __init__(self, suite, config: SweepConfig, *, dir,
                 resume: bool = False, jobs: int | None = None,
                 policy: DurablePolicy | None = None,
                 continue_on_error: bool = True, faults=None,
                 repeat: int = 1, quarantine=None,
                 plugins: tuple = ()) -> None:
        plugins = tuple(plugins)
        if not all(isinstance(p, MergeablePlugin) for p in plugins):
            raise DurableSweepError(
                "durable sweeps persist plugin state into the store; "
                "every plugin must implement MergeablePlugin")
        self.benches, self.suite_name = resolve_suite(suite)
        self.config = config
        self.dir = str(dir)
        self.resume = resume
        self.jobs = jobs
        self.policy = policy or DurablePolicy()
        self.continue_on_error = continue_on_error
        self.repeat = repeat
        self.quarantine = quarantine
        self.plugins = plugins
        self.plans = plans_of(faults, self.benches)
        self.fingerprint = config.fingerprint(faults, plugins)

        self.units = {(u.index, u.round): u for u in sweep_units(
            self.benches, repeat, self.fingerprint)}
        self.stats = {
            "units": len(self.units), "executed": 0,
            "served_from_store": 0, "failed": 0, "skipped": 0,
            "respawns": 0, "stage_retries": 0,
            "corrupt_journal_entries": 0, "corrupt_store_entries": 0,
            "interrupted": False,
        }
        self._signal: str | None = None

    # ------------------------------------------------------------------
    # Setup / teardown.
    # ------------------------------------------------------------------
    def _open(self) -> None:
        os.makedirs(self.dir, exist_ok=True)
        # Single-writer discipline: a concurrent controller (another
        # sweep, or a repro.serve service) on the same directory would
        # interleave journal records; fail fast instead.
        self.lock = StoreLock(self.dir).acquire(
            owner=f"durable sweep of {self.suite_name}")
        journal_path = os.path.join(self.dir, "journal.wal")
        try:
            if os.path.exists(journal_path) and not self.resume:
                raise DurableSweepError(
                    f"{self.dir} already holds a sweep journal; pass "
                    f"resume=True (CLI: --resume) to continue it")
            self.journal = Journal(journal_path, fsync=self.policy.fsync)
            if self.resume and os.path.exists(journal_path):
                replay = self.journal.replay()
                self.stats["corrupt_journal_entries"] = len(replay.corrupt)
                begin = replay.last_of_kind("sweep-begin")
                if begin is not None \
                        and begin.get("fingerprint") is not None \
                        and begin["fingerprint"] != self.fingerprint:
                    raise DurableSweepError(
                        "resume spec mismatch: this directory was written "
                        "by a sweep with different run parameters "
                        f"({begin['fingerprint']} != {self.fingerprint})")
        except Exception:
            self.lock.release()
            raise
        self.journal.open()
        self.journal.append(
            "sweep-begin", suite=self.suite_name,
            benchmarks=[b.name for b in self.benches],
            repeat=self.repeat, jobs=self.jobs or 1, resume=self.resume,
            fingerprint=self.fingerprint, t=round(time.time(), 3))

    def _install_signals(self):
        if threading.current_thread() is not threading.main_thread():
            return None

        def handler(signum, frame):
            self._signal = signal.Signals(signum).name

        previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, handler)
            except (ValueError, OSError):           # pragma: no cover
                pass
        return previous

    # ------------------------------------------------------------------
    # Execution: one job on the service's scheduler.
    # ------------------------------------------------------------------
    def _drive(self) -> None:
        """Run the units not quarantined up front as one job on a
        :class:`~repro.serve.scheduler.Scheduler` of ``max(1, jobs)``
        workers, until the job ends or a signal drains it."""
        # Lazy: the in-process path must not load asyncio, and the
        # scheduler imports this module.
        import asyncio
        from concurrent.futures import ThreadPoolExecutor

        from repro.serve.scheduler import Job, Scheduler

        pre = self.quarantine
        self._job = Job("sweep", [u for u in self.units.values()
                                  if pre is None or u.name not in pre],
                        self.config, plans=self.plans, sink=self._record)
        self._scheduler = Scheduler(self.dir, workers=max(1, self.jobs or 1),
                                    policy=self.policy)
        pool = self._scheduler.pool
        pool.plugins, pool.on_shard = self.plugins, self._on_shard

        async def drive() -> None:
            run = asyncio.ensure_future(self._scheduler.run(self._job))
            while not run.done():   # a signal only sets the flag: poll it
                await asyncio.wait({run},
                                   timeout=self.policy.heartbeat_interval)
                if self._signal is not None and not self._job.terminal:
                    self._drain()
            run.result()

        # The loop runs on a helper thread, so a sweep started from a
        # coroutine works too; the signal handlers stay on this thread.
        with ThreadPoolExecutor(1, "durable-sweep") as helper:
            helper.submit(asyncio.run, drive()).result()
        self.stats["corrupt_store_entries"] += len(
            self._scheduler.store.corrupt)

    def _record(self, kind: str, outcome, /, **fields) -> None:
        """The job's sink: the per-unit lifecycle goes to the journal
        (and the merge reads outcomes back from the store)."""
        if kind not in ("unit-cached", "unit-begin", "stage", "unit-done"):
            return
        if kind == "unit-done":
            self.stats["executed"] += 1
            fields["retries"] = outcome.get("retries", 0)
        elif kind == "unit-cached":
            self.stats["served_from_store"] += 1
        elif kind == "stage" and fields["attempt"] > 0:
            self.stats["stage_retries"] += 1
        if fields.get("outcome") == "failure":
            self.stats["failed"] += 1
        self.journal.append(kind, **fields)
        abort_after = self.policy.abort_after_units
        if kind == "unit-done" and self._signal is None \
                and abort_after is not None \
                and self.stats["executed"] >= abort_after:
            self._signal = "test-abort"
            self._drain()

    def _drain(self) -> None:
        """Cancel the job: nothing more is dispatched, units on a worker
        finish (up to ``policy.drain_timeout``) and are journaled."""
        states = self._job.unit_states
        self.journal.append(
            "drain-begin", signal=self._signal,
            inflight=[d for d, s in states.items() if s == "running"],
            pending=[d for d, s in states.items() if s == "pending"])
        self._scheduler.cancel(self._job.id)

    def _on_shard(self, kind: str, worker, **fields) -> None:
        if kind == "respawn":
            self.stats["respawns"] += 1
        self.journal.append(f"shard-{kind}", worker=worker.wid,
                            pid=worker.pid, **fields)

    def _interrupt(self) -> None:
        self.stats["interrupted"] = True
        self.journal.append("sweep-interrupt", signal=self._signal,
                            stats={k: v for k, v in self.stats.items()
                                   if k != "interrupted"})
        raise SweepInterrupted(
            f"sweep interrupted by {self._signal}; resume with "
            f"--resume {self.dir}", stats=self.stats)

    # ------------------------------------------------------------------
    # Merge: stitch outcomes back in serial sweep order.
    # ------------------------------------------------------------------
    def _merge(self):
        from repro.faults.resilience import Quarantine, SuiteResult

        out = SuiteResult(
            self.suite_name, self.config.config_name,
            quarantine=self.quarantine if self.quarantine is not None
            else Quarantine())
        first_error = None
        for rnd in range(self.repeat):
            for idx, bench in enumerate(self.benches):
                if bench.name in out.quarantine:
                    out.skipped.append(bench.name)
                    self.stats["skipped"] += 1
                    continue
                unit = self.units[(idx, rnd)]
                payload = self._scheduler.store.get(unit.digest)
                if payload is None:                 # pragma: no cover
                    raise DurableSweepError(
                        f"unit {unit.name} round {rnd} has no outcome "
                        f"({unit.digest[:12]}); journal/store inconsistent")
                outcome = decode_outcome(payload)
                if outcome["kind"] == "result":
                    out.results.append(outcome["result"])
                    if outcome["race"] is not None:
                        out.race_reports.append(outcome["race"])
                    self._absorb(outcome["plugins"])
                else:
                    report = outcome["failure"]
                    out.failures.append(report)
                    out.quarantine.add(report)
                    self._absorb(outcome.get("plugins"))
                    if first_error is None:
                        first_error = report
        out.durable = dict(self.stats)
        if first_error is not None and not self.continue_on_error:
            raise ReproError(
                f"suite {self.suite_name} aborted on "
                f"{first_error.benchmark}: {first_error.message}")
        return out

    def _absorb(self, payloads) -> None:
        if payloads is None:
            return
        for plugin, payload in zip(self.plugins, payloads):
            plugin.absorb_run(payload)

    # ------------------------------------------------------------------
    def run(self):
        self._open()
        previous = self._install_signals()
        try:
            self._drive()
            if self._signal is not None:
                self._interrupt()
            out = self._merge()
            self.journal.append(
                "sweep-end", completed=len(out.results),
                stats={k: v for k, v in self.stats.items()
                       if k != "interrupted"})
            if not self.stats["respawns"]:
                # A respawn leaves shard-exit/shard-respawn forensics
                # in the journal; keep them for this session and let
                # the next clean completion compact.
                self._compact_journal()
            return out
        finally:
            self.journal.close()
            self.lock.release()
            if previous:
                for signum, old in previous.items():
                    signal.signal(signum, old)

    def _compact_journal(self) -> None:
        """Bound replay cost: rewrite the journal after clean completion.

        Across resumes an append-only journal replays every historical
        stage/supervision record again and again.  Once a sweep reaches
        ``sweep-end`` the store is authoritative, so only three record
        classes still earn their keep: the latest ``sweep-begin`` (the
        resume fingerprint check), the latest completion record per unit
        digest (``--store-gc``'s referenced set), and the latest
        ``sweep-end``.  Everything else — stages, heartbeat-era shard
        supervision, drains of prior sessions — is dropped, so the
        journal size is bounded by the unit count no matter how many
        times the sweep was killed and resumed.
        """
        replay = self.journal.replay()
        per_digest: dict[str, dict] = {}
        for record in replay.records:
            if record["kind"] in ("unit-done", "unit-cached"):
                previous = per_digest.get(record["digest"])
                # unit-cached just re-confirms an earlier unit-done;
                # keep the execution record when both exist.
                if previous is None or record["kind"] == "unit-done":
                    per_digest[record["digest"]] = record
        keep: list[dict] = []
        begin = replay.last_of_kind("sweep-begin")
        if begin is not None:
            keep.append(begin)
        keep.extend(sorted(per_digest.values(), key=lambda r: r["seq"]))
        end = replay.last_of_kind("sweep-end")
        if end is not None:
            keep.append(end)
        dropped = len(replay.records) - len(keep)
        if dropped > 0:
            self.journal.compact(keep)
            self.journal.append("journal-compact", dropped=dropped,
                                kept=len(keep))

