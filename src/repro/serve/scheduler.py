"""The asyncio sweep scheduler: jobs, queuing, dedup, recovery.

A submitted :class:`~repro.serve.spec.SweepSpec` becomes a
:class:`Job`: its units expand to the same content-addressed digests a
durable CLI sweep would mint, so scheduling is mostly *avoiding work*:

- **store dedup** — a digest already in the result store resolves
  instantly as ``unit-cached`` (zero executions; the acceptance
  criterion for resubmitting an identical spec),
- **in-flight dedup** — a digest some other job is already running is
  joined, not re-enqueued: every interested job gets the lifecycle
  events and the single outcome,
- **round chaining** — round ``r+1`` of a benchmark only becomes
  schedulable once round ``r`` resolves, and a failure skips the later
  rounds (mirrors ``DurableSweep._resolve`` so the service's outcome
  set matches a serial sweep's),
- the ready queue orders by ``(priority, owner's running units, job
  age, round, index)`` — priority first, then fairness across equal
  jobs — and per-job ``max_concurrency`` caps how much of the pool one
  job may hold.

Durability is write-ahead, like the sweeps: ``job-submit`` (spec +
digest list) is journaled to ``serve.wal`` before any scheduling,
``job-done``/``job-cancel`` close it out.  On start, submits without a
closing record are resubmitted — after a SIGTERM drain the finished
units are in the store, so a recovered job re-runs only what was lost —
and one whose spec no longer validates is closed with a ``job-cancel``.
The event loop is the only store writer; the directory's
:class:`~repro.harness.store.StoreLock` keeps out concurrent CLI
sweeps.
"""

from __future__ import annotations

import asyncio
import os
import time

from repro.errors import ServeError
from repro.harness.durable import DurablePolicy, SweepUnit
from repro.harness.journal import Journal
from repro.harness.store import ResultStore, StoreLock, decode_outcome
from repro.serve.metrics import ServeMetrics
from repro.serve.pool import WorkerPool
from repro.serve.spec import SweepSpec

#: Unit states a client sees in job status documents.
UNIT_TERMINAL = ("cached", "done", "failed", "skipped")

#: NDJSON event schema tag (bump on incompatible changes).
EVENT_SCHEMA = "serve-event/1"


class Job:
    """One accepted sweep spec and its per-unit progress."""

    def __init__(self, jid: str, spec: SweepSpec,
                 units: list[SweepUnit], seq: int) -> None:
        self.id = jid
        self.spec = spec
        self.units = units
        self.seq = seq                  # submission order (fairness key)
        self.state = "queued"           # queued|running|done|cancelled
        self.unit_states: dict[str, str] = {
            u.digest: "pending" for u in units}
        self.failed_bench: set[str] = set()
        self.running = 0                # units of this job on workers
        self.created = time.time()
        self.finished: float | None = None
        self.events: list[dict] = []
        self._subscribers: list[asyncio.Queue] = []
        self._event_seq = 0

    # -- events --------------------------------------------------------
    def emit(self, kind: str, **fields) -> dict:
        event = {"schema": EVENT_SCHEMA, "job": self.id,
                 "seq": self._event_seq, "t": round(time.time(), 3),
                 "kind": kind}
        event.update(fields)
        self._event_seq += 1
        self.events.append(event)
        for queue in self._subscribers:
            queue.put_nowait(event)
        return event

    def subscribe(self) -> asyncio.Queue:
        """Event queue primed with the full backlog.  ``None`` is the
        end-of-stream sentinel (pushed once the job is terminal)."""
        queue: asyncio.Queue = asyncio.Queue()
        for event in self.events:
            queue.put_nowait(event)
        if self.terminal:
            queue.put_nowait(None)
        else:
            self._subscribers.append(queue)
        return queue

    def _finish_stream(self) -> None:
        for queue in self._subscribers:
            queue.put_nowait(None)
        self._subscribers.clear()

    # -- status --------------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.state in ("done", "cancelled")

    def counts(self) -> dict:
        counts = {state: 0
                  for state in ("pending", "running") + UNIT_TERMINAL}
        for state in self.unit_states.values():
            counts[state] += 1
        return counts

    def to_dict(self) -> dict:
        counts = self.counts()
        return {
            "id": self.id, "state": self.state,
            "spec": self.spec.to_dict(),
            "spec_digest": self.spec.digest(),
            "units": counts, "total_units": len(self.units),
            "unit_states": dict(self.unit_states),
            "failed_benchmarks": sorted(self.failed_bench),
            "created": round(self.created, 3),
            "finished": round(self.finished, 3)
            if self.finished is not None else None,
        }


class Scheduler:
    """Owns the store, the journal, the pool, and the ready queue."""

    def __init__(self, dir: str, *, workers: int = 2,
                 policy: DurablePolicy | None = None,
                 metrics: ServeMetrics | None = None) -> None:
        self.dir = str(dir)
        self.policy = policy or DurablePolicy()
        self.metrics = metrics or ServeMetrics()
        self.pool = WorkerPool(workers, self.policy, self._on_shard)
        self.jobs: dict[str, Job] = {}
        self._job_seq = 0
        #: digest -> [(job, unit), ...] — everyone awaiting the digest.
        self._interest: dict[str, list] = {}
        #: digests queued or on a worker (in-flight dedup set).
        self._inflight: set[str] = set()
        self._ready: list[str] = []     # digests awaiting dispatch
        self._active: set[asyncio.Task] = set()
        self._wake = asyncio.Event()
        self._draining = False
        self._dispatcher: asyncio.Task | None = None

    def _on_shard(self, kind: str, worker, **fields) -> None:
        if kind == "respawn":
            self.metrics.inc("serve_workers_respawned")

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def start(self) -> None:
        os.makedirs(self.dir, exist_ok=True)
        self.lock = StoreLock(self.dir).acquire(owner="repro.serve")
        try:
            self.store = ResultStore(self.dir)
            self.journal = Journal(os.path.join(self.dir, "serve.wal"),
                                   fsync=self.policy.fsync)
            self.journal.open()
        except Exception:
            self.lock.release()
            raise
        self.journal.append("serve-start", workers=self.pool.size,
                            t=round(time.time(), 3))
        self.pool.start()
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        self._recover()

    def _recover(self) -> None:
        """Resubmit journaled jobs that never reached a closing record."""
        replay = Journal(os.path.join(self.dir, "serve.wal")).replay()
        open_jobs: dict[str, dict] = {}
        for record in replay.records:
            if record["kind"] == "job-submit":
                open_jobs[record["job"]] = record
                seq = int(record["job"].rsplit("-", 1)[1])
                self._job_seq = max(self._job_seq, seq)
            elif record["kind"] in ("job-done", "job-cancel"):
                open_jobs.pop(record["job"], None)
        for jid, record in open_jobs.items():
            try:
                spec = SweepSpec.from_dict(record["spec"])
            except ServeError as exc:     # valid when it was journaled
                self.journal.append("job-cancel", job=jid, error=str(exc),
                                    t=round(time.time(), 3))
                continue
            job = self._admit(spec, jid=jid, recovered=True)
            self.metrics.inc("serve_jobs_recovered")
            job.emit("job-recovered")

    async def drain(self) -> list[str]:
        """Graceful shutdown: stop admitting, wait for in-flight units
        (up to ``policy.drain_timeout``), journal, release the lock.

        Returns the ids of jobs left unfinished (they will be recovered
        by the next start from their ``job-submit`` records).
        """
        self._draining = True
        self._wake.set()
        if self._active:
            done, pending = await asyncio.wait(
                self._active, timeout=self.policy.drain_timeout)
            for task in pending:
                task.cancel()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
        await self.pool.close()
        unfinished = [job.id for job in self.jobs.values()
                      if not job.terminal]
        self.journal.append("serve-drain", unfinished=unfinished,
                            t=round(time.time(), 3))
        self.journal.close()
        self.lock.release()
        return unfinished

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------
    def submit(self, spec: SweepSpec) -> Job:
        if self._draining:
            raise ServeError("service is draining; resubmit after restart")
        job = self._admit(spec)
        self.metrics.inc("serve_jobs_submitted")
        return job

    def _admit(self, spec: SweepSpec, jid: str | None = None,
               recovered: bool = False) -> Job:
        if jid is None:
            self._job_seq += 1
            jid = f"job-{self._job_seq:06d}"
        units = spec.expand()
        job = Job(jid, spec, units, self._job_seq)
        self.jobs[jid] = job
        if not recovered:
            self.journal.append(
                "job-submit", job=jid, spec=spec.to_dict(),
                digests=[u.digest for u in units])
        self.metrics.inc("serve_units_total", len(units))
        job.emit("job-queued", total_units=len(units),
                 spec_digest=spec.digest())
        job.state = "running"
        # Round chaining: only round 0 is schedulable up front.
        for unit in units:
            if unit.round == 0:
                self._schedule_unit(job, unit)
        self._check_done(job)
        self._wake.set()
        return job

    def _schedule_unit(self, job: Job, unit: SweepUnit) -> None:
        payload = self.store.get(unit.digest)
        if payload is not None:
            try:
                outcome = decode_outcome(payload)
            except Exception:                       # pragma: no cover
                outcome = None
            if outcome is not None:
                self.metrics.inc("serve_units_cached")
                job.emit("unit-cached", digest=unit.digest,
                         benchmark=unit.name, round=unit.round,
                         outcome=outcome["kind"])
                self._resolve(job, unit, outcome, state="cached")
                return
        if unit.digest in self._inflight:           # join, don't re-run
            self.metrics.inc("serve_units_deduped")
            self._interest[unit.digest].append((job, unit))
            job.unit_states[unit.digest] = "running"
            job.emit("unit-deduped", digest=unit.digest,
                     benchmark=unit.name, round=unit.round)
            return
        self._inflight.add(unit.digest)
        self._interest[unit.digest] = [(job, unit)]
        self._ready.append(unit.digest)
        self._wake.set()

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------
    def _pick(self) -> str | None:
        """Highest-priority, fairest eligible digest, or None."""
        def key(digest):
            job, unit = self._interest[digest][0]
            return (job.spec.priority, job.running, job.seq,
                    unit.round, unit.index)

        eligible = []
        for digest in self._ready:
            job, unit = self._interest[digest][0]
            cap = job.spec.max_concurrency
            if cap is not None and job.running >= cap:
                continue
            eligible.append(digest)
        if not eligible:
            return None
        choice = min(eligible, key=key)
        self._ready.remove(choice)
        return choice

    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self._draining:
                return
            # Bound by active tasks, not pool.idle_count: a task created
            # this iteration hasn't taken its worker yet, so idle_count
            # alone would greedily drain the whole ready queue and rob
            # cancellation/fairness of their queued units.
            while self._ready and len(self._active) < self.pool.size:
                digest = self._pick()
                if digest is None:
                    break
                task = asyncio.ensure_future(self._run_digest(digest))
                self._active.add(task)
                task.add_done_callback(self._task_done)

    def _task_done(self, task: asyncio.Task) -> None:
        # Discard BEFORE waking the dispatcher: waking first would let
        # it observe a stale full active set, clear the event, and
        # sleep through the slot this completion just freed.
        self._active.discard(task)
        self._wake.set()

    async def _run_digest(self, digest: str) -> None:
        interested = self._interest[digest]
        job, unit = interested[0]
        job.running += 1
        for j, u in interested:
            j.unit_states[u.digest] = "running"
            j.emit("unit-begin", digest=digest, benchmark=u.name,
                   round=u.round)

        def on_stage(stage: str, attempt: int) -> None:
            for j, _ in self._interest.get(digest, ()):
                j.emit("stage", digest=digest, stage=stage,
                       attempt=attempt)

        try:
            outcome, payload = await self.pool.run_unit(
                unit, job.spec.config(), on_stage)
        except asyncio.CancelledError:  # drain timeout: unit is lost,
            job.running -= 1            # job stays open for recovery
            raise
        # Single-writer store append happens here, on the event loop.
        self.store.put(digest, payload)
        self.metrics.inc("serve_units_executed")
        job.running -= 1
        state = "done" if outcome["kind"] == "result" else "failed"
        if state == "failed":
            self.metrics.inc("serve_units_failed")
        for j, u in self._interest.pop(digest, ()):
            j.emit("unit-done", digest=digest, benchmark=u.name,
                   round=u.round, outcome=outcome["kind"],
                   fingerprint=outcome["result"].fingerprint()
                   if outcome["kind"] == "result" else None)
            self._resolve(j, u, outcome, state=state)
        self._inflight.discard(digest)

    # ------------------------------------------------------------------
    # Resolution (mirrors DurableSweep._resolve round chaining).
    # ------------------------------------------------------------------
    def _resolve(self, job: Job, unit: SweepUnit, outcome: dict, *,
                 state: str) -> None:
        job.unit_states[unit.digest] = state
        failed = outcome["kind"] == "failure"
        if failed:
            job.failed_bench.add(unit.name)
            self._skip_later_rounds(job, unit)
        else:
            nxt = self._next_round(job, unit)
            if nxt is not None:
                self._schedule_unit(job, nxt)
        self._check_done(job)

    def _next_round(self, job: Job, unit: SweepUnit) -> SweepUnit | None:
        for candidate in job.units:
            if candidate.index == unit.index \
                    and candidate.round == unit.round + 1:
                return candidate
        return None

    def _skip_later_rounds(self, job: Job, unit: SweepUnit) -> None:
        for candidate in job.units:
            if candidate.name == unit.name \
                    and candidate.round > unit.round \
                    and job.unit_states[candidate.digest] == "pending":
                job.unit_states[candidate.digest] = "skipped"
                self.metrics.inc("serve_units_skipped")
                job.emit("unit-skipped", digest=candidate.digest,
                         benchmark=candidate.name, round=candidate.round,
                         reason=f"round {unit.round} failed")

    def _check_done(self, job: Job) -> None:
        if job.terminal:
            return
        if all(state in UNIT_TERMINAL
               for state in job.unit_states.values()):
            job.state = "done"
            job.finished = time.time()
            counts = job.counts()
            self.journal.append("job-done", job=job.id,
                                units=counts, t=round(job.finished, 3))
            if counts["failed"]:
                self.metrics.inc("serve_jobs_failed")
            else:
                self.metrics.inc("serve_jobs_completed")
            job.emit("job-done", units=counts)
            job._finish_stream()

    # ------------------------------------------------------------------
    # Queries and cancellation.
    # ------------------------------------------------------------------
    def get_job(self, jid: str) -> Job:
        try:
            return self.jobs[jid]
        except KeyError:
            raise ServeError(f"unknown job {jid!r}") from None

    def cancel(self, jid: str) -> Job:
        """Cancel a job: queued units are dropped, in-flight units run
        to completion (their results still land in the store)."""
        job = self.get_job(jid)
        if job.terminal:
            return job
        for unit in job.units:
            if job.unit_states[unit.digest] not in UNIT_TERMINAL \
                    and job.unit_states[unit.digest] != "running":
                job.unit_states[unit.digest] = "skipped"
                self.metrics.inc("serve_units_skipped")
            # Drop queued digests this job exclusively owns.
            interested = self._interest.get(unit.digest)
            if interested and unit.digest in self._ready:
                remaining = [(j, u) for j, u in interested if j is not job]
                if remaining:
                    self._interest[unit.digest] = remaining
                else:
                    self._ready.remove(unit.digest)
                    self._interest.pop(unit.digest, None)
                    self._inflight.discard(unit.digest)
            elif interested:            # running: detach this job only
                self._interest[unit.digest] = [
                    (j, u) for j, u in interested if j is not job
                ] or interested[:1]     # keep primary for bookkeeping
        job.state = "cancelled"
        job.finished = time.time()
        self.journal.append("job-cancel", job=jid,
                            t=round(job.finished, 3))
        self.metrics.inc("serve_jobs_cancelled")
        job.emit("job-cancelled")
        job._finish_stream()
        return job

    def gauges(self) -> dict:
        return {
            "serve_jobs_open": sum(1 for j in self.jobs.values()
                                   if not j.terminal),
            "serve_units_ready": len(self._ready),
            "serve_units_inflight": len(self._active),
            "serve_workers_idle": self.pool.idle_count,
        }
