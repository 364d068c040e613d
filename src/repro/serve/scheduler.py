"""The one unit scheduler: jobs, admission, round chaining, dispatch.

Every sweep that runs on worker processes is a :class:`Job` on a
:class:`Scheduler`, behind one of two front-ends: the service
(:meth:`~Scheduler.start`/``submit``/``drain``) shares one scheduler
between many jobs; a durable sweep
(:class:`~repro.harness.durable.DurableSweep`) runs as one job with
:meth:`~Scheduler.run`.  Both mint the same content-addressed unit
digests, so scheduling is mostly *avoiding work*:

- **store admission** — a digest already in the result store resolves
  instantly as ``unit-cached`` (zero executions),
- **in-flight dedup** — a digest another job is already running is
  joined, not re-enqueued; every interested job gets the one outcome,
- **round chaining** — round ``r+1`` of a benchmark is scheduled only
  once round ``r`` resolves, and a failure skips the later rounds, so
  the outcome set matches a serial sweep's; an ended job schedules none,
- the ready queue orders by ``(priority, owner's running units, job
  age, round, index)`` and per-job ``max_concurrency`` caps how much of
  the pool one job may hold; units run on the
  :class:`~repro.serve.pool.WorkerPool` and the event loop writes their
  outcomes to the store, its only writer.

A job's per-unit lifecycle (``unit-cached``/``unit-begin``/``stage``/
``unit-done``) goes to one sink: the job's NDJSON event stream, or a
sweep's ``journal.wal``.  A unit task that raises (a full disk, say)
ends every job waiting on its digest in state ``error`` and frees the
digest.  The service journals jobs, never units, to ``serve.wal``:
``job-submit`` before any scheduling, ``job-done``/``job-cancel`` to
close.  On start, unclosed submits are resubmitted (what finished
before a drain is now a store hit), and one whose spec no longer
validates is closed with a ``job-cancel``.
"""

from __future__ import annotations

import asyncio
import os
import time

from repro.errors import ServeError
from repro.harness.config import SweepConfig
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
    """One job's units, how to run them, and their progress.

    Units are sent with ``config`` and their benchmark's fault plan from
    ``plans``; ``spec`` is the service's spec the job came from.
    ``sink(kind, outcome, /, **fields)`` hears the job's events (with
    the outcome for ``unit-cached``/``unit-done``); by default they form
    the job's NDJSON event stream.
    """

    def __init__(self, jid: str, units: list[SweepUnit],
                 config: SweepConfig, *, plans: dict | None = None,
                 priority: int = 0, max_concurrency: int | None = None,
                 seq: int = 0, spec: SweepSpec | None = None,
                 sink=None) -> None:
        self.id = jid
        self.units = units
        self.config = config
        self.plans = plans or {}
        self.priority = priority
        self.max_concurrency = max_concurrency
        self.seq = seq                  # submission order (fairness key)
        self.spec = spec
        self.sink = sink
        self.state = "queued"   # queued|running|done|cancelled|error
        self.error: Exception | None = None
        self.unit_states: dict[str, str] = {
            u.digest: "pending" for u in units}
        self.failed_bench: set[str] = set()
        self.running = 0                # units of this job on workers
        self.created = time.time()
        self.finished: float | None = None
        self.events: list[dict] = []
        self._subscribers: list[asyncio.Queue] = []

    # -- events --------------------------------------------------------
    def emit(self, kind: str, unit: SweepUnit | None = None,
             outcome: dict | None = None, **fields) -> None:
        """Hand one event to the sink, or append it to the stream."""
        if unit is not None:
            fields.update(digest=unit.digest, benchmark=unit.name,
                          round=unit.round)
        if outcome is not None:
            fields["outcome"] = outcome["kind"]
        if self.sink is not None:
            return self.sink(kind, outcome, **fields)
        event = {"schema": EVENT_SCHEMA, "job": self.id,
                 "seq": len(self.events), "t": round(time.time(), 3),
                 "kind": kind}
        event.update(fields)
        if kind == "unit-done":
            event["fingerprint"] = outcome["result"].fingerprint() \
                if outcome["kind"] == "result" else None
        self.events.append(event)
        for queue in self._subscribers:
            queue.put_nowait(event)

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
        return self.state in ("done", "cancelled", "error")

    def counts(self) -> dict:
        counts = dict.fromkeys(("pending", "running") + UNIT_TERMINAL, 0)
        for state in self.unit_states.values():
            counts[state] += 1
        return counts

    def to_dict(self) -> dict:
        doc = {
            "id": self.id, "state": self.state,
            "spec": self.spec.to_dict(),
            "spec_digest": self.spec.digest(),
            "units": self.counts(), "total_units": len(self.units),
            "unit_states": dict(self.unit_states),
            "failed_benchmarks": sorted(self.failed_bench),
            "created": round(self.created, 3),
            "finished": round(self.finished, 3)
            if self.finished is not None else None,
        }
        if self.error is not None:
            doc["error"] = _describe(self.error)
        return doc


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Scheduler:
    """Owns the store, the pool, the jobs and the ready queue; the
    service's front-end adds ``serve.wal`` and the store lock."""

    def __init__(self, dir: str, *, workers: int = 2,
                 policy: DurablePolicy | None = None,
                 metrics: ServeMetrics | None = None) -> None:
        self.dir = str(dir)
        self.policy = policy or DurablePolicy()
        self.metrics = metrics or ServeMetrics()
        self.pool = WorkerPool(workers, self.policy, self._on_shard)
        self.store = ResultStore(self.dir)
        self.journal: Journal | None = None     # serve.wal (service only)
        self.jobs: dict[str, Job] = {}
        self._job_seq = 0
        #: digest -> [(job, unit), ...] — everyone awaiting the digest.
        self._interest: dict[str, list] = {}
        #: digests queued or on a worker (in-flight dedup set).
        self._inflight: set[str] = set()
        self._ready: list[str] = []     # digests awaiting dispatch
        self._active: dict[asyncio.Task, str] = {}  # task -> its digest
        self._wake = asyncio.Event()
        self._draining = False
        self._dispatcher: asyncio.Task | None = None

    def _on_shard(self, kind: str, worker, **fields) -> None:
        if kind == "respawn":
            self.metrics.inc("serve_workers_respawned")

    # ------------------------------------------------------------------
    # Front-end: the service.
    # ------------------------------------------------------------------
    async def start(self) -> None:
        os.makedirs(self.dir, exist_ok=True)
        self.lock = StoreLock(self.dir).acquire(owner="repro.serve")
        try:
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
            job = self._job_of(spec, jid)
            self.metrics.inc("serve_jobs_recovered")
            job.emit("job-recovered")
            self._admit(job)

    async def drain(self) -> list[str]:
        """Graceful shutdown: stop admitting, wait for in-flight units
        (up to ``policy.drain_timeout``), journal, release the lock.

        Returns the ids of jobs left unfinished (they will be recovered
        by the next start from their ``job-submit`` records).
        """
        await self._stop()
        unfinished = [job.id for job in self.jobs.values()
                      if not job.terminal]
        self.journal.append("serve-drain", unfinished=unfinished,
                            t=round(time.time(), 3))
        self.journal.close()
        self.lock.release()
        return unfinished

    def submit(self, spec: SweepSpec) -> Job:
        if self._draining:
            raise ServeError("service is draining; resubmit after restart")
        self._job_seq += 1
        job = self._job_of(spec, f"job-{self._job_seq:06d}")
        self.journal.append("job-submit", job=job.id, spec=spec.to_dict(),
                            digests=[u.digest for u in job.units])
        self.metrics.inc("serve_jobs_submitted")
        self._admit(job)
        return job

    def _job_of(self, spec: SweepSpec, jid: str) -> Job:
        job = Job(jid, spec.expand(), spec.config(),
                  priority=spec.priority,
                  max_concurrency=spec.max_concurrency,
                  seq=self._job_seq, spec=spec)
        job.emit("job-queued", total_units=len(job.units),
                 spec_digest=spec.digest())
        return job

    # ------------------------------------------------------------------
    # Front-end: one job to its end (a durable sweep).
    # ------------------------------------------------------------------
    async def run(self, job: Job) -> None:
        """Run ``job`` to its end, then stop; the caller holds the lock.
        Workers are forked only for units the store misses, no more than
        are ready.  An error that ended the job is raised here."""
        ended = job.subscribe()
        self._admit(job)
        if self._ready:
            self.pool.size = min(self.pool.size, len(self._ready))
            self.pool.start()
            self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        while await ended.get() is not None:
            pass
        await self._stop()
        if job.error is not None:
            raise job.error

    # ------------------------------------------------------------------
    # Admission: store hit, in-flight join, or the ready queue.  Rounds
    # of one benchmark form a chain, so only round 0 is admitted up
    # front.
    # ------------------------------------------------------------------
    def _admit(self, job: Job) -> None:
        self.jobs[job.id] = job
        self.metrics.inc("serve_units_total", len(job.units))
        job.state = "running"
        for unit in job.units:
            if unit.round == 0:
                self._schedule_unit(job, unit)
        self._check_done(job)
        self._wake.set()

    def _schedule_unit(self, job: Job, unit: SweepUnit) -> None:
        payload = self.store.get(unit.digest)
        if payload is not None:
            try:
                outcome = decode_outcome(payload)
            except Exception:                       # pragma: no cover
                self.store.corrupt.append((unit.digest, "undecodable"))
            else:
                self.metrics.inc("serve_units_cached")
                self._resolve(job, unit, outcome, "unit-cached")
                return
        if unit.digest in self._inflight:           # join, don't re-run
            self.metrics.inc("serve_units_deduped")
            self._interest[unit.digest].append((job, unit))
            job.unit_states[unit.digest] = "running"
            job.emit("unit-deduped", unit)
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
            return (job.priority, job.running, job.seq,
                    unit.round, unit.index)

        def capped(digest):
            job = self._interest[digest][0][0]
            return job.max_concurrency is not None \
                and job.running >= job.max_concurrency

        choice = min((d for d in self._ready if not capped(d)), key=key,
                     default=None)
        if choice is not None:
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
                self._active[task] = digest
                task.add_done_callback(self._task_done)

    def _task_done(self, task: asyncio.Task) -> None:
        # Discard BEFORE waking the dispatcher: waking first would let
        # it observe a stale full active set, clear the event, and
        # sleep through the slot this completion just freed.
        digest = self._active.pop(task)
        if not task.cancelled() and task.exception() is not None:
            self._fail(digest, task.exception())
        self._wake.set()

    async def _run_digest(self, digest: str) -> None:
        interested = self._interest[digest]
        job, unit = interested[0]
        for j, u in interested:
            j.unit_states[u.digest] = "running"
        begun = False

        def on_stage(worker, stage: str, attempt: int) -> None:
            nonlocal begun
            for j, u in interested:
                if not begun:
                    j.emit("unit-begin", u, worker=worker.wid)
                j.emit("stage", digest=digest, stage=stage,
                       attempt=attempt)
            begun = True

        job.running += 1
        try:
            outcome, payload = await self.pool.run_unit(
                unit, job.config, on_stage, job.plans.get(unit.name))
        finally:                # a drain-timeout cancel loses the unit;
            job.running -= 1    # its jobs stay open for recovery
        self.store.put(digest, payload)
        self.metrics.inc("serve_units_executed")
        if outcome["kind"] == "failure":
            self.metrics.inc("serve_units_failed")
        for j, u in list(interested):
            self._resolve(j, u, outcome, "unit-done")
        del self._interest[digest]
        self._inflight.discard(digest)

    def _fail(self, digest: str, exc: Exception) -> None:
        """A unit task raised: end every job waiting on its digest and
        free the digest, so a later job runs it again."""
        self._inflight.discard(digest)
        for job, _ in self._interest.pop(digest, ()):
            if job.terminal:
                job.error = job.error or exc
                continue
            self._drop(job)
            self._close(job, "error", exc)

    # ------------------------------------------------------------------
    # Resolution: round chaining.
    # ------------------------------------------------------------------
    def _resolve(self, job: Job, unit: SweepUnit, outcome: dict,
                 kind: str) -> None:
        failed = outcome["kind"] == "failure"
        job.unit_states[unit.digest] = "cached" if kind == "unit-cached" \
            else "failed" if failed else "done"
        job.emit(kind, unit, outcome)
        if failed:
            job.failed_bench.add(unit.name)
            self._skip_later_rounds(job, unit)
        elif job.state == "running":
            nxt = next((u for u in job.units if u.index == unit.index
                        and u.round == unit.round + 1), None)
            if nxt is not None:
                self._schedule_unit(job, nxt)
        self._check_done(job)

    def _skip_later_rounds(self, job: Job, unit: SweepUnit) -> None:
        for candidate in job.units:
            if candidate.name == unit.name \
                    and candidate.round > unit.round \
                    and job.unit_states[candidate.digest] == "pending":
                job.unit_states[candidate.digest] = "skipped"
                self.metrics.inc("serve_units_skipped")
                job.emit("unit-skipped", candidate,
                         reason=f"round {unit.round} failed")

    def _check_done(self, job: Job) -> None:
        if not job.terminal and all(
                state in UNIT_TERMINAL
                for state in job.unit_states.values()):
            self._close(job, "done")

    def _close(self, job: Job, state: str,
               error: Exception | None = None) -> None:
        """End a job ``done``, ``cancelled`` or in ``error``.  Its stream
        ends before ``serve.wal`` is written, which may raise."""
        job.state, job.error, job.finished = state, error, time.time()
        fields = {"units": job.counts()} if state == "done" \
            else {"error": _describe(error)} if error else {}
        job.emit({"done": "job-done", "cancelled": "job-cancelled",
                  "error": "job-error"}[state], **fields)
        job._finish_stream()
        self.metrics.inc(
            "serve_jobs_cancelled" if state == "cancelled"
            else "serve_jobs_failed" if error or fields["units"]["failed"]
            else "serve_jobs_completed")
        if self.journal is not None:    # a sweep journals through its sink
            self.journal.append(
                "job-done" if state == "done" else "job-cancel",
                job=job.id, t=round(job.finished, 3), **fields)

    # ------------------------------------------------------------------
    # Queries, cancellation and stopping.
    # ------------------------------------------------------------------
    def get_job(self, jid: str) -> Job:
        try:
            return self.jobs[jid]
        except KeyError:
            raise ServeError(f"unknown job {jid!r}") from None

    def cancel(self, jid: str) -> Job:
        """Cancel a job: queued units are dropped and no later round is
        scheduled; units on a worker run to completion (their results
        still land in the store)."""
        job = self.get_job(jid)
        if not job.terminal:
            self._drop(job)
            self._close(job, "cancelled")
        return job

    def _drop(self, job: Job) -> None:
        """Take ``job`` out of the ready queue and skip every unit of it
        that is neither resolved nor on a worker.  A queued digest
        another job also wants stays queued for that job."""
        for unit in job.units:
            digest = unit.digest
            interested = self._interest.get(digest, ())
            if any(j is job for j, _ in interested):
                if digest not in self._ready:
                    continue            # on a worker: it still resolves
                rest = [(j, u) for j, u in interested if j is not job]
                if rest:
                    self._interest[digest] = rest
                else:
                    self._ready.remove(digest)
                    del self._interest[digest]
                    self._inflight.discard(digest)
            if job.unit_states[digest] not in UNIT_TERMINAL:
                job.unit_states[digest] = "skipped"
                self.metrics.inc("serve_units_skipped")

    async def _stop(self) -> None:
        """No new dispatch; wait for units on workers (up to
        ``policy.drain_timeout``), then stop the pool."""
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

    def gauges(self) -> dict:
        return {
            "serve_jobs_open": sum(1 for j in self.jobs.values()
                                   if not j.terminal),
            "serve_units_ready": len(self._ready),
            "serve_units_inflight": len(self._active),
            "serve_workers_idle": self.pool.idle_count,
        }
