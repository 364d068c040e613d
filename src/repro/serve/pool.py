"""The one driver of supervised unit workers.

The processes, the pipe protocol and the judgement of when a worker is
lost are :mod:`repro.harness.workers`; this module is the asyncio
driver the one scheduler (:class:`~repro.serve.scheduler.Scheduler`)
runs units on, the only caller of :meth:`WorkerPool.run_unit`.  The
service's scheduler shares one pool between *many* jobs with
*different* configurations; a durable sweep's scheduler has one pool
for its one job.  Each unit is sent with its own
:class:`~repro.harness.config.SweepConfig` and fault plan; each worker
is owned by exactly one coroutine at a time, and the blocking
:meth:`~repro.harness.workers.Worker.step` runs on the default executor
so the event loop (the store's single writer) never blocks.

A sweep's plugins are handed to every worker at spawn: the fork gives
the child its own copy, and only the per-unit snapshots come back.  The
service runs ``plan=None, plugins=()`` — the fingerprint under which
its digests were minted (see :mod:`repro.serve.spec`).
"""

from __future__ import annotations

import asyncio

from repro.harness.config import SweepConfig
from repro.harness.durable import DurablePolicy, SweepUnit, execute_unit
from repro.harness.store import decode_outcome, encode_outcome
from repro.harness.workers import Worker, lost_unit_failure


class WorkerPool:
    """Asyncio-owned pool of supervised :class:`Worker` processes.

    ``on_shard(kind, worker, **fields)`` hears every shard event:
    ``"spawn"``, ``"exit"`` (the worker was lost, ``reason=``) and
    ``"respawn"`` (``worker`` replaces the lost one, ``replaces=`` its
    id).  ``plugins``, set before :meth:`start`, go to every worker.
    """

    def __init__(self, size: int, policy: DurablePolicy, on_shard) -> None:
        self.size = max(1, size)
        self.policy = policy
        self.on_shard = on_shard
        self.plugins: tuple = ()
        self._idle: asyncio.Queue = asyncio.Queue()
        self._workers: dict[int, Worker] = {}
        self._next_wid = 0
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def idle_count(self) -> int:
        return self._idle.qsize()

    def start(self) -> None:
        for _ in range(self.size):
            self._spawn()

    def _spawn(self) -> Worker:
        worker = Worker(self._next_wid, execute_unit, self.policy,
                        self.plugins)
        self._next_wid += 1
        self._workers[worker.wid] = worker
        self._idle.put_nowait(worker)
        self.on_shard("spawn", worker)
        return worker

    # ------------------------------------------------------------------
    async def run_unit(self, unit: SweepUnit, config: SweepConfig,
                       on_stage, plan) -> tuple[dict, bytes]:
        """Execute one unit, supervising the worker that runs it.

        ``on_stage(worker, stage, attempt)`` hears every stage the
        worker running the unit enters.  Returns ``(outcome, payload)``
        — the decoded outcome dict plus the exact bytes to persist.  A
        lost worker is replaced and the unit retried elsewhere, up to
        ``policy.max_unit_attempts``; after that the outcome is the
        quarantining :func:`~repro.harness.workers.lost_unit_failure` —
        a sick unit never wedges a sweep or the service.
        """
        loop = asyncio.get_running_loop()
        attempt = 0
        while True:
            worker = await self._idle.get()
            worker.send(unit, config, plan)
            while True:
                event = await loop.run_in_executor(
                    None, worker.step, self.policy.heartbeat_interval)
                if event is None:
                    continue
                if event[0] != "stage":
                    break
                on_stage(worker, event[1], event[2])
            if event[0] == "done":
                self._idle.put_nowait(worker)
                return decode_outcome(event[1]), event[1]
            self._workers.pop(worker.wid, None)
            self.on_shard("exit", worker, reason=event[1])
            if not self._closed:
                self.on_shard("respawn", self._spawn(), replaces=worker.wid)
            attempt += 1
            if attempt >= self.policy.max_unit_attempts:
                outcome = lost_unit_failure(worker, config, attempt)
                return outcome, encode_outcome(outcome)

    # ------------------------------------------------------------------
    async def close(self) -> None:
        """Stop every worker; a unit still in flight is lost with it."""
        self._closed = True
        for worker in self._workers.values():
            worker.stop()
        self._workers.clear()
        while not self._idle.empty():               # drop stale handles
            self._idle.get_nowait()
