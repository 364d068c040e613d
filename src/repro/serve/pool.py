"""The service's pool of supervised unit workers.

The processes, the pipe protocol and the judgement of when a worker is
lost are :mod:`repro.harness.workers` — the same
:class:`~repro.harness.workers.Worker` the ``jobs=N`` sweep controller
drives.  This module is the asyncio driver: a service runs units from
*many* jobs with *different* configurations, so each unit is sent with
its own :class:`~repro.harness.config.SweepConfig`; each worker is owned
by exactly one coroutine at a time, and the blocking
:meth:`~repro.harness.workers.Worker.step` runs on the default executor
so the event loop (the store's single writer) never blocks.

Faults and plugins never cross this boundary: the service always runs
``plan=None, plugins=()`` — the fingerprint under which its digests
were minted (see :mod:`repro.serve.spec`).
"""

from __future__ import annotations

import asyncio

from repro.harness.config import SweepConfig
from repro.harness.durable import DurablePolicy, SweepUnit, execute_unit
from repro.harness.store import decode_outcome, encode_outcome
from repro.harness.workers import Worker, lost_unit_failure


class WorkerPool:
    """Asyncio-owned pool of supervised :class:`Worker` processes."""

    def __init__(self, size: int, policy: DurablePolicy,
                 metrics=None) -> None:
        self.size = max(1, size)
        self.policy = policy
        self.metrics = metrics
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

    def _spawn(self) -> None:
        worker = Worker(self._next_wid, execute_unit, self.policy)
        self._next_wid += 1
        self._workers[worker.wid] = worker
        self._idle.put_nowait(worker)

    # ------------------------------------------------------------------
    async def run_unit(self, unit: SweepUnit, config: SweepConfig,
                       on_stage=None) -> tuple[dict, bytes]:
        """Execute one unit, supervising the worker that runs it.

        Returns ``(outcome, payload)`` — the decoded outcome dict plus
        the exact bytes to persist.  A lost worker is replaced and the
        unit retried elsewhere, up to ``policy.max_unit_attempts``;
        after that the outcome is the quarantining
        :func:`~repro.harness.workers.lost_unit_failure` — a sick unit
        never wedges the service.
        """
        loop = asyncio.get_running_loop()
        attempt = 0
        while True:
            worker = await self._idle.get()
            worker.send(unit, config)
            while True:
                event = await loop.run_in_executor(
                    None, worker.step, self.policy.heartbeat_interval)
                if event is None:
                    continue
                if event[0] != "stage":
                    break
                if on_stage is not None:
                    on_stage(event[1], event[2])
            if event[0] == "done":
                self._idle.put_nowait(worker)
                return decode_outcome(event[1]), event[1]
            self._workers.pop(worker.wid, None)
            if self.metrics is not None:
                self.metrics.inc("serve_workers_respawned")
            if not self._closed:
                self._spawn()
            attempt += 1
            if attempt >= self.policy.max_unit_attempts:
                outcome = lost_unit_failure(worker, config, attempt)
                return outcome, encode_outcome(outcome)

    # ------------------------------------------------------------------
    async def close(self) -> None:
        """Stop every worker (in-flight units must already be drained)."""
        self._closed = True
        for worker in self._workers.values():
            worker.stop()
        self._workers.clear()
        while not self._idle.empty():               # drop stale handles
            self._idle.get_nowait()
