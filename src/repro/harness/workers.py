"""One supervised unit worker: the child loop and its parent-side judge.

Every sweep that leaves the controller's process — ``run_suite(jobs=N)``,
every durable sweep, the :mod:`repro.serve` service — runs its units
here: one forked process per :class:`Worker`, one private pipe per
worker (no shared queue a dying worker could poison), a heartbeat
thread in the child, and a single place (:meth:`Worker.step`) that
decides when a worker is lost — pipe EOF, process exit, heartbeat
staleness, a stage past its deadline, or a crash message carrying the
child's traceback.  Its one driver,
:class:`~repro.serve.pool.WorkerPool`, steps each worker from one
coroutine via ``run_in_executor`` and decides what to do about a lost
worker (respawn, retry the unit, give up); the quarantining outcome of
giving up is :func:`lost_unit_failure`.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback

from repro.faults.report import FailureReport
from repro.harness.store import encode_outcome


def _child_loop(conn, execute, policy, plugins) -> None:
    """Child: pull ``("unit", unit, config, plan)`` messages, heartbeat,
    ship ``("stage"|"done"|"crash", ...)`` back."""
    send_lock = threading.Lock()

    def send(msg) -> None:
        with send_lock:
            try:
                conn.send(msg)
            except (BrokenPipeError, OSError):      # parent is gone
                os._exit(1)

    stop_beating = threading.Event()

    def beat() -> None:
        while not stop_beating.wait(policy.heartbeat_interval):
            send(("hb",))

    threading.Thread(target=beat, daemon=True).start()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        _, unit, config, plan = msg
        try:
            outcome = execute(
                unit, config, plan, plugins, policy,
                notify=lambda stage, attempt: send(
                    ("stage", stage, attempt)))
            send(("done", encode_outcome(outcome)))
        except BaseException:         # truly unexpected: report and die
            # The parent reports this traceback in the unit's
            # FailureReport; exit without multiprocessing printing it.
            send(("crash", traceback.format_exc()))
            stop_beating.set()
            os._exit(1)
    stop_beating.set()
    conn.close()


class Worker:
    """Parent-side supervisor of one worker process.

    ``execute`` is the per-unit function the child runs
    (:func:`repro.harness.durable.execute_unit`; tests pass stubs),
    ``policy`` the :class:`~repro.harness.durable.DurablePolicy` whose
    heartbeat and deadline settings :meth:`step` judges by, ``plugins``
    the instances every unit of this worker runs under (the fork gives
    the child its own copy).
    """

    def __init__(self, wid: int, execute, policy, plugins: tuple = ()) -> None:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:                          # pragma: no cover
            ctx = multiprocessing.get_context("spawn")
        self.wid = wid
        self.policy = policy
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(
            target=_child_loop,
            args=(child_conn, execute, policy, plugins), daemon=True)
        self.proc.start()
        child_conn.close()
        self.unit = None                # the unit in flight, if any
        self.stage = None               # its last reported stage
        self.lost = None                # (error type, reason, traceback)
        self._last_seen = self._stage_started = time.monotonic()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def send(self, unit, config, plan=None) -> None:
        """Dispatch one unit.  A worker that is already dead is found by
        the next :meth:`step`, like one that dies a moment later."""
        self.unit = unit
        self.stage = None
        self._last_seen = self._stage_started = time.monotonic()
        try:
            self.conn.send(("unit", unit, config, plan))
        except (BrokenPipeError, OSError):
            pass

    def step(self, timeout: float):
        """Wait up to ``timeout`` seconds for this worker's next event.

        Returns ``("stage", stage, attempt)``, ``("done", payload)`` (the
        encoded outcome; the worker is free again), ``("lost", reason,
        traceback)`` (the process has been killed; :attr:`unit` and
        :attr:`stage` still say what it was doing), or None when
        nothing worth reporting happened.
        """
        try:
            msg = self.conn.recv() if self.conn.poll(timeout) else None
        except (EOFError, OSError):
            self.proc.join(timeout=1)
            return self._exited()
        now = time.monotonic()
        if msg is not None:
            self._last_seen = now
            if msg[0] == "stage":
                self.stage = msg[1]
                self._stage_started = now
                return msg
            if msg[0] == "done":
                self.unit = self.stage = None
                return msg
            if msg[0] == "crash":
                return self._lost("worker raised", msg[1])
            # A heartbeat: a live worker may still be past its deadline.
        elif not self.proc.is_alive():
            return self._exited()
        elif now - self._last_seen > self.policy.heartbeat_timeout:
            return self._lost("heartbeat lost")
        if self.unit is not None and self.stage is not None:
            deadline = self.policy.deadline_for(self.stage)
            if deadline is not None and now - self._stage_started > deadline:
                return self._lost(
                    f"stage {self.stage} exceeded {deadline:.3f}s deadline",
                    error_type="StageTimeout")
        return None

    def _exited(self):
        if self.proc.is_alive():
            return self._lost("pipe closed (worker died)")
        return self._lost(
            f"process exited (exitcode {self.proc.exitcode})")

    def _lost(self, reason: str, worker_tb: str = "",
              error_type: str = "WorkerLost"):
        self.lost = (error_type, reason, worker_tb)
        self.kill()
        return ("lost", reason, worker_tb)

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(timeout=5)
        try:
            self.conn.close()
        except OSError:                             # pragma: no cover
            pass

    def stop(self) -> None:
        """Ask an idle worker to exit; kill it if it does not."""
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=2)
        self.kill()


def lost_unit_failure(worker: Worker, config, attempts: int) -> dict:
    """The quarantining outcome of the unit ``worker`` was lost on, once
    its driver stops retrying — a sick unit never wedges a sweep."""
    unit, stage = worker.unit, worker.stage
    error_type, reason, worker_tb = worker.lost
    report = FailureReport(
        benchmark=unit.name, config=config.config_name,
        error_type=error_type,
        message=f"worker {worker.wid}: {reason} "
                f"(stage {stage or '?'}, attempt {attempts})",
        phase=f"stage:{stage or '?'}",
        schedule_seed=config.schedule_seed,
        retries=attempts - 1,
        extra={"worker": worker.wid, "stage": stage,
               "traceback": worker_tb})
    return {"kind": "failure", "failure": report, "plugins": None,
            "stages": ()}
