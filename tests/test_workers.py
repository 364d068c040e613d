"""The single supervisor: every way a unit worker can be lost.

``repro.harness.workers.Worker`` is what ``run_suite(jobs=N)``, durable
sweeps and the ``repro.serve`` pool all run their units on; these tests
drive it directly with stub per-unit functions, one per judgement
:meth:`Worker.step` makes.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.harness.config import SweepConfig
from repro.harness.durable import DurablePolicy, SweepUnit
from repro.harness.store import decode_outcome
from repro.harness.workers import Worker, lost_unit_failure
from tests.fixtures import GUARDED_BENCHMARK

UNIT = SweepUnit(0, 0, GUARDED_BENCHMARK, "ab" * 32)
CONFIG = SweepConfig(jit=None, schedule_seed=5)


def run_ok(unit, config, plan, plugins, policy, notify):
    notify("run", 0)
    return {"kind": "result", "unit": unit.name, "seed": config.schedule_seed}


def run_exits(unit, config, plan, plugins, policy, notify):
    notify("prepare", 0)
    os._exit(3)


def run_freezes(unit, config, plan, plugins, policy, notify):
    notify("run", 0)
    os.kill(os.getpid(), signal.SIGSTOP)    # alive, but not a heartbeat more


def run_overruns(unit, config, plan, plugins, policy, notify):
    notify("run", 0)
    time.sleep(60)


def run_raises(unit, config, plan, plugins, policy, notify):
    notify("collect", 0)
    raise RuntimeError("boom-in-child")


def events_of(worker, seconds=20.0):
    """Step ``worker`` until it is done or lost; every event it gave."""
    events = []
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        event = worker.step(0.05)
        if event is not None:
            events.append(event)
            if event[0] in ("done", "lost"):
                return events
    pytest.fail(f"worker neither finished nor was lost: {events}")


@pytest.fixture
def spawn():
    workers = []

    def make(execute, **policy):
        worker = Worker(len(workers), execute, DurablePolicy(
            heartbeat_interval=0.05, **policy))
        workers.append(worker)
        return worker

    yield make
    for worker in workers:
        worker.stop()
        assert not worker.proc.is_alive()


def test_clean_unit_is_done_and_worker_reusable(spawn):
    worker = spawn(run_ok)
    for _ in range(2):                  # the same process, unit after unit
        worker.send(UNIT, CONFIG)
        stage, done = events_of(worker)
        assert stage == ("stage", "run", 0)
        assert decode_outcome(done[1]) == {
            "kind": "result", "unit": UNIT.name, "seed": 5}
        assert worker.unit is None and worker.lost is None
    assert worker.proc.is_alive()


@pytest.mark.parametrize("execute, policy, reason, error_type, stage", [
    (run_exits, {}, "process exited (exitcode 3)", "WorkerLost", "prepare"),
    (run_freezes, {"heartbeat_timeout": 0.4}, "heartbeat lost",
     "WorkerLost", "run"),
    (run_overruns, {"stage_deadlines": {"run": 0.3}},
     "stage run exceeded 0.300s deadline", "StageTimeout", "run"),
    (run_raises, {}, "worker raised", "WorkerLost", "collect"),
])
def test_lost_worker_is_judged_killed_and_reported(
        spawn, execute, policy, reason, error_type, stage):
    worker = spawn(execute, **policy)
    worker.send(UNIT, CONFIG)
    lost = events_of(worker)[-1]
    assert lost[:2] == ("lost", reason)
    assert not worker.proc.is_alive()
    assert worker.unit is UNIT and worker.stage == stage
    if execute is run_raises:           # the child's own stack, verbatim
        assert "boom-in-child" in lost[2] and "run_raises" in lost[2]

    outcome = lost_unit_failure(worker, CONFIG, attempts=2)
    report = outcome["failure"]
    assert outcome["kind"] == "failure" and outcome["plugins"] is None
    assert report.benchmark == UNIT.name
    assert report.config == "interpreter"
    assert report.error_type == error_type
    assert report.phase == f"stage:{stage}"
    assert reason in report.message and "attempt 2" in report.message
    assert report.schedule_seed == 5 and report.retries == 1
    assert report.extra["traceback"] == lost[2]


def test_heartbeats_do_not_mask_a_stage_deadline(spawn):
    # Each step waits longer than the heartbeat interval, so every step
    # returns on a heartbeat; the stage deadline is judged all the same.
    worker = spawn(run_overruns, stage_deadlines={"run": 0.3})
    worker.send(UNIT, CONFIG)
    event = None
    give_up = time.monotonic() + 5
    while time.monotonic() < give_up and (event is None
                                          or event[0] != "lost"):
        event = worker.step(1.0)
    assert event[:2] == ("lost", "stage run exceeded 0.300s deadline")


def test_child_raise_leaves_stderr_to_the_parent(spawn, capfd):
    # The traceback travels in the crash message; the child exits
    # without multiprocessing printing it a second time.
    worker = spawn(run_raises)
    worker.send(UNIT, CONFIG)
    lost = events_of(worker)[-1]
    assert lost[:2] == ("lost", "worker raised")
    assert "boom-in-child" in lost[2]
    err = capfd.readouterr().err
    assert "Process ForkProcess" not in err
    assert "Traceback" not in err


def test_send_to_dead_worker_is_found_by_next_step(spawn):
    worker = spawn(run_ok)
    os.kill(worker.pid, signal.SIGKILL)
    worker.proc.join(timeout=5)
    worker.send(UNIT, CONFIG)
    (lost,) = events_of(worker)
    assert lost[:2] == ("lost", "process exited (exitcode -9)")
    assert worker.unit is UNIT
