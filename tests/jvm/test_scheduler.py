"""Unit tests for the green-thread scheduler: monitors, wait/notify,
park/unpark, join, deadlock detection and determinism."""

import pytest

from repro.errors import DeadlockError, VMError
from repro.jvm.classfile import ClassPool, JClass
from repro.jvm.counters import Counters
from repro.jvm.heap import Heap
from repro.jvm.scheduler import (
    BLOCKED,
    JThread,
    PARKED,
    RUNNABLE,
    Scheduler,
    TERMINATED,
    WAITING,
)


def make_obj():
    pool = ClassPool()
    cls = JClass("Lock")
    pool.define(cls)
    pool.link_all()
    return Heap(Counters()).new_object(cls)


def make_sched(cores=2):
    return Scheduler(cores=cores, quantum=100, seed=0)


def test_monitor_enter_uncontended():
    sched = make_sched()
    t = JThread("t")
    obj = make_obj()
    assert sched.monitor_enter(t, obj)
    assert obj.monitor.owner is t
    assert obj.monitor.recursion == 1


def test_monitor_reentrant():
    sched = make_sched()
    t = JThread("t")
    obj = make_obj()
    sched.monitor_enter(t, obj)
    assert sched.monitor_enter(t, obj)
    assert obj.monitor.recursion == 2
    sched.monitor_exit(t, obj)
    assert obj.monitor.owner is t
    sched.monitor_exit(t, obj)
    assert obj.monitor.owner is None


def test_monitor_contention_blocks_and_grants_fifo():
    sched = make_sched()
    a, b, c = JThread("a"), JThread("b"), JThread("c")
    obj = make_obj()
    assert sched.monitor_enter(a, obj)
    assert not sched.monitor_enter(b, obj)
    assert not sched.monitor_enter(c, obj)
    assert b.state == BLOCKED
    sched.monitor_exit(a, obj)
    # b was first in the entry queue: granted ownership, runnable.
    assert obj.monitor.owner is b
    assert b.state == RUNNABLE
    assert c.state == BLOCKED


def test_monitor_exit_without_ownership_raises():
    sched = make_sched()
    t = JThread("t")
    with pytest.raises(VMError):
        sched.monitor_exit(t, make_obj())


def test_wait_releases_fully_and_notify_requeues():
    sched = make_sched()
    a, b = JThread("a"), JThread("b")
    obj = make_obj()
    sched.monitor_enter(a, obj)
    sched.monitor_enter(a, obj)          # recursion 2
    sched.monitor_wait(a, obj)
    assert a.state == WAITING
    assert obj.monitor.owner is None
    # b can now acquire, then notify.
    assert sched.monitor_enter(b, obj)
    sched.monitor_notify(b, obj, all_waiters=False)
    assert a.state == BLOCKED            # moved to entry queue
    sched.monitor_exit(b, obj)
    # a resumes with its saved recursion depth.
    assert obj.monitor.owner is a
    assert obj.monitor.recursion == 2
    assert a.state == RUNNABLE


def test_notify_without_ownership_raises():
    sched = make_sched()
    with pytest.raises(VMError):
        sched.monitor_notify(JThread("t"), make_obj(), all_waiters=True)


def test_notify_all_moves_every_waiter():
    sched = make_sched()
    owner = JThread("o")
    waiters = [JThread(f"w{i}") for i in range(3)]
    obj = make_obj()
    for w in waiters:
        sched.monitor_enter(w, obj)
        sched.monitor_wait(w, obj)
    sched.monitor_enter(owner, obj)
    sched.monitor_notify(owner, obj, all_waiters=True)
    assert all(w.state == BLOCKED for w in waiters)
    assert not obj.monitor.wait_set


def test_park_and_unpark():
    sched = make_sched()
    t = JThread("t")
    sched.threads.append(t)
    assert sched.park(t)
    assert t.state == PARKED
    sched.unpark(t)
    assert t.state == RUNNABLE


def test_unpark_before_park_sets_permit():
    sched = make_sched()
    t = JThread("t")
    sched.unpark(t)
    assert t.park_permit
    assert not sched.park(t)             # permit consumed, no block
    assert not t.park_permit


def test_join_on_live_thread_blocks_until_termination():
    sched = make_sched()
    target, joiner = JThread("target"), JThread("joiner")
    assert sched.join(joiner, target)
    assert joiner.state == "joining"
    sched.terminate(target)
    assert joiner.state == RUNNABLE


def test_join_on_terminated_thread_returns_immediately():
    sched = make_sched()
    target, joiner = JThread("t"), JThread("j")
    sched.terminate(target)
    assert not sched.join(joiner, target)


def test_run_detects_deadlock():
    sched = make_sched()
    t = JThread("t")
    obj = make_obj()
    other = JThread("other")
    sched.monitor_enter(other, obj)      # `other` never scheduled
    sched.monitor_enter(t, obj)          # t blocks forever
    sched.spawn(t)
    sched.threads.append(other)
    other.state = TERMINATED             # simulate owner dying badly
    sched.executor = lambda thread: 1
    with pytest.raises(DeadlockError):
        sched.run()


def test_run_executes_until_all_nondaemon_done():
    sched = make_sched()
    work = {"a": 3, "b": 2}

    def executor(thread):
        work[thread.name] -= 1
        if work[thread.name] == 0:
            thread.frames.clear()
        return 10

    for name in work:
        t = JThread(name)
        t.frames.append(object())
        sched.spawn(t)
    sched.executor = executor
    sched.run()
    assert all(v == 0 for v in work.values())
    assert all(t.state == TERMINATED for t in sched.threads)


def test_daemon_threads_do_not_keep_scheduler_alive():
    sched = make_sched()
    daemon = JThread("d", daemon=True)
    daemon.frames.append(object())
    sched.spawn(daemon)
    sched.executor = lambda thread: 1
    sched.run()                           # returns immediately
    assert daemon.alive


def test_cpu_utilization_bounds():
    sched = make_sched(cores=4)
    assert sched.cpu_utilization() == 0.0
    sched.clock = 100
    sched.busy_core_slices = 200
    assert sched.cpu_utilization() == 0.5


def test_kill_releases_owned_monitors():
    sched = make_sched()
    victim, waiter = JThread("victim"), JThread("waiter")
    obj = make_obj()
    sched.threads.extend([victim, waiter])
    sched.monitor_enter(victim, obj)
    assert not sched.monitor_enter(waiter, obj)
    assert waiter.state == BLOCKED
    sched.kill(victim)
    # The victim's monitor was handed to the blocked thread, so the
    # kill cannot wedge the rest of the system.
    assert victim.state == TERMINATED
    assert obj.monitor.owner is waiter
    assert waiter.state == RUNNABLE


def test_kill_purges_victim_from_entry_queue():
    sched = make_sched()
    owner, victim = JThread("owner"), JThread("victim")
    obj = make_obj()
    sched.threads.extend([owner, victim])
    sched.monitor_enter(owner, obj)
    sched.monitor_enter(victim, obj)          # victim blocks
    sched.kill(victim)
    sched.monitor_exit(owner, obj)
    # The dead thread must not be granted the monitor.
    assert obj.monitor.owner is not victim


def test_thread_dump_is_deterministic():
    def dump():
        sched = make_sched()
        a, b = JThread("a"), JThread("b")
        obj = make_obj()
        sched.spawn(a)                        # spawn renumbers tids
        sched.spawn(b)
        sched.monitor_enter(a, obj)
        sched.monitor_enter(b, obj)           # b blocks on a's monitor
        return sched.thread_dump()

    first, second = dump(), dump()
    assert first == second
    # Canonical JSON of the dump is byte-identical too (report files).
    import json
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)
    blocked = [t for t in first["threads"] if t["state"] == BLOCKED]
    assert len(blocked) == 1 and blocked[0]["name"] == "b"


def test_determinism_same_seed_same_interleaving():
    def trace(seed):
        sched = Scheduler(cores=2, quantum=10, seed=seed)
        order = []

        def executor(thread):
            order.append(thread.name)
            thread.budget = 0
            if len(order) > 20:
                thread.frames.clear()
            return 5

        for name in ("a", "b", "c"):
            t = JThread(name)
            t.frames.append(object())
            sched.spawn(t)
        sched.executor = executor
        sched.run()
        return order

    assert trace(1) == trace(1)
    assert trace(7) == trace(7)


def test_live_nondaemon_count_matches_a_scan_of_every_thread():
    # run() loops on a maintained set of live non-daemon threads; at
    # every step it must agree with a scan of every thread ever spawned,
    # through spawns, daemons, a join, a kill and a guest fault.
    sched = make_sched()
    threads = {}

    def check(_=None):
        scan = sum(1 for t in sched.threads if t.alive and not t.daemon)
        assert len(sched.live_nondaemon) == scan
        return scan

    def start(name, steps, daemon=False):
        def step(_):
            t = JThread(name, daemon=daemon)
            t.frames.append(list(steps))
            threads[name] = t
            sched.spawn(t)
        return step

    def crash(_):
        raise VMError("guest fault")

    def executor(thread):
        steps = thread.frames[-1]
        if steps:
            steps.pop(0)(thread)
            check()
        if not steps and thread.state == RUNNABLE:
            thread.frames.clear()
        return 10

    noop = (lambda _: None)
    main_steps = [
        start("worker", [noop] * 3),
        start("daemon", [noop] * 200, daemon=True),
        start("victim", [noop] * 200),
        start("crasher", [noop, crash]),
        noop,
        lambda _: sched.kill(threads["victim"]),
        lambda main: sched.join(main, threads["worker"]),
        noop,
    ]
    start("main", main_steps)(None)
    sched.executor = executor
    sched.fault_hook = check
    assert check() == 1
    with pytest.raises(VMError, match="guest fault"):
        sched.run()
    assert threads["crasher"].state == TERMINATED
    check()
    sched.run()
    assert check() == 0 and not sched.live_nondaemon
    assert threads["victim"].fault is not None
    assert threads["daemon"].alive
