"""Deterministic green-thread scheduler with JVM-style synchronization.

The scheduler replaces OS threads in the reproduction.  Guest threads run
cooperatively on ``cores`` simulated cores in fixed cycle quanta; the
interleaving is a deterministic function of the schedule seed, which is
what makes every experiment reproducible while still exhibiting
contention (failed CAS operations, blocked monitor entries, wait/notify
hand-offs).

Time model
----------
Per scheduling *slice*, up to ``cores`` runnable threads each execute up
to ``quantum`` cycles of guest work.  The global clock advances by the
maximum cycles any selected thread consumed (the cores run in parallel).
Thus:

- **wall time** (benchmark "execution time" in all experiments) is
  :attr:`Scheduler.clock`,
- **reference cycles** (the normalization basis of Section 3.2) is the
  total guest work accumulated in the VM counters, and
- **CPU utilization** is work / (cores × wall time), matching the
  paper's ``cpu`` metric.

Synchronization mirrors the JVM: per-object monitors with FIFO entry
queues and wait sets (``wait``/``notify``/``notifyAll``), thread
park/unpark with a single permit, and thread join.
"""

from __future__ import annotations

import random
from collections import deque

from repro.errors import DeadlockError, ThreadKilledError, VMError, WatchdogTimeout

# Thread states.
RUNNABLE = "runnable"
BLOCKED = "blocked"        # queued on a monitor entry queue
WAITING = "waiting"        # in a monitor wait set
PARKED = "parked"
JOINING = "joining"
TERMINATED = "terminated"


class Monitor:
    """A per-object monitor (lock + condition), as in the JVM."""

    __slots__ = ("owner", "recursion", "entry_queue", "wait_set", "tag")

    def __init__(self, tag: str = "?") -> None:
        self.owner: JThread | None = None
        self.recursion = 0
        # entry_queue holds (thread, resume_recursion) pairs:
        # resume_recursion is 0 for a plain monitorenter retry and the
        # saved recursion depth for a notified waiter.
        self.entry_queue: deque = deque()
        self.wait_set: deque = deque()
        # Stable identity for thread dumps ("<ClassName@addr>"): heap
        # addresses are deterministic, so dumps are replayable.
        self.tag = tag


class JThread:
    """A guest thread: a stack of frames plus scheduling state."""

    _next_id = 1

    __slots__ = (
        "tid", "name", "frames", "state", "daemon", "park_permit",
        "core", "budget", "joiners", "thread_obj", "result",
        "fault", "blocked_on",
    )

    def __init__(self, name: str, *, daemon: bool = False) -> None:
        self.tid = JThread._next_id
        JThread._next_id += 1
        self.name = name
        self.frames: list = []
        self.state = RUNNABLE
        self.daemon = daemon
        self.park_permit = False
        self.core = 0
        self.budget = 0
        self.joiners: list[JThread] = []
        self.thread_obj = None     # guest-side Thread object, if any
        self.result = None
        self.fault = None          # host exception that killed the thread
        self.blocked_on: Monitor | None = None

    @property
    def alive(self) -> bool:
        return self.state != TERMINATED

    def __repr__(self) -> str:
        return f"<JThread {self.tid} {self.name!r} {self.state}>"


class Scheduler:
    """Round-robin multi-core scheduler over green threads."""

    def __init__(self, cores: int = 8, quantum: int = 5000, seed: int = 0) -> None:
        if cores < 1:
            raise VMError("need at least one core")
        self.cores = cores
        self.quantum = quantum
        self.seed = seed
        self.rng = random.Random(seed)
        self.clock = 0
        self.slices = 0
        self.busy_core_slices = 0.0
        self.threads: list[JThread] = []
        # The spawned non-daemon threads not yet terminated: run() goes
        # on while this is non-empty, without rescanning every thread.
        self.live_nondaemon: set[JThread] = set()
        self.runnable: deque[JThread] = deque()
        self.executor = None       # set by the VM: callable(thread) -> cycles used
        # Every `perturb_period` slices, deterministically rotate the run
        # queue; different seeds yield different interleavings, which is
        # the source of run-to-run variance for the statistical tests.
        self.perturb_period = 7
        # Scheduler-local thread ids: spawn() renumbers threads 1..n so
        # thread dumps are identical across VMs in one host process
        # (JThread's global counter is only a pre-spawn placeholder).
        self._next_tid = 1
        # All monitors ever created through monitor_of(), for dumps.
        self._monitors: list[Monitor] = []
        # Global cycle watchdog: when set, run() aborts with
        # WatchdogTimeout once the clock passes it (runaway-loop guard).
        self.watchdog_cycles: int | None = None
        # Optional fault hook, called once per slice with this scheduler
        # *before* threads are selected (see repro.faults.FaultInjector).
        self.fault_hook = None
        # Optional happens-before sanitizer (repro.sanitize.hb): receives
        # every ordering edge — spawn/join/terminate, monitor
        # acquire/release, unpark/park — as it happens.
        self.sanitizer = None
        # Optional flight recorder (repro.trace): every hook site below
        # is a single None check when no recorder is attached.
        self.trace = None
        # The thread currently executing a slice (None between slices);
        # lets the recorder attribute heap/JIT events to a guest thread.
        self.current: JThread | None = None

    # ------------------------------------------------------------------
    # Thread lifecycle.
    # ------------------------------------------------------------------
    def spawn(self, thread: JThread, parent: JThread | None = None) -> JThread:
        thread.tid = self._next_tid
        self._next_tid += 1
        self.threads.append(thread)
        if not thread.daemon:
            self.live_nondaemon.add(thread)
        self.runnable.append(thread)
        if self.sanitizer is not None:
            self.sanitizer.on_spawn(thread, parent)
        tr = self.trace
        if tr is not None and tr.thread_on:
            tr.emit("thread", "spawn", thread.tid,
                    (thread.name, parent.tid if parent is not None else 0))
        return thread

    def kill(self, thread: JThread, reason: str = "killed") -> None:
        """Forcibly terminate a guest thread (fault injection).

        The thread's fault is recorded, joiners are released, and it is
        removed from the run queue — like ``Thread.stop`` on a real JVM.
        """
        if thread.state == TERMINATED:
            return
        tr = self.trace
        if tr is not None and tr.thread_on:
            tr.emit("thread", "kill", thread.tid, (reason,))
        thread.fault = ThreadKilledError(f"{thread.name}: {reason}")
        try:
            self.runnable.remove(thread)
        except ValueError:
            pass
        # Purge the victim from any monitor queues it sits in, and
        # release monitors it owns (like ThreadDeath unwinding the
        # stack on a real JVM) so the kill itself cannot wedge others.
        for mon in self._monitors:
            if any(p[0] is thread for p in mon.entry_queue):
                mon.entry_queue = deque(
                    p for p in mon.entry_queue if p[0] is not thread)
            if any(p[0] is thread for p in mon.wait_set):
                mon.wait_set = deque(
                    p for p in mon.wait_set if p[0] is not thread)
            if mon.owner is thread:
                mon.recursion = 0
                if self.sanitizer is not None:
                    self.sanitizer.on_release(thread, mon)
                self._release(mon)
        self.terminate(thread)

    def terminate(self, thread: JThread) -> None:
        san = self.sanitizer
        if san is not None:
            san.on_terminate(thread)
        tr = self.trace
        if tr is not None and tr.thread_on and thread.state != TERMINATED:
            tr.emit("thread", "terminate", thread.tid, ())
        thread.state = TERMINATED
        self.live_nondaemon.discard(thread)
        thread.frames.clear()
        for joiner in thread.joiners:
            if joiner.state == JOINING:
                if san is not None:
                    san.on_join(thread, joiner)
                self._make_runnable(joiner)
        thread.joiners.clear()

    def join(self, current: JThread, target: JThread) -> bool:
        """Returns True if ``current`` must block until ``target`` ends."""
        if target.state == TERMINATED:
            if self.sanitizer is not None:
                self.sanitizer.on_join(target, current)
            return False
        target.joiners.append(current)
        current.state = JOINING
        return True

    def _make_runnable(self, thread: JThread) -> None:
        if thread.state == TERMINATED:
            return
        thread.state = RUNNABLE
        thread.blocked_on = None
        self.runnable.append(thread)

    # ------------------------------------------------------------------
    # Monitors.
    # ------------------------------------------------------------------
    def monitor_of(self, obj) -> Monitor:
        if obj.monitor is None:
            obj.monitor = Monitor(tag=repr(obj))
            self._monitors.append(obj.monitor)
        return obj.monitor

    def monitor_enter(self, thread: JThread, obj) -> bool:
        """Try to acquire; returns True on success, False if blocked."""
        mon = self.monitor_of(obj)
        if mon.owner is None:
            mon.owner = thread
            mon.recursion = 1
            if self.sanitizer is not None:
                self.sanitizer.on_acquire(thread, mon)
            return True
        if mon.owner is thread:
            mon.recursion += 1
            return True
        mon.entry_queue.append((thread, 0))
        thread.state = BLOCKED
        thread.blocked_on = mon
        tr = self.trace
        if tr is not None and tr.monitor_on:
            tr.emit("monitor", "contended", thread.tid,
                    (mon.tag, mon.owner.tid))
        return False

    def monitor_exit(self, thread: JThread, obj) -> None:
        mon = self.monitor_of(obj)
        if mon.owner is not thread:
            raise VMError(f"{thread} released monitor it does not own")
        mon.recursion -= 1
        if mon.recursion == 0:
            if self.sanitizer is not None:
                self.sanitizer.on_release(thread, mon)
            self._release(mon)

    def _release(self, mon: Monitor) -> None:
        if mon.entry_queue:
            next_thread, resume_recursion = mon.entry_queue.popleft()
            mon.owner = next_thread
            # 0 => the thread re-executes MONITORENTER and bumps to 1;
            # >0 => a notified waiter resumes with its saved depth.
            mon.recursion = resume_recursion
            if self.sanitizer is not None:
                self.sanitizer.on_acquire(next_thread, mon)
            tr = self.trace
            if tr is not None and tr.monitor_on:
                tr.emit("monitor", "acquired", next_thread.tid, (mon.tag,))
            self._make_runnable(next_thread)
        else:
            mon.owner = None
            mon.recursion = 0

    def monitor_wait(self, thread: JThread, obj) -> None:
        """Object.wait(): release fully and join the wait set.

        The caller must advance the pc *before* invoking this, so the
        thread resumes after the wait once notified and re-granted.
        """
        mon = self.monitor_of(obj)
        if mon.owner is not thread:
            raise VMError("wait() without owning the monitor")
        saved = mon.recursion
        mon.recursion = 0
        mon.wait_set.append((thread, saved))
        thread.state = WAITING
        thread.blocked_on = mon
        tr = self.trace
        if tr is not None and tr.monitor_on:
            tr.emit("monitor", "wait", thread.tid, (mon.tag,))
        if self.sanitizer is not None:
            self.sanitizer.on_release(thread, mon)
        self._release(mon)

    def monitor_notify(self, thread: JThread, obj, *, all_waiters: bool) -> None:
        mon = self.monitor_of(obj)
        if mon.owner is not thread:
            raise VMError("notify() without owning the monitor")
        moved = 0
        while mon.wait_set and (all_waiters or moved == 0):
            waiter, saved = mon.wait_set.popleft()
            waiter.state = BLOCKED
            mon.entry_queue.append((waiter, saved))
            moved += 1
        tr = self.trace
        if tr is not None and tr.monitor_on:
            tr.emit("monitor", "notify", thread.tid,
                    (mon.tag, moved, 1 if all_waiters else 0))

    # ------------------------------------------------------------------
    # Park / unpark.
    # ------------------------------------------------------------------
    def park(self, thread: JThread) -> bool:
        """Returns True if the thread actually parked (no pending permit)."""
        if thread.park_permit:
            thread.park_permit = False
            if self.sanitizer is not None:
                self.sanitizer.on_park(thread)
            return False
        thread.state = PARKED
        tr = self.trace
        if tr is not None and tr.park_on:
            tr.emit("park", "park", thread.tid, ())
        return True

    def unpark(self, thread: JThread, source: JThread | None = None) -> None:
        if self.sanitizer is not None:
            self.sanitizer.on_unpark(source, thread,
                                     parked=thread.state == PARKED)
        tr = self.trace
        if tr is not None and tr.park_on:
            tr.emit("park", "unpark",
                    source.tid if source is not None else 0,
                    (thread.tid, 1 if thread.state == PARKED else 0))
        if thread.state == PARKED:
            self._make_runnable(thread)
        else:
            thread.park_permit = True

    # ------------------------------------------------------------------
    # The run loop.
    # ------------------------------------------------------------------
    def run(self, max_cycles: int | None = None) -> None:
        """Run until all non-daemon threads terminate.

        Raises :class:`DeadlockError` if live non-daemon threads exist but
        none is runnable (there are no timeouts in the model, so this is a
        true deadlock).  Raises :class:`WatchdogTimeout` once the clock
        passes :attr:`watchdog_cycles` (when set), so a runaway guest
        loop aborts with a thread dump instead of hanging the host.
        """
        if self.executor is None:
            raise VMError("scheduler has no executor")
        while self.live_nondaemon:
            if max_cycles is not None and self.clock >= max_cycles:
                return
            if self.watchdog_cycles is not None \
                    and self.clock >= self.watchdog_cycles:
                raise WatchdogTimeout(
                    f"guest exceeded cycle budget ({self.clock} >= "
                    f"{self.watchdog_cycles} cycles)",
                    thread_dump=self.thread_dump(), clock=self.clock,
                )
            if not self.runnable:
                dump = self.thread_dump()
                stuck = [t for t in self.threads if t.alive and not t.daemon]
                cycle = dump.get("deadlock_cycle")
                detail = f"; lock cycle: {' -> '.join(cycle)}" if cycle else ""
                raise DeadlockError(
                    "no runnable threads; stuck: "
                    + ", ".join(f"{t.name}({t.state})" for t in stuck)
                    + detail,
                    thread_dump=dump,
                )
            self._run_slice()

    def _run_slice(self) -> None:
        self.slices += 1
        if self.fault_hook is not None:
            self.fault_hook(self)
        if self.perturb_period and self.slices % self.perturb_period == 0:
            self._perturb()
        selected: list[JThread] = []
        while self.runnable and len(selected) < self.cores:
            selected.append(self.runnable.popleft())
        max_used = 1
        for core, thread in enumerate(selected):
            thread.core = core
            self.current = thread
            try:
                used = self.executor(thread)
            except Exception as exc:
                # A guest fault kills its thread (like an uncaught Java
                # exception); without this the VM would deadlock on the
                # zombie. Re-queue the other selected threads first.
                thread.fault = exc
                self.current = None
                self.terminate(thread)
                for other in selected:
                    if other is not thread and other.state == RUNNABLE \
                            and other.frames:
                        self.runnable.append(other)
                raise
            if used > max_used:
                max_used = used
            self.busy_core_slices += used
        self.current = None
        for thread in selected:
            if thread.state == RUNNABLE and thread.frames:
                self.runnable.append(thread)
            elif thread.state == RUNNABLE and not thread.frames:
                self.terminate(thread)
        self.clock += max_used
        # busy_core_slices accumulates raw cycles; normalize on read.
        tr = self.trace
        if tr is not None:
            tr.on_slice_end(self)

    def release(self) -> None:
        """Forget every thread, the run queue and every monitor (a
        retired VM's scheduler); the clock and slice totals stay."""
        self.threads.clear()
        self.live_nondaemon.clear()
        self.runnable.clear()
        self._monitors.clear()

    def _perturb(self) -> None:
        """Deterministically rotate the run queue (seed-dependent)."""
        if len(self.runnable) > 1:
            self.runnable.rotate(self.rng.randrange(len(self.runnable)))

    def cpu_utilization(self) -> float:
        """Average fraction of cores doing guest work, in [0, 1]."""
        if self.clock == 0:
            return 0.0
        return min(1.0, self.busy_core_slices / (self.cores * self.clock))

    # ------------------------------------------------------------------
    # Diagnostics.
    # ------------------------------------------------------------------
    @staticmethod
    def _frame_name(frame) -> str:
        method = getattr(frame, "method", None)
        if method is not None:
            qualified = getattr(method, "qualified", None)
            if qualified is not None:
                return qualified
        code = getattr(frame, "code", None)
        method = getattr(code, "method", None)
        if method is not None and getattr(method, "qualified", None):
            return method.qualified
        return type(frame).__name__

    def thread_dump(self) -> dict:
        """Structured per-thread diagnostic snapshot.

        Every value is a plain str/int/list/dict derived from
        deterministic state (scheduler-local tids, bump-allocator
        addresses), so two runs with the same seeds produce identical
        dumps — the property the fault layer's byte-identical
        :class:`~repro.faults.FailureReport` relies on.
        """
        threads = []
        for t in self.threads:
            blocked_tag = t.blocked_on.tag if t.blocked_on is not None else None
            blocked_owner = None
            if t.blocked_on is not None and t.blocked_on.owner is not None:
                owner = t.blocked_on.owner
                blocked_owner = f"{owner.name}#{owner.tid}"
            threads.append({
                "tid": t.tid,
                "name": t.name,
                "state": t.state,
                "daemon": t.daemon,
                "top_frame": self._frame_name(t.frames[-1]) if t.frames else None,
                "frames": len(t.frames),
                "blocked_on": blocked_tag,
                "blocked_on_owner": blocked_owner,
                "holds": sorted(
                    m.tag for m in self._monitors if m.owner is t),
            })
        return {
            "clock": self.clock,
            "slices": self.slices,
            "threads": threads,
            "deadlock_cycle": self._lock_cycle(),
        }

    def _lock_cycle(self) -> list[str] | None:
        """Find a cycle in the wait-for graph (thread -> monitor owner)."""
        for start in self.threads:
            path: list[JThread] = []
            seen: set[int] = set()
            t: JThread | None = start
            while t is not None and t.blocked_on is not None:
                if t.tid in seen:
                    i = next(i for i, p in enumerate(path) if p is t)
                    return [f"{p.name}#{p.tid}" for p in path[i:]] \
                        + [f"{t.name}#{t.tid}"]
                seen.add(t.tid)
                path.append(t)
                t = t.blocked_on.owner
        return None
