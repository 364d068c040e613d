"""The flight recorder: a bounded ring buffer of typed, timestamped events.

A :class:`FlightRecorder` is the reproduction's analogue of Java Flight
Recorder: a per-VM, always-deterministic event stream of the things the
aggregate counters cannot show — *when* threads spawn and block, which
monitors are contended, where CAS operations fail, when the JIT
compiles and deoptimizes, and (sampled) where allocations happen.
Timestamps are the scheduler's simulated clock, so for a fixed seed the
stream is a pure function of the program: the reference and threaded
engines produce byte-identical recordings, and a sharded suite sweep
merges back to the serial recording (``tests/test_trace.py``).

Event shape
-----------
Every event is a plain tuple ``(seq, ts, category, name, tid, args)``:

- ``seq``   — emission index (total order, also across equal ``ts``),
- ``ts``    — simulated clock at emission (slice granularity),
- ``category`` / ``name`` — taxonomy below,
- ``tid``   — scheduler-local thread id (0 = outside guest execution),
- ``args``  — a tuple of primitives (strings/ints only).

Taxonomy (category → names):

- ``thread``  — ``spawn`` (name, parent_tid), ``terminate`` (),
  ``kill`` (reason)
- ``monitor`` — ``contended`` (tag, owner_tid), ``acquired`` (tag),
  ``wait`` (tag), ``notify`` (tag, moved, all)
- ``park``    — ``park`` (), ``unpark`` (target_tid, was_parked)
- ``cas``     — ``fail`` (field)
- ``jit``     — ``compile`` (method, ok), ``deopt`` (method)
- ``fault``   — one name per injected fault kind
  (site, occurrence, thread_name, detail)
- ``alloc``   — ``object`` (class, words), ``array`` (kind, words),
  sampled every :attr:`TraceConfig.alloc_sample_rate` allocations

Overhead budget
---------------
With no recorder attached every hook site is a single ``is None`` check;
per-category flags are folded into the hook sites (the threaded engine
binds them at translation time), so a disabled category costs nothing
on its fast path.  The ring buffer bounds memory: past ``capacity``
events the oldest are dropped and counted (``dropped``, also exported
via ``Counters.trace_dropped``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import VMError

#: Every recordable category, in stable export order.
CATEGORIES = ("thread", "monitor", "park", "cas", "jit", "fault", "alloc")

#: Recording schema tag (bump on incompatible event-shape changes).
SCHEMA = "repro.trace/1"


@dataclass(frozen=True)
class TraceConfig:
    """Declarative recorder configuration (picklable, shard-safe)."""

    #: Enabled event categories (any iterable of :data:`CATEGORIES`).
    categories: tuple = CATEGORIES
    #: Ring-buffer capacity in events; the oldest events are dropped
    #: (and counted) once the buffer is full.
    capacity: int = 65536
    #: Emit one ``alloc`` event every N allocations (0 disables even
    #: when the ``alloc`` category is on).
    alloc_sample_rate: int = 64
    #: Call-stack sample period in simulated cycles (0 = no sampler).
    sample_interval: int = 10_000

    def __post_init__(self) -> None:
        bad = set(self.categories) - set(CATEGORIES)
        if bad:
            raise VMError(
                f"unknown trace categories {sorted(bad)}; have {CATEGORIES}")
        if self.capacity < 1:
            raise VMError("trace capacity must be >= 1")


class FlightRecorder:
    """One VM's bounded, deterministic event recording."""

    def __init__(self, config: TraceConfig | None = None) -> None:
        self.config = config or TraceConfig()
        enabled = frozenset(self.config.categories)
        # Per-category flags, read directly by the hook sites.
        self.thread_on = "thread" in enabled
        self.monitor_on = "monitor" in enabled
        self.park_on = "park" in enabled
        self.cas_on = "cas" in enabled
        self.jit_on = "jit" in enabled
        self.fault_on = "fault" in enabled
        self.alloc_on = "alloc" in enabled and self.config.alloc_sample_rate > 0
        self.events: list = []
        self.dropped = 0
        self.emitted = 0
        self.thread_names: dict[int, str] = {}
        self.sampler = None
        self._seq = 0
        self._head = 0              # ring start within self.events
        self._alloc_seen = 0
        self._sched = None
        self._counters = None
        self._vm = None

    # ------------------------------------------------------------------
    # Wiring.
    # ------------------------------------------------------------------
    def attach(self, vm) -> "FlightRecorder":
        """Install this recorder into ``vm`` (idempotent per VM)."""
        if self._vm is not None and self._vm is not vm:
            raise VMError("a FlightRecorder records exactly one VM")
        self._vm = vm
        self._sched = vm.scheduler
        self._counters = vm.counters
        vm.trace = self
        vm.scheduler.trace = self
        if self.alloc_on:
            vm.heap.trace = self
        if self.config.sample_interval > 0:
            from repro.trace.sampler import Sampler

            self.sampler = Sampler(self.config.sample_interval,
                                   counters=vm.counters)
        # Host code binds trace state at translation time; drop it
        # (same contract as attaching a race sanitizer).
        vm.drop_host_code()
        return self

    # ------------------------------------------------------------------
    # The hot path.
    # ------------------------------------------------------------------
    def emit(self, category: str, name: str, tid: int, args: tuple = ()) -> None:
        """Append one event (timestamped with the simulated clock)."""
        seq = self._seq
        self._seq = seq + 1
        self.emitted += 1
        counters = self._counters
        if counters is not None:
            counters.trace_events += 1
        events = self.events
        events.append((seq, self._sched.clock, category, name, tid, args))
        if len(events) - self._head > self.config.capacity:
            # Lazy ring: advance the head, compact occasionally so the
            # backing list stays O(capacity).
            self._head += 1
            self.dropped += 1
            if counters is not None:
                counters.trace_dropped += 1
            if self._head >= self.config.capacity:
                del events[:self._head]
                self._head = 0
        if category == "thread" and name == "spawn":
            self.thread_names[tid] = args[0]

    def on_slice_end(self, scheduler) -> None:
        """Scheduler callback after every clock advance (drives sampling)."""
        if self.sampler is not None:
            self.sampler.on_clock(scheduler)

    def on_alloc(self, what: str, detail: str, words: int) -> None:
        """Heap callback for every allocation; emits every Nth one."""
        self._alloc_seen += 1
        if self._alloc_seen % self.config.alloc_sample_rate:
            return
        current = self._sched.current
        self.emit("alloc", what, current.tid if current is not None else 0,
                  (detail, words))

    def current_tid(self) -> int:
        """Scheduler-local id of the thread now executing (0 if none)."""
        current = self._sched.current if self._sched is not None else None
        return current.tid if current is not None else 0

    # ------------------------------------------------------------------
    # Results.
    # ------------------------------------------------------------------
    def event_list(self) -> list:
        """The retained events, oldest first (the ring's live window)."""
        return self.events[self._head:]

    def recording(self, *, benchmark: str = "?", config: str = "?") -> dict:
        """A plain-dict, JSON-serializable snapshot of the recording.

        Everything inside is deterministic for a fixed seed; two
        recordings are byte-identical iff their ``json.dumps`` agree.
        """
        sampler = self.sampler
        return {
            "schema": SCHEMA,
            "benchmark": benchmark,
            "config": config,
            "clock": self._sched.clock if self._sched is not None else 0,
            "categories": sorted(self.config.categories),
            "thread_names": {str(tid): name for tid, name
                             in sorted(self.thread_names.items())},
            "events": [list(e[:5]) + [list(e[5])] for e in self.event_list()],
            "emitted": self.emitted,
            "dropped": self.dropped,
            "samples": sampler.summary() if sampler is not None else None,
        }
