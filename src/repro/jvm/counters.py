"""Dynamic execution counters — the raw feed for the Table 2 metrics.

A single :class:`Counters` instance hangs off the VM and is bumped by the
interpreter, the compiled-code executor, the heap and the scheduler.
Counting is always on (plain integer adds), mirroring how the paper's
DiSL-based profiler observes *every* executed primitive.  The
:mod:`repro.metrics` package reads these counters and normalizes them by
reference cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Counters:
    """Raw dynamic counts of the simulated execution.

    Attribute names follow Table 2 of the paper where applicable.
    """

    # Concurrency primitives.
    synch: int = 0          # synchronized blocks/methods entered
    wait: int = 0           # Object.wait() calls
    notify: int = 0         # Object.notify()/notifyAll() calls
    atomic: int = 0         # atomic operations (CAS, atomic get/add)
    park: int = 0           # park operations
    unpark: int = 0         # tracked but not a Table 2 metric (correlates with park)

    # Object-oriented primitives.
    object: int = 0         # objects allocated
    array: int = 0          # arrays allocated
    method: int = 0         # invokevirtual/invokedynamic/invokehandle executed
    idynamic: int = 0       # invokedynamic executed

    # Memory-hierarchy events (from the cache simulator).
    cachemiss: int = 0      # L1 + LLC misses combined

    # Work accounting.
    reference_cycles: int = 0   # total cycles of guest work across all threads
    instructions: int = 0       # dynamic bytecode/machine op count

    # Secondary counters used by analyses (not Table 2 metrics).
    cas_failures: int = 0
    monitor_contended: int = 0
    guards_executed: int = 0
    deopts: int = 0
    allocated_words: int = 0

    # Sanitizer counters (repro.sanitize): zero unless a checked run.
    race_checks: int = 0        # accesses put through the FastTrack check
    races_found: int = 0        # races detected (before suppression/dedup)
    vc_promotions: int = 0      # read epochs promoted to vector clocks
    hb_edges: int = 0           # happens-before edges recorded
    lock_acquires: int = 0      # monitor acquisitions observed
    lockset_entries: int = 0    # sum of held-lock counts at acquisition

    # Flight-recorder counters (repro.trace): zero unless a recorder is
    # attached.  "dropped" counts ring-buffer evictions (events emitted
    # past capacity), "samples" counts per-thread profiler stack walks.
    trace_events: int = 0
    trace_dropped: int = 0
    trace_samples: int = 0

    # Per-guard-type execution counts for the Section 5.5 table.
    guard_kinds: dict = field(default_factory=dict)

    def count_guard(self, kind: str, n: int = 1) -> None:
        """Record ``n`` executions of a guard of ``kind``."""
        self.guards_executed += n
        self.guard_kinds[kind] = self.guard_kinds.get(kind, 0) + n

    def snapshot(self) -> dict:
        """A plain-dict copy of all scalar counters (guard kinds included)."""
        snap = {
            name: getattr(self, name)
            for name in (
                "synch", "wait", "notify", "atomic", "park", "unpark",
                "object", "array", "method", "idynamic", "cachemiss",
                "reference_cycles", "instructions", "cas_failures",
                "monitor_contended", "guards_executed", "deopts",
                "allocated_words", "race_checks", "races_found",
                "vc_promotions", "hb_edges", "lock_acquires",
                "lockset_entries", "trace_events", "trace_dropped",
                "trace_samples",
            )
        }
        snap["guard_kinds"] = dict(self.guard_kinds)
        return snap

    def diff(self, earlier: dict) -> dict:
        """Counter deltas since an earlier :meth:`snapshot`."""
        now = self.snapshot()
        out = {}
        for key, value in now.items():
            if key == "guard_kinds":
                prev = earlier.get("guard_kinds", {})
                out[key] = {
                    kind: count - prev.get(kind, 0)
                    for kind, count in value.items()
                    if count - prev.get(kind, 0)
                }
            else:
                out[key] = value - earlier.get(key, 0)
        return out
