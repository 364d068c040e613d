"""FastTrack-style happens-before race sanitizer.

The dynamic half of ``repro.sanitize``: every thread carries a vector
clock, every monitor/park-permit/atomic variable carries the clock of
its last release, and every heap variable (instance field, static
field, array element) carries an *epoch* — the ``(tid, clock)`` of its
last write plus either a last-read epoch or, after genuinely concurrent
reads, a full read vector clock (the FastTrack promotion).  An access
whose epoch is not ordered before the current thread's clock is a data
race.

Determinism is inherited, not engineered: the scheduler interleaves
threads as a pure function of the seed and every clock update is a pure
function of the interleaving, so the same seed yields the same races in
the same order — the :class:`~repro.sanitize.reports.RaceReport` is
byte-identical across runs (the property ``repro.faults`` pioneered for
failure reports).

Two departures from textbook FastTrack, both forced by guest semantics:

- **dynamic volatile marking** — the guest language marks atomicity per
  *access site* (``cas(this.state, 0, 1)``), not per field, and idioms
  like ``Promise`` publish with a CAS then write the same field plainly
  under the acquired state machine.  Once a variable is accessed
  atomically it is treated as volatile from then on: plain reads acquire
  its sync clock, plain writes release into it, no race checks.
- **quiescent inheritance** — the harness calls ``vm.invoke`` once per
  iteration, each on a fresh root thread.  Clocks of terminated threads
  are folded into a *quiescent* vector clock which new parentless roots
  inherit, giving the obvious happens-before between iterations (static
  state cached in iteration 1 and read in iteration 2 is not a race).
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase


@dataclass(frozen=True)
class SanitizerConfig:
    """Tunables of one checked run."""

    #: ``fnmatch`` patterns of variable names ("Class.field", "int[]")
    #: whose races are counted but not reported.  STMRef is suppressed
    #: by default: the guest STM reads ``ref.value``/``ref.version``
    #: optimistically outside the commit lock and validates at commit —
    #: racy by design, exactly like real TL2-style STMs under TSan.
    suppress: tuple = ("STMRef.*",)
    #: Track array elements (element-granular; heavier shadow state).
    track_arrays: bool = True
    #: Keep at most this many distinct race reports (dedup happens
    #: first, by (kind, variable, prior site, site)).
    max_reports: int = 50


class _Var:
    """Shadow state of one variable (field / static / array element)."""

    __slots__ = ("w_tid", "w_clock", "w_site", "r_tid", "r_clock",
                 "r_site", "r_vc", "r_sites", "sync_vc")

    def __init__(self) -> None:
        self.w_tid = None        # last-write epoch
        self.w_clock = 0
        self.w_site = None
        self.r_tid = None        # last-read epoch (exclusive mode)
        self.r_clock = 0
        self.r_site = None
        self.r_vc = None         # tid -> clock, after promotion
        self.r_sites = None      # tid -> site, parallel to r_vc
        self.sync_vc = None      # not None => variable is volatile-like


class RaceSanitizer:
    """Vector clocks + race checks for one VM run."""

    def __init__(self, config: SanitizerConfig | None = None) -> None:
        self.config = config or SanitizerConfig()
        self.races: list[dict] = []
        self.suppressed = 0
        self.truncated = False
        self.counters = None          # repro.jvm.counters.Counters
        self._clocks: dict = {}       # JThread -> {tid: clock}
        self._monitor_vcs: dict = {}  # Monitor -> {tid: clock}
        self._permit_vcs: dict = {}   # JThread -> {tid: clock} (unpark)
        self._static_vars: dict = {}  # (class name, field) -> _Var
        self._held: dict = {}         # JThread -> monitors currently held
        self._quiescent: dict = {}    # joined clocks of dead threads
        self._seen: set = set()       # race dedup keys
        self._suppress_cache: dict = {}
        self._field_cache: dict = {}  # (JClass, fname) -> (slot, name)

    # ------------------------------------------------------------------
    # Wiring.
    # ------------------------------------------------------------------
    def attach(self, vm) -> None:
        """Install this sanitizer on a VM (interpreter-only execution).

        Compiled code bypasses the interpreter's access hooks, so
        attaching disables the JIT — checked runs are instrumented
        interpreter runs, like the paper's DiSL profiling configuration.
        Host code binds the sanitizer at translation time, so every
        sanitizer-free translation and closure is dropped first.
        """
        vm.drop_host_code()
        vm.sanitizer = self
        vm.scheduler.sanitizer = self
        vm.jit = None
        vm.machine = None
        self.counters = vm.counters

    # ------------------------------------------------------------------
    # Clock helpers.
    # ------------------------------------------------------------------
    def _vc(self, thread) -> dict:
        vc = self._clocks.get(thread)
        if vc is None:
            vc = self._clocks[thread] = {thread.tid: 1}
        return vc

    def _acquire(self, thread, source_vc: dict | None) -> None:
        """Join ``source_vc`` into the thread's clock (an HB edge)."""
        if not source_vc:
            return
        vc = self._vc(thread)
        for tid, clock in source_vc.items():
            if clock > vc.get(tid, 0):
                vc[tid] = clock
        self.counters.hb_edges += 1

    def _release(self, thread, store: dict, key) -> None:
        """Publish the thread's clock into ``store[key]`` and advance."""
        vc = self._vc(thread)
        target = store.get(key)
        if target is None:
            store[key] = dict(vc)
        else:
            for tid, clock in vc.items():
                if clock > target.get(tid, 0):
                    target[tid] = clock
        vc[thread.tid] += 1
        self.counters.hb_edges += 1

    # ------------------------------------------------------------------
    # Scheduler hooks.
    # ------------------------------------------------------------------
    def on_spawn(self, thread, parent) -> None:
        if parent is not None:
            self._acquire(thread, self._vc(parent))
            self._vc(parent)[parent.tid] += 1
        else:
            # Root threads (harness iterations, __clinit__ runners)
            # inherit everything the completed past did.
            self._acquire(thread, self._quiescent)

    def on_terminate(self, thread) -> None:
        vc = self._vc(thread)
        for tid, clock in vc.items():
            if clock > self._quiescent.get(tid, 0):
                self._quiescent[tid] = clock

    def on_join(self, target, joiner) -> None:
        self._acquire(joiner, self._clocks.get(target))

    def on_acquire(self, thread, monitor) -> None:
        self._acquire(thread, self._monitor_vcs.get(monitor))
        held = self._held.get(thread, 0) + 1
        self._held[thread] = held
        self.counters.lock_acquires += 1
        self.counters.lockset_entries += held

    def on_release(self, thread, monitor) -> None:
        self._release(thread, self._monitor_vcs, monitor)
        held = self._held.get(thread, 0)
        if held > 0:
            self._held[thread] = held - 1

    def on_unpark(self, source, target, *, parked: bool) -> None:
        if source is None:
            return
        if parked:
            # Direct edge: the parked thread resumes after our unpark.
            self._acquire(target, self._vc(source))
            self._vc(source)[source.tid] += 1
        else:
            self._release(source, self._permit_vcs, target)

    def on_park(self, thread) -> None:
        """Called when park() consumes a pending permit."""
        self._acquire(thread, self._permit_vcs.get(thread))

    # ------------------------------------------------------------------
    # Shadow lookup.
    # ------------------------------------------------------------------
    @staticmethod
    def _field_var(obj, slot: int) -> _Var:
        shadow = obj.shadow
        if shadow is None:
            shadow = obj.shadow = {}
        var = shadow.get(slot)
        if var is None:
            var = shadow[slot] = _Var()
        return var

    def _static_var(self, cls_name: str, fname: str) -> _Var:
        key = (cls_name, fname)
        var = self._static_vars.get(key)
        if var is None:
            var = self._static_vars[key] = _Var()
        return var

    def _suppressed(self, name: str) -> bool:
        hit = self._suppress_cache.get(name)
        if hit is None:
            hit = any(fnmatchcase(name, pat)
                      for pat in self.config.suppress)
            self._suppress_cache[name] = hit
        return hit

    @staticmethod
    def _site(frame) -> str:
        pc = frame.pc
        code = frame.code
        if pc >= len(code):
            pc = len(code) - 1
        return f"{frame.method.qualified}:{code[pc].line}"

    # ------------------------------------------------------------------
    # Race reporting.
    # ------------------------------------------------------------------
    def _report(self, kind: str, name: str, thread,
                site: str, prior_kind: str, prior_tid, prior_site) -> None:
        self.counters.races_found += 1
        if self._suppressed(name):
            self.suppressed += 1
            return
        key = (kind, name, prior_site, site)
        if key in self._seen:
            return
        self._seen.add(key)
        if len(self.races) >= self.config.max_reports:
            self.truncated = True
            return
        self.races.append({
            "kind": kind,
            "variable": name,
            "thread": f"{thread.name}#{thread.tid}",
            "site": site,
            "prior_kind": prior_kind,
            "prior_thread": f"#{prior_tid}",
            "prior_site": prior_site,
        })

    # ------------------------------------------------------------------
    # The FastTrack checks.
    # ------------------------------------------------------------------
    def _read(self, name: str, var: _Var, thread, frame) -> None:
        self.counters.race_checks += 1
        if var.sync_vc is not None:
            # Volatile-like variable: the read acquires, never races.
            self._acquire(thread, var.sync_vc)
            return
        vc = self._vc(thread)
        tid = thread.tid
        # Write-read check.
        if var.w_tid is not None and var.w_tid != tid \
                and var.w_clock > vc.get(var.w_tid, 0):
            self._report("read after unsynchronized write", name,
                         thread, self._site(frame),
                         "write", var.w_tid, var.w_site)
        clock = vc[tid]
        if var.r_vc is not None:
            var.r_vc[tid] = clock
            var.r_sites[tid] = self._site(frame)
            return
        if var.r_tid is None or var.r_tid == tid \
                or var.r_clock <= vc.get(var.r_tid, 0):
            # Same-epoch / ordered read: stay in cheap exclusive mode.
            var.r_tid = tid
            var.r_clock = clock
            var.r_site = self._site(frame)
            return
        # Genuinely concurrent reads: promote to a read vector clock.
        self.counters.vc_promotions += 1
        var.r_vc = {var.r_tid: var.r_clock, tid: clock}
        var.r_sites = {var.r_tid: var.r_site, tid: self._site(frame)}
        var.r_tid = None

    def _write(self, name: str, var: _Var, thread, frame) -> None:
        self.counters.race_checks += 1
        if var.sync_vc is not None:
            # Volatile-like variable: the write releases, never races.
            self._release_var(thread, var)
            return
        vc = self._vc(thread)
        tid = thread.tid
        site = None
        if var.w_tid is not None and var.w_tid != tid \
                and var.w_clock > vc.get(var.w_tid, 0):
            site = self._site(frame)
            self._report("write after unsynchronized write", name,
                         thread, site, "write", var.w_tid, var.w_site)
        if var.r_vc is not None:
            for rtid in sorted(var.r_vc):
                if rtid != tid and var.r_vc[rtid] > vc.get(rtid, 0):
                    site = site or self._site(frame)
                    self._report("write after unsynchronized read", name,
                                 thread, site, "read", rtid,
                                 var.r_sites[rtid])
        elif var.r_tid is not None and var.r_tid != tid \
                and var.r_clock > vc.get(var.r_tid, 0):
            site = site or self._site(frame)
            self._report("write after unsynchronized read", name,
                         thread, site, "read", var.r_tid, var.r_site)
        var.w_tid = tid
        var.w_clock = vc[tid]
        var.w_site = site or self._site(frame)
        # The write dominates prior reads; drop them (FastTrack's
        # read-reset keeps shadow state O(1) per variable).
        var.r_tid = None
        var.r_vc = None
        var.r_sites = None

    def _release_var(self, thread, var: _Var) -> None:
        vc = self._vc(thread)
        target = var.sync_vc
        for tid, clock in vc.items():
            if clock > target.get(tid, 0):
                target[tid] = clock
        vc[thread.tid] += 1
        self.counters.hb_edges += 1

    def _atomic(self, name: str, var: _Var, thread, *, rmw: bool) -> None:
        self.counters.race_checks += 1
        if var.sync_vc is None:
            var.sync_vc = {}
            # From now on the variable is volatile-like: its epoch
            # history is no longer checked (pre-marking accesses were).
        self._acquire(thread, var.sync_vc)
        if rmw:
            self._release_var(thread, var)

    # ------------------------------------------------------------------
    # Interpreter hooks.
    # ------------------------------------------------------------------
    def _field_key(self, jclass, fname: str) -> tuple:
        key = (jclass, fname)
        hit = self._field_cache.get(key)
        if hit is None:
            hit = (jclass.field_layout[fname],
                   f"{jclass.resolve_field_owner(fname).name}.{fname}")
            self._field_cache[key] = hit
        return hit

    def field_read(self, thread, obj, fname: str, frame) -> None:
        slot, name = self._field_key(obj.jclass, fname)
        self._read(name, self._field_var(obj, slot), thread, frame)

    def field_write(self, thread, obj, fname: str, frame) -> None:
        slot, name = self._field_key(obj.jclass, fname)
        self._write(name, self._field_var(obj, slot), thread, frame)

    def static_read(self, thread, cls_name: str, fname: str, frame) -> None:
        self._read(f"{cls_name}.{fname}",
                   self._static_var(cls_name, fname), thread, frame)

    def static_write(self, thread, cls_name: str, fname: str, frame) -> None:
        self._write(f"{cls_name}.{fname}",
                    self._static_var(cls_name, fname), thread, frame)

    def array_read(self, thread, arr, index: int, frame) -> None:
        if not self.config.track_arrays:
            return
        self._read(f"{arr.kind}[]", self._field_var(arr, index),
                   thread, frame)

    def array_write(self, thread, arr, index: int, frame) -> None:
        if not self.config.track_arrays:
            return
        self._write(f"{arr.kind}[]", self._field_var(arr, index),
                    thread, frame)

    def array_copy(self, thread, src, src_pos: int, dst, dst_pos: int,
                   n: int, frame) -> None:
        if not self.config.track_arrays:
            return
        for i in range(n):
            self._read(f"{src.kind}[]",
                       self._field_var(src, src_pos + i), thread, frame)
        for i in range(n):
            self._write(f"{dst.kind}[]",
                        self._field_var(dst, dst_pos + i), thread, frame)

    def atomic_field(self, thread, obj, fname: str, frame, *,
                     rmw: bool) -> None:
        slot, name = self._field_key(obj.jclass, fname)
        self._atomic(name, self._field_var(obj, slot), thread, rmw=rmw)

    # ------------------------------------------------------------------
    def race_dicts(self) -> list[dict]:
        return list(self.races)
