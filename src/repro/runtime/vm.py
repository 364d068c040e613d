"""The virtual machine facade.

A :class:`VM` owns one complete simulated JVM: class pool, heap, cache
model, scheduler, interpreter, and (optionally) a JIT compiler.  Typical
use::

    from repro.runtime import VM
    from repro.lang import compile_program

    program = compile_program(source_text)
    vm = VM(jit="graal")
    vm.load(program)
    result = vm.invoke("Main.run", [100])

``jit`` may be ``None`` (pure interpretation — used for metric profiling,
like the paper's instrumented runs), ``"graal"`` (the full pipeline with
all seven paper optimizations), ``"c2"`` (the classic baseline pipeline),
or an explicit :class:`repro.jit.pipeline.JitConfig` for selective
enable/disable experiments (Figure 5).
"""

from __future__ import annotations

from repro.errors import LinkError, VMError
from repro.jvm import intrinsics
from repro.jvm.cache import CacheModel
from repro.jvm.classfile import ClassPool, JClass, JMethod
from repro.jvm.counters import Counters
from repro.jvm.heap import Heap
from repro.jvm.interpreter import Frame, Interpreter
from repro.jvm.scheduler import RUNNABLE, JThread, Scheduler


#: Arities of the builtin native classes registered by every VM.
_BUILTIN_NATIVES: dict[str, list[tuple[str, int]]] = {
    "Sys": [("print", 1), ("println", 1), ("identityHash", 1), ("cores", 0),
            ("hashOf", 1)],
    "Math": [
        ("sqrt", 1), ("exp", 1), ("log", 1), ("pow", 2),
        ("sin", 1), ("cos", 1), ("floor", 1),
    ],
    "Str": [
        ("len", 1), ("charAt", 2), ("sub", 3), ("indexOf", 2),
        ("fromChar", 1), ("ofInt", 1), ("hash", 1), ("cmp", 2),
        ("upper", 1), ("lower", 1), ("parseInt", 1),
    ],
    "Arrays": [("copy", 5)],
}

#: The host engines, each with the tiers it may run a frame on, in
#: promotion order.  Recorded in durable sweep unit digests: a resumed
#: sweep must re-run its units under the same ladder the journal was
#: written with, and serial == sharded fingerprints hold per ladder.
TIER_LADDERS: dict[str, tuple[str, ...]] = {
    "reference": ("reference",),
    "threaded": ("threaded",),
    "tier1": ("threaded", "tier1"),
    "tier2": ("threaded", "tier1", "tier2"),
}


class VM:
    """One simulated JVM instance."""

    def __init__(
        self,
        *,
        cores: int = 8,
        quantum: int = 5000,
        schedule_seed: int = 0,
        jit: object = "graal",
        engine: str = "threaded",
        faults: object = None,
        sanitize: object = None,
        trace: object = None,
        verify_ir: bool = False,
    ) -> None:
        self.counters = Counters()
        # Compiler verification (repro.sanitize.irverify/blockverify):
        # when on, every JIT pipeline phase and every emitted host
        # superblock (tier-1 and tier-2) is statically re-checked;
        # violations raise instead of silently falling back.  Stats live
        # outside Counters — they are host-side observability and must
        # not perturb the byte-identity fingerprint.
        self.verify_ir = bool(verify_ir)
        self.irverify_stats: dict[str, int] = {
            "graphs": 0, "phase_checks": 0, "issues": 0, "blocks": 0,
        }
        # Flight recorder (repro.trace); installed below once the
        # subsystems it hooks exist.  Every hot-path hook is a single
        # None check while this stays None.
        self.trace = None
        self.pool = ClassPool()
        self.heap = Heap(self.counters)
        self.cache = CacheModel(cores, self.counters)
        self.scheduler = Scheduler(cores=cores, quantum=quantum, seed=schedule_seed)
        self.scheduler.executor = self._execute_slice
        # Host execution engine.  "threaded" (default) is the
        # threaded-code engine (repro.jvm.threaded); "reference" is the
        # original elif dispatcher, kept as the equivalence oracle;
        # "tier1" (opt-in) adds compiled superblock closures for hot
        # methods on top of the threaded tier (repro.jvm.tier1);
        # "tier2" (opt-in) additionally host-compiles the guest JIT's
        # optimized machine code (Tier2Machine, below).  All four
        # produce byte-identical counters and schedules.
        if engine not in TIER_LADDERS:
            raise VMError(f"bad engine spec {engine!r}")
        ladder = TIER_LADDERS[engine]
        if "tier1" in ladder:
            from repro.jvm.tier1 import Tier1Interpreter

            self.interpreter = Tier1Interpreter(self)
        elif "threaded" in ladder:
            from repro.jvm.threaded import ThreadedInterpreter

            self.interpreter = ThreadedInterpreter(self)
        else:
            self.interpreter = Interpreter(self)
        self.engine = engine
        self.stdout: list[str] = []
        self.retired = False
        self._loaded_marks: set[str] = set()
        self._class_cache: dict[str, JClass] = {}
        self._static_cache: dict[tuple[str, str], JMethod] = {}
        self._bootstrap_builtins()
        self.jit = self._make_jit(jit)
        self.machine = self.jit.machine if self.jit is not None else None
        if "tier2" in ladder and self.jit is not None:
            # Swap the interpretive machine-frame executor for the
            # tier-2 one (same CompiledCode, host-compiled closures on
            # top); the interpretive Machine stays reachable through
            # Machine.run_frame as the byte-identity oracle and the
            # executor of code tier-2 has not promoted.
            from repro.jit.machine import Tier2Machine

            self.machine = Tier2Machine(self)
            self.jit.machine = self.machine
        # Deterministic fault injection (repro.faults).  ``faults`` is a
        # FaultPlan or a prepared FaultInjector; hooks are installed
        # only for the fault kinds the plan actually uses, so the hot
        # call path stays a single None check when no plan is active.
        self.faults = self._make_injector(faults)
        self._fault_calls = (
            self.faults is not None and self.faults.wants_calls)
        # Happens-before race sanitizer (repro.sanitize).  ``sanitize``
        # is True, a SanitizerConfig, or a prepared RaceSanitizer;
        # attaching one forces interpreter-only execution (the JIT's
        # machine code has no access hooks).
        self.sanitizer = None
        if sanitize is not None and sanitize is not False:
            self._make_sanitizer(sanitize)
        # Flight recorder (repro.trace).  ``trace`` is True (defaults),
        # a TraceConfig, or a prepared FlightRecorder; events cover the
        # whole VM lifetime, class initializers included.
        if trace is not None and trace is not False:
            self._make_trace(trace)

    def _make_trace(self, trace) -> None:
        from repro.trace.recorder import FlightRecorder, TraceConfig

        if trace is True:
            trace = FlightRecorder()
        elif isinstance(trace, TraceConfig):
            trace = FlightRecorder(trace)
        if not isinstance(trace, FlightRecorder):
            raise VMError(f"bad trace spec {trace!r}")
        trace.attach(self)

    def _make_sanitizer(self, sanitize) -> None:
        from repro.sanitize.hb import RaceSanitizer, SanitizerConfig

        if sanitize is True:
            sanitize = RaceSanitizer()
        elif isinstance(sanitize, SanitizerConfig):
            sanitize = RaceSanitizer(sanitize)
        if not isinstance(sanitize, RaceSanitizer):
            raise VMError(f"bad sanitize spec {sanitize!r}")
        sanitize.attach(self)

    def _make_injector(self, faults):
        if faults is None:
            return None
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan

        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults)
        if not isinstance(faults, FaultInjector):
            raise VMError(f"bad faults spec {faults!r}")
        faults.attach(self)
        return faults

    def drop_host_code(self) -> None:
        """Forget every host-compiled artifact: threaded translations,
        tier-1 dispatch tables and tier-2 closures.  Invisible to the
        guest (the next entry re-translates and re-promotes); counters,
        ``jit`` and the tier stats stay readable.  Attaching a sanitizer
        or a flight recorder calls it, since host code binds both at
        compile time, and so does :meth:`retire`."""
        for engine in (self.interpreter, self.machine):
            drop = getattr(engine, "invalidate_all", None)
            if drop is not None:      # the reference engines hold no code
                drop()

    def retire(self) -> None:
        """Release everything a finished unit no longer needs: the host
        code (:meth:`drop_host_code`), the guest JIT's compiled code
        (:meth:`JitCompiler.retire`), the cache-model tags, the guest
        threads, run queue and monitors, and the per-run state on the
        loaded classes (statics, compiled code, profiles), which a
        compiled Program shared through the compile cache would
        otherwise keep alive.  What a result is read through stays:
        ``counters``, ``jit`` (stats, ``code_size_bytes()``,
        ``hot_method_count()``), the tier stats,
        ``interpreter.cache_info()`` and ``pool.loaded_classes()``.
        A retired VM runs nothing more: :meth:`invoke` raises."""
        self.drop_host_code()
        if self.jit is not None:
            self.jit.retire()
        self.retired = True
        self.cache.l1_tags = []
        self.cache.llc_tags = []
        self.scheduler.release()
        _reset_run_state(self.pool.classes.values())

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------
    def _bootstrap_builtins(self) -> None:
        function_cls = JClass("Function")
        self.pool.define(function_cls)
        for owner, methods in _BUILTIN_NATIVES.items():
            cls = JClass(owner)
            for name, arity in methods:
                cls.add_method(JMethod(name, owner, arity, static=True, native=True))
            self.pool.define(cls)

    def _make_jit(self, jit):
        if jit is None:
            return None
        from repro.jit.jit import JitCompiler
        from repro.jit.pipeline import JitConfig, c2_config, graal_config

        if jit == "graal":
            config = graal_config()
        elif jit == "c2":
            config = c2_config()
        elif isinstance(jit, JitConfig):
            config = jit
        else:
            raise VMError(f"bad jit spec {jit!r}")
        return JitCompiler(self, config)

    # ------------------------------------------------------------------
    # Program loading.
    # ------------------------------------------------------------------
    def load(self, program) -> None:
        """Define and link all classes of a compiled guest program.

        A Program may be loaded into several VMs over its lifetime (the
        experiment harness reuses compiled guest programs), so all
        per-run mutable state on the classes — JIT counters, compiled
        code, profiles, statics, loaded flags — is reset here, and
        ``ClassPool.define`` drops the link state of an earlier pool.
        """
        for cls in program.classes:
            self.pool.define(cls)
            cls.loaded = False
            for method in cls.methods.values():
                method.invocation_count = 0
                method.backedge_count = 0
                method.compile_failures = 0
        _reset_run_state(program.classes)
        self.pool.link_all()
        for cls in program.classes:
            if "__clinit__" in cls.methods:
                self.invoke(cls.methods["__clinit__"], [], name=f"clinit-{cls.name}")

    # ------------------------------------------------------------------
    # Resolution.
    # ------------------------------------------------------------------
    def resolve_class(self, name: str) -> JClass:
        cls = self._class_cache.get(name)
        if cls is None:
            cls = self.pool.get(name)
            self._class_cache[name] = cls
        if name not in self._loaded_marks:
            self._loaded_marks.add(name)
            cls.loaded = True
        return cls

    def resolve_static(self, owner: str, name: str) -> JMethod:
        key = (owner, name)
        method = self._static_cache.get(key)
        if method is None:
            method = self.resolve_class(owner).resolve_method(name)
            self._static_cache[key] = method
        return method

    # ------------------------------------------------------------------
    # Calls and threads.
    # ------------------------------------------------------------------
    def charge(self, thread: JThread, cycles: int) -> None:
        thread.budget -= cycles
        self.counters.reference_cycles += cycles

    def call(self, thread: JThread, method: JMethod, args: list) -> None:
        """Invoke ``method``: run a native, or push a frame (JIT-aware)."""
        if self._fault_calls:
            self.faults.on_call(self, thread, method)
        if method.native:
            fn = intrinsics.lookup(method.owner, method.name)
            self.charge(thread, intrinsics.NATIVE_BASE_COST)
            result = fn(self, thread, args)
            thread.frames[-1].receive_result(
                None if result is intrinsics.VOID else result)
            return
        if method.abstract:
            raise LinkError(f"invoke of abstract method {method.qualified}")
        method.invocation_count += 1
        jit = self.jit
        if jit is not None:
            if method.compiled is None:
                jit.on_invoke(method)
            code = method.compiled
            if code is not None:
                thread.frames.append(self.machine.new_frame(code, args))
                return
        thread.frames.append(Frame(method, args))

    def on_backedge(self, method: JMethod) -> None:
        if self.jit is not None and method.compiled is None:
            self.jit.on_backedge(method)

    def make_function(self, target: JMethod, captured: list):
        """Allocate a closure object (the INVOKEDYNAMIC bootstrap result)."""
        obj = self.heap.new_object(self.resolve_class("Function"))
        obj.meta = (target, tuple(captured))
        return obj

    def guest_thread_of(self, thread_obj) -> JThread:
        if thread_obj is None or thread_obj.meta is None:
            raise VMError("unpark of a thread that was never started")
        return thread_obj.meta

    def spawn_guest_thread(self, thread_obj, function_obj, *, name: str,
                           daemon: bool,
                           parent: JThread | None = None) -> JThread:
        """Start a guest ``Thread`` whose body is a closure object."""
        target, captured = function_obj.meta
        jthread = JThread(name, daemon=daemon)
        jthread.thread_obj = thread_obj
        thread_obj.meta = jthread
        self._push_entry_frame(jthread, target, list(captured))
        self.scheduler.spawn(jthread, parent=parent)
        return jthread

    def _push_entry_frame(self, thread: JThread, method: JMethod, args: list) -> None:
        if method.native:
            raise VMError("cannot start a thread on a native method")
        method.invocation_count += 1
        if self.jit is not None:
            if method.compiled is None:
                self.jit.on_invoke(method)
            if method.compiled is not None:
                thread.frames.append(
                    self.machine.new_frame(method.compiled, args))
                return
        thread.frames.append(Frame(method, args))

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def _execute_slice(self, thread: JThread) -> int:
        quantum = self.scheduler.quantum
        thread.budget = quantum
        frames = thread.frames
        while thread.budget > 0 and thread.state == RUNNABLE and frames:
            top = frames[-1]
            if type(top) is Frame:
                self.interpreter.run_frame(thread, top)
            else:
                self.machine.run_frame(thread, top)
        return max(1, quantum - thread.budget)

    def invoke(self, method, args: list | None = None, *, name: str = "main"):
        """Run ``method`` on a fresh non-daemon thread to completion.

        ``method`` is a :class:`JMethod` or a ``"Class.method"`` string.
        Returns the guest return value (or ``None`` for void).
        """
        if self.retired:
            raise VMError("invoke on a retired VM")
        if isinstance(method, str):
            owner, _, mname = method.partition(".")
            method = self.resolve_static(owner, mname)
        thread = JThread(name)
        self._push_entry_frame(thread, method, list(args or []))
        self.scheduler.spawn(thread)
        self.scheduler.run()
        if thread.fault is not None:
            # The entry thread died without unwinding through the
            # executor (e.g. killed by fault injection): surface its
            # fault instead of silently returning None.
            raise thread.fault
        return thread.result

    # ------------------------------------------------------------------
    # Measurement helpers.
    # ------------------------------------------------------------------
    def timing_snapshot(self) -> dict:
        """Wall clock + work snapshot for interval measurements."""
        return {
            "clock": self.scheduler.clock,
            "work": self.counters.reference_cycles,
            "busy": self.scheduler.busy_core_slices,
        }

    def interval_stats(self, before: dict) -> dict:
        """Wall time, work and CPU utilization since ``before``."""
        wall = self.scheduler.clock - before["clock"]
        work = self.counters.reference_cycles - before["work"]
        busy = self.scheduler.busy_core_slices - before["busy"]
        cpu = busy / (self.scheduler.cores * wall) if wall else 0.0
        return {"wall": wall, "work": work, "cpu": min(1.0, cpu)}

    def loaded_class_names(self) -> set[str]:
        return {c.name for c in self.pool.loaded_classes()}


def _reset_run_state(classes) -> None:
    """Reset the per-run state a run leaves on ``classes`` that holds
    guest or compiled objects: static values, compiled code, call
    profiles and disabled speculations.  Shared by :meth:`VM.load`
    (a Program may be loaded into several VMs) and :meth:`VM.retire`."""
    for cls in classes:
        for field in cls.fields.values():
            if field.static:
                cls.static_values[field.name] = 0
        for method in cls.methods.values():
            method.call_profile = None
            method.compiled = None
            method.disabled_speculations.clear()
