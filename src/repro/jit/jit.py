"""Tiering policy, code cache, and compile-time accounting.

Methods start interpreted; invocation and backedge counters trigger
compilation on a (simulated) background compiler thread.  Per-phase
node-processing counts accumulate into simulated compiler-thread cycles,
which is what the Table 16 experiment (compilation-time change per
optimization) measures.
"""

from __future__ import annotations

from repro.errors import CompileError
from repro.jit.graph_builder import build_graph
from repro.jit.lowering import lower
from repro.jit.machine import Machine
from repro.jit.pipeline import JitConfig, run_pipeline

#: Attribution of pipeline phases to the paper's optimization codes
#: (phases not listed are baseline compiler work).
PHASE_TO_OPT = {
    "duplication": "DS",
    "method-handle": "MHS",
    "lock-coarsen": "LLC",
    "guard-motion": "GM",
    "vectorize": "LV",
    "atomic-coalesce": "AC",
}


class CompileStats:
    """Aggregated simulated compile-time, per phase."""

    def __init__(self) -> None:
        self.phase_cycles: dict[str, int] = {}
        self.compilations = 0
        self.failures = 0
        self.recompilations = 0

    def phase(self, name: str, cycles: int) -> None:
        self.phase_cycles[name] = self.phase_cycles.get(name, 0) + cycles

    @property
    def total_cycles(self) -> int:
        return sum(self.phase_cycles.values())

    def opt_cycles(self, code: str) -> int:
        return sum(cycles for name, cycles in self.phase_cycles.items()
                   if PHASE_TO_OPT.get(name) == code)


class JitCompiler:
    """The VM's JIT: policy + pipeline + compiled-code bookkeeping."""

    def __init__(self, vm, config: JitConfig) -> None:
        self.vm = vm
        self.config = config
        self.machine = Machine(vm)
        self.stats = CompileStats()
        self.compiled_methods: list = []
        self.failed: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Policy.
    # ------------------------------------------------------------------
    def on_invoke(self, method) -> None:
        if method.invocation_count >= self.config.compile_threshold:
            self.compile(method)

    def on_backedge(self, method) -> None:
        # No OSR: hot loops compile for the *next* invocation.
        if method.backedge_count >= self.config.backedge_threshold \
                and method.invocation_count > 0:
            self.compile(method)

    def on_deopt(self, method) -> None:
        self.stats.recompilations += 1

    # ------------------------------------------------------------------
    def compile(self, method) -> bool:
        """Compile ``method``; returns True on success.

        Compilation bailouts (CompileError) fall back to the interpreter
        permanently after a few attempts, as on a real JVM.
        """
        if method.native or method.abstract or method.code is None:
            return False
        if method.compile_failures > 2:
            return False
        verify = getattr(self.vm, "verify_ir", False)
        try:
            graph = build_graph(method, self.vm.pool)
            run_pipeline(graph, self.config, self.vm.pool, self.stats,
                         verify=verify, verify_stats=self.vm.irverify_stats)
            if verify:
                self.vm.irverify_stats["graphs"] = \
                    self.vm.irverify_stats.get("graphs", 0) + 1
            code = lower(graph, self.config, self.vm.pool)
        except CompileError as exc:
            from repro.sanitize.irverify import IRVerifyError
            if isinstance(exc, IRVerifyError):
                # Never mask a verification failure as a bailout: the
                # interpreter fallback is exactly what would hide the
                # miscompile this mode exists to catch.
                raise
            method.compile_failures += 1
            method.invocation_count = 0
            self.failed[method.qualified] = str(exc)
            self.stats.failures += 1
            self._emit_compile(method, ok=False)
            return False
        method.compiled = code
        self._emit_compile(method, ok=True)
        self.stats.compilations += 1
        if all(c.method is not method for c in self.compiled_methods):
            self.compiled_methods.append(code)
        else:
            self.compiled_methods = [c for c in self.compiled_methods
                                     if c.method is not method]
            self.compiled_methods.append(code)
        return True

    def _emit_compile(self, method, ok: bool) -> None:
        tr = self.vm.trace
        if tr is not None and tr.jit_on:
            current = self.vm.scheduler.current
            tid = current.tid if current is not None else 0
            tr.emit("jit", "compile", tid,
                    (method.qualified, 1 if ok else 0))

    # ------------------------------------------------------------------
    # Figure 7 metrics.
    # ------------------------------------------------------------------
    def code_size_bytes(self) -> int:
        return sum(code.size_bytes for code in self.compiled_methods)

    def hot_method_count(self) -> int:
        return len(self.compiled_methods)
