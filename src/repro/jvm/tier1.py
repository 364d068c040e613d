"""Tier-1 engine: threaded tier-0 plus compiled superblock closures.

The tier ladder (DESIGN.md §11):

- **reference** — the ``elif`` interpreter, the byte-identical oracle;
- **threaded** — per-pc handler closures with quickening and fusion
  (:mod:`repro.jvm.threaded`, ~4.4x);
- **tier1** (this module) — hot methods are additionally compiled by
  :mod:`repro.jit.emit` into one Python function per superblock, with
  no per-op dispatch and counter/cost accounting batched per block.

Promotion reads the invocation counters the VM already maintains for
the *guest* JIT's hotness policy (``method.invocation_count``, bumped
by ``VM.call``); the engine never mutates guest-visible state, so the
decision is a pure host-side optimization.  The driver merges the
compiled block entries with the method's threaded handler table:
any pc that is a block leader runs compiled, every other pc — an OSR
resume mid-block after a budget boundary, a monitor wake-up, or an
opcode the emitter bails on (invokes, monitors, atomics, park/wait) —
runs its threaded handler, re-entering compiled code at the next
leader.  A guard failure inside a block (forced trap, injected fault)
deopts through :func:`repro.jit.deopt.tier1_deopt` back to the threaded
tier at the exact bytecode index with the operand stack reconstructed.

Compiled code lives in one table, the dispatch memo (method → merged
dispatch table); forced deopts drop one entry, and
:meth:`~repro.runtime.vm.VM.drop_host_code` drops them all.  All tier
bookkeeping (promotions, block counts, deopt reasons, simulated compile
cycles) is host-side state on :class:`Tier1Stats`, never on
:class:`~repro.jvm.counters.Counters`: counters, schedules, RaceReports
and trace recordings stay byte-identical across all three engines.

Nothing is promoted while a sanitizer is attached (attaching one drops
all host code): emitted blocks carry no access hooks, and checked runs
take the threaded tier whose handlers bind the sanitizer at translation
time.  RaceReport equivalence across engines is therefore structural.
"""

from __future__ import annotations

from repro.jit.deopt import Tier1Deopt
from repro.jit.emit import compile_method
from repro.jvm.interpreter import Frame
from repro.jvm.scheduler import RUNNABLE
from repro.jvm.threaded import ThreadedInterpreter

#: Invocations before a method is promoted to superblock closures.
#: Deliberately below the guest JIT's compile threshold (32): the host
#: tier should already be fast by the time the simulated tier kicks in.
TIER1_THRESHOLD = 16


class Tier1Stats:
    """Host-side tier metrics (kept off the byte-identical Counters)."""

    __slots__ = ("promotions", "blocks", "sites", "compile_cycles",
                 "deopts", "methods")

    def __init__(self) -> None:
        self.promotions = 0
        self.blocks = 0               # superblocks currently emitted
        self.sites = 0                # instruction sites emitted
        self.compile_cycles = 0       # simulated-clock compile "time"
        self.deopts = {"budget": 0, "exception": 0, "fault": 0,
                       "forced": 0}
        self.methods: dict = {}       # qualified -> per-method record

    def snapshot(self) -> dict:
        return {
            "promotions": self.promotions,
            "compiled_blocks": self.blocks,
            "compiled_sites": self.sites,
            "compile_cycles": self.compile_cycles,
            "deopts": dict(self.deopts),
            "methods": {name: dict(rec)
                        for name, rec in sorted(self.methods.items())},
        }


class Tier1Interpreter(ThreadedInterpreter):
    """Executes interpreted frames: threaded tier-0 + tier-1 closures."""

    def __init__(self, vm) -> None:
        super().__init__(vm)
        self.stats = Tier1Stats()
        self._failed: set = set()     # methods the emitter declined
        self._forced: dict = {}       # JMethod -> one-shot deopt trap pc
        self._dispatch: dict = {}     # JMethod -> merged dispatch table

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def run_frame(self, thread, frame) -> None:
        # Folds VM._execute_slice's inner loop: drive interpreted frames
        # across guest calls/returns until the slice ends, the thread
        # blocks, or a machine frame (guest-JIT compiled) lands on top.
        # The exit conditions mirror _execute_slice exactly, so folding
        # them here only removes the per-call round-trip through the
        # outer loop — host control flow, never guest-visible.
        frames = thread.frames
        memo = self._dispatch
        while True:
            method = frame.method
            dispatch = memo.get(method)
            if dispatch is None:
                code = None
                if (method not in self._failed
                        and method.invocation_count >= TIER1_THRESHOLD
                        and self.vm.sanitizer is None):
                    code = self._promote(method)
                if code is None:
                    self.execute(
                        thread, frame, self.translation(method).handlers)
                else:
                    dispatch = memo[method] = code.dispatch
            if dispatch is not None:
                stack = frame.stack
                locals_ = frame.locals
                try:
                    while thread.budget > 0:
                        if not dispatch[frame.pc](
                                thread, frame, stack, locals_):
                            break
                except Tier1Deopt:
                    # The block flushed counters/budget and rebuilt the
                    # operand stack at the exact bytecode index; finish
                    # the slice on the threaded tier (the method's
                    # tier-1 code is invalidated).
                    self.execute(
                        thread, frame, self.translation(method).handlers)
            if thread.budget <= 0 or thread.state != RUNNABLE or not frames:
                return
            top = frames[-1]
            if type(top) is not Frame:
                return
            frame = top

    # ------------------------------------------------------------------
    # Promotion.
    # ------------------------------------------------------------------
    def _promote(self, method):
        if method.code is None:
            self._failed.add(method)
            return None
        handlers = self.translation(method).handlers
        forced = self._forced.pop(method, None)
        try:
            code = compile_method(self, method, deopt_at=forced)
        except Exception:
            code = None
        if code is None:
            self._failed.add(method)
            return None
        # Superblock validation runs OUTSIDE the bail-out try above: a
        # compile failure is a legitimate fallback, a verification
        # failure never is (masking it is the miscompile-hiding behavior
        # verify_ir exists to remove).
        if getattr(self.vm, "verify_ir", False):
            from repro.sanitize.blockverify import (
                BlockVerifyError, verify_tier1_code)

            issues = verify_tier1_code(code, method)
            stats = self.vm.irverify_stats
            stats["blocks"] = stats.get("blocks", 0) + code.nblocks
            stats["issues"] = stats.get("issues", 0) + len(issues)
            if issues:
                raise BlockVerifyError(method.qualified, issues)
        # Merge: block leaders run compiled, everything else (OSR
        # resume points, bail opcodes) dispatches its threaded handler.
        code.dispatch = [entry if entry is not None else handler
                         for entry, handler in zip(code.entries, handlers)]
        stats = self.stats
        stats.promotions += 1
        stats.blocks += code.nblocks
        stats.sites += code.sites
        stats.compile_cycles += code.compile_cycles
        record = stats.methods.setdefault(
            method.qualified, {"promotions": 0, "blocks": 0, "sites": 0,
                               "compile_cycles": 0})
        record["promotions"] += 1
        record["blocks"] = code.nblocks
        record["sites"] = code.sites
        record["compile_cycles"] += code.compile_cycles
        return code

    def force_deopt(self, method, pc: int) -> None:
        """Plant a one-shot deopt trap before bytecode ``pc``.

        The next promotion of ``method`` compiles with the trap; hitting
        it deopts to the threaded tier and invalidates the code, and the
        promotion after that compiles clean.  Used by the fuzz suite to
        prove deopt-at-every-index byte-identity.
        """
        self._forced[method] = pc
        self.drop_code(method)

    def drop_code(self, method) -> None:
        """Forget ``method``'s tier-1 code."""
        self._dispatch.pop(method, None)

    def invalidate_all(self) -> int:
        """Drop every translation and every merged dispatch table (the
        tables hold the threaded handlers being thrown away)."""
        self._dispatch.clear()
        return super().invalidate_all()
