"""Tier-1 engine: threaded tier-0 plus compiled superblock closures.

The tier ladder (DESIGN.md §11):

- **reference** — the ``elif`` interpreter, the byte-identical oracle;
- **threaded** — per-pc handler closures with inline caches and fusion
  (:mod:`repro.jvm.threaded`, ~4.4x);
- **tier1** (this module) — hot methods are additionally compiled by
  :mod:`repro.jit.emit` into one Python function per superblock, with
  no per-op dispatch and counter/cost accounting batched per block.

Promotion reads the invocation counters the VM already maintains for
the *guest* JIT's hotness policy (``method.invocation_count``, bumped
by ``VM.call``); the engine never mutates guest-visible state, so the
decision is a pure host-side optimization.  The driver merges the
compiled block entries with the method's threaded handler table:
any pc that is a block leader runs compiled, every other pc — a
resume mid-block after a budget boundary, a monitor wake-up, or an
opcode the emitter bails on (monitors, park/wait/notify) — runs its
threaded handler, re-entering compiled code at the next leader.
Promotion cannot fail or decline: every linked method compiles, and an
emitter error propagates instead of leaving the method on threaded.  A
block exits by parking ``frame.pc`` when the budget runs out, by
raising after flushing its accounting (a guest exception or an
injected fault), or at its terminator.

Compiled code lives in one table, the dispatch memo (method → merged
dispatch table), which
:meth:`~repro.runtime.vm.VM.drop_host_code` drops whole.  All tier
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
                 "deopts")

    def __init__(self) -> None:
        self.promotions = 0
        self.blocks = 0               # superblocks currently emitted
        self.sites = 0                # instruction sites emitted
        self.compile_cycles = 0       # simulated-clock compile "time"
        self.deopts = {"budget": 0, "exception": 0, "fault": 0}

    def snapshot(self) -> dict:
        return {
            "promotions": self.promotions,
            "compiled_blocks": self.blocks,
            "compiled_sites": self.sites,
            "compile_cycles": self.compile_cycles,
            "deopts": dict(self.deopts),
        }


class Tier1Interpreter(ThreadedInterpreter):
    """Executes interpreted frames: threaded tier-0 + tier-1 closures."""

    def __init__(self, vm) -> None:
        super().__init__(vm)
        self.stats = Tier1Stats()
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
            if (dispatch is None
                    and method.invocation_count >= TIER1_THRESHOLD
                    and self.vm.sanitizer is None):
                dispatch = memo[method] = self._promote(method).dispatch
            if dispatch is None:
                self.execute(
                    thread, frame, self.translation(method).handlers)
            else:
                stack = frame.stack
                locals_ = frame.locals
                while thread.budget > 0:
                    if not dispatch[frame.pc](thread, frame, stack, locals_):
                        break
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
        """Compile ``method`` and merge its dispatch table.  Promotion
        cannot fail: an emitter or verifier error propagates."""
        handlers = self.translation(method).handlers
        code = compile_method(self, method)
        if getattr(self.vm, "verify_ir", False):
            from repro.sanitize.blockverify import check_emitted

            check_emitted(self.vm, code)
        # Merge: block leaders run compiled, everything else (resume
        # points, bail opcodes) dispatches its threaded handler.
        code.dispatch = [entry if entry is not None else handler
                         for entry, handler in zip(code.entries, handlers)]
        stats = self.stats
        stats.promotions += 1
        stats.blocks += code.nblocks
        stats.sites += code.sites
        stats.compile_cycles += code.compile_cycles
        return code

    def invalidate_all(self) -> int:
        """Drop every translation and every merged dispatch table (the
        tables hold the threaded handlers being thrown away)."""
        self._dispatch.clear()
        return super().invalidate_all()
