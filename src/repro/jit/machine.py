"""The compiled-code executor (tier 1).

Runs :class:`~repro.jit.lowering.CompiledCode`: a register machine whose
per-instruction cycle costs were fixed at lowering time.  Semantics match
the interpreter exactly (same heap, same monitors, same scheduler
blocking behaviour); differences are purely in cost — which is the point:
the paper's optimization-impact measurements fall out of the cycle
deltas between code compiled with and without each optimization.

Runtime responsibilities specific to compiled code:

- **guards**: evaluate the check, count it per kind (the Section 5.5
  guard table), and on failure hand over to :mod:`repro.jit.deopt`,
- **coarsened monitors** (LLC): skip release/re-acquire inside a chunk
  of ``C`` iterations; ``monitorexit_if_held`` drains the held lock on
  loop exits.
"""

from __future__ import annotations

import time

from repro.errors import (
    GuestArithmeticError,
    GuestBoundsError,
    GuestCastError,
    GuestNullPointerError,
    VMError,
)
from repro.jvm.costmodel import (
    TIER2_COMPILE_BLOCK_COST,
    TIER2_COMPILE_SITE_COST,
    alloc_cost,
)
from repro.jvm.interpreter import _CMP, _rem_int, _truediv_int, guest_str
from repro.jit import deopt as deopt_mod


class MachineFrame:
    """Activation record of a compiled method."""

    __slots__ = ("code", "regs", "pc", "pending_dest", "coarsen_counts",
                 "coarsen_held")

    def __init__(self, code, args: list) -> None:
        self.code = code
        regs: dict[int, object] = {}
        for reg, value in code.consts:
            regs[reg] = value
        for reg, arg in zip(code.param_regs, args):
            regs[reg] = arg
        self.regs = regs
        self.pc = 0
        self.pending_dest: int | None = None
        self.coarsen_counts: dict[int, int] | None = None
        self.coarsen_held: dict[int, object] | None = None

    def receive_result(self, value) -> None:
        if self.pending_dest is not None:
            self.regs[self.pending_dest] = value
            self.pending_dest = None

    def __repr__(self) -> str:
        return f"<MachineFrame {self.code.method.qualified} pc={self.pc}>"


class Machine:
    """Executes machine frames of one VM."""

    def __init__(self, vm) -> None:
        self.vm = vm

    def new_frame(self, code, args: list) -> MachineFrame:
        return MachineFrame(code, args)

    # ------------------------------------------------------------------
    def run_frame(self, thread, frame: MachineFrame) -> None:
        vm = self.vm
        counters = vm.counters
        cache = vm.cache
        sched = vm.scheduler
        heap = vm.heap
        tr = vm.trace
        trace_cas = tr if (tr is not None and tr.cas_on) else None
        instrs = frame.code.instrs
        regs = frame.regs
        core = thread.core

        while thread.budget > 0:
            instr = instrs[frame.pc]
            kind = instr[0]
            cost = instr[1]
            counters.instructions += 1

            if kind == "add":
                a = regs[instr[3]]
                b = regs[instr[4]]
                if type(a) is str or type(b) is str:
                    regs[instr[2]] = guest_str(a) + guest_str(b)
                else:
                    regs[instr[2]] = a + b
            elif kind == "cmp":
                regs[instr[2]] = (1 if _CMP[instr[3]](regs[instr[4]],
                                                      regs[instr[5]]) else 0)
            elif kind == "cmpz":
                value = regs[instr[4]]
                if value is None:
                    value = 0
                regs[instr[2]] = 1 if _CMP[instr[3]](value, 0) else 0
            elif kind == "branch":
                frame.pc = instr[3] if regs[instr[2]] else instr[4]
                thread.budget -= cost
                counters.reference_cycles += cost
                continue
            elif kind == "jump":
                frame.pc = instr[2]
                thread.budget -= cost
                counters.reference_cycles += cost
                continue
            elif kind == "phimove":
                pairs = instr[2]
                values = [regs[src] for src, _ in pairs]
                for (_, dst), value in zip(pairs, values):
                    regs[dst] = value
            elif kind == "sub":
                regs[instr[2]] = regs[instr[3]] - regs[instr[4]]
            elif kind == "mul":
                regs[instr[2]] = regs[instr[3]] * regs[instr[4]]
            elif kind == "div":
                a = regs[instr[3]]
                b = regs[instr[4]]
                if b == 0:
                    raise GuestArithmeticError("/ by zero")
                if isinstance(a, int) and isinstance(b, int):
                    regs[instr[2]] = _truediv_int(a, b)
                else:
                    regs[instr[2]] = a / b
            elif kind == "rem":
                a = regs[instr[3]]
                b = regs[instr[4]]
                if b == 0:
                    raise GuestArithmeticError("% by zero")
                if isinstance(a, int) and isinstance(b, int):
                    regs[instr[2]] = _rem_int(a, b)
                else:
                    regs[instr[2]] = a - b * int(a / b)
            elif kind == "shl":
                regs[instr[2]] = regs[instr[3]] << regs[instr[4]]
            elif kind == "shr":
                regs[instr[2]] = regs[instr[3]] >> regs[instr[4]]
            elif kind == "and":
                regs[instr[2]] = regs[instr[3]] & regs[instr[4]]
            elif kind == "or":
                regs[instr[2]] = regs[instr[3]] | regs[instr[4]]
            elif kind == "xor":
                regs[instr[2]] = regs[instr[3]] ^ regs[instr[4]]
            elif kind == "neg":
                regs[instr[2]] = -regs[instr[3]]
            elif kind == "not":
                regs[instr[2]] = 0 if regs[instr[3]] else 1
            elif kind == "i2d":
                regs[instr[2]] = float(regs[instr[3]])
            elif kind == "d2i":
                regs[instr[2]] = int(regs[instr[3]])
            elif kind == "getfield":
                obj = regs[instr[3]]
                if obj is None:
                    raise GuestNullPointerError(f"getfield {instr[4]}")
                slot = obj.jclass.field_layout[instr[4]]
                cost += cache.access(core, obj.addr + slot)
                regs[instr[2]] = obj.values[slot]
            elif kind == "putfield":
                obj = regs[instr[2]]
                if obj is None:
                    raise GuestNullPointerError(f"putfield {instr[3]}")
                slot = obj.jclass.field_layout[instr[3]]
                cost += cache.access(core, obj.addr + slot)
                obj.values[slot] = regs[instr[4]]
            elif kind == "aload":
                arr = regs[instr[3]]
                idx = regs[instr[4]]
                cost += cache.access(core, arr.addr + idx)
                try:
                    if idx < 0:
                        raise IndexError
                    regs[instr[2]] = arr.data[idx]
                except IndexError:
                    raise GuestBoundsError(
                        f"compiled aload OOB {idx}/{len(arr.data)}") from None
            elif kind == "astore":
                arr = regs[instr[2]]
                idx = regs[instr[3]]
                cost += cache.access(core, arr.addr + idx)
                try:
                    if idx < 0:
                        raise IndexError
                    arr.data[idx] = regs[instr[4]]
                except IndexError:
                    raise GuestBoundsError(
                        f"compiled astore OOB {idx}/{len(arr.data)}") from None
            elif kind == "arraylen":
                regs[instr[2]] = len(regs[instr[3]].data)
            elif kind == "guard":
                _, _, label, test, operands, class_name, spec_id, meta = instr
                counters.count_guard(label)
                ok = True
                if test == "nonnull":
                    ok = regs[operands[0]] is not None
                elif test == "bounds":
                    idx = regs[operands[0]]
                    arr = regs[operands[1]]
                    ok = arr is not None and 0 <= idx < len(arr.data)
                elif test == "bounds_range":
                    lo = regs[operands[0]]
                    hi = regs[operands[1]]
                    arr = regs[operands[2]]
                    ok = arr is not None and lo >= 0 and hi <= len(arr.data)
                elif test == "type":
                    obj = regs[operands[0]]
                    ok = obj is not None and obj.jclass.name == class_name
                else:
                    raise VMError(f"unknown guard test {test}")
                if not ok:
                    thread.budget -= cost
                    counters.reference_cycles += cost
                    deopt_mod.deoptimize(vm, thread, frame, spec_id, meta)
                    return
            elif kind == "new":
                jclass = instr[3]
                obj = heap.new_object(jclass)
                cost += cache.access(core, obj.addr)
                regs[instr[2]] = obj
            elif kind == "newarray":
                length = regs[instr[4]]
                cost += alloc_cost(length)
                arr = heap.new_array(instr[3], length)
                cost += cache.access(core, arr.addr)
                regs[instr[2]] = arr
            elif kind == "instanceof":
                obj = regs[instr[3]]
                regs[instr[2]] = (1 if obj is not None
                                  and obj.jclass.is_subtype_of(instr[4])
                                  else 0)
            elif kind == "checkcast":
                obj = regs[instr[3]]
                if obj is not None and not obj.jclass.is_subtype_of(instr[4]):
                    raise GuestCastError(
                        f"cannot cast {obj.jclass.name} to {instr[4]}")
                regs[instr[2]] = obj
            elif kind == "getstatic":
                regs[instr[2]] = instr[3].static_values[instr[4]]
            elif kind == "putstatic":
                instr[2].static_values[instr[3]] = regs[instr[4]]
            elif kind == "callstatic":
                frame.pending_dest = instr[2]
                args = [regs[a] for a in instr[4]]
                frame.pc += 1
                thread.budget -= cost
                counters.reference_cycles += cost
                vm.call(thread, instr[3], args)
                return
            elif kind == "callvirtual":
                counters.method += 1
                args = [regs[a] for a in instr[4]]
                receiver = args[0]
                if receiver is None:
                    raise GuestNullPointerError(f"invoke {instr[3]} on null")
                target = receiver.jclass.resolve_method(instr[3])
                frame.pending_dest = instr[2]
                frame.pc += 1
                thread.budget -= cost
                counters.reference_cycles += cost
                vm.call(thread, target, args)
                return
            elif kind == "indy":
                counters.idynamic += 1
                counters.method += 1
                captured = [regs[a] for a in instr[4]]
                regs[instr[2]] = vm.make_function(instr[3], captured)
            elif kind == "callhandle":
                counters.method += 1
                handle = regs[instr[3]]
                if handle is None:
                    raise GuestNullPointerError("invoke on null function")
                target, captured = handle.meta
                args = list(captured) + [regs[a] for a in instr[4]]
                frame.pending_dest = instr[2]
                frame.pc += 1
                thread.budget -= cost
                counters.reference_cycles += cost
                vm.call(thread, target, args)
                return
            elif kind == "monitorenter":
                counters.synch += 1
                obj = regs[instr[2]]
                if obj is None:
                    raise GuestNullPointerError("monitorenter")
                coarsen = instr[3]
                if coarsen is not None:
                    held = frame.coarsen_held
                    if held is not None and coarsen[1] in held:
                        cost = 1        # lock still held from last chunk
                        frame.pc += 1
                        thread.budget -= cost
                        counters.reference_cycles += cost
                        continue
                if sched.monitor_enter(thread, obj):
                    pass
                else:
                    counters.monitor_contended += 1
                    thread.budget -= cost
                    counters.reference_cycles += cost
                    return      # re-execute this pc once granted
            elif kind == "monitorexit":
                obj = regs[instr[2]]
                coarsen = instr[3]
                if coarsen is not None:
                    _, site, chunk = coarsen
                    counts = frame.coarsen_counts
                    if counts is None:
                        counts = frame.coarsen_counts = {}
                        frame.coarsen_held = {}
                    n = counts.get(site, 0) + 1
                    counts[site] = n
                    if n % chunk != 0:
                        frame.coarsen_held[site] = obj
                        cost = 1        # keep holding across the chunk
                    else:
                        frame.coarsen_held.pop(site, None)
                        sched.monitor_exit(thread, obj)
                else:
                    sched.monitor_exit(thread, obj)
            elif kind == "monitorexit_if_held":
                coarsen = instr[3]
                held = frame.coarsen_held
                if held is not None and coarsen[1] in held:
                    obj = held.pop(coarsen[1])
                    sched.monitor_exit(thread, obj)
                    cost = 18
            elif kind == "cas":
                obj = regs[instr[3]]
                if obj is None:
                    raise GuestNullPointerError(f"cas {instr[4]}")
                counters.atomic += 1
                slot = obj.jclass.field_layout[instr[4]]
                cost += cache.access(core, obj.addr + slot)
                if obj.values[slot] == regs[instr[5]]:
                    obj.values[slot] = regs[instr[6]]
                    regs[instr[2]] = 1
                else:
                    counters.cas_failures += 1
                    if trace_cas is not None:
                        trace_cas.emit("cas", "fail", thread.tid,
                                       (instr[4],))
                    regs[instr[2]] = 0
            elif kind == "atomicget":
                obj = regs[instr[3]]
                if obj is None:
                    raise GuestNullPointerError(f"atomicget {instr[4]}")
                counters.atomic += 1
                slot = obj.jclass.field_layout[instr[4]]
                cost += cache.access(core, obj.addr + slot)
                regs[instr[2]] = obj.values[slot]
            elif kind == "atomicadd":
                obj = regs[instr[3]]
                if obj is None:
                    raise GuestNullPointerError(f"atomicadd {instr[4]}")
                counters.atomic += 1
                slot = obj.jclass.field_layout[instr[4]]
                cost += cache.access(core, obj.addr + slot)
                old = obj.values[slot]
                obj.values[slot] = old + regs[instr[5]]
                regs[instr[2]] = old
            elif kind == "park":
                counters.park += 1
                frame.pc += 1
                thread.budget -= cost
                counters.reference_cycles += cost
                if sched.park(thread):
                    return
                continue
            elif kind == "unpark":
                counters.unpark += 1
                sched.unpark(vm.guest_thread_of(regs[instr[2]]))
            elif kind == "wait":
                counters.wait += 1
                obj = regs[instr[2]]
                if obj is None:
                    raise GuestNullPointerError("wait")
                frame.pc += 1
                thread.budget -= cost
                counters.reference_cycles += cost
                sched.monitor_wait(thread, obj)
                return
            elif kind == "notify":
                counters.notify += 1
                sched.monitor_notify(thread, regs[instr[2]],
                                     all_waiters=False)
            elif kind == "notifyall":
                counters.notify += 1
                sched.monitor_notify(thread, regs[instr[2]],
                                     all_waiters=True)
            elif kind == "ret":
                value = regs[instr[2]] if instr[2] is not None else None
                thread.frames.pop()
                if thread.frames:
                    thread.frames[-1].receive_result(value)
                else:
                    thread.result = value
                thread.budget -= cost
                counters.reference_cycles += cost
                return
            else:
                raise VMError(f"machine: unhandled instruction {kind}")

            frame.pc += 1
            thread.budget -= cost
            counters.reference_cycles += cost


#: Machine-frame slice entries before a CompiledCode is host-compiled by
#: tier-2.  Deliberately tiny: a method only acquires guest-JIT machine
#: code once it is already hot (32 invocations), and each scheduler
#: slice that lands on the frame counts — so a hot loop crosses this on
#: its second slice and promotes mid-run (on-stack replacement).
TIER2_THRESHOLD = 2

#: Memo sentinel: the tier-2 emitter declined this CompiledCode.
_DECLINED = object()


class Tier2Stats:
    """Host-side tier-2 metrics (kept off the byte-identical Counters).

    ``compile_seconds`` is host wall-clock spent inside the emitter
    (admission plus every block emitted on first entry).  Everything
    else is simulated bookkeeping, mirroring
    :class:`repro.jvm.tier1.Tier1Stats`.
    """

    __slots__ = ("promotions", "blocks", "sites", "compile_cycles",
                 "osr_entries", "deopts", "methods", "compile_seconds")

    def __init__(self) -> None:
        self.promotions = 0
        self.blocks = 0               # superblocks currently emitted
        self.sites = 0                # machine-op sites emitted
        self.compile_cycles = 0       # simulated-clock compile "time"
        self.osr_entries = 0          # mid-method entries (promotion at
        #                               pc != 0 + blocks at non-leader pcs)
        self.deopts = {"budget": 0, "exception": 0, "fault": 0,
                       "forced": 0, "guard": 0}
        self.methods: dict = {}       # qualified -> per-method record
        self.compile_seconds = 0.0    # host wall-clock in the emitter

    def snapshot(self) -> dict:
        return {
            "promotions": self.promotions,
            "compiled_blocks": self.blocks,
            "compiled_sites": self.sites,
            "compile_cycles": self.compile_cycles,
            "osr_entries": self.osr_entries,
            "deopts": dict(self.deopts),
            "compile_seconds": self.compile_seconds,
            "methods": {name: dict(rec)
                        for name, rec in sorted(self.methods.items())},
        }


class Tier2Machine(Machine):
    """Machine-frame executor with host-compiled superblock closures.

    Completes the three-tier ladder (DESIGN.md §13): interpreted frames
    climb threaded → tier-1, and once the *guest* JIT compiles a method
    (invocation threshold 32) its :class:`CompiledCode` lands here —
    interpretively at first, then host-compiled by
    :mod:`repro.jit.emit2` after :data:`TIER2_THRESHOLD` slice entries.
    Promotion, execution and deopt are pure host-side concerns: the
    interpretive :meth:`Machine.run_frame` remains the byte-identity
    oracle, and every exit from emitted code restores exactly the
    counter/budget/pc state the oracle would hold.

    Deopt chain: a *guard* failure inside emitted code takes the guest
    path (:func:`repro.jit.deopt.deoptimize` — frames rematerialized
    from FrameState/VirtualObjectState recipes, fall back to the
    tier-1/threaded bytecode ladder at the exact bytecode index); a
    *forced trap* or block-internal fault takes the host path
    (:class:`~repro.jit.deopt.Tier2Deopt`), which this driver catches to
    resume the same machine frame interpretively at the exact machine
    pc.  Promotion only validates; entry tables start empty and every
    block is emitted the first time a frame arrives at its pc, so any
    pc a frame parks on (budget boundary mid-block, contended monitor)
    becomes a compiled entry exactly as a region leader does —
    on-stack replacement at loop headers falls out.

    Compiled code lives in one table, the memo keyed by
    :class:`CompiledCode`: every guest compile is a fresh object, so a
    recompile (deopt, new profile) is never served closures of the code
    it replaces.
    """

    def __init__(self, vm) -> None:
        super().__init__(vm)
        self.stats = Tier2Stats()
        self._memo: dict = {}         # CompiledCode -> Tier2Code|_DECLINED
        self._counts: dict = {}       # CompiledCode -> slice entries
        self._forced: dict = {}       # JMethod -> one-shot trap machine pc

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def run_frame(self, thread, frame: MachineFrame) -> None:
        code = frame.code
        t2 = self._memo.get(code)
        if t2 is None:
            t2 = self._maybe_promote(code, frame)
            if t2 is None:
                Machine.run_frame(self, thread, frame)
                return
        elif t2 is _DECLINED:
            Machine.run_frame(self, thread, frame)
            return
        entries = t2.entries
        try:
            while thread.budget > 0:
                fn = entries[frame.pc]
                if fn is None:
                    fn = self._entry_block(t2, frame.pc)
                if not fn(thread, frame):
                    return
        except deopt_mod.Tier2Deopt:
            # The block flushed batched accounting and parked frame.pc
            # on the trapped machine instruction; finish the slice
            # interpretively (the code's tier-2 closures are dropped).
            Machine.run_frame(self, thread, frame)

    # ------------------------------------------------------------------
    # Promotion.
    # ------------------------------------------------------------------
    def _maybe_promote(self, code, frame: MachineFrame):
        counts = self._counts
        seen = counts.get(code, 0) + 1
        counts[code] = seen
        if seen < TIER2_THRESHOLD or self.vm.sanitizer is not None:
            return None
        from repro.jit.emit2 import compile_tier2

        method = code.method
        forced = self._forced.pop(method, None)
        started = time.perf_counter()
        try:
            t2 = compile_tier2(self, code, deopt_at=forced)
        except Exception:
            t2 = None
        self.stats.compile_seconds += time.perf_counter() - started
        if t2 is None:
            self._memo[code] = _DECLINED
            return None
        # Promotion is admission only: blocks, sites and compile cycles
        # are accounted by _entry_block as the empty table fills.
        stats = self.stats
        stats.promotions += 1
        if frame.pc != 0:
            # The frame is mid-method (a hot loop crossing the slice
            # threshold): this promotion is an on-stack replacement.
            stats.osr_entries += 1
        record = stats.methods.setdefault(
            method.qualified, {"promotions": 0, "blocks": 0, "sites": 0,
                               "compile_cycles": 0})
        record["promotions"] += 1
        record["blocks"] = record["sites"] = 0    # of the current code
        self._memo[code] = t2
        return t2

    def _entry_block(self, t2, pc: int):
        """Emit the block entering at ``pc`` — every tier-2 block is
        compiled here, the first time a frame arrives at its pc."""
        from repro.jit.emit2 import extend_tier2

        started = time.perf_counter()
        fn, sites = extend_tier2(t2, pc)
        stats = self.stats
        stats.compile_seconds += time.perf_counter() - started
        # A verification failure is raised, never a fallback.
        if getattr(self.vm, "verify_ir", False):
            from repro.sanitize.blockverify import (
                BlockVerifyError, verify_tier2_block)

            issues = verify_tier2_block(t2, pc)
            vstats = self.vm.irverify_stats
            vstats["blocks"] = vstats.get("blocks", 0) + 1
            vstats["issues"] = vstats.get("issues", 0) + len(issues)
            if issues:
                raise BlockVerifyError(t2.method.qualified, issues,
                                       tier="tier-2")
        if pc not in t2.leaders:
            stats.osr_entries += 1    # parked mid-region, or a cap split
        cycles = sites * TIER2_COMPILE_SITE_COST + TIER2_COMPILE_BLOCK_COST
        stats.blocks += 1
        stats.sites += sites
        stats.compile_cycles += cycles
        record = stats.methods[t2.method.qualified]
        record["blocks"] += 1
        record["sites"] += sites
        record["compile_cycles"] += cycles
        return fn

    # ------------------------------------------------------------------
    # Invalidation and fuzz hooks.
    # ------------------------------------------------------------------
    def force_deopt(self, method, pc: int) -> None:
        """Plant a one-shot deopt trap before machine pc ``pc``.

        The next promotion of ``method``'s machine code compiles with
        the trap; hitting it transfers to the interpretive machine at
        exactly that pc and drops the closures, so the promotion after
        that compiles clean.  Used by the fuzz suite to prove
        trap-at-every-index byte-identity.
        """
        self._forced[method] = pc
        self.drop_code(method)

    def drop_code(self, method) -> None:
        """Forget ``method``'s tier-2 closures."""
        stale = [code for code in self._memo if code.method is method]
        for code in stale:
            del self._memo[code]

    def invalidate_all(self) -> None:
        """Forget every tier-2 closure."""
        self._memo.clear()
