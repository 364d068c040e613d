"""The interpretive executor of guest-JIT machine code.

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

:meth:`Machine.run_frame` is the tier-2 closures' byte-identity oracle
and the default engine's executor of guest-JIT code, so it is written
for host speed: list registers, accounting in locals, and arms ordered
by how often each kind executes.
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
from repro.jvm.cache import L1_LINES, WORDS_PER_LINE
from repro.jvm.costmodel import alloc_cost
from repro.jvm.interpreter import _CMP, _rem_int, _truediv_int, guest_str
from repro.jvm.scheduler import RUNNABLE
from repro.jit import deopt as deopt_mod


class MachineFrame:
    """Activation record of a compiled method."""

    __slots__ = ("code", "regs", "pc", "pending_dest", "coarsen_counts",
                 "coarsen_held")

    def __init__(self, code, args: list) -> None:
        self.code = code
        # Parameters occupy the first registers; the template holds the
        # constants and marks every other slot unwritten.
        regs = code.regfile.copy()
        regs[:len(args)] = args
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


def _return(thread, value) -> None:
    frames = thread.frames
    frames.pop()
    if frames:
        frames[-1].receive_result(value)
    else:
        thread.result = value


class Machine:
    """Executes machine frames of one VM."""

    def __init__(self, vm) -> None:
        self.vm = vm

    def new_frame(self, code, args: list) -> MachineFrame:
        return MachineFrame(code, args)

    # ------------------------------------------------------------------
    def run_frame(self, thread, frame: MachineFrame, instrs=None) -> None:
        """Per instruction: check the budget, count the instruction,
        execute it (an op that raises is counted, not charged), advance
        the pc and charge the cost.  The pc, the budget and the
        instruction and guard counts live in locals until the
        ``finally`` writes them back; the cycles charged equal the
        budget spent.  Calls, deopts, waits and returns leave the loop
        first and run after the write-back.

        ``instrs`` replaces the frame's instruction list: tier-2 passes
        :attr:`~repro.jit.emit2.Tier2Code.stops`, whose ``("stop", 0)``
        slots end the run at a region leader without executing it."""
        vm = self.vm
        counters = vm.counters
        guard_kinds = counters.guard_kinds
        cache = vm.cache
        cache_miss = cache.miss
        sched = vm.scheduler
        heap = vm.heap
        tr = vm.trace
        trace_cas = tr if (tr is not None and tr.cas_on) else None
        if instrs is None:
            instrs = frame.code.instrs
        regs = frame.regs
        core = thread.core
        l1 = cache.l1_tags[core]

        pc = frame.pc
        budget = start = thread.budget
        executed = guards = 0
        handoff = None
        try:
            while budget > 0:
                instr = instrs[pc]
                kind = instr[0]
                cost = instr[1]
                executed += 1

                if kind == "add":
                    a = regs[instr[3]]
                    b = regs[instr[4]]
                    try:
                        regs[instr[2]] = a + b
                    except TypeError:
                        # String concatenation with a non-string operand.
                        if type(a) is not str and type(b) is not str:
                            raise
                        regs[instr[2]] = guest_str(a) + guest_str(b)
                elif kind == "guard":
                    label = instr[2]
                    guards += 1
                    try:
                        guard_kinds[label] += 1
                    except KeyError:
                        guard_kinds[label] = 1
                    test = instr[3]
                    operands = instr[4]
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
                        ok = (arr is not None and lo >= 0
                              and hi <= len(arr.data))
                    elif test == "type":
                        obj = regs[operands[0]]
                        ok = obj is not None and obj.jclass.name == instr[5]
                    else:
                        raise VMError(f"unknown guard test {test}")
                    if not ok:
                        budget -= cost
                        handoff = (deopt_mod.deoptimize,
                                   (vm, thread, frame, instr[6], instr[7]))
                        break
                elif kind == "branch":
                    pc = instr[3] if regs[instr[2]] else instr[4]
                    budget -= cost
                    continue
                elif kind == "cmpz":
                    value = regs[instr[4]]
                    if value is None:
                        value = 0
                    if instr[3] == "==":
                        regs[instr[2]] = 1 if value == 0 else 0
                    else:
                        regs[instr[2]] = 1 if _CMP[instr[3]](value, 0) else 0
                elif kind == "cmp":
                    a = regs[instr[4]]
                    b = regs[instr[5]]
                    if instr[3] == "<":
                        regs[instr[2]] = 1 if a < b else 0
                    else:
                        regs[instr[2]] = 1 if _CMP[instr[3]](a, b) else 0
                elif kind == "aload":
                    arr = regs[instr[3]]
                    idx = regs[instr[4]]
                    line = (arr.addr + idx) // WORDS_PER_LINE
                    if l1[line % L1_LINES] != line:
                        cost += cache_miss(core, line)
                    try:
                        if idx < 0:
                            raise IndexError
                        regs[instr[2]] = arr.data[idx]
                    except IndexError:
                        raise GuestBoundsError(
                            f"compiled aload OOB {idx}/{len(arr.data)}"
                        ) from None
                elif kind == "jump":
                    pc = instr[2]
                    budget -= cost
                    continue
                elif kind == "phimove":
                    pairs = instr[2]
                    n = len(pairs)
                    if n == 1:
                        src, dst = pairs[0]
                        regs[dst] = regs[src]
                    elif n == 2:
                        (src, dst), (src2, dst2) = pairs
                        a = regs[src]
                        b = regs[src2]
                        regs[dst] = a
                        regs[dst2] = b
                    else:
                        values = [regs[src] for src, _ in pairs]
                        for (_, dst), value in zip(pairs, values):
                            regs[dst] = value
                elif kind == "getfield":
                    obj = regs[instr[3]]
                    if obj is None:
                        raise GuestNullPointerError(f"getfield {instr[4]}")
                    slot = obj.jclass.field_layout[instr[4]]
                    line = (obj.addr + slot) // WORDS_PER_LINE
                    if l1[line % L1_LINES] != line:
                        cost += cache_miss(core, line)
                    regs[instr[2]] = obj.values[slot]
                elif kind == "mul":
                    regs[instr[2]] = regs[instr[3]] * regs[instr[4]]
                elif kind == "putfield":
                    obj = regs[instr[2]]
                    if obj is None:
                        raise GuestNullPointerError(f"putfield {instr[3]}")
                    slot = obj.jclass.field_layout[instr[3]]
                    cost += cache.access(core, obj.addr + slot)
                    obj.values[slot] = regs[instr[4]]
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
                            f"compiled astore OOB {idx}/{len(arr.data)}"
                        ) from None
                elif kind == "ret":
                    value = regs[instr[2]] if instr[2] is not None else None
                    budget -= cost
                    handoff = (_return, (thread, value))
                    break
                elif kind == "rem":
                    a = regs[instr[3]]
                    b = regs[instr[4]]
                    if b == 0:
                        raise GuestArithmeticError("% by zero")
                    if isinstance(a, int) and isinstance(b, int):
                        regs[instr[2]] = _rem_int(a, b)
                    else:
                        regs[instr[2]] = a - b * int(a / b)
                elif kind == "callstatic":
                    frame.pending_dest = instr[2]
                    args = [regs[a] for a in instr[4]]
                    pc += 1
                    budget -= cost
                    handoff = (vm.call, (thread, instr[3], args))
                    break
                elif kind == "checkcast":
                    obj = regs[instr[3]]
                    if obj is not None \
                            and not obj.jclass.is_subtype_of(instr[4]):
                        raise GuestCastError(
                            f"cannot cast {obj.jclass.name} to {instr[4]}")
                    regs[instr[2]] = obj
                elif kind == "sub":
                    regs[instr[2]] = regs[instr[3]] - regs[instr[4]]
                elif kind == "new":
                    obj = heap.new_object(instr[3])
                    cost += cache.access(core, obj.addr)
                    regs[instr[2]] = obj
                elif kind == "arraylen":
                    regs[instr[2]] = len(regs[instr[3]].data)
                elif kind == "instanceof":
                    obj = regs[instr[3]]
                    regs[instr[2]] = (1 if obj is not None
                                      and obj.jclass.is_subtype_of(instr[4])
                                      else 0)
                elif kind == "div":
                    a = regs[instr[3]]
                    b = regs[instr[4]]
                    if b == 0:
                        raise GuestArithmeticError("/ by zero")
                    if isinstance(a, int) and isinstance(b, int):
                        regs[instr[2]] = _truediv_int(a, b)
                    else:
                        regs[instr[2]] = a / b
                elif kind == "atomicget":
                    obj = regs[instr[3]]
                    if obj is None:
                        raise GuestNullPointerError(f"atomicget {instr[4]}")
                    counters.atomic += 1
                    slot = obj.jclass.field_layout[instr[4]]
                    cost += cache.access(core, obj.addr + slot)
                    regs[instr[2]] = obj.values[slot]
                elif kind == "and":
                    regs[instr[2]] = regs[instr[3]] & regs[instr[4]]
                elif kind == "shr":
                    regs[instr[2]] = regs[instr[3]] >> regs[instr[4]]
                elif kind == "monitorenter":
                    counters.synch += 1
                    obj = regs[instr[2]]
                    if obj is None:
                        raise GuestNullPointerError("monitorenter")
                    coarsen = instr[3]
                    if coarsen is not None:
                        held = frame.coarsen_held
                        if held is not None and coarsen[1] in held:
                            pc += 1     # lock still held from last chunk
                            budget -= 1
                            continue
                    if not sched.monitor_enter(thread, obj):
                        counters.monitor_contended += 1
                        budget -= cost
                        break           # re-execute this pc once granted
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
                            cost = 1    # keep holding across the chunk
                        else:
                            frame.coarsen_held.pop(site, None)
                            sched.monitor_exit(thread, obj)
                    else:
                        sched.monitor_exit(thread, obj)
                elif kind == "callhandle":
                    counters.method += 1
                    handle = regs[instr[3]]
                    if handle is None:
                        raise GuestNullPointerError("invoke on null function")
                    target, captured = handle.meta
                    args = list(captured) + [regs[a] for a in instr[4]]
                    frame.pending_dest = instr[2]
                    pc += 1
                    budget -= cost
                    handoff = (vm.call, (thread, target, args))
                    break
                elif kind == "i2d":
                    regs[instr[2]] = float(regs[instr[3]])
                elif kind == "notifyall":
                    counters.notify += 1
                    sched.monitor_notify(thread, regs[instr[2]],
                                         all_waiters=True)
                elif kind == "getstatic":
                    regs[instr[2]] = instr[3].static_values[instr[4]]
                elif kind == "wait":
                    counters.wait += 1
                    obj = regs[instr[2]]
                    if obj is None:
                        raise GuestNullPointerError("wait")
                    pc += 1
                    budget -= cost
                    handoff = (sched.monitor_wait, (thread, obj))
                    break
                elif kind == "indy":
                    counters.idynamic += 1
                    counters.method += 1
                    captured = [regs[a] for a in instr[4]]
                    regs[instr[2]] = vm.make_function(instr[3], captured)
                elif kind == "d2i":
                    regs[instr[2]] = int(regs[instr[3]])
                elif kind == "not":
                    regs[instr[2]] = 0 if regs[instr[3]] else 1
                elif kind == "newarray":
                    length = regs[instr[4]]
                    cost += alloc_cost(length)
                    arr = heap.new_array(instr[3], length)
                    cost += cache.access(core, arr.addr)
                    regs[instr[2]] = arr
                elif kind == "monitorexit_if_held":
                    site = instr[3][1]
                    held = frame.coarsen_held
                    if held is not None and site in held:
                        sched.monitor_exit(thread, held.pop(site))
                        cost = 18
                elif kind == "park":
                    counters.park += 1
                    pc += 1
                    budget -= cost
                    if sched.park(thread):
                        break
                    continue
                elif kind == "unpark":
                    counters.unpark += 1
                    sched.unpark(vm.guest_thread_of(regs[instr[2]]))
                elif kind == "callvirtual":
                    counters.method += 1
                    args = [regs[a] for a in instr[4]]
                    receiver = args[0]
                    if receiver is None:
                        raise GuestNullPointerError(
                            f"invoke {instr[3]} on null")
                    target = receiver.jclass.resolve_method(instr[3])
                    frame.pending_dest = instr[2]
                    pc += 1
                    budget -= cost
                    handoff = (vm.call, (thread, target, args))
                    break
                elif kind == "shl":
                    regs[instr[2]] = regs[instr[3]] << regs[instr[4]]
                elif kind == "or":
                    regs[instr[2]] = regs[instr[3]] | regs[instr[4]]
                elif kind == "xor":
                    regs[instr[2]] = regs[instr[3]] ^ regs[instr[4]]
                elif kind == "neg":
                    regs[instr[2]] = -regs[instr[3]]
                elif kind == "putstatic":
                    instr[2].static_values[instr[3]] = regs[instr[4]]
                elif kind == "notify":
                    counters.notify += 1
                    sched.monitor_notify(thread, regs[instr[2]],
                                         all_waiters=False)
                elif kind == "stop":
                    executed -= 1       # a leader: tier-2 code runs it
                    break
                else:
                    raise VMError(f"machine: unhandled instruction {kind}")

                pc += 1
                budget -= cost
        finally:
            frame.pc = pc
            thread.budget = budget
            counters.instructions += executed
            counters.reference_cycles += start - budget
            counters.guards_executed += guards
        if handoff is not None:
            fn, args = handoff
            fn(*args)


class Tier2Stats:
    """Host-side tier-2 metrics (kept off the byte-identical Counters).

    ``compile_seconds`` is host wall-clock spent inside the emitter
    (admission plus every block emitted on first entry).  Everything
    else is simulated bookkeeping, mirroring
    :class:`repro.jvm.tier1.Tier1Stats`.
    """

    __slots__ = ("promotions", "blocks", "sites", "compile_cycles",
                 "osr_entries", "deopts", "compile_seconds")

    def __init__(self) -> None:
        self.promotions = 0
        self.blocks = 0               # superblocks currently emitted
        self.sites = 0                # machine-op sites emitted
        self.compile_cycles = 0       # simulated-clock compile "time"
        self.osr_entries = 0          # interpreted resumes: frames found
        #                               at a non-leader pc, run on the
        #                               Machine up to the next leader
        self.deopts = {"budget": 0, "exception": 0, "fault": 0,
                       "guard": 0}
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
        }


class Tier2Machine(Machine):
    """Machine-frame executor with host-compiled superblock closures.

    Completes the three-tier ladder (DESIGN.md §13): interpreted frames
    climb threaded → tier-1, and once the *guest* JIT compiles a method
    (invocation threshold 32) its :class:`CompiledCode` lands here.  The
    guest JIT's threshold is the only hotness rule: the first time a
    frame of a CompiledCode runs, :func:`repro.jit.emit2.compile_tier2`
    builds its :class:`~repro.jit.emit2.Tier2Code` — admission cannot
    decline, and an emitter error propagates.  Promotion and execution
    are pure host-side concerns: the interpretive
    :meth:`Machine.run_frame` remains the byte-identity oracle, and
    every exit from emitted code restores exactly the
    counter/budget/pc state the oracle would hold.

    The only deopt is the guest's: a *guard* failure inside emitted code
    takes :func:`repro.jit.deopt.deoptimize` (frames rematerialized from
    FrameState/VirtualObjectState recipes, fall back to the
    tier-1/threaded bytecode ladder at the exact bytecode index).  A
    block-internal fault re-raises after flushing, exactly as the
    interpretive machine raises it.  Entry tables start empty and a
    block is emitted the first time a frame arrives at its region
    leader.  Entries exist at leaders only, as in tier-1: a frame
    anywhere else (on a scheduler op, at a budget boundary mid-block,
    mid-method when its memo entry was dropped) runs on the interpretive
    machine over :attr:`Tier2Code.stops` up to the next leader, then
    compiled code takes over.  Nothing is promoted while a sanitizer is
    attached, as in tier-1.

    The driver folds :meth:`VM._execute_slice`'s loop for machine
    frames: calls and returns between machine frames stay here, under
    the exit conditions ``_execute_slice`` itself uses.

    Compiled code lives in one table, the memo keyed by
    :class:`CompiledCode`: every guest compile is a fresh object, so a
    recompile (deopt, new profile) is never served closures of the code
    it replaces.
    """

    def __init__(self, vm) -> None:
        super().__init__(vm)
        self.stats = Tier2Stats()
        self._memo: dict = {}         # CompiledCode -> Tier2Code

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def run_frame(self, thread, frame: MachineFrame) -> None:
        frames = thread.frames
        memo = self._memo
        while True:
            code = frame.code
            t2 = memo.get(code)
            if t2 is None and self.vm.sanitizer is None:
                t2 = self._promote(code)
            if t2 is None:
                Machine.run_frame(self, thread, frame)
            else:
                entries = t2.entries
                while thread.budget > 0:
                    pc = frame.pc
                    fn = entries[pc]
                    if fn is None:
                        if pc not in t2.leaders:
                            self.stats.osr_entries += 1
                            Machine.run_frame(self, thread, frame, t2.stops)
                            break
                        fn = self._entry_block(t2, pc)
                    if not fn(thread, frame):
                        break
            if thread.budget <= 0 or thread.state != RUNNABLE or not frames:
                return
            top = frames[-1]
            if type(top) is not MachineFrame:
                return
            frame = top

    # ------------------------------------------------------------------
    # Promotion.
    # ------------------------------------------------------------------
    def _promote(self, code):
        """Admit ``code`` to tier-2.  Admission only builds the block
        environment: blocks, sites and compile cycles are accounted by
        :meth:`_entry_block` as the empty entry table fills."""
        from repro.jit.emit2 import compile_tier2

        started = time.perf_counter()
        t2 = self._memo[code] = compile_tier2(self, code)
        self.stats.compile_seconds += time.perf_counter() - started
        self.stats.promotions += 1
        return t2

    def _entry_block(self, t2, pc: int):
        """Emit the block entering at the leader ``pc`` — every tier-2
        block is compiled here, the first time a frame arrives there."""
        from repro.jit.emit2 import extend_tier2

        started = time.perf_counter()
        fn, sites, cycles = extend_tier2(t2, pc)
        stats = self.stats
        stats.compile_seconds += time.perf_counter() - started
        if getattr(self.vm, "verify_ir", False):
            from repro.sanitize.blockverify import check_emitted

            check_emitted(self.vm, t2, pc)
        stats.blocks += 1
        stats.sites += sites
        stats.compile_cycles += cycles
        return fn

    # ------------------------------------------------------------------
    # Invalidation.
    # ------------------------------------------------------------------
    def drop_code(self, method) -> None:
        """Forget ``method``'s tier-2 closures (a guest deopt
        invalidated the machine code they specialize)."""
        stale = [code for code in self._memo if code.method is method]
        for code in stale:
            del self._memo[code]

    def invalidate_all(self) -> None:
        """Forget every tier-2 closure."""
        self._memo.clear()
