"""Tier-2 superblock emitter: optimized machine code → flat Python closures.

The guest JIT's pipeline (inlining, escape analysis, lock coarsening,
guard motion, vectorization, atomic coalescing) produces
:class:`~repro.jit.lowering.CompiledCode`, a register machine that the
interpretive :class:`~repro.jit.machine.Machine` runs one instruction
at a time, dispatching on each instruction's kind and accounting for
it.  This module removes that per-instruction work: it lowers the
already-optimized machine code into one Python function per
*superblock* (a straight-line region of machine instructions, fused
through fall-through jumps and branches, extended until a
call/terminator, a scheduler op or the region cap), generated and
``exec``'d the first time a frame enters it.  Inside a block there is
no dispatch: values flow through ``regs`` (compiled code is already in
register form — no operand stack), and the per-instruction bookkeeping
of the interpretive machine is batched into the block's exit points.

Byte-identity against :meth:`Machine.run_frame` is the contract.  The
interpretive machine executes, per instruction: ``budget > 0`` check,
``instructions += 1``, the op (which may raise with the instruction
counted but its cost uncharged; memory ops mutate cache tags *before*
their checks), then ``pc`` advance and ``budget``/``reference_cycles``
updates.  The emitted code preserves that exactly while touching shared
state only at exits:

- the running budget comparison is folded to ``budget <= CUM_k`` where
  ``CUM_k`` is the compile-time sum of the constant costs of the
  block's first ``k`` ops; dynamic costs (cache penalties, allocation
  words) decrement the local ``budget`` as they occur, keeping the
  comparison exact;
- every exit is one call of the method env's exit function ``_x``
  (:func:`block_exit`), passed the exit's compile-time constants: the
  cost ``CUM`` it charges, the ops it counts and the exact machine-code
  index it parks ``frame.pc`` at;
- ops the machine can raise from (null/bounds/zero/cast checks, heap
  pressure) exit *before* raising with the faulting instruction counted
  but not charged; a failed guard exits charged, then deopts;
- a branch back to the block's own leader loops in place (``while
  True``), which is where the tier pays off: a vectorized or unrolled
  hot loop becomes one native Python loop.

That exit protocol is written once, in :func:`block_exit` and
:class:`_BlockWriter`; tier-1's emitter (:mod:`repro.jit.emit`)
subclasses the writer too.

A block's text depends only on its code and leader, never on the VM:
the method env it is ``exec``'d in is its globals (the VM's counters,
heap and hooks, the exit function, per-site cells), a CAS failure
tests ``_tcas`` at run time, and a call goes through ``VM.call`` like
every other engine's.

Both host tiers follow one bail rule: a block never contains a
scheduler op (monitors, park/unpark, wait/notify).  The region ends
before it, the frame runs the op on the engine below (tier-1's threaded
handlers; here the interpretive :class:`~repro.jit.machine.Machine`),
and compiled code takes over again at the leader after it.

Guard failures take the *guest* deopt path —
:func:`repro.jit.deopt.deoptimize` rematerializes interpreter frames
from FrameState/VirtualObjectState recipes exactly as the interpretive
machine would, falling back to the tier-1/threaded bytecode ladder at
the exact bytecode index.  Faults inside a block (heap pressure, an
injected fault) exit through ``_x`` and re-raise, exactly as the
interpretive machine raises them.

Emission is on demand: :func:`compile_tier2` admits every
CompiledCode the first time a frame of it runs, without validating or
emitting anything, and :func:`extend_tier2` emits a block when a frame
first arrives at its region leader, so code no frame reaches is never
compiled.  Neither declines: a machine kind with no emitter arm raises
``VMError`` from :meth:`_Block2Emitter.emit_op`.  Blocks
exist at static leaders only (control-flow targets, the pc after every
call and scheduler op, cap-split continuations).  A frame anywhere
else — on a scheduler op, at a budget boundary inside a block, in a
method whose tier-2 code was dropped mid-run — runs interpreted over
:attr:`Tier2Code.stops` up to the next leader, so a loop re-enters
compiled code at its header without waiting for a fresh invocation.
"""

from __future__ import annotations

from repro.errors import (
    GuestArithmeticError,
    GuestBoundsError,
    GuestCastError,
    GuestNullPointerError,
    VMError,
)
from repro.jit import deopt as deopt_mod
from repro.jvm.cache import L1_LINES, WORDS_PER_LINE
from repro.jvm.costmodel import (
    TIER2_COMPILE_BLOCK_COST,
    TIER2_COMPILE_SITE_COST,
    alloc_cost,
)
from repro.jvm.interpreter import guest_str

#: Region cap: bounds generated-code size and exit-point fan-out; the
#: split point becomes a fresh leader so hot tails stay compiled.
MAX_BLOCK_OPS = 64

#: What :attr:`Tier2Code.stops` holds at every leader: the interpretive
#: machine ends an interpreted stretch there, executing nothing.
_STOP = ("stop", 0)

#: Machine kinds that end a superblock *with* the op (control leaves the
#: region: a call hand-off or a return).
_TERM_KINDS = frozenset({"ret", "callstatic", "callvirtual", "callhandle"})

#: Machine kinds a superblock never contains (the scheduler ops): the
#: region ends before one, and a frame there runs it interpreted.
BAIL_KINDS = frozenset({
    "monitorenter", "monitorexit", "monitorexit_if_held",
    "park", "unpark", "wait", "notify", "notifyall",
})

#: Kinds whose cycle cost has a run-time component (cache penalties,
#: allocation words); their presence makes the block track ``b0``.
_DYN_KINDS = frozenset({
    "getfield", "putfield", "aload", "astore", "new", "newarray",
    "cas", "atomicget", "atomicadd",
})

_BINOPS = {
    "sub": "-", "mul": "*", "shl": "<<", "shr": ">>",
    "and": "&", "or": "|", "xor": "^",
}


class Tier2Code:
    """A compiled method's tier-2 superblocks plus the entry table.

    ``entries`` is indexed by machine pc and starts out all ``None``:
    :func:`extend_tier2` fills a leader's slot the first time a frame
    arrives there.  ``leaders`` is the static region-leader set, closed
    under cap splits; no other slot is ever filled, and no leader holds
    a bail kind.  ``stops`` is ``code.instrs`` with every leader slot
    replaced by ``("stop", 0)``: the interpretive machine runs a frame
    at a non-leader pc — a scheduler op, a budget boundary — over it
    and stops at the next leader.  ``blocks`` records, per
    emitted block, the compile-time ground truth
    ``(leader, sites, cum, end_pc, kind, self_loop)`` that
    :mod:`repro.sanitize.blockverify` re-derives independently, and
    ``source`` maps each leader to that block's generated text.
    """

    __slots__ = ("code", "method", "entries", "blocks", "nblocks",
                 "sites", "compile_cycles", "source", "env",
                 "leaders", "stops")

    def __init__(self, code, env) -> None:
        self.code = code
        self.method = code.method
        self.entries: list = [None] * len(code.instrs)
        self.blocks: list[tuple] = []
        self.nblocks = 0
        self.sites = 0
        self.compile_cycles = 0
        self.source: dict[int, str] = {}
        self.env = env                # the blocks' globals, per-site
        #                               cells (classes, caches) included
        self.leaders = _leaders2(code.instrs)
        self.stops = stops = list(code.instrs)
        for pc in self.leaders:
            stops[pc] = _STOP


_IDENT_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _is_name(expr: str) -> bool:
    return bool(expr) and not expr[0].isdigit() and set(expr) <= _IDENT_OK


def block_exit(counters, exits):
    """The exit function ``_x`` every host block leaves through.

    It stores the slice's remaining budget, parks ``frame.pc`` (None:
    a return), counts ``ai + counted`` instructions and ``charged``
    cycles plus the dynamic ones and completed self-loop passes the
    local budget absorbed since ``b0``, counts ``reason`` in ``exits``
    and returns True, so ``return _x(...)`` hands the frame back.
    """
    def _x(thread, frame, budget, b0, ai, charged, counted, pc,
           reason=None):
        thread.budget = budget - charged
        if pc is not None:
            frame.pc = pc
        counters.instructions += ai + counted
        counters.reference_cycles += charged + (b0 - budget)
        if reason is not None:
            exits[reason] += 1
        return True
    return _x


class _BlockWriter:
    """The exit protocol every host superblock follows, written once.

    A block keeps the engine's per-instruction bookkeeping in locals —
    the running ``budget``, the ops emitted so far (``k``) and their
    constant cost (``cum``), ``b0`` for dynamic cycles, ``_ai`` for
    completed self-loop passes — and only this class's ``_x`` calls
    turn them into shared state: budget guards, exits before a raise or
    a transfer, the self-loop and returns.

    Tier-2's :class:`_Block2Emitter` and tier-1's
    :class:`repro.jit.emit._BlockEmitter` subclass it with their region
    walk and op bodies (``emit_op``, ``const_cost``) and the function
    shape (``PREFIX``, ``PARAMS``, ``PROLOGUE``).  Tier-1
    also fills the two hooks: ``spill`` rebuilds its virtual operand
    stack at an exit, ``on_branch`` counts backedges.
    """

    PREFIX = ""             # block function name: PREFIX + leader pc
    PARAMS = ""             # its parameters; the env is its globals
    PROLOGUE: tuple = ()    # tier-specific lines before ``budget``

    def __init__(self, leader: int, ops, end_pc: int, env: dict, *,
                 has_dyn: bool, self_loop: bool) -> None:
        self.leader = leader
        self.ops = ops                # [(pc, instr), ...]
        self.end_pc = end_pc
        self.env = env                # the method env: the globals
        self.has_dyn = has_dyn        # some op charges cycles at run time
        # A branch back to this block's own leader (a hot loop whose
        # body is one superblock) is chained: the emitted function
        # loops in place instead of round-tripping through the driver.
        self.self_loop = self_loop
        self.lines: list[str] = []
        self.ntmp = 0
        self.k = 0                    # ops emitted so far
        self.cum = 0                  # their constant cost sum
        self.sites = 0                # ops consumed (incl. terminators)
        self._base = 1 if self_loop else 0
        # The ``b0`` and ``ai`` every exit passes ``_x``.
        self._exit_locals = ("b0" if has_dyn or self_loop else "budget",
                             "_ai" if self_loop else "0")

    # -- low-level helpers ---------------------------------------------
    def emit(self, line: str, depth: int = 0) -> None:
        self.lines.append("    " * (1 + self._base + depth) + line)

    def tmp(self) -> str:
        self.ntmp += 1
        return f"s{self.ntmp}"

    def as_name(self, expr: str) -> str:
        """Expr as a bare identifier (for safe f-string interpolation)."""
        if _is_name(expr):
            return expr
        t = self.tmp()
        self.emit(f"{t} = {expr}")
        return t

    def bind(self, name: str, value) -> str:
        """A per-site cell the block reads as the global ``name``."""
        self.env.setdefault(name, value)
        return name

    # -- subclass hooks ------------------------------------------------
    def emit_op(self, pc: int, instr) -> bool:
        """Emit one op's body; False when the block ended with it."""
        raise NotImplementedError

    def const_cost(self, instr) -> int:
        """``instr``'s constant cost, folded into ``cum``."""
        raise NotImplementedError

    def spill(self) -> list:
        """Statements rebuilding state the block keeps in locals beyond
        the accounting (tier-1's operand stack) at a resumable exit."""
        return []

    def on_branch(self, pc: int, target: int, depth: int) -> None:
        """A taken branch from ``pc`` to ``target`` is about to exit."""

    # -- exits -----------------------------------------------------------
    def exit_call(self, pc: int | None, charged: int, counted: int,
                  reason: str | None = None) -> str:
        """The ``_x`` call for an exit charging ``charged`` cycles and
        counting ``counted`` ops (plus completed self-loop passes).

        Taken branches, calls and returns count the current op and
        charge it; raises count it uncharged, as the engine does."""
        b0, ai = self._exit_locals
        tail = f", {reason!r}" if reason else ""
        return (f"_x(thread, frame, budget, {b0}, {ai}, {charged}, "
                f"{counted}, {pc}{tail})")

    def resume_exit(self, pc: int, charged: int, counted: int,
                    reason: str | None = None) -> list:
        """Statements handing the frame back to the driver, resumable
        at ``pc``: the ``spill``, then ``return _x(...)``."""
        return self.spill() + [
            "return " + self.exit_call(pc, charged, counted, reason)]

    def budget_guard(self, pc: int) -> None:
        """``if budget <= CUM_k`` → exit with the pc parked mid-region
        (the next slice resumes it on the engine below)."""
        parts = self.resume_exit(pc, self.cum, self.k, "budget")
        self.emit(f"if budget <= {self.cum}: " + "; ".join(parts))

    def raise_exit(self, pc: int, raise_stmt: str, depth: int = 1) -> None:
        """Exit then raise: instruction counted, cost uncharged.

        The exception kills the guest thread, so no ``spill``."""
        self.emit(self.exit_call(pc, self.cum, self.k + 1, "exception"),
                  depth)
        self.emit(raise_stmt, depth)

    def null_check(self, expr: str, pc: int, message: str) -> None:
        self.emit(f"if {expr} is None:")
        self.raise_exit(pc, f"raise _GNPE({message!r})")

    def guard_host(self, pc: int, stmts, depth: int = 0,
                   reason: str = "fault") -> None:
        """Wrap host calls that can raise mid-block (heap pressure, an
        injected fault, resolution): the engine raises with the
        instruction counted and nothing charged, so the handler exits
        with exactly that."""
        self.emit("try:", depth)
        for stmt in stmts:
            self.emit(stmt, depth + 1)
        self.emit("except Exception:", depth)
        self.emit(self.exit_call(pc, self.cum, self.k + 1, reason),
                  depth + 1)
        self.emit("raise", depth + 1)

    def alloc_call(self, pc: int, call: str, depth: int = 0) -> str:
        result = self.tmp()
        self.guard_host(pc, [f"{result} = {call}"], depth)
        return result

    def cache_charge(self, addr_expr: str, depth: int = 0) -> None:
        """Inline ``CacheModel.access``'s hit path (one list compare);
        only a miss pays the ``_cmiss`` call.  ``_l1c`` is this core's
        L1 tag row, bound once in the prologue."""
        t = self.tmp()
        self.emit(f"{t} = ({addr_expr}) // {WORDS_PER_LINE}", depth)
        self.emit(f"if _l1c[{t} % {L1_LINES}] != {t}: "
                  f"budget -= _cmiss(core, {t})", depth)

    def exit_to(self, pc: int, target: int, cost: int,
                depth: int = 0) -> None:
        """Taken branch at ``pc`` leaves the region for ``target``:
        charge the branch and return to the driver — or loop in place
        when ``target`` is this block's own leader."""
        self.on_branch(pc, target, depth)
        if target == self.leader and self.self_loop:
            self.loop_around(cost, depth)
            return
        for part in self.resume_exit(target, self.cum + cost, self.k + 1):
            self.emit(part, depth)

    def loop_around(self, cost: int, depth: int) -> None:
        """Taken branch back to this block's own leader: loop in place.

        The iteration's constant cost folds into the local ``budget``
        and its instruction count into ``_ai``; ``if budget > 0``
        replays the driver's slice check, and exhaustion parks the pc
        on the leader — exactly where the engine's slice would stop."""
        self.emit(f"budget -= {self.cum + cost}", depth)
        self.emit(f"_ai += {self.k + 1}", depth)
        for part in self.spill():
            self.emit(part, depth)
        self.emit("if budget > 0: continue", depth)
        self.emit("return " + self.exit_call(self.leader, 0, 0), depth)

    def return_exit(self, value: str | None, cost: int) -> None:
        """Charge the return, pop the frame and hand ``value`` to the
        caller (None: a void return, which sets no thread result)."""
        self.emit(self.exit_call(None, self.cum + cost, self.k + 1))
        self.emit("_fs = thread.frames")
        self.emit("_fs.pop()")
        self.emit("if _fs:")
        self.emit(f"_fs[-1].receive_result({value or 'None'})", 1)
        if value is not None:
            self.emit("else:")
            self.emit(f"thread.result = {value}", 1)
        self.emit("return False")

    # -- op bodies both tiers share ------------------------------------
    def add(self, lhs: str, rhs: str, dst: str) -> None:
        """Guest ``+``: string concatenation when either side is one."""
        self.emit(f"if type({lhs}) is str or type({rhs}) is str:")
        self.emit(f"{dst} = _gs({lhs}) + _gs({rhs})", 1)
        self.emit("else:")
        self.emit(f"{dst} = {lhs} + {rhs}", 1)

    def divrem(self, kind: str, lhs: str, rhs: str, dst: str | None,
               pc: int) -> str:
        """``_truediv_int``/``_rem_int`` inlined: a zero divisor raises,
        ints truncate toward zero and a remainder's sign follows the
        dividend.  ``dst`` None allocates a fresh temporary."""
        self.emit(f"if {rhs} == 0:")
        sym = "/" if kind == "div" else "%"
        self.raise_exit(pc, f"raise _GAE('{sym} by zero')")
        if dst is None:
            dst = self.tmp()
        q = self.tmp()
        self.emit(f"if isinstance({lhs}, int) and isinstance({rhs}, int):")
        self.emit(f"{q} = abs({lhs}) // abs({rhs})", 1)
        if kind == "div":
            self.emit(f"{dst} = {q} if ({lhs} >= 0) == ({rhs} >= 0) "
                      f"else -{q}", 1)
            self.emit("else:")
            self.emit(f"{dst} = {lhs} / {rhs}", 1)
        else:
            self.emit(f"{dst} = {lhs} - ({q} if ({lhs} >= 0) == "
                      f"({rhs} >= 0) else -{q}) * {rhs}", 1)
            self.emit("else:")
            self.emit(f"{dst} = {lhs} - {rhs} * int({lhs} / {rhs})", 1)
        return dst

    def field_slot(self, obj: str, field: str, pc: int, what: str,
                   atomic: bool = False) -> str:
        """Null-check ``obj``, count an atomic op, resolve ``field``'s
        slot and charge its cache line; returns the slot."""
        self.null_check(obj, pc, f"{what} {field}")
        if atomic:
            self.emit("_ct.atomic += 1")
        slot = self.tmp()
        self.emit(f"{slot} = {obj}.jclass.field_layout[{field!r}]")
        self.cache_charge(f"{obj}.addr + {slot}")
        return slot

    def cas(self, obj: str, slot: str, field: str, expect: str,
            update: str, dst: str) -> None:
        # References compare by identity (JObject has no __eq__),
        # numbers by value — matching the interpreters' CAS.
        self.emit(f"if {obj}.values[{slot}] == {expect}:")
        self.emit(f"{obj}.values[{slot}] = {update}", 1)
        self.emit(f"{dst} = 1", 1)
        self.emit("else:")
        self.emit("_ct.cas_failures += 1", 1)
        self.emit(f"if _tcas is not None: _tcas.emit('cas', 'fail', "
                  f"thread.tid, ({field!r},))", 1)
        self.emit(f"{dst} = 0", 1)

    def atomic_add(self, obj: str, slot: str, delta: str) -> str:
        old = self.tmp()
        self.emit(f"{old} = {obj}.values[{slot}]")
        self.emit(f"{obj}.values[{slot}] = {old} + {delta}")
        return old

    def checkcast(self, obj: str, cls: str, pc: int) -> None:
        self.emit(f"if {obj} is not None and not "
                  f"{obj}.jclass.is_subtype_of({cls!r}):")
        self.raise_exit(
            pc, f'raise _GCE(f"cannot cast {{{obj}.jclass.name}} '
                f'to {cls}")')

    # -- whole-block assembly ------------------------------------------
    def render(self) -> tuple[str, str]:
        """Emit all ops + the end-of-region exit; return (name, source)."""
        for pc, instr in self.ops:
            if self.k:
                self.budget_guard(pc)
            self.sites += 1
            if not self.emit_op(pc, instr):
                break
            self.k += 1
            self.cum += self.const_cost(instr)
        else:
            # The region ran off its end (the cap, or a bail op): park
            # the pc there; the driver resumes it next.
            for part in self.resume_exit(self.end_pc, self.cum, self.k):
                self.emit(part)
        name = f"{self.PREFIX}{self.leader}"
        header = f"def {name}({self.PARAMS}):"
        prologue = [f"    {line}" for line in self.PROLOGUE]
        prologue.append("    budget = thread.budget")
        if self.has_dyn or self.self_loop:
            prologue.append("    b0 = budget")
        if self.has_dyn:
            prologue.append("    core = thread.core")
            prologue.append("    _l1c = _l1[core]")
        if self.self_loop:
            prologue.append("    _ai = 0")
            prologue.append("    while True:")
        return name, "\n".join([header] + prologue + self.lines)


class _Block2Emitter(_BlockWriter):
    """Emits one tier-2 superblock function's source."""

    PREFIX = "_m"
    PARAMS = "thread, frame"
    PROLOGUE = ("regs = frame.regs",)

    def __init__(self, leader: int, ops, end_pc: int, env: dict) -> None:
        super().__init__(
            leader, ops, end_pc, env,
            has_dyn=any(i[0] in _DYN_KINDS for _, i in ops),
            self_loop=any(
                (i[0] == "jump" and i[2] == leader)
                or (i[0] == "branch" and (i[3] == leader or i[4] == leader))
                for _, i in ops))

    @staticmethod
    def const_cost(instr) -> int:
        return instr[1]

    def load(self, reg: int) -> str:
        t = self.tmp()
        self.emit(f"{t} = regs[{reg}]")
        return t

    def call_exit(self, pc: int, cost: int, dest, tgt: str,
                  args: str) -> None:
        """Shared tail of the call family: pending dest, pc advance and
        the call's own cost flushed *before* ``VM.call`` (natives charge
        ``thread.budget`` directly; a raise inside the callee must see
        machine-identical caller state)."""
        self.emit(f"frame.pending_dest = {dest!r}")
        self.emit(self.exit_call(pc + 1, self.cum + cost, self.k + 1))
        self.emit(f"_vm.call(thread, {tgt}, {args})")
        self.emit("return False")

    # -- per-op emission -----------------------------------------------
    def emit_op(self, pc: int, instr) -> bool:
        """Emit one op; returns False when the block ended (terminator
        or call hand-off) and emission must stop.  Bail kinds never get
        here: :func:`_scan2` ends the region before them."""
        kind = instr[0]
        cost = instr[1]

        if kind == "add":
            self.add(self.load(instr[3]), self.load(instr[4]),
                     f"regs[{instr[2]}]")
        elif kind in _BINOPS:
            self.emit(f"regs[{instr[2]}] = regs[{instr[3]}] "
                      f"{_BINOPS[kind]} regs[{instr[4]}]")
        elif kind == "div" or kind == "rem":
            self.divrem(kind, self.load(instr[3]), self.load(instr[4]),
                        f"regs[{instr[2]}]", pc)
        elif kind == "neg":
            self.emit(f"regs[{instr[2]}] = -regs[{instr[3]}]")
        elif kind == "not":
            self.emit(f"regs[{instr[2]}] = 0 if regs[{instr[3]}] else 1")
        elif kind == "i2d":
            self.emit(f"regs[{instr[2]}] = float(regs[{instr[3]}])")
        elif kind == "d2i":
            self.emit(f"regs[{instr[2]}] = int(regs[{instr[3]}])")
        elif kind == "cmp":
            self.emit(f"regs[{instr[2]}] = 1 if regs[{instr[4]}] "
                      f"{instr[3]} regs[{instr[5]}] else 0")
        elif kind == "cmpz":
            t = self.load(instr[4])
            self.emit(f"if {t} is None: {t} = 0")
            self.emit(f"regs[{instr[2]}] = 1 if {t} {instr[3]} 0 else 0")
        elif kind == "branch":
            t_pc, f_pc = instr[3], instr[4]
            if t_pc == pc + 1 and f_pc == pc + 1:
                pass                          # degenerate: pure fall-through
            elif f_pc == pc + 1:
                self.emit(f"if regs[{instr[2]}]:")
                self.exit_to(pc, t_pc, cost, 1)
            elif t_pc == pc + 1:
                self.emit(f"if not regs[{instr[2]}]:")
                self.exit_to(pc, f_pc, cost, 1)
            else:
                self.emit(f"if regs[{instr[2]}]:")
                self.exit_to(pc, t_pc, cost, 1)
                self.emit("else:")
                self.exit_to(pc, f_pc, cost, 1)
                return False
        elif kind == "jump":
            target = instr[2]
            if target != pc + 1:
                self.exit_to(pc, target, cost)
                return False
            # Fused fall-through: charge only.
        elif kind == "phimove":
            pairs = instr[2]
            if len(pairs) == 1:
                src, dst = pairs[0]
                self.emit(f"regs[{dst}] = regs[{src}]")
            else:
                tmps = [self.tmp() for _ in pairs]
                for t, (src, _) in zip(tmps, pairs):
                    self.emit(f"{t} = regs[{src}]")
                for t, (_, dst) in zip(tmps, pairs):
                    self.emit(f"regs[{dst}] = {t}")
        elif kind == "getfield":
            obj = self.load(instr[3])
            slot = self.field_slot(obj, instr[4], pc, "getfield")
            self.emit(f"regs[{instr[2]}] = {obj}.values[{slot}]")
        elif kind == "putfield":
            obj = self.load(instr[2])
            slot = self.field_slot(obj, instr[3], pc, "putfield")
            self.emit(f"{obj}.values[{slot}] = regs[{instr[4]}]")
        elif kind == "aload" or kind == "astore":
            arr = self.load(instr[3] if kind == "aload" else instr[2])
            idx = self.load(instr[4] if kind == "aload" else instr[3])
            # The machine touches the cache *before* the bounds check
            # (tags mutate, a miss is counted) but discards the penalty
            # if the access raises — so the charge is deferred.
            line = self.tmp()
            pen = self.tmp()
            self.emit(f"{line} = ({arr}.addr + {idx}) // {WORDS_PER_LINE}")
            self.emit(f"{pen} = 0")
            self.emit(f"if _l1c[{line} % {L1_LINES}] != {line}: "
                      f"{pen} = _cmiss(core, {line})")
            data = self.tmp()
            self.emit(f"{data} = {arr}.data")
            self.emit("try:")
            self.emit(f"if {idx} < 0:", 1)
            self.emit("raise _IE", 2)
            if kind == "aload":
                got = self.tmp()
                self.emit(f"{got} = {data}[{idx}]", 1)
            else:
                self.emit(f"{data}[{idx}] = regs[{instr[4]}]", 1)
            self.emit("except _IE:")
            self.raise_exit(
                pc,
                f'raise _GBE(f"compiled {kind} OOB '
                f'{{{idx}}}/{{len({data})}}") from None')
            if kind == "aload":
                self.emit(f"regs[{instr[2]}] = {got}")
            self.emit(f"budget -= {pen}")
        elif kind == "arraylen":
            self.emit(f"regs[{instr[2]}] = len(regs[{instr[3]}].data)")
        elif kind == "guard":
            _, _, label, test, operands, class_name, spec_id, meta = instr
            self.emit(f"_cg({label!r})")
            if test == "nonnull":
                cond = f"regs[{operands[0]}] is None"
            elif test == "bounds":
                idx = self.load(operands[0])
                arr = self.load(operands[1])
                cond = (f"{arr} is None or "
                        f"not 0 <= {idx} < len({arr}.data)")
            elif test == "bounds_range":
                lo = self.load(operands[0])
                hi = self.load(operands[1])
                arr = self.load(operands[2])
                cond = (f"{arr} is None or {lo} < 0 or "
                        f"{hi} > len({arr}.data)")
            elif test == "type":
                obj = self.load(operands[0])
                cond = (f"{obj} is None or "
                        f"{obj}.jclass.name != {class_name!r}")
            else:
                raise VMError(f"tier-2: unknown guard test {test}")
            self.emit(f"if {cond}:")
            # The machine charges the guard's cost, then hands the frame
            # to the guest deopt machinery (counters/trace/frame
            # rematerialization happen in there, identically).
            self.emit(self.exit_call(pc, self.cum + cost, self.k + 1,
                                     "guard"), 1)
            self.emit(f"_deoptimize(_vm, thread, frame, {spec_id!r}, "
                      f"{meta!r})", 1)
            self.emit("return False", 1)
        elif kind == "new":
            cls = self.bind(f"_kc{pc}", instr[3])
            obj = self.alloc_call(pc, f"_heap.new_object({cls})")
            self.cache_charge(f"{obj}.addr")
            self.emit(f"regs[{instr[2]}] = {obj}")
        elif kind == "newarray":
            length = self.load(instr[4])
            pen = self.tmp()
            self.emit(f"{pen} = _alloc({length})")
            arr = self.alloc_call(
                pc, f"_heap.new_array({instr[3]!r}, {length})")
            self.emit(f"budget -= {pen}")
            self.cache_charge(f"{arr}.addr")
            self.emit(f"regs[{instr[2]}] = {arr}")
        elif kind == "instanceof":
            obj = self.load(instr[3])
            self.emit(f"regs[{instr[2]}] = 1 if {obj} is not None and "
                      f"{obj}.jclass.is_subtype_of({instr[4]!r}) else 0")
        elif kind == "checkcast":
            obj = self.load(instr[3])
            self.checkcast(obj, instr[4], pc)
            self.emit(f"regs[{instr[2]}] = {obj}")
        elif kind == "getstatic":
            cls = self.bind(f"_sc{pc}", instr[3])
            self.emit(f"regs[{instr[2]}] = "
                      f"{cls}.static_values[{instr[4]!r}]")
        elif kind == "putstatic":
            cls = self.bind(f"_sc{pc}", instr[2])
            self.emit(f"{cls}.static_values[{instr[3]!r}] = "
                      f"regs[{instr[4]}]")
        elif kind == "callstatic":
            tgt = self.bind(f"_t{pc}", instr[3])
            args = self.tmp()
            elems = ", ".join(f"regs[{a}]" for a in instr[4])
            self.emit(f"{args} = [{elems}]")
            self.call_exit(pc, cost, instr[2], tgt, args)
            return False
        elif kind == "callvirtual":
            self.emit("_ct.method += 1")
            recv = self.load(instr[4][0])
            self.null_check(recv, pc, f"invoke {instr[3]} on null")
            jc = self.tmp()
            self.emit(f"{jc} = {recv}.jclass")
            # Monomorphic inline cache over resolve_method, frozen at
            # first execution; the machine resolves every time.
            cell = self.bind(f"_ic{pc}", [None, None])
            tgt = self.tmp()
            self.emit(f"if {jc} is {cell}[0]:")
            self.emit(f"{tgt} = {cell}[1]", 1)
            self.emit("else:")
            self.guard_host(
                pc, [f"{tgt} = {jc}.resolve_method({instr[3]!r})"],
                depth=1, reason="exception")
            self.emit(f"if {cell}[0] is None:", 1)
            self.emit(f"{cell}[0] = {jc}", 2)
            self.emit(f"{cell}[1] = {tgt}", 2)
            args = self.tmp()
            elems = ", ".join([recv] + [f"regs[{a}]"
                                        for a in instr[4][1:]])
            self.emit(f"{args} = [{elems}]")
            self.call_exit(pc, cost, instr[2], tgt, args)
            return False
        elif kind == "indy":
            self.emit("_ct.idynamic += 1")
            self.emit("_ct.method += 1")
            tgt = self.bind(f"_t{pc}", instr[3])
            elems = ", ".join(f"regs[{a}]" for a in instr[4])
            fn = self.alloc_call(pc, f"_mkfn({tgt}, [{elems}])")
            self.emit(f"regs[{instr[2]}] = {fn}")
        elif kind == "callhandle":
            self.emit("_ct.method += 1")
            handle = self.load(instr[3])
            self.null_check(handle, pc, "invoke on null function")
            tgt, cap = self.tmp(), self.tmp()
            self.guard_host(pc, [f"{tgt}, {cap} = {handle}.meta"],
                            reason="exception")
            args = self.tmp()
            tail = "".join(f", regs[{a}]" for a in instr[4])
            self.emit(f"{args} = list({cap})")
            if tail:
                self.emit(f"{args} += [{tail[2:]}]")
            self.call_exit(pc, cost, instr[2], tgt, args)
            return False
        elif kind == "cas":
            obj = self.load(instr[3])
            slot = self.field_slot(obj, instr[4], pc, "cas", atomic=True)
            self.cas(obj, slot, instr[4], f"regs[{instr[5]}]",
                     f"regs[{instr[6]}]", f"regs[{instr[2]}]")
        elif kind == "atomicget":
            obj = self.load(instr[3])
            slot = self.field_slot(obj, instr[4], pc, "atomicget",
                                   atomic=True)
            self.emit(f"regs[{instr[2]}] = {obj}.values[{slot}]")
        elif kind == "atomicadd":
            obj = self.load(instr[3])
            slot = self.field_slot(obj, instr[4], pc, "atomicadd",
                                   atomic=True)
            old = self.atomic_add(obj, slot, f"regs[{instr[5]}]")
            self.emit(f"regs[{instr[2]}] = {old}")
        elif kind == "ret":
            value = f"regs[{instr[2]}]" if instr[2] is not None else "None"
            t = self.tmp()
            self.emit(f"{t} = {value}")
            self.return_exit(t, cost)
            return False
        else:
            raise VMError(f"tier-2: no emitter arm for machine kind {kind}")
        return True


# ----------------------------------------------------------------------
def _scan2(instrs, leader: int):
    """Collect the superblock's ops starting at ``leader``.

    Regions fuse through fall-through jumps and one-armed branches (the
    other arm exits), which is what lets a whole loop body — vectorized,
    unrolled by the pipeline — become one self-looping block.  Returns
    ``(ops, end_pc, kind)`` with ``kind`` in ``"term" | "bail" |
    "split"``; ``end_pc`` is the terminator's own pc for "term", the pc
    the block stops *at* otherwise (a bail kind's, or the cap's).
    """
    ops: list[tuple] = []
    pc = leader
    n = len(instrs)
    while pc < n:
        instr = instrs[pc]
        kind = instr[0]
        if kind in BAIL_KINDS:            # checked before the cap: a
            return ops, pc, "bail"        # split never ends on a bail
        if len(ops) == MAX_BLOCK_OPS:
            break
        ops.append((pc, instr))
        if kind in _TERM_KINDS:
            return ops, pc, "term"
        if kind == "jump":
            if instr[2] != pc + 1:
                return ops, pc, "term"
        elif kind == "branch":
            if instr[3] != pc + 1 and instr[4] != pc + 1:
                return ops, pc, "term"
        pc += 1
    return ops, pc, "split"


def _leaders2(instrs) -> set[int]:
    """Static region leaders: entry, control-flow targets, the resume
    point after every call and bail kind, and — closing the set — the
    continuation of every region the cap splits.  A bail kind's own pc
    is never a leader (its block would hold no op), not even pc 0 or a
    branch target."""
    n = len(instrs)
    out = {0}
    for pc, instr in enumerate(instrs):
        kind = instr[0]
        if kind == "jump":
            out.add(instr[2])
        elif kind == "branch":
            out.add(instr[3])
            out.add(instr[4])
        elif kind in BAIL_KINDS or kind in ("callstatic", "callvirtual",
                                             "callhandle"):
            out.add(pc + 1)
    leaders = {pc for pc in out
               if pc < n and instrs[pc][0] not in BAIL_KINDS}
    pending = list(leaders)
    while pending:
        _, end_pc, kind = _scan2(instrs, pending.pop())
        if kind == "split" and end_pc < n and end_pc not in leaders:
            leaders.add(end_pc)
            pending.append(end_pc)
    return leaders


def compile_tier2(engine, code):
    """Admit ``code`` (a :class:`CompiledCode`) to tier-2: build the
    environment its blocks run in.  Every CompiledCode is admitted.

    Nothing is emitted here — the returned :class:`Tier2Code` has an
    empty entry table that :func:`extend_tier2` fills on first entry,
    so a region no frame reaches costs no host ``compile()``.
    ``engine`` is the :class:`repro.jit.machine.Tier2Machine` that owns
    the compiled code (its stats receive the block exit counts).
    """
    vm = engine.vm
    env = {
        "_ct": vm.counters, "_vm": vm, "_heap": vm.heap, "_gs": guest_str,
        "_l1": vm.cache.l1_tags, "_cmiss": vm.cache.miss,
        "_alloc": alloc_cost, "_GAE": GuestArithmeticError,
        "_GNPE": GuestNullPointerError, "_GBE": GuestBoundsError,
        "_GCE": GuestCastError, "_IE": IndexError,
        "_x": block_exit(vm.counters, engine.stats.deopts),
        "_deoptimize": deopt_mod.deoptimize,
        "_cg": vm.counters.count_guard,
        "_tcas": (vm.trace if vm.trace is not None and vm.trace.cas_on
                  else None),
        "_mkfn": vm.make_function}
    return Tier2Code(code, env)


def extend_tier2(t2: Tier2Code, pc: int):
    """Emit the block entering at ``pc`` — the one place tier-2 code is
    generated.  The driver calls it the first time a frame arrives at
    the empty entry of a region leader (``pc in t2.leaders``); a frame
    at any other pc runs interpreted up to the next leader instead.

    The new function is ``exec``'d into the method environment and
    installed in the entry table; returns ``(fn, sites, cycles)``, the
    block's simulated compile cost included.  A machine kind with no
    emitter arm raises ``VMError``; nothing here declines.
    """
    ops, end_pc, kind = _scan2(t2.code.instrs, pc)
    emitter = _Block2Emitter(pc, ops, end_pc, t2.env)
    name, source = emitter.render()
    exec(compile(source, f"<tier2 {t2.method.qualified}>", "exec"), t2.env)
    fn = t2.entries[pc] = t2.env[name]
    t2.blocks.append((pc, emitter.sites, emitter.cum, end_pc, kind,
                      emitter.self_loop))
    t2.nblocks += 1
    t2.sites += emitter.sites
    cycles = (emitter.sites * TIER2_COMPILE_SITE_COST
              + TIER2_COMPILE_BLOCK_COST)
    t2.compile_cycles += cycles
    t2.source[pc] = source
    return fn, emitter.sites, cycles
