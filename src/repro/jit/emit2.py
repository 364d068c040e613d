"""Tier-2 superblock emitter: optimized machine code → flat Python closures.

The guest JIT's pipeline (inlining, escape analysis, lock coarsening,
guard motion, vectorization, atomic coalescing) produces
:class:`~repro.jit.lowering.CompiledCode`, but until this tier existed
that register machine was executed by the per-instruction elif loop in
:class:`~repro.jit.machine.Machine` — the phases changed *simulated*
counters while recovering zero host wall-clock.  This module closes the
gap: it lowers the already-optimized machine code into one Python
function per *superblock* (a straight-line region of machine
instructions, fused through fall-through jumps and branches, extended
until a call/terminator or the region cap), generated and ``exec``'d
the first time a frame enters it.  Inside a block there is no dispatch:
values flow through ``regs`` (compiled code is already in register form
— no operand stack), and the per-instruction bookkeeping of the
interpretive machine is batched into the block's exit points.

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
  words, the variable monitor-coarsening costs) decrement the local
  ``budget`` as they occur, keeping the comparison exact;
- every exit stores ``thread.budget = budget - CUM``, bumps
  ``instructions``/``reference_cycles`` by compile-time constants (plus
  ``b0 - budget`` for accumulated dynamic cycles) and sets ``frame.pc``
  to the exact machine-code index;
- ops the machine can raise from (null/bounds/zero/cast checks, guard
  deopts, heap pressure, scheduler misuse) flush *before* raising with
  the faulting instruction counted but not charged;
- a branch back to the block's own leader loops in place (``while
  True``), which is where the tier pays off: a vectorized or unrolled
  hot loop becomes one native Python loop.

Unlike tier-1 (:mod:`repro.jit.emit`), scheduler ops are compiled too:
the machine's own semantics for monitors/park/wait are replicated
inline, with contended acquisition parking ``frame.pc`` on the
``monitorenter`` (a registered entry) for re-execution once granted.

Guard failures take the *guest* deopt path —
:func:`repro.jit.deopt.deoptimize` rematerializes interpreter frames
from FrameState/VirtualObjectState recipes exactly as the interpretive
machine would, falling back to the tier-1/threaded bytecode ladder at
the exact bytecode index.  Forced traps (``deopt_at``, the fuzz
suite's uncommon-trap stand-in) and block-internal faults instead
transfer to the interpretive machine at the exact machine pc via
:func:`repro.jit.deopt.tier2_deopt` — a host-invisible transition,
since both executors run the same ``CompiledCode``.

Emission is on demand: :func:`compile_tier2` only validates, and
:func:`extend_tier2` emits a block when a frame first arrives at its pc,
so code no frame reaches is never compiled.  On-stack replacement falls
out of the same path: any pc a frame parks on (budget exhaustion
mid-block, contended monitor, slice end) becomes a block entry like any
leader, so hot loops enter tier-2 mid-run at their loop header without
waiting for a fresh invocation.
"""

from __future__ import annotations

from repro.errors import (
    GuestArithmeticError,
    GuestBoundsError,
    GuestCastError,
    GuestNullPointerError,
)
from repro.jit import deopt as deopt_mod
from repro.jit.deopt import tier2_deopt
from repro.jvm.cache import L1_LINES, WORDS_PER_LINE
from repro.jvm.costmodel import (
    TIER2_COMPILE_BLOCK_COST,
    TIER2_COMPILE_SITE_COST,
    alloc_cost,
)
from repro.jvm.interpreter import Frame, guest_str

#: Region cap: bounds generated-code size and exit-point fan-out; the
#: split point becomes a fresh leader so hot tails stay compiled.
MAX_BLOCK_OPS = 64

#: Machine kinds that end a superblock *with* the op (control leaves the
#: region: a call hand-off, a scheduler suspension, or a return).
_TERM_KINDS = frozenset({
    "ret", "callstatic", "callvirtual", "callhandle", "park", "wait",
})

#: Kinds whose cycle cost has a run-time component (cache penalties,
#: allocation words, coarsening's held-lock fast path); their presence
#: makes the block track ``b0``.  ``monitorexit`` is dynamic only when
#: it carries a coarsening plan — see :func:`_is_dynamic`.
_DYN_KINDS = frozenset({
    "getfield", "putfield", "aload", "astore", "new", "newarray",
    "cas", "atomicget", "atomicadd", "monitorenter",
    "monitorexit_if_held",
})

_BINOPS = {
    "sub": "-", "mul": "*", "shl": "<<", "shr": ">>",
    "and": "&", "or": "|", "xor": "^",
}

_CMP_SYMS = frozenset({"==", "!=", "<", "<=", ">", ">="})
_GUARD_TESTS = frozenset({"nonnull", "bounds", "bounds_range", "type"})

#: Every machine kind the emitter compiles.  A method containing any
#: other kind is declined whole — the interpretive machine raises the
#: same ``VMError`` it always did, so behaviour is unchanged.
_SUPPORTED = frozenset({
    "add", "sub", "mul", "div", "rem", "shl", "shr", "and", "or", "xor",
    "neg", "not", "i2d", "d2i", "cmp", "cmpz", "branch", "jump",
    "phimove", "getfield", "putfield", "aload", "astore", "arraylen",
    "guard", "new", "newarray", "instanceof", "checkcast", "getstatic",
    "putstatic", "callstatic", "callvirtual", "indy", "callhandle",
    "monitorenter", "monitorexit", "monitorexit_if_held", "cas",
    "atomicget", "atomicadd", "park", "unpark", "wait", "notify",
    "notifyall", "ret",
})


def _is_dynamic(instr) -> bool:
    kind = instr[0]
    if kind in _DYN_KINDS:
        return True
    return kind == "monitorexit" and instr[3] is not None


def _const_cost(instr) -> int:
    """The portion of ``instr``'s cost folded into compile-time prefix
    sums.  Variable-cost monitor ops charge the local ``budget`` at run
    time instead (held-chunk fast path costs 1, a real release 18/20)."""
    kind = instr[0]
    if kind == "monitorenter" or kind == "monitorexit_if_held":
        return 0
    if kind == "monitorexit" and instr[3] is not None:
        return 0
    return instr[1]


class Tier2Code:
    """A compiled method's tier-2 superblocks plus the entry table.

    ``entries`` is indexed by machine pc and starts out all ``None``:
    :func:`extend_tier2` fills a slot the first time a frame arrives at
    that pc — region leaders, cap-split continuations and pcs parked
    mid-region (on-stack replacement) alike.  ``blocks`` records, per
    emitted block, the compile-time ground truth
    ``(leader, sites, cum, end_pc, kind, self_loop)`` that
    :mod:`repro.sanitize.blockverify` re-derives independently, and
    ``source`` maps each leader to that block's generated text.
    ``leaders`` is the static region-leader set: an entry anywhere else
    is an on-stack replacement.
    """

    __slots__ = ("code", "method", "entries", "blocks", "nblocks",
                 "sites", "compile_cycles", "deopt_at", "source", "env",
                 "leaders", "jit_on", "trace_cas", "fault_calls")

    def __init__(self, code, deopt_at, env, jit_on, trace_cas,
                 fault_calls) -> None:
        self.code = code
        self.method = code.method
        self.entries: list = [None] * len(code.instrs)
        self.blocks: list[tuple] = []
        self.nblocks = 0
        self.sites = 0
        self.compile_cycles = 0
        self.deopt_at = deopt_at
        self.source: dict[int, str] = {}
        self.env = env                # blocks exec here and bind their
        #                               per-site cells (classes, caches)
        self.leaders = _leaders2(code.instrs)
        self.jit_on = jit_on
        self.trace_cas = trace_cas
        self.fault_calls = fault_calls


class _EmitBail(Exception):
    """The emitter declines this method; the caller falls back."""


class _Block2Emitter:
    """Emits one tier-2 superblock function's source."""

    def __init__(self, code, leader: int, ops, end_pc: int, kind: str,
                 cells: dict, jit_on: bool, trace_cas: bool,
                 fault_calls: bool) -> None:
        self.code = code
        self.method = code.method
        self.leader = leader
        self.ops = ops                # [(pc, instr), ...]
        self.end_pc = end_pc
        self.kind = kind              # "term" | "split" | "deopt"
        self.cells = cells            # the method env: shared bindings
        self.jit_on = jit_on
        self.trace_cas = trace_cas
        self.fault_calls = fault_calls
        self.used = set()             # env names this block binds
        self.lines: list[str] = []
        self.ntmp = 0
        self.k = 0                    # ops emitted so far
        self.cum = 0                  # their constant cost sum
        self.sites = 0                # ops consumed (incl. terminators)
        self.has_dyn = any(_is_dynamic(i) for _, i in ops)
        # A branch back to this block's own leader (a hot loop whose
        # body is one superblock) is chained: the emitted function
        # loops in place instead of round-tripping through the driver.
        self.self_loop = any(
            (i[0] == "jump" and i[2] == leader)
            or (i[0] == "branch" and (i[3] == leader or i[4] == leader))
            for _, i in ops)
        self._base = 1 if self.self_loop else 0

    # -- low-level helpers ---------------------------------------------
    def emit(self, line: str, depth: int = 0) -> None:
        self.lines.append("    " * (1 + self._base + depth) + line)

    def tmp(self) -> str:
        self.ntmp += 1
        return f"s{self.ntmp}"

    def bind(self, name: str, value) -> str:
        if name not in self.cells:
            self.cells[name] = value
        self.used.add(name)
        return name

    def load(self, reg: int) -> str:
        t = self.tmp()
        self.emit(f"{t} = regs[{reg}]")
        return t

    # -- exit-point construction ---------------------------------------
    def flush_parts(self, *, pc: int | None, extra_cost: int = 0,
                    count_extra: int = 0) -> list:
        """Statements restoring machine-identical shared state.

        ``extra_cost``/``count_extra`` fold the current op in (taken
        branches, calls and returns charge it; raises and guard-failure
        exits count it per the machine's raise-time state, charging
        only what the machine charged)."""
        charged = self.cum + extra_cost
        counted = self.k + count_extra
        parts = [f"thread.budget = budget - {charged}" if charged
                 else "thread.budget = budget"]
        if pc is not None:
            parts.append(f"frame.pc = {pc}")
        if self.self_loop:
            # Completed loop passes live in ``_ai`` (instructions) and
            # in ``budget`` itself (their constant cost was subtracted
            # at each loop-around, so ``b0 - budget`` recovers constant
            # and dynamic cycles together).
            parts.append(f"_ct.instructions += _ai + {counted}"
                         if counted else "_ct.instructions += _ai")
            cyc = f"{charged} + (b0 - budget)" if charged \
                else "b0 - budget"
            parts.append(f"_ct.reference_cycles += {cyc}")
        else:
            if counted:
                parts.append(f"_ct.instructions += {counted}")
            if self.has_dyn:
                # Dynamic cycles can accrue even when the constant
                # prefix is zero (monitor ops fold constant 0): always
                # recover them from the local-budget delta.
                cyc = f"{charged} + (b0 - budget)" if charged \
                    else "b0 - budget"
                parts.append(f"_ct.reference_cycles += {cyc}")
            elif charged:
                parts.append(f"_ct.reference_cycles += {charged}")
        return parts

    def budget_guard(self, pc: int) -> None:
        """``if budget <= CUM_k`` → exit with the pc parked mid-region
        (the driver re-enters through a lazily extended OSR entry)."""
        parts = self.flush_parts(pc=pc)
        parts.append("_dp['budget'] = _dp['budget'] + 1")
        parts.append("return True")
        self.emit(f"if budget <= {self.cum}: " + "; ".join(parts))

    def raise_exit(self, pc: int, raise_stmt: str, depth: int = 1,
                   extra: tuple = ()) -> None:
        """Flush then raise: instruction counted, cost uncharged."""
        for part in self.flush_parts(pc=pc, count_extra=1):
            self.emit(part, depth)
        for stmt in extra:
            self.emit(stmt, depth)
        self.emit("_dp['exception'] = _dp['exception'] + 1", depth)
        self.emit(raise_stmt, depth)

    def null_check(self, expr: str, pc: int, message: str) -> None:
        self.emit(f"if {expr} is None:")
        self.raise_exit(pc, f"raise _GNPE({message!r})")

    def guard_host(self, pc: int, stmts, depth: int = 0,
                   reason: str = "fault") -> None:
        """Wrap host calls that can raise mid-block (heap, scheduler,
        resolution): the machine raises with the instruction counted
        and nothing charged, so the handler flushes exactly that."""
        self.emit("try:", depth)
        for stmt in stmts:
            self.emit(stmt, depth + 1)
        self.emit("except Exception:", depth)
        for part in self.flush_parts(pc=pc, count_extra=1):
            self.emit(part, depth + 1)
        self.emit(f"_dp[{reason!r}] = _dp[{reason!r}] + 1", depth + 1)
        self.emit("raise", depth + 1)

    def alloc_call(self, pc: int, call: str, depth: int = 0) -> str:
        result = self.tmp()
        self.guard_host(pc, [f"{result} = {call}"], depth)
        return result

    def cache_charge(self, addr_expr: str, depth: int = 0) -> None:
        """Inline ``CacheModel.access``'s hit path (one list compare);
        only a miss pays the ``_cmiss`` call."""
        t = self.tmp()
        self.emit(f"{t} = ({addr_expr}) // {WORDS_PER_LINE}", depth)
        self.emit(f"if _l1c[{t} % {L1_LINES}] != {t}: "
                  f"budget -= _cmiss(core, {t})", depth)

    def exit_to(self, target: int, cost: int, depth: int = 0) -> None:
        """Control leaves the region for ``target``: charge the branch
        cost, flush, and return to the driver (or loop in place)."""
        if target == self.leader and self.self_loop:
            self.loop_around(cost, depth)
            return
        for part in self.flush_parts(pc=target, extra_cost=cost,
                                     count_extra=1):
            self.emit(part, depth)
        self.emit("return True", depth)

    def loop_around(self, cost: int, depth: int) -> None:
        """Taken branch back to this block's own leader: loop in place.

        The iteration's constant cost folds into the local ``budget``
        and its instruction count into ``_ai``; ``if budget > 0``
        replays the driver's slice check, and exhaustion parks the pc
        on the leader — exactly where the interpretive machine's slice
        would stop."""
        self.emit(f"budget -= {self.cum + cost}", depth)
        self.emit(f"_ai += {self.k + 1}", depth)
        self.emit("if budget > 0: continue", depth)
        self.emit("thread.budget = budget", depth)
        self.emit(f"frame.pc = {self.leader}", depth)
        self.emit("_ct.instructions += _ai", depth)
        self.emit("_ct.reference_cycles += b0 - budget", depth)
        self.emit("return True", depth)

    # -- calls ----------------------------------------------------------
    def emit_call(self, tgt: str, args: str) -> None:
        """``VM.call`` with its interpreted-frame fast path inlined;
        mirrors :meth:`repro.jit.emit._BlockEmitter.emit_call`."""
        if self.fault_calls:
            self.emit(f"_vm.call(thread, {tgt}, {args})")
            return
        self.emit(f"if {tgt}.native or {tgt}.abstract:")
        self.emit(f"_vm.call(thread, {tgt}, {args})", 1)
        self.emit("else:")
        self.emit(f"{tgt}.invocation_count += 1", 1)
        depth = 1
        if self.jit_on:
            self.emit(f"if {tgt}.compiled is None:", 1)
            self.emit(f"_jit.on_invoke({tgt})", 2)
            code = self.tmp()
            self.emit(f"{code} = {tgt}.compiled", 1)
            self.emit(f"if {code} is not None:", 1)
            self.emit(
                f"thread.frames.append(_machine.new_frame({code}, {args}))",
                2)
            self.emit("else:", 1)
            depth = 2
        nf = self.tmp()
        self.emit(f"{nf} = _Frame.__new__(_Frame)", depth)
        self.emit(f"{nf}.method = {tgt}", depth)
        self.emit(f"{nf}.code = {tgt}.code", depth)
        self.emit(f"{nf}.locals = {args} + [None] * "
                  f"({tgt}.max_locals - _len({args}))", depth)
        self.emit(f"{nf}.stack = []", depth)
        self.emit(f"{nf}.pc = 0", depth)
        self.emit(f"thread.frames.append({nf})", depth)

    def call_exit(self, pc: int, cost: int, dest, tgt: str,
                  args: str) -> None:
        """Shared tail of the call family: pending dest, pc advance and
        the call's own cost flushed *before* ``VM.call`` (natives charge
        ``thread.budget`` directly; a raise inside the callee must see
        machine-identical caller state)."""
        self.emit(f"frame.pending_dest = {dest!r}")
        for part in self.flush_parts(pc=pc + 1, extra_cost=cost,
                                     count_extra=1):
            self.emit(part)
        self.emit_call(tgt, args)
        self.emit("return False")

    # -- per-op emission -----------------------------------------------
    def emit_op(self, pc: int, instr) -> bool:
        """Emit one op; returns False when the block ended (terminator,
        call hand-off, or deopt trap) and emission must stop."""
        if self.k:
            self.budget_guard(pc)
        self.sites += 1
        kind = instr[0]
        cost = instr[1]

        if kind == "add":
            a, b = self.load(instr[3]), self.load(instr[4])
            self.emit(f"if _type({a}) is str or _type({b}) is str:")
            self.emit(f"regs[{instr[2]}] = _gs({a}) + _gs({b})", 1)
            self.emit("else:")
            self.emit(f"regs[{instr[2]}] = {a} + {b}", 1)
        elif kind in _BINOPS:
            self.emit(f"regs[{instr[2]}] = regs[{instr[3]}] "
                      f"{_BINOPS[kind]} regs[{instr[4]}]")
        elif kind == "div":
            a, b = self.load(instr[3]), self.load(instr[4])
            self.emit(f"if {b} == 0:")
            self.raise_exit(pc, "raise _GAE('/ by zero')")
            q = self.tmp()
            # _truediv_int inlined: truncate toward zero.
            self.emit(f"if _isin({a}, _int) and _isin({b}, _int):")
            self.emit(f"{q} = _abs({a}) // _abs({b})", 1)
            self.emit(f"regs[{instr[2]}] = {q} if ({a} >= 0) == ({b} >= 0) "
                      f"else -{q}", 1)
            self.emit("else:")
            self.emit(f"regs[{instr[2]}] = {a} / {b}", 1)
        elif kind == "rem":
            a, b = self.load(instr[3]), self.load(instr[4])
            self.emit(f"if {b} == 0:")
            self.raise_exit(pc, "raise _GAE('% by zero')")
            q = self.tmp()
            # _rem_int inlined: sign follows the dividend.
            self.emit(f"if _isin({a}, _int) and _isin({b}, _int):")
            self.emit(f"{q} = _abs({a}) // _abs({b})", 1)
            self.emit(f"regs[{instr[2]}] = {a} - ({q} if ({a} >= 0) == "
                      f"({b} >= 0) else -{q}) * {b}", 1)
            self.emit("else:")
            self.emit(f"regs[{instr[2]}] = {a} - {b} * _int({a} / {b})", 1)
        elif kind == "neg":
            self.emit(f"regs[{instr[2]}] = -regs[{instr[3]}]")
        elif kind == "not":
            self.emit(f"regs[{instr[2]}] = 0 if regs[{instr[3]}] else 1")
        elif kind == "i2d":
            self.emit(f"regs[{instr[2]}] = _float(regs[{instr[3]}])")
        elif kind == "d2i":
            self.emit(f"regs[{instr[2]}] = _int(regs[{instr[3]}])")
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
                self.exit_to(t_pc, cost, 1)
            elif t_pc == pc + 1:
                self.emit(f"if not regs[{instr[2]}]:")
                self.exit_to(f_pc, cost, 1)
            else:
                self.emit(f"if regs[{instr[2]}]:")
                self.exit_to(t_pc, cost, 1)
                self.emit("else:")
                self.exit_to(f_pc, cost, 1)
                return False
        elif kind == "jump":
            target = instr[2]
            if target != pc + 1:
                if target == self.leader and self.self_loop:
                    self.loop_around(cost, 0)
                else:
                    for part in self.flush_parts(pc=target,
                                                 extra_cost=cost,
                                                 count_extra=1):
                        self.emit(part)
                    self.emit("return True")
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
            self.null_check(obj, pc, f"getfield {instr[4]}")
            slot = self.tmp()
            self.emit(f"{slot} = {obj}.jclass.field_layout[{instr[4]!r}]")
            self.cache_charge(f"{obj}.addr + {slot}")
            self.emit(f"regs[{instr[2]}] = {obj}.values[{slot}]")
        elif kind == "putfield":
            obj = self.load(instr[2])
            self.null_check(obj, pc, f"putfield {instr[3]}")
            slot = self.tmp()
            self.emit(f"{slot} = {obj}.jclass.field_layout[{instr[3]!r}]")
            self.cache_charge(f"{obj}.addr + {slot}")
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
                f'{{{idx}}}/{{_len({data})}}") from None')
            if kind == "aload":
                self.emit(f"regs[{instr[2]}] = {got}")
            self.emit(f"budget -= {pen}")
        elif kind == "arraylen":
            self.emit(f"regs[{instr[2]}] = _len(regs[{instr[3]}].data)")
        elif kind == "guard":
            _, _, label, test, operands, class_name, spec_id, meta = instr
            self.emit(f"_cg({label!r})")
            if test == "nonnull":
                cond = f"regs[{operands[0]}] is None"
            elif test == "bounds":
                idx = self.load(operands[0])
                arr = self.load(operands[1])
                cond = (f"{arr} is None or "
                        f"not 0 <= {idx} < _len({arr}.data)")
            elif test == "bounds_range":
                lo = self.load(operands[0])
                hi = self.load(operands[1])
                arr = self.load(operands[2])
                cond = (f"{arr} is None or {lo} < 0 or "
                        f"{hi} > _len({arr}.data)")
            else:                             # "type" (pre-validated)
                obj = self.load(operands[0])
                cond = (f"{obj} is None or "
                        f"{obj}.jclass.name != {class_name!r}")
            self.emit(f"if {cond}:")
            # The machine charges the guard's cost, then hands the frame
            # to the guest deopt machinery (counters/trace/frame
            # rematerialization happen in there, identically).
            for part in self.flush_parts(pc=pc, extra_cost=cost,
                                         count_extra=1):
                self.emit(part, 1)
            self.emit("_dp['guard'] = _dp['guard'] + 1", 1)
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
            self.emit(f"if {obj} is not None and not "
                      f"{obj}.jclass.is_subtype_of({instr[4]!r}):")
            self.raise_exit(
                pc,
                f'raise _GCE(f"cannot cast {{{obj}.jclass.name}} '
                f'to {instr[4]}")')
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
            self.emit(f"{args} = _list({cap})")
            if tail:
                self.emit(f"{args} += [{tail[2:]}]")
            self.call_exit(pc, cost, instr[2], tgt, args)
            return False
        elif kind == "monitorenter":
            self.emit("_ct.synch += 1")
            obj = self.load(instr[2])
            self.null_check(obj, pc, "monitorenter")
            coarsen = instr[3]
            acq = self.tmp()
            depth = 0
            if coarsen is not None:
                held = self.tmp()
                self.emit(f"{held} = frame.coarsen_held")
                self.emit(f"if {held} is not None and "
                          f"{coarsen[1]} in {held}:")
                self.emit("budget -= 1", 1)   # still held from last chunk
                self.emit("else:")
                depth = 1
            self.guard_host(
                pc, [f"{acq} = _sched.monitor_enter(thread, {obj})"],
                depth=depth)
            self.emit(f"if {acq}:", depth)
            self.emit(f"budget -= {cost}", depth + 1)
            self.emit("else:", depth)
            self.emit("_ct.monitor_contended += 1", depth + 1)
            self.emit(f"budget -= {cost}", depth + 1)
            # Re-execute this pc once granted: it is a registered entry.
            for part in self.flush_parts(pc=pc, count_extra=1):
                self.emit(part, depth + 1)
            self.emit("return False", depth + 1)
        elif kind == "monitorexit":
            obj = self.load(instr[2])
            coarsen = instr[3]
            if coarsen is None:
                self.guard_host(
                    pc, [f"_sched.monitor_exit(thread, {obj})"])
            else:
                _, site, chunk = coarsen
                counts = self.tmp()
                self.emit(f"{counts} = frame.coarsen_counts")
                self.emit(f"if {counts} is None:")
                self.emit(f"{counts} = frame.coarsen_counts = {{}}", 1)
                self.emit("frame.coarsen_held = {}", 1)
                nth = self.tmp()
                self.emit(f"{nth} = {counts}.get({site}, 0) + 1")
                self.emit(f"{counts}[{site}] = {nth}")
                self.emit(f"if {nth} % {chunk} != 0:")
                self.emit(f"frame.coarsen_held[{site}] = {obj}", 1)
                self.emit("budget -= 1", 1)   # keep holding this chunk
                self.emit("else:")
                self.emit(f"frame.coarsen_held.pop({site}, None)", 1)
                self.guard_host(
                    pc, [f"_sched.monitor_exit(thread, {obj})"], depth=1)
                self.emit(f"budget -= {cost}", 1)
        elif kind == "monitorexit_if_held":
            site = instr[3][1]
            held = self.tmp()
            self.emit(f"{held} = frame.coarsen_held")
            self.emit(f"if {held} is not None and {site} in {held}:")
            obj = self.tmp()
            self.emit(f"{obj} = {held}.pop({site})", 1)
            self.guard_host(pc, [f"_sched.monitor_exit(thread, {obj})"],
                            depth=1)
            self.emit("budget -= 18", 1)      # drained: a real release
            self.emit("else:")
            self.emit(f"budget -= {cost}", 1)
        elif kind == "cas":
            obj = self.load(instr[3])
            self.null_check(obj, pc, f"cas {instr[4]}")
            self.emit("_ct.atomic += 1")
            slot = self.tmp()
            self.emit(f"{slot} = {obj}.jclass.field_layout[{instr[4]!r}]")
            self.cache_charge(f"{obj}.addr + {slot}")
            self.emit(f"if {obj}.values[{slot}] == regs[{instr[5]}]:")
            self.emit(f"{obj}.values[{slot}] = regs[{instr[6]}]", 1)
            self.emit(f"regs[{instr[2]}] = 1", 1)
            self.emit("else:")
            self.emit("_ct.cas_failures += 1", 1)
            if self.trace_cas:
                self.emit(f"_tcas.emit('cas', 'fail', thread.tid, "
                          f"({instr[4]!r},))", 1)
            self.emit(f"regs[{instr[2]}] = 0", 1)
        elif kind == "atomicget":
            obj = self.load(instr[3])
            self.null_check(obj, pc, f"atomicget {instr[4]}")
            self.emit("_ct.atomic += 1")
            slot = self.tmp()
            self.emit(f"{slot} = {obj}.jclass.field_layout[{instr[4]!r}]")
            self.cache_charge(f"{obj}.addr + {slot}")
            self.emit(f"regs[{instr[2]}] = {obj}.values[{slot}]")
        elif kind == "atomicadd":
            obj = self.load(instr[3])
            self.null_check(obj, pc, f"atomicadd {instr[4]}")
            self.emit("_ct.atomic += 1")
            slot = self.tmp()
            self.emit(f"{slot} = {obj}.jclass.field_layout[{instr[4]!r}]")
            self.cache_charge(f"{obj}.addr + {slot}")
            old = self.tmp()
            self.emit(f"{old} = {obj}.values[{slot}]")
            self.emit(f"{obj}.values[{slot}] = {old} + regs[{instr[5]}]")
            self.emit(f"regs[{instr[2]}] = {old}")
        elif kind == "park":
            self.emit("_ct.park += 1")
            for part in self.flush_parts(pc=pc + 1, extra_cost=cost,
                                         count_extra=1):
                self.emit(part)
            self.emit("if _sched.park(thread):")
            self.emit("return False", 1)
            self.emit("return True")
            return False
        elif kind == "unpark":
            self.emit("_ct.unpark += 1")
            self.guard_host(
                pc,
                [f"_sched.unpark(_gto(regs[{instr[2]}]))"])
        elif kind == "wait":
            self.emit("_ct.wait += 1")
            obj = self.load(instr[2])
            self.null_check(obj, pc, "wait")
            for part in self.flush_parts(pc=pc + 1, extra_cost=cost,
                                         count_extra=1):
                self.emit(part)
            self.emit(f"_sched.monitor_wait(thread, {obj})")
            self.emit("return False")
            return False
        elif kind == "notify" or kind == "notifyall":
            self.emit("_ct.notify += 1")
            flag = "True" if kind == "notifyall" else "False"
            self.guard_host(
                pc,
                [f"_sched.monitor_notify(thread, regs[{instr[2]}], "
                 f"all_waiters={flag})"])
        elif kind == "ret":
            value = f"regs[{instr[2]}]" if instr[2] is not None else "None"
            t = self.tmp()
            self.emit(f"{t} = {value}")
            for part in self.flush_parts(pc=None, extra_cost=cost,
                                         count_extra=1):
                self.emit(part)
            self.emit("_fs = thread.frames")
            self.emit("_fs.pop()")
            self.emit("if _fs:")
            self.emit(f"_fs[-1].receive_result({t})", 1)
            self.emit("else:")
            self.emit(f"thread.result = {t}", 1)
            self.emit("return False")
            return False
        else:                                         # pragma: no cover
            raise _EmitBail(f"unhandled machine kind {kind}")

        self.k += 1
        self.cum += _const_cost(instr)
        return True

    # -- whole-block assembly ------------------------------------------
    def render(self) -> tuple[str, str]:
        """Emit all ops + the end-of-region exit; return (name, source)."""
        for pc, instr in self.ops:
            if not self.emit_op(pc, instr):
                break
        else:
            if self.kind == "deopt":
                # Forced trap: flush *before* the trapped op executes,
                # then transfer to the interpretive machine.
                for part in self.flush_parts(pc=self.end_pc):
                    self.emit(part)
                self.emit(f"_deopt2(frame, {self.end_pc})")
            else:
                # "split": park the pc on the cap boundary; the driver
                # re-enters through the next entry (extending lazily).
                for part in self.flush_parts(pc=self.end_pc):
                    self.emit(part)
                self.emit("return True")
        name = f"_m{self.leader}"
        defaults = [
            "_ct=_ct", "_vm=_vm", "_heap=_heap", "_sched=_sched",
            "_gs=_gs", "_l1=_l1", "_cmiss=_cmiss", "_alloc=_alloc",
            "_GAE=_GAE", "_GNPE=_GNPE", "_GBE=_GBE", "_GCE=_GCE",
            "_IE=_IE", "_dp=_dp", "_deopt2=_deopt2",
            "_deoptimize=_deoptimize", "_cg=_cg", "_tcas=_tcas",
            "_Frame=_Frame", "_machine=_machine", "_jit=_jit",
            "_gto=_gto", "_mkfn=_mkfn", "_type=type", "_len=len",
            "_float=float", "_int=int", "_isin=isinstance", "_abs=abs",
            "_list=list",
        ]
        defaults += [f"{n}={n}" for n in sorted(self.used)]
        header = (f"def {name}(thread, frame, "
                  + ", ".join(defaults) + "):")
        prologue = ["    regs = frame.regs", "    budget = thread.budget"]
        if self.has_dyn or self.self_loop:
            prologue.append("    b0 = budget")
        if self.has_dyn:
            prologue.append("    core = thread.core")
            prologue.append("    _l1c = _l1[core]")
        if self.self_loop:
            prologue.append("    _ai = 0")
            prologue.append("    while True:")
        return name, "\n".join([header] + prologue + self.lines)


# ----------------------------------------------------------------------
def _scan2(instrs, leader: int, deopt_at: int | None):
    """Collect the superblock's ops starting at ``leader``.

    Regions fuse through fall-through jumps and one-armed branches (the
    other arm exits), which is what lets a whole loop body — vectorized,
    unrolled, coarsened by the pipeline — become one self-looping block.
    Returns ``(ops, end_pc, kind)`` with ``kind`` in
    ``"term" | "split" | "deopt"``.
    """
    ops: list[tuple] = []
    pc = leader
    n = len(instrs)
    while pc < n and len(ops) < MAX_BLOCK_OPS:
        if deopt_at is not None and pc == deopt_at:
            return ops, pc, "deopt"
        instr = instrs[pc]
        kind = instr[0]
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
    """Static region leaders: entry, control-flow targets, post-call
    resume points, and every ``monitorenter`` (contended acquisition
    parks the pc there for re-execution once the monitor is granted)."""
    n = len(instrs)
    out = {0}
    for pc, instr in enumerate(instrs):
        kind = instr[0]
        if kind == "jump":
            out.add(instr[2])
        elif kind == "branch":
            out.add(instr[3])
            out.add(instr[4])
        elif kind in ("callstatic", "callvirtual", "callhandle",
                      "park", "wait"):
            out.add(pc + 1)
        elif kind == "monitorenter":
            out.add(pc)
    return {pc for pc in out if pc < n}


def _validate(instrs) -> bool:
    """Whole-method pre-validation: every op must be emittable, so
    emitting a block on first entry can never fail mid-run."""
    for instr in instrs:
        kind = instr[0]
        if kind not in _SUPPORTED:
            return False
        if kind in ("cmp", "cmpz") and instr[3] not in _CMP_SYMS:
            return False
        if kind == "guard" and instr[3] not in _GUARD_TESTS:
            return False
        if kind == "monitorexit_if_held" and instr[3] is None:
            return False
    return True


def compile_tier2(engine, code, *, deopt_at: int | None = None):
    """Admit ``code`` (a :class:`CompiledCode`) to tier-2: validate the
    whole method and build the environment its blocks will bind.

    Nothing is emitted here — the returned :class:`Tier2Code` has an
    empty entry table that :func:`extend_tier2` fills on first entry,
    so a region no frame reaches costs no host ``compile()``.
    ``engine`` is the :class:`repro.jit.machine.Tier2Machine` that owns
    the compiled code (its stats receive the deopt counts).
    ``deopt_at`` plants a forced trap immediately before that machine
    pc (the fuzz suite's uncommon-trap stand-in).  Returns None when
    the method is declined.
    """
    if not code.instrs or not _validate(code.instrs):
        return None
    vm = engine.vm

    def _forced(frame, pc, _engine=engine, _code=code):
        tier2_deopt(_engine, _code, frame, pc, reason="forced")

    trace_cas = vm.trace is not None and vm.trace.cas_on
    env = {
        "_ct": vm.counters, "_vm": vm, "_heap": vm.heap,
        "_sched": vm.scheduler, "_gs": guest_str,
        "_l1": vm.cache.l1_tags, "_cmiss": vm.cache.miss,
        "_alloc": alloc_cost, "_GAE": GuestArithmeticError,
        "_GNPE": GuestNullPointerError, "_GBE": GuestBoundsError,
        "_GCE": GuestCastError, "_IE": IndexError,
        "_dp": engine.stats.deopts, "_deopt2": _forced,
        "_deoptimize": deopt_mod.deoptimize,
        "_cg": vm.counters.count_guard,
        "_tcas": vm.trace if trace_cas else None,
        "_Frame": Frame, "_machine": engine, "_jit": vm.jit,
        "_gto": vm.guest_thread_of, "_mkfn": vm.make_function,
    }
    return Tier2Code(code, deopt_at, env, vm.jit is not None, trace_cas,
                     vm._fault_calls)


def extend_tier2(t2: Tier2Code, pc: int):
    """Emit the block entering at ``pc`` — the one place tier-2 code is
    generated.  The driver calls it the first time a frame arrives at
    an empty entry: a region leader, a cap-split continuation, or a pc
    parked mid-region (budget exhaustion inside a block, a resumed
    contended wait, a slice boundary — on-stack replacement).

    The new function is ``exec``'d into the method environment and
    installed in the entry table; returns ``(fn, sites)``.
    Pre-validation at :func:`compile_tier2` time guarantees this cannot
    fail for any in-range pc.
    """
    ops, end_pc, kind = _scan2(t2.code.instrs, pc, t2.deopt_at)
    emitter = _Block2Emitter(
        t2.code, pc, ops, end_pc, kind, t2.env,
        jit_on=t2.jit_on, trace_cas=t2.trace_cas,
        fault_calls=t2.fault_calls)
    name, source = emitter.render()
    exec(compile(source, f"<tier2 {t2.method.qualified}>", "exec"), t2.env)
    fn = t2.entries[pc] = t2.env[name]
    t2.blocks.append((pc, emitter.sites, emitter.cum, end_pc, kind,
                      emitter.self_loop))
    t2.nblocks += 1
    t2.sites += emitter.sites
    t2.compile_cycles += (emitter.sites * TIER2_COMPILE_SITE_COST
                          + TIER2_COMPILE_BLOCK_COST)
    t2.source[pc] = source
    return fn, emitter.sites
