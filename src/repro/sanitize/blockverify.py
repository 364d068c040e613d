"""Static validation of tier-1 superblocks against the bytecode CFG.

:mod:`repro.jit.emit` compiles hot methods into flat Python closures
whose correctness rests on compile-time accounting: batched budget
comparisons, instruction/cycle constants, and ``frame.pc`` flushes that
must land on registered resume points.  This module re-derives all of
that *independently* — its own region walk over the method bytecode and
its own prefix sums over :mod:`repro.jvm.costmodel` — then checks the
emitted :class:`repro.jit.emit.Tier1Code` (entry table, totals, and the
generated source via ``ast``) against the ground truth:

- **entry legitimacy**: the dispatch table has exactly one slot per
  bytecode, and compiled entries sit exactly on the region leaders the
  bytecode CFG defines (branch targets, post-bail/post-invoke resume
  points, cap-split continuations) — everything else must stay on the
  threaded tier so every non-leader pc remains an OSR/deopt resume
  point;
- **cost accounting**: every ``budget <= K`` guard, ``thread.budget =
  budget - K`` flush, ``budget -= K`` fold and ``reference_cycles``
  constant in the generated source must be a prefix sum of the per-op
  interpreter cost model over that region; instruction-count bumps must
  not exceed the region's op count;
- **deopt metadata**: every ``raise`` and every forced ``_deopt``
  transfer must be preceded (in its statement suite) by a budget flush
  and an in-range ``frame.pc`` assignment — the ``Tier1Deopt``
  reconstruction contract — and every flushed pc must be a valid
  interpreter resume index;
- **totals**: ``sites``/``nblocks``/``compile_cycles`` must match the
  region walk exactly (the simulated compile-time these feed is part of
  the byte-identity contract).

The op categories below deliberately *duplicate* the emitter's rather
than import them: drift between emitter and verifier is precisely the
class of bug this pass exists to surface.
"""

from __future__ import annotations

import ast
import gc

from repro.errors import VMError
from repro.jvm.bytecode import Op
from repro.jvm.costmodel import (
    BASE_COST,
    INTERP_DISPATCH,
    TIER1_COMPILE_BLOCK_COST,
    TIER1_COMPILE_SITE_COST,
    TIER2_COMPILE_BLOCK_COST,
    TIER2_COMPILE_SITE_COST,
)
from repro.sanitize.reports import StaticIssue

__all__ = ["BlockVerifyError", "verify_tier1_code", "expected_regions",
           "verify_tier2_code", "verify_tier2_block"]


class BlockVerifyError(VMError):
    """An emitted superblock violates the accounting/CFG contract."""

    def __init__(self, method: str, issues: list[StaticIssue],
                 tier: str = "tier-1"):
        self.method = method
        self.issues = list(issues)
        self.tier = tier
        first = issues[0].message if issues else "unknown"
        super().__init__(
            f"{method}: {tier} block verification failed "
            f"({len(issues)} issue(s)); first: {first}")


# Independent re-statement of the emitter's op classes (see module doc).
_BAIL_OPS = frozenset({
    Op.MONITORENTER, Op.MONITOREXIT,
    Op.PARK, Op.UNPARK, Op.WAIT, Op.NOTIFY, Op.NOTIFYALL,
})
_INVOKE_OPS = frozenset({
    Op.INVOKESTATIC, Op.INVOKESPECIAL, Op.INVOKEVIRTUAL,
    Op.INVOKEINTERFACE, Op.INVOKEDYNAMIC, Op.INVOKEHANDLE,
})
_TERMINATOR_OPS = frozenset({Op.GOTO, Op.RETURN, Op.RETVAL})
_REGION_CAP = 64

#: Constant (compile-time) interpreter cost per op: base + dispatch.
_CONST_COST = {op: cost + INTERP_DISPATCH for op, cost in BASE_COST.items()}


def expected_regions(code, deopt_at: int | None = None) -> dict:
    """Ground-truth region table: ``leader -> (ops, end_pc, kind)``.

    ``ops`` is the ``[(pc, instr), ...]`` list the region executes,
    ``kind`` one of ``"term" | "bail" | "split" | "deopt"``.  Leaders
    whose region would be empty (the leader pc holds a bail op) are
    omitted — those pcs stay on the threaded tier.
    """
    n = len(code)
    leaders = {0}
    for pc, instr in enumerate(code):
        if instr.op is Op.GOTO:
            leaders.add(instr.arg)
        elif instr.op in (Op.IF, Op.IFZ):
            leaders.add(instr.arg[1])
        elif instr.op in _BAIL_OPS or instr.op in _INVOKE_OPS:
            leaders.add(pc + 1)
    pending = sorted(pc for pc in leaders if pc < n)
    seen = set(pending)
    regions: dict[int, tuple] = {}
    while pending:
        leader = pending.pop(0)
        ops: list[tuple] = []
        pc = leader
        kind = "split"
        while pc < n and len(ops) < _REGION_CAP:
            instr = code[pc]
            if instr.op in _BAIL_OPS:
                kind = "bail"
                break
            if deopt_at is not None and pc == deopt_at:
                kind = "deopt"
                break
            ops.append((pc, instr))
            if instr.op in _TERMINATOR_OPS or instr.op in _INVOKE_OPS:
                kind = "term"
                break
            pc += 1
        else:
            kind = "split"
        end_pc = pc
        if kind == "split" and end_pc < n and end_pc not in seen:
            seen.add(end_pc)
            pending.append(end_pc)
        if not ops and kind != "deopt":
            continue
        regions[leader] = (ops, end_pc, kind)
    return regions


def _region_sites(ops, kind: str) -> int:
    """Instruction sites the emitter charges compile cost for: every op
    except a region-ending terminator/invoke (those exit before the
    per-op site accounting)."""
    return len(ops) - (1 if kind == "term" else 0)


def verify_tier1_code(code_obj, method) -> list[StaticIssue]:
    """Check a :class:`Tier1Code` against the bytecode ground truth."""
    # Parsing the emitted module allocates tens of thousands of AST
    # nodes, all dead by return; without this guard the burst trips the
    # gen-0 threshold repeatedly and every triggered collection rescans
    # the VM's young heap (see verify_graph, which does the same).
    return _gc_paused(_BlockVerifier(code_obj, method).run)


def _gc_paused(check, *args):
    enabled = gc.isenabled()
    if enabled:
        gc.disable()
    try:
        return check(*args)
    finally:
        if enabled:
            gc.enable()


class _BlockVerifier:
    def __init__(self, code_obj, method) -> None:
        self.code_obj = code_obj
        self.method = method
        self.qualified = method.qualified
        self.n = len(method.code)
        self.issues: list[StaticIssue] = []

    def issue(self, message: str, *, pc: int = -1,
              severity: str = "error") -> None:
        self.issues.append(StaticIssue(
            pass_name="blockverify", severity=severity,
            method=self.qualified, pc=pc, line=0, message=message))

    # ------------------------------------------------------------------
    def run(self) -> list[StaticIssue]:
        code_obj, n = self.code_obj, self.n
        regions = expected_regions(self.method.code, code_obj.deopt_at)
        entries = code_obj.entries
        if len(entries) != n:
            self.issue(
                f"dispatch table has {len(entries)} slots for {n} "
                "bytecodes — non-leader pcs would lose their resume "
                "handlers")
            return self.issues
        compiled = {pc for pc, fn in enumerate(entries) if fn is not None}
        for pc in sorted(compiled - set(regions)):
            self.issue(
                f"compiled entry at pc {pc} which is not a region leader "
                "of the bytecode CFG", pc=pc)
        for pc in sorted(set(regions) - compiled):
            self.issue(
                f"region leader pc {pc} has no compiled entry", pc=pc)
        for pc in sorted(compiled & set(regions)):
            fn = entries[pc]
            name = getattr(fn, "__name__", "?")
            if name != f"_b{pc}":
                self.issue(
                    f"entry at pc {pc} is block function {name!r} "
                    f"(expected _b{pc}) — dispatch miswired", pc=pc)

        # Totals against the independent walk.
        want_sites = sum(_region_sites(ops, kind)
                         for ops, _end, kind in regions.values())
        if code_obj.sites != want_sites:
            self.issue(f"sites={code_obj.sites} but the region walk "
                       f"counts {want_sites} instruction sites")
        if code_obj.nblocks != len(regions):
            self.issue(f"nblocks={code_obj.nblocks} but the region walk "
                       f"finds {len(regions)} regions")
        want_cycles = (code_obj.sites * TIER1_COMPILE_SITE_COST
                       + code_obj.nblocks * TIER1_COMPILE_BLOCK_COST)
        if code_obj.compile_cycles != want_cycles:
            self.issue(
                f"compile_cycles={code_obj.compile_cycles} != "
                f"sites*{TIER1_COMPILE_SITE_COST} + "
                f"nblocks*{TIER1_COMPILE_BLOCK_COST} = {want_cycles}")

        # Per-function source validation.
        try:
            module = ast.parse(code_obj.source)
        except SyntaxError as exc:
            self.issue(f"generated source does not parse: {exc}")
            return self.issues
        fns = {node.name: node for node in module.body
               if isinstance(node, ast.FunctionDef)}
        if len(fns) != code_obj.nblocks:
            self.issue(f"source defines {len(fns)} block functions, "
                       f"nblocks={code_obj.nblocks}")
        for leader, (ops, end_pc, kind) in sorted(regions.items()):
            fn = fns.get(f"_b{leader}")
            if fn is None:
                self.issue(f"no generated function _b{leader} for region "
                           f"at pc {leader}", pc=leader)
                continue
            self._check_function(fn, leader, ops, end_pc, kind)
        return self.issues

    # ------------------------------------------------------------------
    def _check_function(self, fn, leader, ops, end_pc, kind) -> None:
        # Prefix sums of the constant per-op cost over the region: the
        # only legal constants in budget guards and flushes.
        prefix = {0}
        cum_list = [0]
        cum = 0
        for _pc, instr in ops:
            cum += _CONST_COST[instr.op]
            prefix.add(cum)
            cum_list.append(cum)
        nops = len(ops)
        # The region-ending invoke charges its own cost post-call.
        tail_cost = (_CONST_COST[ops[-1][1].op]
                     if kind == "term" and ops else None)
        cycle_consts = (prefix - {0}) | (
            {tail_cost} if tail_cost is not None else set())

        def complain(node, msg):
            self.issue(f"_b{leader}: {msg}", pc=leader)

        # A single statement-level dispatch serves every check below:
        # the emitter only ever places budget guards in if/while tests
        # and accounting in top-level assignments, so descending into
        # expression trees (what ast.walk does) — or making a separate
        # pass per check — would multiply the cost of every verified
        # tier-1 promotion for nothing.  Per suite we track, position-
        # sensitively, whether budget/pc have been flushed yet (the
        # deopt-metadata checks) and, whole-suite, the count/charge
        # constants (the pairing check after the loop).
        saw_deopt = False
        for body in _suites(fn):
            counted = charged = None
            has_raise = returns_false = False
            flushed_budget = flushed_pc = False
            for stmt in body:
                cls = stmt.__class__
                if cls is ast.Assign:
                    target = stmt.targets[0]
                    if target.__class__ is not ast.Attribute \
                            or target.value.__class__ is not ast.Name:
                        continue
                    owner, attr = target.value.id, target.attr
                    v = stmt.value
                    if owner == "thread" and attr == "budget":
                        flushed_budget = True
                        if v.__class__ is ast.Name and v.id == "budget":
                            if charged is None:
                                charged = 0
                            continue
                        if (v.__class__ is ast.BinOp
                                and v.op.__class__ is ast.Sub
                                and v.right.__class__ is ast.Constant):
                            if charged is None:
                                charged = v.right.value
                            if (v.left.__class__ is ast.Name
                                    and v.left.id == "budget"):
                                k = v.right.value
                                if k not in prefix or k == 0:
                                    complain(
                                        stmt,
                                        f"budget flush charges {k}, not a "
                                        "cost-model prefix sum of the "
                                        "region")
                                continue
                        complain(stmt, "budget flush has unexpected shape")
                    elif owner == "frame" and attr == "pc":
                        flushed_pc = True
                        if v.__class__ is ast.Constant \
                                and not 0 <= v.value < self.n:
                            complain(
                                stmt,
                                f"frame.pc flushed to {v.value}, outside "
                                f"the dispatchable range [0, {self.n}) — "
                                "not a registered resume point")
                elif cls is ast.AugAssign:
                    target = stmt.target
                    op_cls = stmt.op.__class__
                    arith = op_cls is ast.Sub or op_cls is ast.Add
                    v = stmt.value
                    if target.__class__ is ast.Name:
                        if not arith or v.__class__ is not ast.Constant:
                            continue
                        if target.id == "budget":
                            if v.value not in prefix:
                                complain(
                                    stmt,
                                    f"local budget fold {v.value} is not "
                                    "a cost-model prefix sum")
                        elif target.id == "_ai":
                            if not 1 <= v.value <= nops:
                                complain(
                                    stmt,
                                    f"loop instruction fold {v.value} "
                                    f"exceeds the region's {nops} ops")
                    elif target.__class__ is ast.Attribute \
                            and target.value.__class__ is ast.Name:
                        owner, attr = target.value.id, target.attr
                        if owner == "thread" and attr == "budget":
                            flushed_budget = True
                            if arith and v.__class__ is ast.Constant \
                                    and v.value != tail_cost:
                                complain(
                                    stmt,
                                    f"post-call budget charge {v.value} "
                                    "!= the ending op's cost "
                                    f"{tail_cost}")
                        elif owner == "frame" and attr == "pc":
                            flushed_pc = True
                        elif owner == "_ct" and attr == "instructions":
                            if counted is None:
                                counted = _count_constant(v)
                            if arith:
                                k = _count_constant(v)
                                if k is not None and not 1 <= k <= nops:
                                    complain(
                                        stmt,
                                        f"instruction bump {k} exceeds "
                                        f"the region's {nops} ops")
                        elif owner == "_ct" and attr == "reference_cycles" \
                                and arith:
                            k = _cycles_constant(v)
                            if k is not None and k not in cycle_consts:
                                complain(
                                    stmt,
                                    f"cycle charge {k} is not a "
                                    "cost-model prefix sum of the region")
                elif cls is ast.Raise:
                    # Deopt-metadata completeness: every transfer out of
                    # compiled code must have flushed budget + pc first.
                    has_raise = True
                    if not flushed_budget:
                        complain(stmt, "raise without a preceding "
                                       "thread.budget flush in its suite")
                    if not flushed_pc:
                        complain(stmt, "raise without a preceding "
                                       "frame.pc flush — deopt would "
                                       "resume at a stale index")
                elif cls is ast.Return:
                    v = stmt.value
                    if v is not None and v.__class__ is ast.Constant \
                            and v.value is False:
                        returns_false = True
                elif cls is ast.Expr:
                    call = stmt.value
                    if call.__class__ is ast.Call \
                            and call.func.__class__ is ast.Name \
                            and call.func.id == "_deopt":
                        saw_deopt = True
                        if (len(call.args) == 2
                                and call.args[1].__class__ is ast.Constant
                                and call.args[1].value != end_pc):
                            complain(
                                stmt,
                                f"forced deopt transfers to pc "
                                f"{call.args[1].value}, region ends at "
                                f"{end_pc}")
                        if not flushed_budget:
                            complain(stmt,
                                     "forced deopt without a preceding "
                                     "thread.budget flush")
                        if not flushed_pc:
                            complain(stmt,
                                     "forced deopt without a preceding "
                                     "frame.pc flush")
                elif cls is ast.If or cls is ast.While:
                    test = stmt.test
                    if (test.__class__ is ast.Compare
                            and test.left.__class__ is ast.Name
                            and test.left.id == "budget"
                            and len(test.ops) == 1
                            and test.ops[0].__class__ is ast.LtE
                            and test.comparators[0].__class__
                            is ast.Constant):
                        k = test.comparators[0].value
                        if k not in prefix:
                            complain(
                                stmt,
                                f"budget guard constant {k} is not a "
                                "cost-model prefix sum of the region")
            # Count/charge pairing: a flush's instruction constant K and
            # its charged-cost constant C must describe the same exit
            # point.  A suite leaving via ``raise`` or a call transfer
            # (``return False`` with a ``frame.pc`` flush — a popped
            # return frame has none) counts the boundary op without
            # charging it (the reference raises with the instruction
            # counted, cost uncharged; invokes charge their own cost
            # post-call), so C == CUM[K-1]; every other flush charges
            # exactly the ops it counts, C == CUM[K].
            if counted is None or charged is None \
                    or not 1 <= counted <= nops:
                continue    # range violations are reported above
            uncharged_exit = has_raise or (returns_false and flushed_pc)
            want = cum_list[counted - 1] if uncharged_exit \
                else cum_list[counted]
            if charged != want:
                self.issue(
                    f"_b{leader}: flush counts {counted} instruction(s) "
                    f"but charges {charged} cycles — the cost model says "
                    f"{want} for this exit", pc=leader)

        if kind == "deopt" and not saw_deopt:
            complain(fn, "region carries the forced-deopt trap but never "
                         "calls _deopt")


# ----------------------------------------------------------------------
def _count_constant(value) -> int | None:
    """Constant part of an ``instructions +=`` expression, if any."""
    if isinstance(value, ast.Constant):
        return value.value
    if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add):
        # `_ai + K`: the constant is the in-flight tail count.
        if isinstance(value.right, ast.Constant) \
                and isinstance(value.left, ast.Name) \
                and value.left.id == "_ai":
            return value.right.value
    return None


def _cycles_constant(value) -> int | None:
    """Constant part of a ``reference_cycles +=`` expression, if any."""
    if isinstance(value, ast.Constant):
        return value.value
    if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add) \
            and isinstance(value.left, ast.Constant):
        # `K + (b0 - budget)`: K is the constant charge.
        return value.left.value
    return None


# ======================================================================
# Tier-2: emitted machine-code superblocks (repro.jit.emit2).
#
# Same philosophy as the tier-1 pass: the region walk, fusion rules and
# cost classification below deliberately *duplicate* the tier-2
# emitter's rather than import them — drift between emitter and
# verifier is the bug class this pass exists to surface.
# ======================================================================

#: Machine kinds that end a tier-2 region with the op included.
_T2_TERM_KINDS = frozenset({
    "ret", "callstatic", "callvirtual", "callhandle", "park", "wait",
})
_T2_REGION_CAP = 64


def _t2_const_cost(instr) -> int:
    """The cost portion the tier-2 emitter folds into compile-time
    prefix sums; variable-cost monitor ops charge at run time."""
    kind = instr[0]
    if kind == "monitorenter" or kind == "monitorexit_if_held":
        return 0
    if kind == "monitorexit" and instr[3] is not None:
        return 0
    return instr[1]


def _t2_scan(instrs, leader: int, deopt_at: int | None):
    ops: list[tuple] = []
    pc = leader
    n = len(instrs)
    while pc < n and len(ops) < _T2_REGION_CAP:
        if deopt_at is not None and pc == deopt_at:
            return ops, pc, "deopt"
        instr = instrs[pc]
        kind = instr[0]
        ops.append((pc, instr))
        if kind in _T2_TERM_KINDS:
            return ops, pc, "term"
        if kind == "jump":
            if instr[2] != pc + 1:
                return ops, pc, "term"
        elif kind == "branch":
            if instr[3] != pc + 1 and instr[4] != pc + 1:
                return ops, pc, "term"
        pc += 1
    return ops, pc, "split"


def verify_tier2_code(t2) -> list[StaticIssue]:
    """Check a :class:`repro.jit.emit2.Tier2Code` against the machine
    code's ground truth: entry-table legitimacy (an entry at any pc —
    region leader or parked mid-region — re-derives from an independent
    region walk from that pc; an empty slot is a block no frame has
    reached yet), per-block metadata, cost-model prefix sums in the
    generated source, deopt flush discipline, and compile-cycle totals."""
    return _gc_paused(_Tier2Verifier(t2).run)


def verify_tier2_block(t2, pc: int) -> list[StaticIssue]:
    """:func:`verify_tier2_code` for the one block entering at ``pc``
    plus the table-wide totals — what the driver runs on every block
    the moment it is emitted."""
    return _gc_paused(_Tier2Verifier(t2).run, pc)


class _Tier2Verifier:
    def __init__(self, t2) -> None:
        self.t2 = t2
        self.qualified = t2.method.qualified
        self.instrs = t2.code.instrs
        self.n = len(self.instrs)
        self.issues: list[StaticIssue] = []

    def issue(self, message: str, *, pc: int = -1,
              severity: str = "error") -> None:
        self.issues.append(StaticIssue(
            pass_name="blockverify", severity=severity,
            method=self.qualified, pc=pc, line=0, message=message))

    # ------------------------------------------------------------------
    def run(self, only: int | None = None) -> list[StaticIssue]:
        """Table-wide checks, then every emitted block re-derived from
        its own pc — or just the block at ``only``."""
        t2, n = self.t2, self.n
        if len(t2.entries) != n:
            self.issue(
                f"entry table has {len(t2.entries)} slots for {n} machine "
                "instructions — parked pcs would lose their entries")
            return self.issues

        metas: dict[int, tuple] = {}
        for leader, sites, cum, end_pc, kind, self_loop in t2.blocks:
            if leader in metas:
                self.issue(f"duplicate block metadata for leader "
                           f"{leader}", pc=leader)
                continue
            metas[leader] = (sites, cum, end_pc, kind, self_loop)
        compiled = {pc for pc, fn in enumerate(t2.entries)
                    if fn is not None}
        for pc in sorted(compiled - set(metas)):
            self.issue(f"entry at pc {pc} has no block metadata", pc=pc)
        for pc in sorted(set(metas) - compiled):
            self.issue(f"block metadata at pc {pc} has no entry", pc=pc)
        for pc in sorted(set(metas) ^ set(t2.source)):
            self.issue(f"block metadata and generated source disagree "
                       f"about a block at pc {pc}", pc=pc)
        for pc in sorted(compiled):
            fn = t2.entries[pc]
            name = getattr(fn, "__name__", "?")
            if name != f"_m{pc}":
                self.issue(
                    f"entry at pc {pc} is block function {name!r} "
                    f"(expected _m{pc}) — entry table miswired", pc=pc)

        # Totals: the simulated compile-time these feed is part of the
        # tier-metric contract.
        want_sites = sum(meta[0] for meta in metas.values())
        if t2.nblocks != len(metas):
            self.issue(f"nblocks={t2.nblocks} but {len(metas)} block "
                       "metadata records exist")
        if t2.sites != want_sites:
            self.issue(f"sites={t2.sites} but block metadata sums to "
                       f"{want_sites}")
        want_cycles = (t2.sites * TIER2_COMPILE_SITE_COST
                       + t2.nblocks * TIER2_COMPILE_BLOCK_COST)
        if t2.compile_cycles != want_cycles:
            self.issue(
                f"compile_cycles={t2.compile_cycles} != "
                f"sites*{TIER2_COMPILE_SITE_COST} + "
                f"nblocks*{TIER2_COMPILE_BLOCK_COST} = {want_cycles}")

        if only is None:
            for leader in sorted(metas):
                self._check_block(leader, *metas[leader])
        elif only in metas:
            self._check_block(only, *metas[only])
        else:
            self.issue(f"no block was emitted at pc {only}", pc=only)
        return self.issues

    def _check_block(self, leader, sites, cum, end_pc, kind,
                     self_loop) -> None:
        """Re-derive one block (a region leader and a pc parked
        mid-region alike) from its own pc: any in-range pc must scan to
        the region the emitter recorded and generated."""
        if not 0 <= leader < self.n:
            self.issue(f"block leader {leader} outside the machine "
                       f"code [0, {self.n})", pc=leader)
            return
        ops, want_end, want_kind = _t2_scan(
            self.instrs, leader, self.t2.deopt_at)
        if sites != len(ops):
            self.issue(
                f"block at {leader} records {sites} sites, the region "
                f"walk consumes {len(ops)} ops", pc=leader)
        if (end_pc, kind) != (want_end, want_kind):
            self.issue(
                f"block at {leader} records end={end_pc}/{kind}, the "
                f"region walk says end={want_end}/{want_kind}",
                pc=leader)
        want_cum = sum(_t2_const_cost(i) for _, i in ops)
        if want_kind == "term" and ops:
            want_cum -= _t2_const_cost(ops[-1][1])
        if cum != want_cum:
            self.issue(
                f"block at {leader} records charged prefix {cum}, the "
                f"cost model sums to {want_cum}", pc=leader)
        want_loop = any(
            (i[0] == "jump" and i[2] == leader)
            or (i[0] == "branch" and (i[3] == leader
                                      or i[4] == leader))
            for _, i in ops)
        if self_loop != want_loop:
            self.issue(
                f"block at {leader} records self_loop={self_loop}, "
                f"the region walk says {want_loop}", pc=leader)

        # The block's generated source: exactly its one function.
        try:
            body = ast.parse(self.t2.source.get(leader, "")).body
        except SyntaxError as exc:
            self.issue(f"generated source of the block at {leader} does "
                       f"not parse: {exc}", pc=leader)
            return
        if (len(body) != 1 or not isinstance(body[0], ast.FunctionDef)
                or body[0].name != f"_m{leader}"):
            self.issue(f"source of the block at pc {leader} is not the "
                       f"one generated function _m{leader}", pc=leader)
            return
        self._check_function(body[0], leader, ops, want_end, want_kind)

    # ------------------------------------------------------------------
    def _check_function(self, fn, leader, ops, end_pc, kind) -> None:
        # Prefix sums of the constant per-op cost over the region body
        # (a terminator's cost is charged at its exit, never folded).
        body_ops = ops[:-1] if kind == "term" else ops
        prefix = {0}
        cum = 0
        for _pc, instr in body_ops:
            cum += _t2_const_cost(instr)
            prefix.add(cum)
        # Exit charges: a flush may charge the running prefix alone (a
        # raise counts the op but charges nothing) or prefix + the
        # exiting op's full cost (taken branches, calls, guards, park).
        charges = set(prefix)
        folds = set(charges)
        running = 0
        nops = len(ops)
        for index, (_pc, instr) in enumerate(ops):
            charges.add(running + instr[1])
            kind_i = instr[0]
            if kind_i == "monitorenter":
                # Coarsened held-chunk fast path / real acquisition.
                folds.add(1)
                folds.add(instr[1])
            elif kind_i == "monitorexit" and instr[3] is not None:
                folds.add(1)
                folds.add(instr[1])
            elif kind_i == "monitorexit_if_held":
                folds.add(18)       # drained chunk pays a real release
                folds.add(instr[1])
            if index < len(body_ops):
                running += _t2_const_cost(instr)
        folds |= charges

        def complain(msg):
            self.issue(f"_m{leader}: {msg}", pc=leader)

        saw_trap = False
        for body in _suites(fn):
            flushed_budget = flushed_pc = False
            for stmt in body:
                cls = stmt.__class__
                if cls is ast.Assign:
                    target = stmt.targets[0]
                    if target.__class__ is not ast.Attribute \
                            or target.value.__class__ is not ast.Name:
                        continue
                    owner, attr = target.value.id, target.attr
                    v = stmt.value
                    if owner == "thread" and attr == "budget":
                        flushed_budget = True
                        if v.__class__ is ast.Name and v.id == "budget":
                            continue
                        if (v.__class__ is ast.BinOp
                                and v.op.__class__ is ast.Sub
                                and v.left.__class__ is ast.Name
                                and v.left.id == "budget"
                                and v.right.__class__ is ast.Constant):
                            k = v.right.value
                            if k not in charges or k == 0:
                                complain(
                                    f"budget flush charges {k}, not a "
                                    "cost-model prefix/exit sum of the "
                                    "region")
                            continue
                        complain("budget flush has unexpected shape")
                    elif owner == "frame" and attr == "pc":
                        flushed_pc = True
                        if v.__class__ is ast.Constant \
                                and not 0 <= v.value < self.n:
                            complain(
                                f"frame.pc flushed to {v.value}, outside "
                                f"the machine code [0, {self.n}) — not a "
                                "resumable index")
                elif cls is ast.AugAssign:
                    target = stmt.target
                    op_cls = stmt.op.__class__
                    arith = op_cls is ast.Sub or op_cls is ast.Add
                    v = stmt.value
                    if not arith or v.__class__ is not ast.Constant:
                        continue
                    if target.__class__ is ast.Name:
                        if target.id == "budget":
                            if v.value not in folds:
                                complain(
                                    f"local budget fold {v.value} is not "
                                    "a cost-model prefix/exit sum")
                        elif target.id == "_ai":
                            if not 1 <= v.value <= nops:
                                complain(
                                    f"loop instruction fold {v.value} "
                                    f"exceeds the region's {nops} ops")
                    elif target.__class__ is ast.Attribute \
                            and target.value.__class__ is ast.Name \
                            and target.value.id == "_ct":
                        if target.attr == "instructions":
                            k = _count_constant(v)
                            if k is not None and not 0 <= k <= nops:
                                complain(
                                    f"instruction bump {k} exceeds the "
                                    f"region's {nops} ops")
                        elif target.attr == "reference_cycles":
                            k = _cycles_constant(v)
                            if k is not None and k not in charges:
                                complain(
                                    f"cycle charge {k} is not a "
                                    "cost-model prefix/exit sum of the "
                                    "region")
                elif cls is ast.Raise:
                    exc = stmt.exc
                    if exc is not None and exc.__class__ is ast.Name \
                            and exc.id == "_IE":
                        continue    # internal bounds-probe, caught inline
                    if not flushed_budget:
                        complain("raise without a preceding thread.budget "
                                 "flush in its suite")
                    if not flushed_pc:
                        complain("raise without a preceding frame.pc "
                                 "flush — the machine would resume at a "
                                 "stale index")
                elif cls is ast.Expr:
                    call = stmt.value
                    if call.__class__ is ast.Call \
                            and call.func.__class__ is ast.Name \
                            and call.func.id == "_deopt2":
                        saw_trap = True
                        if (len(call.args) == 2
                                and call.args[1].__class__ is ast.Constant
                                and call.args[1].value != end_pc):
                            complain(
                                f"forced trap transfers to pc "
                                f"{call.args[1].value}, region ends at "
                                f"{end_pc}")
                        if not flushed_budget or not flushed_pc:
                            complain("forced trap without a preceding "
                                     "budget + pc flush")
                elif cls is ast.If or cls is ast.While:
                    test = stmt.test
                    if (test.__class__ is ast.Compare
                            and test.left.__class__ is ast.Name
                            and test.left.id == "budget"
                            and len(test.ops) == 1
                            and test.ops[0].__class__ is ast.LtE
                            and test.comparators[0].__class__
                            is ast.Constant):
                        k = test.comparators[0].value
                        if k not in prefix:
                            complain(
                                f"budget guard constant {k} is not a "
                                "cost-model prefix sum of the region")
        if kind == "deopt" and not saw_trap:
            complain("region carries the forced trap but never calls "
                     "_deopt2")


def _suites(fn) -> list:
    """Every statement suite of ``fn``: any list-of-statements field
    (``body`` / ``orelse`` / ``finalbody`` / handler bodies), nested
    suites included.  Only statements are traversed — never expression
    trees — because every accounting construct the checks care about
    sits at statement level in the emitted source; this runs on every
    block function of every verified tier-1 promotion, where the
    repeated full-tree ``ast.walk`` generators it replaces dominated
    the cost.
    """
    suites = [fn.body]
    index = 0
    while index < len(suites):
        for stmt in suites[index]:
            # Every compound statement (if/while/for/try/with) has a
            # .body; simple statements — the vast majority — cost one
            # getattr and move on.
            body = getattr(stmt, "body", None)
            if body is None:
                continue
            suites.append(body)
            orelse = getattr(stmt, "orelse", None)
            if orelse:
                suites.append(orelse)
            finalbody = getattr(stmt, "finalbody", None)
            if finalbody:
                suites.append(finalbody)
            for handler in getattr(stmt, "handlers", ()) or ():
                suites.append(handler.body)
        index += 1
    return suites
