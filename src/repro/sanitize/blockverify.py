"""Static validation of host superblocks against their ground truth.

Both host tiers compile guest code into flat Python closures —
:mod:`repro.jit.emit` (tier-1) from method bytecode,
:mod:`repro.jit.emit2` (tier-2) from guest-JIT machine code — and both
follow one exit protocol: batched budget comparisons,
instruction/cycle constants, and ``frame.pc`` exits that must land on
resumable indices.  This module re-derives all of that *independently*
— its own region walks and its own prefix sums over
:mod:`repro.jvm.costmodel` and the machine code's costs — then checks
the emitted :class:`~repro.jit.emit.Tier1Code` or
:class:`~repro.jit.emit2.Tier2Code` (entry table, totals, and the
generated source via ``ast``) against that ground truth:

- **entry legitimacy**: the entry table has exactly one slot per
  instruction, and compiled entries sit exactly on the region leaders
  the code's CFG defines (branch targets, resume points after calls and
  scheduler ops, cap-split continuations — never a scheduler op, which
  both tiers leave to the engine below); every other pc resumes on
  the engine below;
- **cost accounting** (one walker, :meth:`_Verifier.check_function`,
  with each tier's legal arguments from its one cost function): every
  exit is one ``_x`` call whose instruction count lies in the region
  and pairs with the prefix sum it charges and whose ``frame.pc`` is
  where those ops leave to; a ``budget <= K`` guard exits charging
  ``K`` at the next op's pc;
- **exit state**: nothing but ``_x`` writes budget, pc or counters, and
  every ``raise`` follows an ``_x`` call parking the pc, so the failure
  the guest observes carries engine-identical counters;
- **totals**: ``sites``/``nblocks``/``compile_cycles`` must match the
  region walk exactly (the simulated compile-time these feed is part of
  the byte-identity contract).

The op categories below deliberately *duplicate* the emitters' rather
than import them: drift between emitter and verifier is precisely the
class of bug this pass exists to surface.
"""

from __future__ import annotations

import ast
import gc
from typing import NamedTuple

from repro.errors import VMError
from repro.jvm.bytecode import INVOKES, TERMINATORS, Op
from repro.jvm.costmodel import (
    INTERP_COST,
    TIER1_COMPILE_BLOCK_COST,
    TIER1_COMPILE_SITE_COST,
    TIER2_COMPILE_BLOCK_COST,
    TIER2_COMPILE_SITE_COST,
)
from repro.sanitize.reports import StaticIssue

__all__ = ["BlockVerifyError", "verify_tier1_code", "expected_regions",
           "verify_tier2_code", "verify_tier2_block", "check_emitted"]


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


def check_emitted(vm, code, pc: int | None = None) -> None:
    """The drivers' ``verify_ir`` hook for host code just emitted:
    a whole :class:`Tier1Code` (``pc`` None) or the one tier-2 block
    entering at ``pc``.  Counts into ``vm.irverify_stats``; any issue
    raises — a verification failure is never a fallback."""
    if pc is None:
        issues, blocks = verify_tier1_code(code, code.method), code.nblocks
    else:
        issues, blocks = verify_tier2_block(code, pc), 1
    stats = vm.irverify_stats
    stats["blocks"] = stats.get("blocks", 0) + blocks
    stats["issues"] = stats.get("issues", 0) + len(issues)
    if issues:
        raise BlockVerifyError(code.method.qualified, issues,
                               tier="tier-1" if pc is None else "tier-2")


def _gc_paused(check, *args):
    # Parsing emitted source allocates tens of thousands of AST nodes,
    # all dead by return; without this guard the burst trips the gen-0
    # threshold repeatedly and every triggered collection rescans the
    # VM's young heap (see verify_graph, which does the same).
    enabled = gc.isenabled()
    if enabled:
        gc.disable()
    try:
        return check(*args)
    finally:
        if enabled:
            gc.enable()


# ======================================================================
# The exit protocol's legal arguments, and the one walker checking them.
# ======================================================================
class _Accounting(NamedTuple):
    """What one region's exits may pass the exit function ``_x``."""

    cum: list               # cum[k]: constant cost of the first k ops
    pcs: list               # pcs[k-1]: where an exit counting k ops may
    #                         park (None: a return pops the frame)
    post_call: int | None   # ``thread.budget -= K`` after an ending
    #                         call; a tier charging calls after the call
    #                         exits them uncharged (tier-1 only)
    internal: frozenset     # raised names the block catches itself


def _accounting(ops, cost, exits, *, post_call: int | None = None,
                internal=frozenset()) -> _Accounting:
    """Legal exit arguments of the region ``ops``: ``cost`` is each
    op's constant cost, ``exits(pc, instr)`` where it may leave to."""
    cum = [0]
    for _pc, instr in ops:
        cum.append(cum[-1] + cost(instr))
    return _Accounting(cum, [exits(pc, instr) for pc, instr in ops],
                       post_call, frozenset(internal))


#: Exit state no statement but ``_x`` writes (tier-1's invoke tail aside).
_EXIT_STATE = frozenset({("thread", "budget"), ("frame", "pc"),
                         ("_ct", "instructions"), ("_ct", "reference_cycles")})


def _exit_args(value):
    """``((b0, ai), charged, counted, pc, reason)`` when ``value`` calls
    ``_x`` (False when those are not names and constants), else None."""
    if value.__class__ is not ast.Call or value.func.__class__ \
            is not ast.Name or value.func.id != "_x":
        return None
    args = value.args
    if len(args) not in (8, 9) or value.keywords or not all(
            a.__class__ is ast.Constant for a in args[5:]):
        return False
    b0, ai = (getattr(a, "id", getattr(a, "value", None))
              for a in args[3:5])
    reason = args[8].value if len(args) == 9 else None
    return (b0, ai), args[5].value, args[6].value, args[7].value, reason


class _Verifier:
    def __init__(self, qualified: str, n: int) -> None:
        self.qualified = qualified
        self.n = n                    # resumable pcs are [0, n)
        self.issues: list[StaticIssue] = []

    def issue(self, message: str, *, pc: int = -1,
              severity: str = "error") -> None:
        self.issues.append(StaticIssue(
            pass_name="blockverify", severity=severity,
            method=self.qualified, pc=pc, line=0, message=message))

    def check_function(self, fn, leader: int, acct: _Accounting) -> None:
        """The one accounting walker over a block function.

        Every exit is a call ``_x(thread, frame, budget, b0, ai,
        charged, counted, pc[, reason])``; the walker reads its
        constant arguments, visiting statements only (never expression
        trees: exits and guards sit at statement level).  A ``budget <=
        K`` guard must charge ``K``, a ``raise`` must follow an exit
        parking the pc, and nothing else may write the exit state."""
        cum, pcs, post_call = acct.cum, acct.pcs, acct.post_call
        nops = len(cum) - 1
        prefixes = frozenset(cum)
        # Tier-1's invoke tail after its uncharged exit.
        tail = () if post_call is None else {
            f"frame.pc = {leader + nops}", f"thread.budget -= {post_call}",
            f"_ct.reference_cycles += {post_call}"}
        # What the prologue tracks: every exit must pass it on.
        bound = {stmt.targets[0].id for stmt in fn.body
                 if stmt.__class__ is ast.Assign
                 and stmt.targets[0].__class__ is ast.Name}
        tracked = ("b0" if "b0" in bound else "budget",
                   "_ai" if "_ai" in bound else 0)

        def complain(msg):
            self.issue(f"{fn.name}: {msg}", pc=leader)

        for body in _suites(fn):
            exits = []
            has_raise = returns_false = parked = False
            for stmt in body:
                cls = stmt.__class__
                if cls is ast.Expr or cls is ast.Return:
                    value = stmt.value
                    args = None if value is None else _exit_args(value)
                    if args:
                        exits.append(args)
                        parked = parked or None not in args[3:]
                    elif args is False:
                        complain("exit call has non-constant arguments: "
                                 + ast.unparse(value))
                    elif value.__class__ is ast.Constant \
                            and value.value is False:
                        returns_false = True
                elif cls is ast.Raise:
                    exc = stmt.exc
                    if exc.__class__ is ast.Name and exc.id in acct.internal:
                        continue
                    has_raise = True
                    if not parked:
                        complain("raise without a preceding _x exit "
                                 "parking frame.pc and counting a reason"
                                 " — the failure would record stale state")
                elif cls is ast.If:
                    test = stmt.test
                    if (test.__class__ is ast.Compare
                            and test.left.__class__ is ast.Name
                            and test.left.id == "budget"
                            and test.ops[0].__class__ is ast.LtE
                            and test.comparators[0].__class__
                            is ast.Constant):
                        k = test.comparators[0].value
                        last = stmt.body[-1]
                        args = last.__class__ is ast.Return \
                            and _exit_args(last.value)
                        if not args or (args[1], args[4]) != (k, "budget"):
                            complain(f"budget guard <= {k} does not return "
                                     f"a budget flush charging {k}")
                elif cls is ast.AugAssign or cls is ast.Assign:
                    target = getattr(stmt, "target", None) \
                        or stmt.targets[0]
                    v = stmt.value
                    if target.__class__ is ast.Name:
                        if cls is ast.Assign \
                                or v.__class__ is not ast.Constant:
                            continue
                        if target.id == "budget" \
                                and v.value not in prefixes:
                            complain(f"local budget fold {v.value} is "
                                     "not a cost-model prefix sum")
                        elif target.id == "_ai" \
                                and not 1 <= v.value <= nops:
                            complain(f"loop instruction fold {v.value} "
                                     f"exceeds the region's {nops} ops")
                    elif target.__class__ is ast.Attribute \
                            and target.value.__class__ is ast.Name \
                            and (target.value.id, target.attr) \
                            in _EXIT_STATE:
                        line = ast.unparse(stmt)
                        if line not in tail:
                            complain(f"exit state written outside _x: "
                                     f"{line}")
            # Count/charge pairing: an exit counting K ops charges
            # CUM[K] — unless it leaves via ``raise`` (the engine
            # raises with the faulting op counted, its cost uncharged)
            # or is tier-1's call transfer (a parked pc, then ``return
            # False``), whose invoke charges itself post-call: CUM[K-1].
            deferred = has_raise or (post_call is not None
                                     and returns_false)
            for locals_, charged, counted, pc, reason in exits:
                if locals_ != tracked:
                    complain(f"exit passes b0, ai = {locals_}; the block "
                             f"tracks {tracked}")
                if charged not in prefixes:
                    complain(f"budget flush charges {charged}, not a "
                             "cost-model prefix sum of the region")
                    continue
                if not 0 <= counted <= nops:
                    complain(f"exit counts {counted} instruction(s), "
                             f"outside the region's {nops} ops")
                    continue
                uncharged = deferred and pc is not None
                want = cum[counted - 1] if uncharged and counted \
                    else cum[counted]
                if charged != want or (uncharged and not counted):
                    complain(f"flush counts {counted} instruction(s) but "
                             f"charges {charged} cycles — the cost model "
                             f"says {want} for this exit")
                if pc is not None and not 0 <= pc < self.n:
                    complain(f"frame.pc flushed to {pc}, outside "
                             f"[0, {self.n}) — not a resumable index")
                # A budget exit parks on the next op, any other counted
                # reason (a raise, a failed guard) on the faulting one.
                elif pc not in ((leader + counted,) if reason == "budget"
                                else (leader + counted - 1,) if reason
                                else pcs[counted - 1] if counted
                                else (leader,)):
                    complain(f"exit counting {counted} op(s) parks at pc "
                             f"{pc} ({reason}), where the counted ops do "
                             "not leave to")


def _suites(fn) -> list:
    """Every statement suite of ``fn``: any list-of-statements field
    (``body`` / ``orelse`` / ``finalbody`` / handler bodies), nested
    suites included.  Expression trees are never traversed: the exit
    protocol sits at statement level, and this runs on every verified
    block."""
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


# ======================================================================
# Tier-1: emitted bytecode superblocks (repro.jit.emit).
# ======================================================================
_BAIL_OPS = frozenset({
    Op.MONITORENTER, Op.MONITOREXIT,
    Op.PARK, Op.UNPARK, Op.WAIT, Op.NOTIFY, Op.NOTIFYALL,
})
_REGION_CAP = 64


def _t1_cost(instr) -> int:
    return INTERP_COST[instr.op]


def _t1_exits(pc: int, instr) -> tuple:
    """Where an exit counting ``instr`` parks when it has no reason."""
    op = instr.op
    if op is Op.RETURN or op is Op.RETVAL:
        return (None,)
    if op is Op.GOTO:
        return (instr.arg,)
    if op is Op.IFZ:
        return (pc + 1, instr.arg[1])
    return (pc,) if op in INVOKES and op is not Op.INVOKEDYNAMIC \
        else (pc + 1,)


def expected_regions(code) -> dict:
    """Ground-truth region table: ``leader -> (ops, end_pc, kind)``.

    ``ops`` is the ``[(pc, instr), ...]`` list the region executes,
    ``kind`` one of ``"term" | "bail" | "split"``.  Leaders
    whose region would be empty (the leader pc holds a bail op) are
    omitted — those pcs stay on the threaded tier.
    """
    n = len(code)
    leaders = {0}
    for pc, instr in enumerate(code):
        if instr.op is Op.GOTO:
            leaders.add(instr.arg)
        elif instr.op is Op.IFZ:
            leaders.add(instr.arg[1])
        elif instr.op in _BAIL_OPS or instr.op in INVOKES:
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
            ops.append((pc, instr))
            if instr.op in TERMINATORS or instr.op in INVOKES:
                kind = "term"
                break
            pc += 1
        else:
            kind = "split"
        end_pc = pc
        if kind == "split" and end_pc < n and end_pc not in seen:
            seen.add(end_pc)
            pending.append(end_pc)
        if not ops:
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
    return _gc_paused(
        _Tier1Verifier(code_obj, method.qualified, len(method.code)).run,
        method.code)


class _Tier1Verifier(_Verifier):
    def __init__(self, code_obj, qualified: str, n: int) -> None:
        super().__init__(qualified, n)
        self.code_obj = code_obj

    def run(self, bytecode) -> list[StaticIssue]:
        code_obj, n = self.code_obj, self.n
        regions = expected_regions(bytecode)
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
        for leader, (ops, _end, kind) in sorted(regions.items()):
            fn = fns.get(f"_b{leader}")
            if fn is None:
                self.issue(f"no generated function _b{leader} for region "
                           f"at pc {leader}", pc=leader)
                continue
            # The region-ending invoke charges its own cost post-call.
            self.check_function(fn, leader, _accounting(
                ops, _t1_cost, _t1_exits,
                post_call=_t1_cost(ops[-1][1]) if kind == "term" else None))
        return self.issues


# ======================================================================
# Tier-2: emitted machine-code superblocks (repro.jit.emit2).
# ======================================================================

#: Machine kinds that end a tier-2 region with the op included.
_T2_TERM_KINDS = frozenset({"ret", "callstatic", "callvirtual",
                            "callhandle"})
#: Machine kinds a tier-2 region stops before: the scheduler ops, which
#: run on the interpretive machine.
_T2_BAIL_KINDS = frozenset({
    "monitorenter", "monitorexit", "monitorexit_if_held",
    "park", "unpark", "wait", "notify", "notifyall",
})
_T2_REGION_CAP = 64


def _t2_cost(instr) -> int:
    return instr[1]


def _t2_exits(pc: int, instr) -> tuple:
    """Where an exit counting ``instr`` parks when it has no reason."""
    kind = instr[0]
    if kind == "ret":
        return (None,)
    if kind == "jump":
        return (instr[2],)
    if kind == "branch":
        return (pc + 1, instr[3], instr[4])
    return (pc + 1,)


def _t2_scan(instrs, leader: int):
    ops: list[tuple] = []
    pc = leader
    n = len(instrs)
    while pc < n:
        instr = instrs[pc]
        kind = instr[0]
        if kind in _T2_BAIL_KINDS:
            return ops, pc, "bail"
        if len(ops) == _T2_REGION_CAP:
            break
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


def _t2_leaders(instrs) -> set[int]:
    """Tier-2 region leaders: entry, jump/branch targets, the pc after
    every call and scheduler op, closed under the region walk's cap
    splits — minus any pc holding a scheduler op."""
    n = len(instrs)
    leaders = {0}
    for pc, instr in enumerate(instrs):
        kind = instr[0]
        if kind == "jump":
            leaders.add(instr[2])
        elif kind == "branch":
            leaders.update((instr[3], instr[4]))
        elif kind in ("callstatic", "callvirtual", "callhandle") \
                or kind in _T2_BAIL_KINDS:
            leaders.add(pc + 1)
    leaders = {pc for pc in leaders
               if pc < n and instrs[pc][0] not in _T2_BAIL_KINDS}
    pending = list(leaders)
    while pending:
        _, end_pc, kind = _t2_scan(instrs, pending.pop())
        if kind == "split" and end_pc < n and end_pc not in leaders:
            leaders.add(end_pc)
            pending.append(end_pc)
    return leaders


def verify_tier2_code(t2) -> list[StaticIssue]:
    """Check a :class:`repro.jit.emit2.Tier2Code` against the machine
    code's ground truth: entry-table legitimacy (entries, block records
    and sources sit on independently re-derived region leaders only; an
    empty slot is a block no frame has reached yet), the ``stops`` list
    the interpreted stretches run over, per-block metadata, cost-model
    prefix sums in the generated source, exit flush discipline, and
    compile-cycle totals."""
    return _gc_paused(_Tier2Verifier(t2).run)


def verify_tier2_block(t2, pc: int) -> list[StaticIssue]:
    """:func:`verify_tier2_code` for the one block entering at ``pc``
    plus the table-wide totals — what the driver runs on every block
    the moment it is emitted."""
    return _gc_paused(_Tier2Verifier(t2).run, pc)


class _Tier2Verifier(_Verifier):
    def __init__(self, t2) -> None:
        super().__init__(t2.method.qualified, len(t2.code.instrs))
        self.t2 = t2
        self.instrs = t2.code.instrs

    # ------------------------------------------------------------------
    def run(self, only: int | None = None) -> list[StaticIssue]:
        """Table-wide checks, then every emitted block re-derived from
        its own pc — or just the block at ``only``."""
        t2, n = self.t2, self.n
        if len(t2.entries) != n:
            self.issue(
                f"entry table has {len(t2.entries)} slots for {n} machine "
                "instructions")
            return self.issues
        leaders = _t2_leaders(self.instrs)
        if t2.stops != [("stop", 0) if pc in leaders else instr
                        for pc, instr in enumerate(self.instrs)]:
            self.issue("stops differs from the machine code with a stop "
                       "at exactly the region leaders — an interpreted "
                       "resume would not end at the next leader")

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
        for pc in sorted((compiled | set(metas) | set(t2.source))
                         - leaders):
            self.issue(f"block at pc {pc}, which is not a region leader "
                       "— a frame parked there must resume interpreted",
                       pc=pc)
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
        """Re-derive one block from its leader: the region walk from
        that pc must give what the emitter recorded and generated."""
        if not 0 <= leader < self.n:
            self.issue(f"block leader {leader} outside the machine "
                       f"code [0, {self.n})", pc=leader)
            return
        ops, want_end, want_kind = _t2_scan(self.instrs, leader)
        if sites != len(ops):
            self.issue(
                f"block at {leader} records {sites} sites, the region "
                f"walk consumes {len(ops)} ops", pc=leader)
        if (end_pc, kind) != (want_end, want_kind):
            self.issue(
                f"block at {leader} records end={end_pc}/{kind}, the "
                f"region walk says end={want_end}/{want_kind}",
                pc=leader)
        # ``_IE`` is the aload/astore bounds probe, caught inline.
        acct = _accounting(ops, _t2_cost, _t2_exits, internal={"_IE"})
        want_cum = acct.cum[len(ops) - (want_kind == "term")]
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
        self.check_function(body[0], leader, acct)
