"""Cycle cost model of the simulated JVM.

All "time" in the reproduction is expressed in *simulated cycles*.  The
interpreter charges ``INTERP_COST[op]`` (``BASE_COST[op] +
INTERP_DISPATCH``) per executed bytecode; JIT-compiled code charges per
lowered machine operation (see :mod:`repro.jit.machine`), which is how
compilation — and each individual optimization — becomes measurable,
exactly as in the paper's selective-disable methodology (Section 6).

The absolute numbers are loosely calibrated to x86 intuition (a CAS is an
order of magnitude more expensive than an add; a monitor operation more
expensive still; allocation costs scale with size).  The reproduction's
claims only depend on these *relative* magnitudes.
"""

from __future__ import annotations

from repro.jvm.bytecode import Op

# Extra cycles the template interpreter pays per bytecode for dispatch,
# operand-stack traffic and profiling counters.
INTERP_DISPATCH = 5

# Penalty in cycles for a miss in each cache level (added to the memory
# operation's base cost by the heap access path).
L1_MISS_PENALTY = 8
LLC_MISS_PENALTY = 40

# Cost of taking a deoptimization (state transfer + interpreter re-entry).
DEOPT_COST = 400

# Simulated compile "time" of the host tier-1 engine (repro.jit.emit),
# reported per promotion through the tier metrics.  These cycles are
# bookkeeping only — they are never charged to a thread's budget or to
# reference_cycles, because the reference interpreter has no host tiers
# and the tier ladder must stay byte-identical to it.
TIER1_COMPILE_SITE_COST = 40     # per emitted instruction site
TIER1_COMPILE_BLOCK_COST = 200   # per superblock (region setup/exits)

# Simulated compile "time" of the host tier-2 engine (repro.jit.emit2),
# which consumes the already-lowered machine code rather than bytecode,
# so a site is cheaper than tier-1's.  Same contract as the tier-1
# constants: host bookkeeping only, never charged to budgets or
# reference_cycles.
TIER2_COMPILE_SITE_COST = 30     # per lowered machine-op site
TIER2_COMPILE_BLOCK_COST = 150   # per superblock (region setup/exits)

# Baseline per-operation cycle costs.
BASE_COST: dict[Op, int] = {
    Op.CONST: 1,
    Op.LOAD: 1,
    Op.STORE: 1,
    Op.POP: 1,
    Op.DUP: 1,
    Op.ADD: 1,
    Op.SUB: 1,
    Op.MUL: 3,
    Op.DIV: 12,
    Op.REM: 12,
    Op.NEG: 1,
    Op.SHL: 1,
    Op.SHR: 1,
    Op.AND: 1,
    Op.OR: 1,
    Op.XOR: 1,
    Op.NOT: 1,
    Op.I2D: 2,
    Op.D2I: 2,
    Op.CMP: 1,
    Op.GOTO: 1,
    Op.IFZ: 1,
    Op.RETURN: 2,
    Op.RETVAL: 2,
    Op.NEW: 16,
    Op.GETFIELD: 2,
    Op.PUTFIELD: 2,
    Op.GETSTATIC: 2,
    Op.PUTSTATIC: 2,
    Op.INSTANCEOF: 3,
    Op.CHECKCAST: 3,
    Op.NEWARRAY: 16,
    Op.ALOAD: 3,      # includes the implicit bounds check in the interpreter
    Op.ASTORE: 3,
    Op.ARRAYLEN: 1,
    Op.INVOKESTATIC: 10,
    Op.INVOKESPECIAL: 10,
    Op.INVOKEVIRTUAL: 14,
    Op.INVOKEDYNAMIC: 24,   # bootstrap is amortized; closure allocation included
    Op.INVOKEHANDLE: 40,    # polymorphic MethodHandle.invoke: type
                            # adaptation + invokeBasic when not folded
    Op.MONITORENTER: 20,
    Op.MONITOREXIT: 18,
    Op.CAS: 26,
    Op.ATOMIC_GET: 4,
    Op.ATOMIC_ADD: 26,
    Op.PARK: 40,
    Op.UNPARK: 30,
    Op.WAIT: 40,
    Op.NOTIFY: 25,
    Op.NOTIFYALL: 30,
}

# Interpreter cost per opcode, dispatch included: what every
# interpreting engine (reference, threaded, tier-1) charges before
# run-time penalties.  The only per-op interpreter cost table.
INTERP_COST: dict[Op, int] = {
    op: cost + INTERP_DISPATCH for op, cost in BASE_COST.items()
}

# Incremental allocation cost: cycles charged per 8-byte word initialized.
ALLOC_WORD_COST = 1

# Compiled-code specific costs (lowered ops that have no bytecode form).
GUARD_COST = 2            # an explicit guard (null check, bounds check, type check)
SAFEPOINT_COST = 1        # loop safepoint poll
VECTOR_LANES = 4          # elements processed per vector op
DIRECT_CALL_COST = 8      # devirtualized/direct call is cheaper than virtual


def alloc_cost(words: int) -> int:
    """Cycles to allocate and zero an object or array of ``words`` words."""
    return ALLOC_WORD_COST * max(0, words)
