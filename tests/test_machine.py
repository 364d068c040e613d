"""Frozen oracle for the interpretive :class:`~repro.jit.machine.Machine`.

Every engine-equivalence test compares engines that share the
Machine's loop as their JIT executor, so an accounting slip inside it
would move all of them together.  These runs pin, as literals recorded
before the loop was last rewritten, the counters, simulated clock and
outcome of jitted runs on the default engine that reach each way out
of the loop: budget exhaustion, calls and returns, guard-failure deopt,
contended and coarsened monitors, park and wait, and a guest fault
raised by compiled code.
"""

from __future__ import annotations

import pytest

from repro.errors import GuestRuntimeError, VMError
from repro.jit.pipeline import graal_config
from repro.lang import compile_program
from repro.runtime import VM

#: A hot loop over most machine kinds: arithmetic, shifts, division,
#: doubles, string concatenation, arrays, fields, statics, type tests,
#: allocation and a lambda call.  ``step`` is compiled after 32 calls.
LOOP_SRC = """
class Conf { static var bias = 5; }
class P { var x; var y; def init(x, y) { this.x = x; this.y = y; } }
class Q extends P { def init(x, y) { this.x = x; this.y = y; } }
class Bench {
    static def run(n) {
        var acc = 0;
        var s = "";
        var j = 0;
        var f = fun (v) v * 3 + 1;
        while (j < 40) {
            acc = acc + Bench.step(n, j, f);
            if (j % 13 == 0) { s = s + j + ":"; }
            j = j + 1;
        }
        return s + acc;
    }
    static def step(n, j, f) {
        var a = new int[n];
        var p = new P(j, 2);
        if (j % 2 == 0) { p = new Q(j, 3); }
        var s = 0;
        var i = 0;
        while (i < n) {
            a[i] = (i * p.y + j) % 11;
            s = s + a[i] * 3 - (i / 3) + ((i << 2) >> 1) ^ (i & 6);
            i = i + 1;
        }
        if (p instanceof Q) { s = s + cast(Q, p).x; }
        s = s + d2i(i2d(s) * 0.5) + Conf.bias;
        Conf.bias = Conf.bias + 1;
        return s + f(j);
    }
}
"""

#: A scalar-replaced Outer -> Inner pair referenced only by deopt
#: recipes; ``drive(9)`` fails the bounds guard and rebuilds both.
NESTED_SRC = """
class Inner { var v; def init(v) { this.v = v; } }
class Outer { var inner; def init(i) { this.inner = i; } }
class Main {
    static def work(a, i) {
        var o = new Outer(new Inner(7));
        return a[i] + o.inner.v;
    }
    static def drive(i) {
        var a = new int[8];
        return Main.work(a, i);
    }
}"""

#: Two threads hammer one loop-invariant lock: lock coarsening holds it
#: across 32-iteration chunks, so the other thread finds it contended.
COARSEN_SRC = """
class Box { var n; def init() { this.n = 0; } }
class Main {
    static def hammer(lock, box, k) {
        var i = 0;
        while (i < k) {
            synchronized (lock) { box.n = box.n + 1; }
            i = i + 1;
        }
        return k;
    }
    static def main(rounds) {
        var lock = new Box();
        var box = new Box();
        var latch = new CountDownLatch(2);
        var w = 0;
        while (w < 2) {
            var t = new Thread(fun () {
                var r = 0;
                while (r < rounds) { Main.hammer(lock, box, 100); r = r + 1; }
                latch.countDown();
            });
            t.start();
            w = w + 1;
        }
        latch.await();
        synchronized (lock) { box.n = box.n + 1; }
        return box.n;
    }
}"""

#: A wait/notify channel, then promises completed by short-lived
#: threads (park/unpark), with the stdlib hot enough to be compiled.
PARK_WAIT_SRC = """
class Chan {
    var full;
    var value;
    def init() { this.full = 0; this.value = 0; }
    def put(v) {
        synchronized (this) {
            while (this.full == 1) { wait(this); }
            this.value = v;
            this.full = 1;
            notifyAll(this);
        }
    }
    def take() {
        var out = 0;
        synchronized (this) {
            while (this.full == 0) { wait(this); }
            out = this.value;
            this.full = 0;
            notifyAll(this);
        }
        return out;
    }
}
class Main {
    static def main() {
        var ch = new Chan();
        var sum = new AtomicLong(0);
        var t = new Thread(fun () {
            var i = 0;
            while (i < 40) { sum.getAndAdd(ch.take()); i = i + 1; }
        });
        t.start();
        var i = 0;
        while (i < 40) { ch.put(i); i = i + 1; }
        t.join();
        var acc = 0;
        var k = 0;
        while (k < 12) {
            var p = new Promise();
            var kk = k;
            var u = new Thread(fun () { p.complete(kk * 3); });
            u.daemon = true;
            u.start();
            acc = acc + p.get();
            k = k + 1;
        }
        return sum.get() * 1000 + acc;
    }
}"""

#: ``q`` is compiled on a live function handle, then called with null:
#: the compiled ``callhandle`` raises the NPE itself.
FAULT_SRC = """
class Main {
    static def q(f, i) { return f(i) + 1; }
    static def main(n) {
        var acc = 0;
        var i = 0;
        var f = fun (x) x * 2;
        while (i < n) { acc = acc + Main.q(f, i); i = i + 1; }
        return acc + Main.q(null, 0);
    }
}"""


def observe(src, entry, calls, *, jit, quantum=5000):
    """Outcomes, thread faults, nonzero counters and clock of a run."""
    vm = VM(jit=jit, quantum=quantum)
    vm.load(compile_program(src))
    outcomes = []
    for args in calls:
        try:
            outcomes.append(vm.invoke(entry, list(args)))
        except GuestRuntimeError as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    faults = [(t.name, type(t.fault).__name__, str(t.fault))
              for t in vm.scheduler.threads if t.fault is not None]
    counters = {k: v for k, v in vm.counters.snapshot().items() if v}
    assert vm.jit.stats.compilations > 0
    return {"outcomes": outcomes, "faults": faults, "counters": counters,
            "clock": vm.scheduler.clock}


SCENARIOS = {
    "loop-q5000": lambda: observe(LOOP_SRC, "Bench.run", [(24,), (24,)],
                                  jit="graal"),
    "loop-q7": lambda: observe(LOOP_SRC, "Bench.run", [(24,), (24,)],
                               jit="graal", quantum=7),
    "nested-deopt": lambda: observe(
        NESTED_SRC, "Main.drive", [(3,)] * 6 + [(9,), (3,)],
        jit=graal_config(compile_threshold=3)),
    "coarsened-contended": lambda: observe(
        COARSEN_SRC, "Main.main", [(8,), (8,)],
        jit=graal_config(compile_threshold=3), quantum=301),
    "park-wait": lambda: observe(PARK_WAIT_SRC, "Main.main", [()] * 5,
                                 jit=graal_config(compile_threshold=3)),
    "compiled-fault": lambda: observe(FAULT_SRC, "Main.main", [(40,)] * 3,
                                      jit=graal_config(compile_threshold=3)),
}

_NPE = ("GuestNullPointerError", "invoke on null function")
_LOOP = {
    "outcomes": ["0:13:26:39:53475", "0:13:26:39:55075"],
    "faults": [],
    "counters": {
        "object": 125, "array": 80, "method": 82, "idynamic": 2,
        "cachemiss": 644, "reference_cycles": 325396,
        "instructions": 62024, "guards_executed": 171,
        "allocated_words": 2165,
        "guard_kinds": {"Speculative NullCheckException": 98,
                        "Speculative BoundsCheckException": 49,
                        "NullCheckException": 24}},
    "clock": 325396,
}

#: Recorded with the Machine that kept its accounting on the frame, the
#: thread and the counters object, and a dict register file.
EXPECTED = {
    "loop-q5000": _LOOP,
    "loop-q7": _LOOP,
    # Deopt rebuilds both objects: Outer and the Inner in its field.
    # (Until lowering indexed nested recipes correctly it rebuilt one
    # Inner in Outer's place: object 8, cachemiss 26, allocated_words
    # 72, reference_cycles 2094, clock 1618.)
    "nested-deopt": {
        "outcomes": [7] * 6 + [("GuestBoundsError",
                                "index 9 out of bounds for length 8"), 7],
        "faults": [("main", "GuestBoundsError",
                    "index 9 out of bounds for length 8")],
        "counters": {
            "object": 9, "array": 8, "cachemiss": 24,
            "reference_cycles": 2046, "instructions": 133,
            "guards_executed": 12, "deopts": 1, "allocated_words": 73,
            "guard_kinds": {"NullCheckException": 6,
                            "BoundsCheckException": 6}},
        "clock": 1570,
    },
    "coarsened-contended": {
        "outcomes": [1601, 1601],
        "faults": [],
        "counters": {
            "synch": 3520, "wait": 2, "notify": 2, "object": 17,
            "method": 12, "idynamic": 4, "cachemiss": 18,
            "reference_cycles": 92592, "instructions": 38453,
            "monitor_contended": 312, "guards_executed": 36,
            "allocated_words": 25,
            "guard_kinds": {"Speculative NullCheckException": 32,
                            "NullCheckException": 2,
                            "Speculative UnreachedCode": 2}},
        "clock": 90320,
    },
    "park-wait": {
        "outcomes": [780198] * 5,
        "faults": [],
        "counters": {
            "synch": 785, "wait": 5, "notify": 400, "atomic": 685,
            "park": 60, "unpark": 60, "object": 268, "method": 363,
            "idynamic": 65, "cachemiss": 296, "reference_cycles": 116374,
            "instructions": 15249, "monitor_contended": 385,
            "guards_executed": 723, "allocated_words": 653,
            "guard_kinds": {"Speculative NullCheckException": 281,
                            "Speculative UnreachedCode": 320,
                            "NullCheckException": 122}},
        "clock": 116374,
    },
    "compiled-fault": {
        "outcomes": [_NPE] * 3,
        "faults": [("main",) + _NPE] * 3,
        "counters": {
            "object": 6, "method": 86, "idynamic": 3, "cachemiss": 2,
            "reference_cycles": 12906, "instructions": 2034,
            "allocated_words": 6},
        "clock": 10303,
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_machine_matches_frozen_oracle(name):
    got = SCENARIOS[name]()
    assert got == EXPECTED[name]


def test_scenarios_reach_the_exits_they_pin():
    counters = {name: run["counters"] for name, run in EXPECTED.items()}
    assert counters["nested-deopt"]["deopts"] >= 1
    assert counters["coarsened-contended"]["monitor_contended"] > 0
    assert counters["park-wait"]["park"] > 0
    assert counters["park-wait"]["wait"] > 0
    assert EXPECTED["compiled-fault"]["faults"]
    assert (EXPECTED["loop-q7"]["counters"]["instructions"]
            == EXPECTED["loop-q5000"]["counters"]["instructions"])


def test_run_over_stops_ends_at_the_next_leader():
    # Tier-2 resumes a frame parked at a non-leader pc by running it
    # over Tier2Code.stops.  From inside ``step``'s loop body the run
    # must stop exactly at the loop header, having done what the plain
    # loop does when its budget runs out there.
    from types import SimpleNamespace

    from repro.jit.emit2 import compile_tier2
    from repro.jit.machine import Machine

    vm = VM(engine="tier2", jit="graal")
    vm.load(compile_program(LOOP_SRC))
    vm.invoke("Bench.run", [24])
    machine = vm.machine
    code = vm.resolve_static("Bench", "step").compiled
    t2 = compile_tier2(machine, code)
    instrs = code.instrs
    start = next(pc for pc, i in enumerate(instrs) if i[0] == "div")
    back = next(pc for pc in range(start, len(instrs))
                if instrs[pc][0] == "jump")
    header = instrs[back][2]
    assert start not in t2.leaders and header in t2.leaders
    assert t2.leaders.isdisjoint(range(start + 1, back + 1))

    # Single-step the plain loop from entry to ``start``.
    frame = machine.new_frame(code, [24, 3, None])
    thread = SimpleNamespace(frames=[frame], tid=0, core=0, budget=0)
    for _ in range(200):
        if frame.pc == start:
            break
        thread.budget = 1
        Machine.run_frame(machine, thread, frame)
    assert frame.pc == start

    def stretch(budget, stops):
        copy = machine.new_frame(code, [])
        copy.regs, copy.pc = list(frame.regs), frame.pc
        counters = vm.counters
        before = (counters.instructions, counters.reference_cycles,
                  counters.guards_executed)
        thread.budget = budget
        Machine.run_frame(machine, thread, copy, stops)
        after = (counters.instructions, counters.reference_cycles,
                 counters.guards_executed)
        spent = budget - thread.budget
        return copy, spent, tuple(b - a for a, b in zip(before, after))

    stopped, spent, delta = stretch(10_000, t2.stops)
    assert stopped.pc == header
    assert delta[0] == back - start + 1
    assert delta[1] == spent > 0
    plain, plain_spent, plain_delta = stretch(spent, None)
    assert thread.budget == 0
    assert (plain.pc, plain.regs, plain_spent, plain_delta) == (
        stopped.pc, stopped.regs, spent, delta)


def test_deopt_of_an_unwritten_register_names_it():
    # A recipe naming a register nothing wrote is a compiler bug; the
    # deopt must say which register, not read a stale or None value.
    from types import SimpleNamespace

    from repro.jit import deopt

    vm = VM(jit=graal_config(compile_threshold=3))
    vm.load(compile_program(NESTED_SRC))
    for _ in range(6):
        vm.invoke("Main.drive", [3])
    code = vm.resolve_static("Main", "drive").compiled
    frame = vm.machine.new_frame(code, [3])
    placed = {reg for reg, _ in code.consts}
    reg = next(r for r in range(code.nargs, len(frame.regs))
               if r not in placed)
    code.deopt_meta.append(((code.method, 0, (("r", reg),), (), 0),))
    thread = SimpleNamespace(frames=[frame], tid=0, budget=100)
    with pytest.raises(VMError, match=f"register {reg} not live"):
        deopt.deoptimize(vm, thread, frame, None, len(code.deopt_meta) - 1)
