"""Compiled-code semantics for the operation families the quick
integration tests don't cover: compiled concurrency ops, string coercion,
coarsened monitors under contention, statics, instanceof/checkcast.

The concurrency programs also run on the tier-2 engine against the
reference interpreter: tier-2 blocks stop before every scheduler op, so
there monitors, park/unpark and wait/notify always execute on the
interpretive Machine, at pcs that are not region leaders."""

import pytest

from repro.harness.core import GuestBenchmark
from repro.jit.machine import Machine
from repro.jit.pipeline import graal_config
from tests.util import assert_equivalent, run_all_tiers, run_guest


def test_compiled_string_concat_coerces():
    run_all_tiers("""
    class Main {
        static def fmt(i) { return "v=" + i + ";"; }
        static def main() {
            var out = "";
            var i = 0;
            while (i < 30) { out = Main.fmt(i); i = i + 1; }
            return out;
        }
    }""")


def test_compiled_statics_and_clinit_values():
    run_all_tiers("""
    class Conf { static var base = 7 * 6; }
    class Main {
        static def step() {
            Conf.base = Conf.base + 1;
            return Conf.base;
        }
        static def main() {
            Conf.base = 42;     // keep iterations idempotent
            var last = 0;
            var i = 0;
            while (i < 40) { last = Main.step(); i = i + 1; }
            return last;
        }
    }""")


def test_compiled_instanceof_and_checkcast():
    run_all_tiers("""
    class A { def init() { } def id() { return 1; } }
    class B extends A { def init() { } def id() { return 2; } }
    class Main {
        static def probe(x) {
            var acc = 0;
            if (x instanceof B) { acc = acc + 10; }
            if (x instanceof A) { acc = acc + 1; }
            var a = cast(A, x);
            return acc * 100 + a.id();
        }
        static def main() {
            var total = 0;
            var i = 0;
            while (i < 40) {
                if (i % 2 == 0) { total = total + Main.probe(new A()); }
                else { total = total + Main.probe(new B()); }
                i = i + 1;
            }
            return total;
        }
    }""")


#: A one-slot channel: both sides wait on its monitor; the producer
#: wakes the consumer with notifyAll, the consumer (whose only possible
#: waiter is the producer) wakes it with notify.
WAIT_NOTIFY_SRC = """
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
                notify(this);
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
            return sum.get();
        }
    }"""

#: Promise.get parks until a fresh thread's complete() unparks it.
PARK_UNPARK_SRC = """
    class Main {
        static def main() {
            var acc = 0;
            var k = 0;
            while (k < 12) {
                var p = new Promise();
                var kk = k;
                var t = new Thread(fun () { p.complete(kk * 3); });
                t.daemon = true;
                t.start();
                acc = acc + p.get();
                k = k + 1;
            }
            return acc;
        }
    }"""

#: Two threads hammer a synchronized counter inside hot loops; with LLC
#: on, chunks of iterations hold the lock, but mutual exclusion and
#: final release must be preserved.
COARSENED_LOCK_SRC = """
    class Box {
        var n;
        def init() { this.n = 0; }
        synchronized def bump() { this.n = this.n + 1; }
    }
    class Main {
        static def hammer(box, k) {
            var i = 0;
            while (i < k) { box.bump(); i = i + 1; }
            return k;
        }
        static def main() {
            var box = new Box();
            var latch = new CountDownLatch(2);
            var w = 0;
            while (w < 2) {
                var t = new Thread(fun () {
                    Main.hammer(box, 300);
                    latch.countDown();
                });
                t.start();
                w = w + 1;
            }
            latch.await();
            // The loop exits must have drained any coarsened holds:
            // this final synchronized access would deadlock otherwise.
            synchronized (box) { box.n = box.n + 1; }
            return box.n;
        }
    }"""


def test_compiled_wait_notify_roundtrip():
    run_all_tiers(WAIT_NOTIFY_SRC, repeat=5)


def test_compiled_park_unpark_through_promise():
    run_all_tiers(PARK_UNPARK_SRC, repeat=5)


def test_coarsened_lock_is_released_on_loop_exit_and_stays_exclusive():
    interp, _ = run_guest(COARSENED_LOCK_SRC)
    jit, vm = run_guest(COARSENED_LOCK_SRC,
                        jit=graal_config(compile_threshold=2), repeat=6)
    assert interp == jit == 601


#: Concurrency programs run under tier-2: name -> (source, scheduler
#: kinds their promoted code must run, whether their monitors contend).
SCHEDULER_PROGRAMS = {
    "wait-notify": (WAIT_NOTIFY_SRC,
                    {"monitorenter", "wait", "notify", "notifyall"}, True),
    "park-unpark": (PARK_UNPARK_SRC, {"unpark"}, False),
    "coarsened-lock": (COARSENED_LOCK_SRC,
                       {"monitorenter", "monitorexit", "monitorexit_if_held"},
                       True),
}


@pytest.mark.parametrize("quantum", (37, 400))
@pytest.mark.parametrize("name", sorted(SCHEDULER_PROGRAMS))
def test_scheduler_ops_under_tier2_match_reference(name, quantum,
                                                   monkeypatch):
    # Small quanta interleave the threads inside promoted methods, so
    # monitors contend there: a contended monitorenter re-executes at
    # its own pc, which is never a tier-2 leader, on the interpretive
    # Machine.  Every run is pinned against the reference interpreter.
    source, kinds, contends = SCHEDULER_PROGRAMS[name]
    resumed, contended = set(), []
    run_frame = Machine.run_frame

    def recording(self, thread, frame, instrs=None):
        before = self.vm.counters.monitor_contended
        if instrs is not None:              # a tier-2 interpreted resume
            resumed.add(instrs[frame.pc][0])
        run_frame(self, thread, frame, instrs)
        if instrs is not None \
                and self.vm.counters.monitor_contended != before:
            contended.append(frame.code.method.qualified)

    monkeypatch.setattr(Machine, "run_frame", recording)
    bench = GuestBenchmark(name=name, suite="tests", source=source,
                           entry="Main.main")
    assert_equivalent(bench, ("tier2",),
                      jit=graal_config(compile_threshold=2),
                      quantum=quantum, invocations=3)
    assert kinds <= resumed
    assert bool(contended) == contends


def test_compiled_nested_arrays_and_refs():
    run_all_tiers("""
    class Main {
        static def main() {
            var grid = new ref[5];
            var i = 0;
            while (i < 5) {
                var row = new int[5];
                var j = 0;
                while (j < 5) { row[j] = i * 5 + j; j = j + 1; }
                grid[i] = row;
                i = i + 1;
            }
            var acc = 0;
            i = 0;
            while (i < 5) {
                var row = grid[i];
                var j = 0;
                while (j < 5) { acc = acc + row[j]; j = j + 1; }
                i = i + 1;
            }
            return acc;
        }
    }""")


def test_compiled_double_precision_matches_interpreter():
    run_all_tiers("""
    class Main {
        static def main() {
            var acc = 0.0;
            var i = 1;
            while (i < 80) {
                acc = acc + 1.0 / i2d(i) + Math.sqrt(i2d(i)) * 0.125;
                i = i + 1;
            }
            return d2i(acc * 1000000.0);
        }
    }""")


def test_compiled_shift_mask_arithmetic():
    run_all_tiers("""
    class Main {
        static def mix(x) {
            x = (x ^ (x >> 13)) & 281474976710655;
            x = (x * 25214903917 + 11) & 281474976710655;
            return x;
        }
        static def main() {
            var x = 12345;
            var i = 0;
            while (i < 120) { x = Main.mix(x); i = i + 1; }
            return x;
        }
    }""")
