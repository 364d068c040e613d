"""Fixture workloads for the sanitizer and the engine-equivalence tests.

Small guest programs with *known* concurrency defects, used to prove the
sanitizer detects what it claims to detect:

- :data:`RACE_BENCHMARK` — two threads increment a shared plain field
  with no synchronization.  Every interleaving is a data race (the
  threads' accesses are never happens-before ordered), so the checked
  run must report it regardless of how the scheduler serializes them.
- :data:`LOCK_CYCLE_BENCHMARK` — two methods acquire the same two locks
  in opposite orders, but are only ever called sequentially from one
  thread.  Dynamically clean (no deadlock is possible), statically a
  lock-order cycle — exactly the latent bug the static pass exists for.
- :data:`GUARDED_BENCHMARK` — the same counter done right (synchronized
  methods), as the clean control for the race fixture.

One more program has no defect; it drives every inline-caching opcode:

- :data:`POLYMORPHIC_BENCHMARK` — two ``getfield`` sites (one standalone,
  one fused with its ``load``), a ``putfield`` and an ``invokevirtual``
  site each see two receiver classes, so the engines' monomorphic
  caches miss and take their fallback paths.

:data:`FIXTURES` lists all four; the engine tests parametrize over it.
"""

from repro.harness.core import GuestBenchmark

RACE_SOURCE = r"""
class Counter {
    var value;

    def bump(n) {
        var i = 0;
        while (i < n) {
            this.value = this.value + 1;   // racy read-modify-write
            i = i + 1;
        }
        return this.value;
    }
}

class Bench {
    static def run(n) {
        var c = new Counter();
        var latch = new CountDownLatch(2);
        var t1 = new Thread(fun () {
            c.bump(n);
            latch.countDown();
        });
        var t2 = new Thread(fun () {
            c.bump(n);
            latch.countDown();
        });
        t1.start();
        t2.start();
        latch.await();
        return c.value;
    }
}
"""

#: Two unsynchronized writers: the checked run must report a race on
#: ``Counter.value``.  ``expected`` is None (lost updates are the point)
#: and ``deterministic`` is False (the checksum depends on interleaving).
RACE_BENCHMARK = GuestBenchmark(
    name="fixture-race",
    suite="fixtures",
    source=RACE_SOURCE,
    description="Two threads bump a shared plain field unsynchronized",
    focus="data race",
    args=(200,),
    expected=None,
    warmup=0,
    measure=1,
    deterministic=False,
)


LOCK_CYCLE_SOURCE = r"""
class Pad {
    var x;
}

class Locks {
    var a;
    var b;
    var hits;

    def init() {
        this.a = new Pad();
        this.b = new Pad();
        this.hits = 0;
    }

    def ab() {
        synchronized (this.a) {
            synchronized (this.b) {
                this.hits = this.hits + 1;
            }
        }
        return this.hits;
    }

    def ba() {
        synchronized (this.b) {
            synchronized (this.a) {
                this.hits = this.hits + 1;
            }
        }
        return this.hits;
    }
}

class Bench {
    static def run(n) {
        var locks = new Locks();
        var i = 0;
        while (i < n) {
            locks.ab();
            locks.ba();
            i = i + 1;
        }
        return locks.hits;
    }
}
"""

#: Opposite-order lock acquisition, but strictly sequential: the static
#: lock-order pass must flag the a->b->a cycle while the dynamic run
#: stays deadlock- and race-free.
LOCK_CYCLE_BENCHMARK = GuestBenchmark(
    name="fixture-lock-cycle",
    suite="fixtures",
    source=LOCK_CYCLE_SOURCE,
    description="Opposite-order nested locks, called sequentially",
    focus="lock-order cycle",
    args=(3,),
    expected=6,
    warmup=0,
    measure=1,
)


GUARDED_SOURCE = r"""
class Counter {
    var value;

    synchronized def bump(n) {
        var i = 0;
        while (i < n) {
            this.value = this.value + 1;
            i = i + 1;
        }
        return this.value;
    }

    synchronized def get() {
        return this.value;
    }
}

class Bench {
    static def run(n) {
        var c = new Counter();
        var latch = new CountDownLatch(2);
        var t1 = new Thread(fun () {
            c.bump(n);
            latch.countDown();
        });
        var t2 = new Thread(fun () {
            c.bump(n);
            latch.countDown();
        });
        t1.start();
        t2.start();
        latch.await();
        return c.get();
    }
}
"""

#: The race fixture done right: monitor-guarded increments.  The checked
#: run must stay clean — this is the false-positive control.
GUARDED_BENCHMARK = GuestBenchmark(
    name="fixture-guarded",
    suite="fixtures",
    source=GUARDED_SOURCE,
    description="Two threads bump a shared field under a monitor",
    focus="clean control",
    args=(200,),
    expected=400,
    warmup=0,
    measure=1,
)


POLYMORPHIC_SOURCE = r"""
class Shape {
    def weight() { return 1; }
}

class Dot extends Shape {
    var v;
    def init(v) { this.v = v; }
}

class Box extends Shape {
    var pad;
    var v;                              // a different slot than Dot.v
    def init(v) { this.pad = v * 3; this.v = v; }
    def weight() { return this.pad; }   // overrides Shape.weight
}

class Poly {
    static var total = 0;

    static def twice(x) { return x * 2; }

    // Every site here sees both a Box and a Dot.
    static def step(c, i) {
        c.v = c.v + i;
        return c.weight() + c.v;
    }
}

class Bench {
    static def run(n) {
        var dot = new Dot(1);
        var box = new Box(2);
        var acc = 0;
        var i = 0;
        while (i < n) {
            var c = dot;
            if (i % 3 == 0) { c = box; }
            acc = acc + Poly.step(c, i);
            var t = new Dot(i);
            Poly.total = Poly.total + t.v;
            var f = fun (x) { return x + i; };
            acc = acc + f(Poly.twice(i));
            i = i + 1;
        }
        return acc + Poly.total + dot.v + box.v;
    }
}
"""

#: Polymorphic field and call sites next to every other site that
#: caches a resolution (``new``, statics, static/special/lambda
#: invokes).  Box reaches ``Poly.step`` first, so each cache holds Box
#: and every Dot takes the miss path.
POLYMORPHIC_BENCHMARK = GuestBenchmark(
    name="fixture-polymorphic",
    suite="fixtures",
    source=POLYMORPHIC_SOURCE,
    description="Two receiver classes through one field and call site",
    focus="inline-cache misses",
    args=(60,),
    expected=None,
    warmup=0,
    measure=1,
)

FIXTURES = (RACE_BENCHMARK, GUARDED_BENCHMARK, LOCK_CYCLE_BENCHMARK,
            POLYMORPHIC_BENCHMARK)
