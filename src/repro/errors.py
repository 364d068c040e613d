"""Exception hierarchy for the repro package.

Errors are split into three families:

- :class:`ReproError` — base class for everything raised on purpose.
- Host-side errors (:class:`LinkError`, :class:`CompileError`, ...) signal
  misuse of the library or bugs in guest programs detected at build time.
- :class:`GuestRuntimeError` and subclasses signal runtime faults of the
  *guest* program (null dereference, out-of-bounds access, division by
  zero).  They deliberately mirror the JVM exceptions of the same name.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class LexError(ReproError):
    """Raised by the guest-language lexer on malformed input."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ParseError(ReproError):
    """Raised by the guest-language parser on a syntax error."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class TypeCheckError(ReproError):
    """Raised by the guest-language type checker."""


class CompileError(ReproError):
    """Raised by bytecode codegen or the JIT on an internal inconsistency."""


class LinkError(ReproError):
    """Raised when class/method/field resolution fails at link time."""


class VMError(ReproError):
    """Raised on an internal inconsistency of the simulated JVM."""


class GuestRuntimeError(ReproError):
    """Base class for guest-program runtime faults (guest 'exceptions')."""


class GuestNullPointerError(GuestRuntimeError):
    """Guest dereferenced a null reference."""


class GuestBoundsError(GuestRuntimeError):
    """Guest accessed an array out of bounds."""


class GuestArithmeticError(GuestRuntimeError):
    """Guest divided by zero."""


class GuestCastError(GuestRuntimeError):
    """Guest checkcast failed."""


class GuestOutOfMemoryError(GuestRuntimeError):
    """Guest exhausted the (simulated) heap.

    Raised either organically when a :class:`repro.jvm.heap.Heap` has a
    configured ``limit_words``, or by the fault injector
    (:mod:`repro.faults`) to model heap pressure.  ``injected`` is True
    in the latter case so the resilience layer knows not to retry.
    """

    def __init__(self, message: str, *, injected: bool = False) -> None:
        super().__init__(message)
        self.injected = injected


class InjectedFault(GuestRuntimeError):
    """A guest exception raised on purpose by the fault injector.

    Always carries ``injected = True``; the resilience layer never
    retries these (the same plan would refire the same fault).
    """

    injected = True


class ThreadKilledError(GuestRuntimeError):
    """A guest thread was killed by the fault injector."""

    injected = True


class StageTimeout(ReproError):
    """A durable-sweep stage exceeded its host-wall-clock deadline.

    Raised (or synthesized into a FailureReport) by the durable
    controller when a unit's ``prepare``/``run``/``collect``/``teardown``
    stage overruns its :class:`~repro.harness.durable.DurablePolicy`
    deadline; on the parallel path the supervisor kills the hung worker.
    """

    def __init__(self, message: str, *, stage: str = "?",
                 deadline: float = 0.0, elapsed: float = 0.0) -> None:
        super().__init__(message)
        self.stage = stage
        self.deadline = deadline
        self.elapsed = elapsed


class SweepInterrupted(ReproError):
    """A durable sweep was stopped by SIGINT/SIGTERM before finishing.

    The controller drains in-flight units, journals the stop, and raises
    this with the partial progress counters — ``--resume`` on the same
    directory picks up exactly where the sweep left off.
    """

    def __init__(self, message: str, *, stats: dict | None = None) -> None:
        super().__init__(message)
        self.stats = dict(stats or {})


class DurableSweepError(ReproError):
    """Misuse of the durable-sweep controller (bad directory, spec
    mismatch on resume, or plugins that cannot be persisted)."""


class StoreLockedError(DurableSweepError):
    """The sweep directory's journal/store is held by another writer.

    The journal and the content-addressed store assume a single writer;
    :class:`~repro.harness.store.StoreLock` enforces it with an
    advisory ``flock`` so a durable sweep and a ``repro.serve`` service
    (or two services) can never interleave writes into one directory.
    """


class ServeError(ReproError):
    """Misuse of the benchmark service (:mod:`repro.serve`): a bad
    sweep spec, an unknown job id, or a submit after drain began."""


class DeadlockError(VMError):
    """All guest threads are blocked and none can make progress.

    Carries a structured ``thread_dump`` (see
    :meth:`repro.jvm.scheduler.Scheduler.thread_dump`) with per-thread
    state, held/waited monitors and the owner cycle, so a failed run is
    diagnosable without rerunning under a debugger.
    """

    def __init__(self, message: str, *, thread_dump: dict | None = None) -> None:
        super().__init__(message)
        self.thread_dump = thread_dump


class WatchdogTimeout(VMError):
    """The scheduler's global cycle watchdog fired.

    Raised when the simulated clock exceeds ``watchdog_cycles`` — a
    runaway guest loop aborts with a thread dump instead of hanging the
    host process.
    """

    def __init__(self, message: str, *, thread_dump: dict | None = None,
                 clock: int = 0) -> None:
        super().__init__(message)
        self.thread_dump = thread_dump
        self.clock = clock
