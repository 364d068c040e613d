"""Benchmark definitions and the warmup/steady-state runner.

Each workload is a :class:`GuestBenchmark`: a guest program plus an
entry point invoked once per iteration.  The :class:`Runner` executes
warmup iterations (letting the JIT tier up), then measured iterations,
reporting per-iteration simulated wall times and counter deltas — the
same shape as the paper's harness ("the default execution time of each
benchmark is tuned to take several seconds"; here, several million
simulated cycles).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.lang import compile_program
from repro.runtime import VM
from repro.runtime.vm import TIER_LADDERS


@dataclass(frozen=True)
class GuestBenchmark:
    """One workload: guest source + entry point + expected result."""

    name: str
    suite: str
    source: str
    description: str = ""
    focus: str = ""
    entry: str = "Bench.run"
    args: tuple = ()
    expected: object = None       # per-iteration result check (None = skip)
    warmup: int = 6
    measure: int = 4
    #: False when the checksum legitimately depends on thread interleaving
    #: (the paper: "it is not possible to achieve full determinism in
    #: concurrent benchmarks"); such results vary across configs/seeds.
    deterministic: bool = True

    def compile(self):
        return _compiled(self.source)


# Compiled-program cache.  A plain ``lru_cache(maxsize=256)`` thrashes
# under parametrized test sweeps: hundreds of small one-off sources
# evict the 70 (expensive) suite benchmarks mid-session and every
# subsequent Runner recompiles them.  Instead: a true-LRU OrderedDict
# sized comfortably above the suite corpus, with an explicit clear knob.
# An entry holds its own classes and user bytecode; the stdlib bytecode
# is one per-process compile every Program shares (lang/codegen.py), so
# no entry carries a private stdlib compile.
_COMPILE_CACHE: OrderedDict[str, object] = OrderedDict()
_COMPILE_CACHE_MAX = 1024
_COMPILE_CACHE_STATS = {"hits": 0, "misses": 0}


def _compiled(source: str):
    program = _COMPILE_CACHE.get(source)
    if program is not None:
        _COMPILE_CACHE_STATS["hits"] += 1
        _COMPILE_CACHE.move_to_end(source)
        return program
    _COMPILE_CACHE_STATS["misses"] += 1
    program = compile_program(source)
    _COMPILE_CACHE[source] = program
    while len(_COMPILE_CACHE) > _COMPILE_CACHE_MAX:
        _COMPILE_CACHE.popitem(last=False)
    return program


def compile_cache_info() -> dict:
    """Size and hit-rate of the shared compiled-program cache.

    Only source→Program compiles are counted here; the per-VM
    threaded-code translation cache (whose translations can be
    invalidated and re-translated) reports its own hit-rate via
    ``vm.interpreter.cache_info()``.
    """
    hits = _COMPILE_CACHE_STATS["hits"]
    misses = _COMPILE_CACHE_STATS["misses"]
    total = hits + misses
    return {
        "size": len(_COMPILE_CACHE),
        "maxsize": _COMPILE_CACHE_MAX,
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / total if total else 0.0,
    }


def clear_compile_cache() -> None:
    _COMPILE_CACHE.clear()
    _COMPILE_CACHE_STATS["hits"] = 0
    _COMPILE_CACHE_STATS["misses"] = 0


@dataclass
class IterationResult:
    wall: int                 # simulated cycles
    work: int
    cpu: float
    result: object
    host_seconds: float = 0.0  # host wall-clock of this iteration


@dataclass
class RunResult:
    benchmark: str
    config: str
    iterations: list[IterationResult] = field(default_factory=list)
    counters: dict = field(default_factory=dict)   # steady-state deltas
    cpu: float = 0.0
    # The unit's VM; an in-process sweep retires it (VM.retire) and
    # workers send None.  Read for counters, jit, cache_info() and the
    # loaded classes by the ledger, exact_compile and repro.analysis.
    vm: object = None
    trace: object = None      # summary dict set by repro.trace.TracePlugin
    tier1: object = None      # host tier-1 snapshot: engine tier1 or tier2
    tier2: object = None      # host tier-2 snapshot when engine="tier2"

    @property
    def mean_wall(self) -> float:
        if not self.iterations:
            return 0.0
        return sum(it.wall for it in self.iterations) / len(self.iterations)

    @property
    def walls(self) -> list[int]:
        return [it.wall for it in self.iterations]

    @property
    def host_seconds(self) -> float:
        """Total host wall-clock across the measured iterations."""
        return sum(it.host_seconds for it in self.iterations)

    def fingerprint(self) -> str:
        """SHA-256 over every deterministic field of this result.

        Host timing (``host_seconds``) and the live VM are excluded;
        everything the simulation determines — per-iteration simulated
        walls/work/cpu and values, steady-state counters, CPU
        utilization, and the trace digest if a recorder ran — is
        canonically serialized.  Two runs of the same (benchmark,
        config, seed) unit fingerprint identically, whether they ran
        serially, in a shard, or were resumed from the durable store;
        ``tests/test_durable.py`` leans on this for its byte-identity
        assertions.  The host execution engine and its ``tier1``/
        ``tier2`` snapshots are deliberately excluded: a unit must
        fingerprint the same under every engine, which is exactly the
        tier ladder's byte-identity contract (DESIGN.md §11, §13).
        """
        import hashlib
        import json

        body = json.dumps({
            "benchmark": self.benchmark,
            "config": self.config,
            "counters": {str(k): v for k, v in sorted(self.counters.items())},
            "cpu": self.cpu,
            "iterations": [
                (it.wall, it.work, it.cpu, repr(it.result))
                for it in self.iterations],
            "trace": self.trace,
        }, sort_keys=True, separators=(",", ":"), default=repr)
        return hashlib.sha256(body.encode()).hexdigest()


class ValidationError(ReproError):
    """A benchmark produced an unexpected result.

    Carries the VM config and iteration index that produced the bad
    value, so a parametrized sweep failure is attributable without
    rerunning (``benchmark``/``config``/``iteration``/``warmup``).
    """

    def __init__(self, message: str, *, benchmark: str = "?",
                 config: str = "?", iteration: int | None = None,
                 warmup: bool = False) -> None:
        super().__init__(message)
        self.benchmark = benchmark
        self.config = config
        self.iteration = iteration
        self.warmup = warmup


def config_name(jit) -> str:
    """Display name of a ``jit=`` spec ("interpreter", "graal", ...)."""
    if jit is None:
        return "interpreter"
    if isinstance(jit, str):
        return jit
    return jit.name


class Runner:
    """Runs one benchmark in one VM configuration.

    ``faults`` is an optional :class:`repro.faults.FaultPlan` (or
    prepared :class:`~repro.faults.FaultInjector`) threaded into the VM.
    ``iteration_budget`` bounds each iteration to that many simulated
    cycles via the scheduler watchdog — a runaway guest loop raises
    :class:`~repro.errors.WatchdogTimeout` instead of hanging the host.
    ``sanitize`` turns on checked mode: ``True`` or a
    :class:`~repro.sanitize.hb.SanitizerConfig`.  Checked runs are
    interpreter-only (the JIT's machine code has no access hooks), and
    the race report of the latest run hangs off
    ``runner.sanitize_plugin.report``.

    ``engine`` selects the host execution engine — ``"threaded"`` (the
    default), ``"reference"`` (the oracle), ``"tier1"`` (superblock
    closures over threaded handlers) or ``"tier2"`` (tier-1 plus host
    compilation of guest-JIT machine code at region leaders, with guest
    deopt; a frame parked elsewhere resumes on the interpretive
    machine).
    The choice is pure host-side speed: counters, schedules, results
    and fingerprints are byte-identical across engines.

    ``verify_ir`` turns on the compiler verification layer
    (:mod:`repro.sanitize.irverify`): every guest-JIT compile re-checks
    the IR after each pipeline phase, and every tier-1 promotion and
    tier-2 block validates its superblocks
    (:mod:`repro.sanitize.blockverify`).  A
    violation raises instead of silently falling back — results are
    unchanged when everything is sound.
    """

    def __init__(self, benchmark: GuestBenchmark, *, jit="graal",
                 cores: int = 8, schedule_seed: int = 0,
                 plugins: tuple = (), faults=None,
                 iteration_budget: int | None = None,
                 sanitize=None, engine: str = "threaded",
                 verify_ir: bool = False) -> None:
        self.benchmark = benchmark
        self.jit = jit
        self.engine = engine
        self.verify_ir = bool(verify_ir)
        self.cores = cores
        self.schedule_seed = schedule_seed
        self.plugins = list(plugins)
        self.faults = faults
        self.iteration_budget = iteration_budget
        self.sanitize_plugin = None
        if sanitize is not None and sanitize is not False:
            from repro.sanitize.hb import SanitizerConfig
            from repro.sanitize.plugin import SanitizerPlugin

            if sanitize is not True \
                    and not isinstance(sanitize, SanitizerConfig):
                raise TypeError("sanitize= takes None, False, True or a "
                                f"SanitizerConfig, not {sanitize!r}")
            self.sanitize_plugin = SanitizerPlugin(
                None if sanitize is True else sanitize)
            self.plugins.append(self.sanitize_plugin)
            self.jit = None   # checked runs are interpreter-only
        self.last_vm: VM | None = None     # VM of the most recent run()
        self.last_injector = None          # its FaultInjector, if any

    @property
    def config(self) -> str:
        return config_name(self.jit)

    def run(self, warmup: int | None = None,
            measure: int | None = None) -> RunResult:
        bench = self.benchmark
        warmup = bench.warmup if warmup is None else warmup
        measure = bench.measure if measure is None else measure
        vm = VM(jit=self.jit, cores=self.cores,
                schedule_seed=self.schedule_seed, faults=self.faults,
                engine=self.engine, verify_ir=self.verify_ir)
        self.last_vm = vm
        self.last_injector = vm.faults
        vm.load(bench.compile())
        config = self.config
        result = RunResult(bench.name, config, vm=vm)
        for plugin in self.plugins:
            plugin.before_run(vm, bench)

        for i in range(warmup):
            self._iteration(vm, bench, None, i, warmup=True)

        steady_before = vm.counters.snapshot()
        timing_before = vm.timing_snapshot()
        for i in range(measure):
            self._iteration(vm, bench, result, i, warmup=False)
        result.counters = vm.counters.diff(steady_before)
        result.cpu = vm.interval_stats(timing_before)["cpu"]
        ladder = TIER_LADDERS[vm.engine]
        if "tier1" in ladder:
            result.tier1 = vm.interpreter.stats.snapshot()
        if "tier2" in ladder:
            # No machine (jit=None, checked runs): a tier-2 run that
            # could not promote reports zeros, not None.
            from repro.jit.machine import Tier2Stats

            stats = vm.machine.stats if vm.machine is not None \
                else Tier2Stats()
            result.tier2 = stats.snapshot()

        for plugin in self.plugins:
            plugin.after_run(vm, bench, result)
        return result

    def _iteration(self, vm: VM, bench: GuestBenchmark, result, index: int,
                   *, warmup: bool) -> None:
        for plugin in self.plugins:
            plugin.before_iteration(vm, bench, index, warmup)
        before = vm.timing_snapshot()
        host_started = time.perf_counter()
        if self.iteration_budget is not None:
            vm.scheduler.watchdog_cycles = (
                vm.scheduler.clock + self.iteration_budget)
        try:
            value = vm.invoke(bench.entry, list(bench.args),
                              name=f"{bench.name}-it{index}")
        except ReproError as exc:
            # Stamp phase info for the resilience layer's FailureReport.
            if getattr(exc, "iteration", None) is None:
                exc.iteration = index
                exc.warmup = warmup
            raise
        stats = vm.interval_stats(before)
        if bench.expected is not None and value != bench.expected:
            phase = "warmup" if warmup else "measure"
            raise ValidationError(
                f"{bench.name}[{self.config}] {phase} iteration {index}: "
                f"expected {bench.expected!r}, got {value!r}",
                benchmark=bench.name, config=self.config,
                iteration=index, warmup=warmup)
        if result is not None:
            result.iterations.append(IterationResult(
                stats["wall"], stats["work"], stats["cpu"], value,
                host_seconds=time.perf_counter() - host_started))
        for plugin in self.plugins:
            plugin.after_iteration(vm, bench, index, warmup, stats)
