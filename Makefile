# Tier-1: the correctness gate (chaos tests excluded via pyproject).
test:
	PYTHONPATH=src python -m pytest -x -q

# Tier-2: the full Renaissance sweep under randomized-but-logged fault
# seeds.  Every run prints its CHAOS_SEED; replay a failure with
# `CHAOS_SEED=<n> make chaos`.  Never gates tier-1.
chaos:
	PYTHONPATH=src python -m pytest -q -m chaos -s

# Tier-2: concurrency sanitizer sweep — static verifier/lockset/lock-order
# passes over every registered benchmark, plus a checked-mode (dynamic
# happens-before race detection) smoke subset.  Never gates tier-1.
sanitize:
	PYTHONPATH=src python -m repro.sanitize

# Lint: the static passes (verify_program + lockset_issues +
# build_lock_order) over every registered benchmark, gated against the
# committed LINT_BASELINE.json — any StaticIssue not recorded there
# fails the target.  Accept a new advisory deliberately with
# `python -m repro.sanitize --no-dynamic --write-baseline LINT_BASELINE.json`.
lint:
	PYTHONPATH=src python -m repro.sanitize --no-dynamic \
		--baseline LINT_BASELINE.json

# Tier-2: the compiler-verification layer's own test — the mutation
# corpus of deliberately broken compiles (every variant must be
# detected AND attributed to the right phase), then the per-phase IR
# verifier over every registered benchmark's full JIT pipeline.
verify-ir:
	PYTHONPATH=src python -m repro.sanitize --mutations
	PYTHONPATH=src python -m repro.sanitize --ir --no-dynamic \
		--baseline LINT_BASELINE.json

# Tier-2: the full crash/resume suite — everything in
# tests/test_durable.py including the heavyweight supervision
# scenarios (hung-worker kill/respawn, SIGTERM drain) that tier-1
# skips via the `durable` marker, plus tests/test_workers.py: every
# durable sweep runs its units on that supervised worker.  Never gates
# tier-1.
durable:
	PYTHONPATH=src python -m pytest -q -m "durable or not chaos" \
		tests/test_durable.py tests/test_workers.py -s

# Tier-2: the full benchmark-as-a-service suite — everything in
# tests/test_serve.py including the subprocess SIGTERM drain/restart
# recovery scenario that tier-1 skips via the `serve` marker.  Never
# gates tier-1.  To run the service itself:
#   PYTHONPATH=src python -m repro.serve --dir .sweeps/service
serve:
	PYTHONPATH=src python -m pytest -q -m "serve or not chaos" tests/test_serve.py -s

# Resilience-layer focus: one unit (run_resilient: retry-with-reseed,
# FailureReport, plugins), the in-process run_suite loop it serves and
# the jobs=N equivalence with it — the counterpart of `make durable`
# and `make serve`.
harness:
	PYTHONPATH=src python -m pytest -q tests/test_faults.py tests/test_plugins.py \
		tests/test_harness.py tests/test_parallel.py

# Tier-0 engine focus: the threaded engine's equivalence suite (handler
# tables, inline caches, fusion, the fixture list) plus the reference
# interpreter it is pinned against — the tier-0 counterpart of
# `make tier1`/`make tier2`/`make jit`.
threaded:
	PYTHONPATH=src python -m pytest -q tests/test_threaded.py \
		tests/jvm/test_interpreter.py

# Tier-1 engine focus: the superblock-engine test suite, plus the
# verifier and mutation corpus that check the exit protocol (every
# block exit is one call of the exit function `_x`,
# repro.jit.emit2.block_exit) and the block walker it shares with
# tier 2, and the ISA closure tests with link-time validation
# (jvm/bytecode.py), which the emitter relies on instead of checking
# its input: it compiles every linked method.
tier1:
	PYTHONPATH=src python -m pytest -q tests/test_tier1.py tests/test_irverify.py \
		tests/jvm/test_bytecode.py

# Tier-2 engine focus: the three-tier-ladder test suite (equivalence
# oracle, budget-exit fuzz, interpreted resumes, rematerialization),
# plus the interpretive Machine that parked tier-2 frames resume on, the
# concurrency-op tests (tier-2 blocks stop before every monitor, park
# and wait/notify, so under tier-2 those always run on that Machine),
# the verifier and mutation corpus shared with tier 1 (which read the
# arguments of every block's exit-function calls, `_x`), and the ISA
# closure tests with link-time validation (jvm/bytecode.py): tier-2
# admits every CompiledCode, so no emitter checks its input.  The
# recorder test checks that the host tiers' CAS-failure line, which
# tests the recorder at run time, records what the other engines do.
tier2:
	PYTHONPATH=src python -m pytest -q tests/test_tier2.py tests/test_machine.py \
		tests/jit/test_machine_ops.py tests/test_irverify.py \
		tests/jvm/test_bytecode.py \
		tests/test_trace.py::test_cas_failures_identical_across_engines

# Guest-JIT focus: IR, phases, lowering, the interpretive Machine and
# deoptimization (tests/jit/), plus the IR verifier and mutation corpus
# that check every phase's output — the guest-JIT counterpart of
# `make tier1`/`make tier2` — and the ISA closure tests, since the
# graph builder reads the shared op declarations of jvm/bytecode.py.
jit:
	PYTHONPATH=src python -m pytest -q tests/jit/ tests/test_irverify.py \
		tests/jvm/test_bytecode.py

# Exact-compile check for refactors that must not move compiled code:
# per guest-JIT compile, the sha256 of its code and of its deopt
# metadata, and per result its fingerprint, instruction count and
# per-phase compile cycles, over the ledger's roster and registry-short
# profiles at schedule_seed=1.  Run it in both trees (the other one via
# `PYTHONPATH=OTHER/src python tests/exact_compile.py --out B.json`),
# then `python tests/exact_compile.py --compare B.json exact-compile.json`.
exact-compile:
	PYTHONPATH=src python tests/exact_compile.py --out exact-compile.json

# The end-to-end + per-layer ledger (benchmarks/e2e/README.md): all
# four workloads in fresh subprocesses with their fingerprint oracle.
# Its span tests run in tier-1.  It is the only performance gate
# (DESIGN.md §15).
e2e:
	python3 benchmarks/e2e/bench.py

# Tier-2: flight-record a contended benchmark end-to-end and
# schema-validate the exported Chrome trace (the CLI validates before
# writing; a nonzero exit means the export is broken).
trace:
	rm -rf .trace-out
	PYTHONPATH=src python -m repro.trace renaissance:philosophers \
		--out .trace-out --warmup 1 --measure 1
	@ls -l .trace-out

.PHONY: test chaos sanitize lint verify-ir threaded tier1 tier2 jit exact-compile e2e trace durable serve harness
