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
# skips via the `durable` marker.  Never gates tier-1.
durable:
	PYTHONPATH=src python -m pytest -q -m "durable or not chaos" tests/test_durable.py -s

# Tier-2: the full benchmark-as-a-service suite — everything in
# tests/test_serve.py including the subprocess SIGTERM drain/restart
# recovery scenario that tier-1 skips via the `serve` marker.  Never
# gates tier-1.  To run the service itself:
#   PYTHONPATH=src python -m repro.serve --dir .sweeps/service
serve:
	PYTHONPATH=src python -m pytest -q -m "serve or not chaos" tests/test_serve.py -s

# Tier-1 engine focus: the superblock-engine test suite, plus the
# verifier and mutation corpus that check the exit protocol and the
# block walker it shares with tier 2.
tier1:
	PYTHONPATH=src python -m pytest -q tests/test_tier1.py tests/test_irverify.py

# Tier-2 engine focus: the three-tier-ladder test suite (equivalence
# oracle, budget-exit fuzz, interpreted resumes, rematerialization),
# plus the interpretive Machine that parked tier-2 frames resume on and
# the verifier and mutation corpus shared with tier 1.
tier2:
	PYTHONPATH=src python -m pytest -q tests/test_tier2.py tests/test_machine.py \
		tests/test_irverify.py

# Guest-JIT focus: IR, phases, lowering, the interpretive Machine and
# deoptimization (tests/jit/), plus the IR verifier and mutation corpus
# that check every phase's output — the guest-JIT counterpart of
# `make tier1`/`make tier2`.
jit:
	PYTHONPATH=src python -m pytest -q tests/jit/ tests/test_irverify.py

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

.PHONY: test chaos sanitize lint verify-ir tier1 tier2 jit e2e trace durable serve
