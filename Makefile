# Developer entry points.  The test suite is pure-stdlib apart from
# pytest/hypothesis (already provisioned); nothing here installs
# anything.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-perf bench bench-serve bench-smoke bench-regress bench-check bench-trace bench-pairs \
        regress lint lint-effects fuzz-smoke fuzz-selftest fuzz-crash \
        fuzz-faults fuzz-snapshots fuzz-serve \
        corpus-replay clean

## Tier-1 suite (the reproduction contract).
test:
	$(PYTHON) -m pytest -x -q

## Just the flat-vs-reference differential harness.
test-perf:
	$(PYTHON) -m pytest tests/perf -q

## Full perf harness: refresh BENCH_PR7.json at the repo root.
bench:
	$(PYTHON) benchmarks/perf_harness.py

## Serve-layer window sweep: refresh BENCH_SERVE.json at the repo root
## (throughput + latency quantiles per batch-window size; see
## benchmarks/serve_harness.py and EXPERIMENTS.md).
bench-serve:
	$(PYTHON) benchmarks/serve_harness.py

## Smoke-size harness run: exercises the harness + regression gate on
## the quick grid (generous wall-clock threshold — the simulated-cost
## equality check is the deterministic part) and asserts the committed
## PR baseline is present and well-formed.
bench-smoke:
	$(PYTHON) benchmarks/perf_harness.py --quick --out /tmp/bench_smoke.json
	$(PYTHON) benchmarks/regress.py --baseline /tmp/bench_smoke.json --quick --threshold 10.0
	$(PYTHON) -c "import json; d=json.load(open('BENCH_PR7.json')); assert d['schema']=='repro-perf-harness/1' and d['cells'], 'bad baseline'; print('BENCH_PR7.json ok:', len(d['cells']), 'cells')"

## Speedup-gate subset: re-run only the gated E4/E5/E6 full-size
## cells and fail if any gated flat-over-reference ratio drops below its
## regress.MIN_SPEEDUPS floor.  Each ratio is two same-machine timings,
## so it needs no baseline normalisation; the wall-clock threshold is
## loosened accordingly (CI machines vary, ratios don't).
bench-regress:
	$(PYTHON) benchmarks/regress.py --cells gate --threshold 10.0

## Repository-benchmark gate: each perfbench workload for 4 s,
## untraced.  perfbench/run.py checks every round (exactly-once
## answers, shard invariants, pinned total == fold of values(), counts
## that repeat across rounds) and exits non-zero on a failed check;
## the JSON line it prints last must also say "correct": true.
BENCH_WORKLOADS := serve-4k serve-tiny contract-labels contract-churn
bench-check:
	@for w in $(BENCH_WORKLOADS); do \
		out=$$($(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 4 --trace 0) || { echo "bench-check: $$w exited non-zero"; exit 1; }; \
		echo "$$out" | tail -n 1 | $(PYTHON) -c "import json, sys; d = json.loads(sys.stdin.read()); print('bench-check: $$w correct=%s failed=%s' % (d['correct'], d['failed'])); sys.exit(0 if d['correct'] is True else 1)" || exit 1; \
	done

## One traced perfbench run (per-layer shares and counts; the command
## behind every per-layer number in EXPERIMENTS.md).  Fails on a
## non-zero exit or "correct": false, like bench-check.
WORKLOAD ?= serve-4k
bench-trace:
	@out=$$($(PYTHON) perfbench/run.py --workload $(WORKLOAD) --seed 1 --seconds 10 --trace 1) || { echo "bench-trace: $(WORKLOAD) exited non-zero"; exit 1; }; \
	echo "$$out" | tail -n 1 | $(PYTHON) -c "import json, sys; line = sys.stdin.read(); d = json.loads(line); print(line.strip()); print('bench-trace: $(WORKLOAD) correct=%s failed=%s' % (d['correct'], d['failed'])); sys.exit(0 if d['correct'] is True else 1)"

## Alternating base/change pairs of one perfbench workload, untraced:
## BASE is checked out into a temporary git worktree (removed on exit)
## and compared against the working tree; prints per-metric medians,
## quartiles, the change/base ratio and the win count.  The command
## behind the parent/change pairs in EXPERIMENTS.md from E18 on.
BASE ?= HEAD
PAIRS ?= 10
SECONDS ?= 30
bench-pairs:
	$(PYTHON) benchmarks/pairs.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS) --seconds $(SECONDS)

## Regression gate against the committed baseline (exit 1 on >25%
## wall-clock regression or any simulated-cost drift; exit 3 on a
## structurally invalid baseline).
regress:
	$(PYTHON) benchmarks/regress.py

## Static invariants: the repro.lint rule suite (R001-R005 +
## the R101-R103 PRAM race detector) over src/repro, then the
## interprocedural effect pass (R201, R202, R204), then strict mypy on the
## typed core when mypy is importable (the CI lint job installs it;
## local runs without mypy skip that half with a notice).
lint:
	$(PYTHON) -m repro.lint
	$(PYTHON) -m repro.lint --effects
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "repro.lint: mypy not installed locally; skipping strict type check (CI runs it)"; \
	fi

## Incremental effects pass alone: warm runs reuse the hash-keyed
## summary cache in .lint-cache/ and skip parsing unchanged files.
lint-effects:
	$(PYTHON) -m repro.lint --effects

## Differential fuzz smoke (the CI load): 3 seeds x 2000 ops per
## scenario, both backends in lockstep, auditing after every op.
## Exit 0 means zero invariant or oracle violations.  See TESTING.md.
fuzz-smoke:
	@for s in 0 1 2; do \
		$(PYTHON) -m repro.testing.fuzz --seed $$s --ops 2000 --backend both --no-save || exit 1; \
	done

## Prove the fuzzer finds planted bugs and shrinks them (<= 12 ops).
fuzz-selftest:
	$(PYTHON) -m repro.testing.fuzz --self-test

## Crash-consistency fuzz (the PR 3 CI load): 200 seeded batch-heavy
## programs with mid-batch crash injection, both backends in lockstep.
## Every fired crash must roll the structure back bit-for-bit (shape
## signature, master-RNG state, last_batch_stats, self-invariants) and
## then re-apply cleanly.  Exit 0 means every rollback audited clean.
fuzz-crash:
	$(PYTHON) -m repro.testing.fuzz --scenario list --seed 0 \
		--crash-seed 0 --runs 200 --ops 80 --backend both --no-save

## Recovery fuzzing (the PR 5 CI load): 200 seeded programs under
## runtime fault injection (dead processors, lost forks, hangs, torn
## writes, bit flips, stale epochs).  Every run must classify as
## clean / degraded / aborted-restored, --require-coverage asserts all
## three classes appear, and budget guards bound the wall clock.  See
## TESTING.md ("Recovery fuzzing") and DESIGN.md section 9.
fuzz-faults:
	$(PYTHON) -m repro.resilience.fuzz --seed 0 --runs 200 --ops 40 \
		--no-save --require-coverage

## Snapshot fuzzing (the PR 8 CI load): seeded crash + corruption
## programs over the unified snapshot save/restore pipeline — the
## differential rig (capture -> mutate -> restore -> replay), save
## atomicity under injected crashes, torn-restore re-restore, and
## corrupted-file recovery with taxonomy errors.  --require-coverage
## asserts every exercise class (including fired save and restore
## crashes) appears across the runs.  See TESTING.md.
fuzz-snapshots:
	$(PYTHON) -m repro.snapshots.fuzz --seed 0 --runs 96 --require-coverage

## Serve-layer chaos fuzz (the PR 10 CI load): 40 seeded configs
## sweeping faults, poison, overload, deadlines and truncated ladders
## through the sharded batch-serving frontend.  Each config runs twice
## (decision-digest determinism) on top of the per-run gate: no lost or
## double-applied acked batch, oracle/invariant parity, quarantine
## isolates exactly the poisoned requests.  --require-coverage asserts
## all nine behaviour classes (shed, timeout, quarantine, breaker-open,
## demotion, ...) appear across the batch.  See TESTING.md.
fuzz-serve:
	$(PYTHON) -m repro.serve.chaos --seed 0 --runs 40 --requests 150 \
		--no-save --require-coverage

## Replay every pinned regression reproducer in tests/corpus/.
corpus-replay:
	$(PYTHON) -m pytest tests/testing/test_corpus_replay.py -q

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis .lint-cache
