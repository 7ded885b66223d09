# Developer entry points.  The test suite needs numpy (a runtime
# dependency) and the `dev` extras of pyproject.toml (pytest,
# hypothesis, networkx, ...); nothing here installs anything.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-perf bench bench-smoke bench-regress bench-check bench-trace bench-pairs \
        regress lint fuzz-smoke fuzz-selftest fuzz-crash \
        fuzz-faults fuzz-snapshots fuzz-serve fuzz-contraction \
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
## regress.MIN_SPEEDUPS floor.  Each cell runs perf_harness.GATE_REPEATS
## repeats with reference and flat alternating; the floor judges the
## median of the per-repeat ratios, and every repeat's ratio is
## printed.  Ratios of same-machine timings need no baseline
## normalisation; the wall-clock threshold is loosened accordingly (CI
## machines vary, ratios don't).
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

## Static invariants: the repro.lint effects pass (R001, R201, R202,
## R204) over src/repro, then strict mypy on the typed core when mypy
## is importable (the CI lint job installs it; local runs without mypy
## skip that half with a notice).  Warm runs reuse the hash-keyed
## summary cache in .lint-cache/ and skip parsing unchanged files.
lint:
	$(PYTHON) -m repro.lint
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "repro.lint: mypy not installed locally; skipping strict type check (CI runs it)"; \
	fi

## Fuzzing: every target below is one call to the single driver,
## `python -m repro.testing.fuzz <exercise>` (TESTING.md, "The fuzz
## driver").  Exit 0 clean, 1 violation, 2 budget / coverage failure.
FUZZ := $(PYTHON) -m repro.testing.fuzz

## Differential fuzz smoke: 3 seeds x 2000 list ops (+200 contraction
## ops), both backends in lockstep, auditing after every op.
fuzz-smoke:
	$(FUZZ) differential --seed 0 --runs 3 --ops 2000 --backend both --no-save

## Contraction churn: 40 seeds x 200 contraction ops, both backends in
## lockstep (odd seeds take the wide contraction-heavy batches); every
## audit compares values, rounds, PT shapes and last_stats.
fuzz-contraction:
	$(FUZZ) differential --scenario contraction --seed 0 --runs 40 --ops 200 --backend both --no-save

## Prove the fuzzer finds each planted bug and shrinks it (<= 12 ops).
fuzz-selftest:
	$(FUZZ) self-test

## Crash consistency: 200 batch-heavy list programs with mid-batch
## crash injection; every fired crash must roll back bit-for-bit
## (shape, master-RNG state, last_batch_stats, invariants) and re-apply.
fuzz-crash:
	$(FUZZ) differential --scenario list --seed 0 --crash-seed 0 --runs 200 --ops 80 --backend both --no-save

## Recovery under runtime faults: 200 programs must each classify as
## clean / degraded / aborted-restored, and all three must appear.
fuzz-faults:
	$(FUZZ) recovery --seed 0 --runs 200 --ops 40 --no-save --require-coverage

## Snapshot save/restore under injected crashes and file corruption:
## 96 seeds of the rotating schedule, every class (fired save and
## restore crashes included) must appear.
fuzz-snapshots:
	$(FUZZ) snapshots --seed 0 --runs 96 --no-save --require-coverage

## Serve-layer chaos: 40 seeded configs, each run twice for digest
## determinism, gated on exactly-once acks, oracle parity and exact
## quarantine; all nine behaviour classes must appear.
fuzz-serve:
	$(FUZZ) chaos --seed 0 --runs 40 --ops 150 --no-save --require-coverage

## Replay every pinned regression reproducer in tests/corpus/.
corpus-replay:
	$(PYTHON) -m pytest tests/testing/test_corpus_replay.py -q

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis .lint-cache
