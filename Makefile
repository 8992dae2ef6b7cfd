PYTHON ?= python
PYTHONPATH := src

export PYTHONPATH

.PHONY: test lint bench bench-plan bench-recovery \
	bench-profile bench-views bench-rescale \
	cqbench-smoke cqbench-pairs cqbench-tests chaos fuzz fuzz-quick

test: lint
	$(PYTHON) -m pytest -x -q

# Style gate: ruff when available; the image may not ship it (and
# installing is off the table), so its absence skips with a notice.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks; \
	else \
		echo "lint: ruff not installed; skipping style gate"; \
	fi

# Multi-query plan sharing: 8 overlapping standing queries, shared vs
# private plans.  Writes BENCH_plan_sharing.json.
bench-plan:
	$(PYTHON) -m pytest benchmarks/bench_plan_sharing.py -x -q

# Recovery latency and replay volume vs checkpoint interval, one
# injected crash per interval.  Writes BENCH_recovery.json.
bench-recovery:
	$(PYTHON) -m pytest benchmarks/bench_recovery.py -x -q

# Profiling overhead: obs off vs metrics-only vs full profiling on the
# standing-query workloads, plus per-operator attribution sanity.
# Writes BENCH_profiling.json.
bench-profile:
	$(PYTHON) -m pytest benchmarks/bench_profiling.py -x -q

# Dynamic tables: two-level view DAG under skewed updates, incremental
# refresh vs recompute-from-base (parity-gated, >=5x claim) with the
# lag-vs-target_lag gate.  Writes BENCH_dynamic_tables.json.
bench-views:
	$(PYTHON) -m pytest benchmarks/bench_dynamic_tables.py -x -q

# Live rescale 1→4→2 mid-stream: migration stall per step plus the
# zero-divergence gate (emissions and state vs the never-rescaled run,
# and the difftest rescale leg over 200 seeded cases).  Writes
# BENCH_rescale.json.
bench-rescale:
	$(PYTHON) -m pytest benchmarks/bench_rescale.py -x -q

# Every headline benchmark, each writing its BENCH_*.json.  The
# regression benchmark BENCHMARK.json declares is separate: `python3 -m
# cqbench` is the full run (about two minutes); `make cqbench-smoke` is
# its 3-second end-to-end check and `make cqbench-tests` tests the
# benchmark itself.
bench: bench-plan bench-recovery bench-profile bench-views \
	bench-rescale

# cqbench at 1/20 size, one pass per workload, correctness checks on:
# every workload must print "correct": true and ops_failed = 0.
cqbench-smoke:
	python3 -m cqbench run --smoke

# N alternating base/change runs of workload W against revision BASE
# (exported with git archive; the change is this checkout): one line per
# run, then medians, quartiles and pair wins per end-to-end metric.
W ?= join_recover
N ?= 10
BASE ?= HEAD
cqbench-pairs:
	python3 tools/cqbench_pairs.py --workload $(W) --pairs $(N) --base $(BASE)

# The benchmark's own tests (fold, canary scaling, tracer, workload
# references); not part of the tier-1 suite.
cqbench-tests:
	$(PYTHON) -m pytest cqbench/tests

# Standing fault-injection campaign: kernel crash matrix over random
# queries plus seeded broker drop/dup/reorder chaos.
chaos:
	$(PYTHON) -m repro.chaos --cases 200 --broker-seeds 100

# Bounded, seeded fuzz — the same budget the tier-1 suite runs.
fuzz-quick:
	$(PYTHON) -m repro.difftest --cases 500 --core-cases 200 --seed 0

# Long unseeded campaign: a fresh seed each run, repros emitted into
# difftest_repros/ and timing into benchmarks/BENCH_difftest_fuzz.json.
fuzz:
	$(PYTHON) -m repro.difftest --cases 20000 --core-cases 5000 \
		--unseeded --repro-dir difftest_repros --bench-dir benchmarks
