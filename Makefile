PYTHON ?= python
PYTHONPATH := src

export PYTHONPATH

.PHONY: test lint bench bench-plan bench-recovery \
	bench-profile bench-views bench-rescale bench-shapes \
	cqbench-smoke cqbench-pairs cqbench-tests census profile chaos fuzz \
	fuzz-quick reach

# The tier-1 suite, then cqbench's 3-second smoke run: a change that
# breaks a workload's correctness check fails the default target too;
# then the paper-figure benches' shape assertions.
test: lint
	$(PYTHON) -m pytest -x -q
	$(MAKE) --no-print-directory cqbench-smoke
	$(MAKE) --no-print-directory bench-shapes

# Style gate: ruff when available; the image may not ship it (and
# installing is off the table), so its absence skips the style checks
# with a notice and still parses every file at the declared
# requires-python floor (syntax only).
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks tools; \
	else \
		echo "lint: ruff not installed; skipping style gate"; \
		$(PYTHON) tools/check_grammar.py; \
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

# The shape assertions (who wins, trends) of the paper-figure benches:
# Figures 1-5, claims C1-C10, Listings 1-2 and the ablations.  Their
# timing kernels run once, untimed; nothing is written.
bench-shapes:
	$(PYTHON) -m pytest benchmarks/bench_fig*.py benchmarks/bench_c*.py \
		benchmarks/bench_listing*.py benchmarks/bench_ablation*.py \
		--benchmark-disable -x -q

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
	$(PYTHON) -m cqbench run --smoke

# N alternating base/change runs of workload W (one name, a comma list,
# or "all") against revision BASE (exported with git archive; the change
# is this checkout): per workload, one line per run, then medians,
# quartiles and pair wins per end-to-end metric.  TRACE=1 runs traced
# passes and compares the per-layer metrics instead.
W ?= all
N ?= 10
BASE ?= HEAD
TRACE ?= 0
cqbench-pairs:
	$(PYTHON) tools/cqbench_pairs.py --workload $(W) --pairs $(N) --base $(BASE) \
		$(if $(filter 1,$(TRACE)),--trace)

# Calls per service quantum of workload W (one name, a comma list, or
# "all"), by function: one seed-1 pass under sys.setprofile at a fixed
# hash seed, so two runs of one tree print the same counts.  Given BASE
# (on the command line or in the environment), the diff against that
# revision instead (exported with git archive), largest movers first.
census:
	$(PYTHON) tools/call_census.py --workload $(W) \
		$(if $(filter-out default file,$(origin BASE)),--base $(BASE))

# Where the CPU time of workload W (one name, a comma list, or "all")
# goes: SIGPROF samples of five seed-1 passes, leaf and inclusive shares
# by function, generated kernels under their pseudo-filenames.  Shares
# within one run do not move with the box's speed.
profile:
	$(PYTHON) tools/sample_profile.py --workload $(W)

# Which function lines of src/ are reached by a non-test entry (one
# seed-1 pass of each cqbench workload, every example, a 50-case
# difftest run and a 20-case chaos run), which only by tier-1, and which
# by nothing: per module, then per package.  Each entry runs in a child
# under a trace hook; tier-1 under it takes a few minutes.
reach:
	$(PYTHON) tools/reach.py

# The benchmark's own tests (fold, canary scaling, tracer, workload
# references); not part of the tier-1 suite.
cqbench-tests:
	$(PYTHON) -m pytest cqbench/tests

# Standing fault-injection campaign: kernel crash matrix over random
# queries plus seeded broker drop/dup/reorder chaos.
chaos:
	$(PYTHON) -m repro.chaos --cases 200 --broker-seeds 100

# Bounded, seeded fuzz — the same budget the tier-1 suite runs — plus
# the live-rescale campaign bench-rescale gates (200 cases through the
# rescale configs only, about 2 s; writes no BENCH_*.json).
fuzz-quick:
	$(PYTHON) -m repro.difftest --cases 500 --core-cases 200 \
		--rescale-cases 200 --seed 0

# Long unseeded campaign: a fresh seed each run, repros emitted into
# difftest_repros/ and timing into benchmarks/BENCH_difftest_fuzz.json.
fuzz:
	$(PYTHON) -m repro.difftest --cases 20000 --core-cases 5000 \
		--unseeded --repro-dir difftest_repros --bench-dir benchmarks
