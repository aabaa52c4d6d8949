# Convenience targets for the PATA reproduction.

PYTHON ?= python

.PHONY: install test bench bench-quick bench-parallel bench-prune bench-taint bench-race bench-xtaint bench-alias bench-ptaflow bench-serve report lint-corpus clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow" -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-quick:
	REPRO_BENCH_SCALE=0.3 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Sequential-vs-parallel P2 comparison; writes BENCH_parallel.json.
# Override workers with e.g. `make bench-parallel REPRO_BENCH_WORKERS=2`.
# Scaling only shows at corpus scale: default 4.0 here (not the global
# bench default of 1.0) so P2 dominates the Amdahl serial phases.
REPRO_BENCH_SCALE ?= 4.0
bench-parallel:
	REPRO_BENCH_SCALE=$(REPRO_BENCH_SCALE) REPRO_BENCH_WORKERS=$(REPRO_BENCH_WORKERS) $(PYTHON) -m pytest benchmarks/bench_components.py -k parallel_vs_sequential -q --benchmark-disable

# Pruned-vs-unpruned P1.5 comparison; writes BENCH_prune.json.
bench-prune:
	$(PYTHON) -m pytest benchmarks/bench_components.py -k pruned_vs_unpruned -q --benchmark-disable

# Taint checker vs the grep-regime baseline on the taintlab corpus;
# writes BENCH_taint.json.
bench-taint:
	$(PYTHON) -m pytest benchmarks/bench_components.py -k taint_checker_vs_naive -q --benchmark-disable

# Race checker vs the lockset-only Eraser-regime baseline on the racelab
# corpus; writes BENCH_race.json.
bench-race:
	$(PYTHON) -m pytest benchmarks/bench_components.py -k race_checker_vs_eraser -q --benchmark-disable

# P2.6 cross-module taint vs the module-granular grep tier of the naive
# baseline on the firmlab multi-image corpus, plus the workers x
# cold/warm-cache report-identity differential; writes BENCH_xtaint.json.
bench-xtaint:
	$(PYTHON) -m pytest benchmarks/bench_components.py -k xtaint_checker_vs_naive -q --benchmark-disable

# Tiered alias analysis on/off (cold interleaved pairs + warm cache) on
# the linux corpus; writes BENCH_alias.json.  Like bench-parallel the
# headline is defined at scale 4.0; smaller REPRO_BENCH_SCALE values
# stamp the payload degraded and gate only report identity.
bench-alias:
	REPRO_BENCH_SCALE=$(REPRO_BENCH_SCALE) $(PYTHON) -m pytest benchmarks/bench_components.py -k alias_tier_cold_warm -q --benchmark-disable

# P1.8 flow-sensitive tier (--alias-tier flow) vs the untiered engine
# (cold interleaved pairs + warm cache) on the linux corpus; writes
# BENCH_ptaflow.json.  The 2x headline is defined at scale 4.0; smaller
# REPRO_BENCH_SCALE values stamp the payload degraded and gate only
# report identity.
bench-ptaflow:
	REPRO_BENCH_SCALE=$(REPRO_BENCH_SCALE) $(PYTHON) -m pytest benchmarks/bench_components.py -k ptaflow_cold_warm -q --benchmark-disable

# Resident daemon (warm socket query) vs a cold one-shot CLI subprocess
# on the linux corpus; writes BENCH_serve.json.  The 8x replay headline
# is defined at scale 1.0; smaller REPRO_BENCH_SCALE values stamp the
# payload degraded and gate only a 2x floor.
bench-serve:
	REPRO_BENCH_SCALE=$(REPRO_BENCH_SCALE) $(PYTHON) -m pytest benchmarks/bench_components.py -k serve_resident -q --benchmark-disable

# IR-verify every generated corpus module (all evaluation profiles plus
# the taintlab/racelab checker corpora).
lint-corpus:
	$(PYTHON) -m pytest tests/test_corpus_verify.py -q

report:
	$(PYTHON) -m repro eval all --markdown evaluation-report.md

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/results __pycache__
	find . -name "*.pyc" -delete
