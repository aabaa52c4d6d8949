# Convenience targets for the PATA reproduction.

PYTHON ?= python

.PHONY: install test bench bench-parallel bench-serve report lint-corpus clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow" -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Sequential-vs-parallel P2 comparison; writes BENCH_parallel.json.
# Override workers with e.g. `make bench-parallel REPRO_BENCH_WORKERS=2`.
# Scaling only shows at corpus scale: default 4.0 here (not the global
# bench default of 1.0) so P2 dominates the Amdahl serial phases.
REPRO_BENCH_SCALE ?= 4.0
bench-parallel:
	REPRO_BENCH_SCALE=$(REPRO_BENCH_SCALE) REPRO_BENCH_WORKERS=$(REPRO_BENCH_WORKERS) $(PYTHON) -m pytest benchmarks/bench_components.py -k parallel_vs_sequential -q --benchmark-disable

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
