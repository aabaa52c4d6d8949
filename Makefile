# Convenience targets for the PATA reproduction.

PYTHON ?= python

.PHONY: install test test-fast bench report lint-corpus clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow" -x -q

bench:
	$(PYTHON) -m pytest benchmarks/

# IR-verify every generated corpus module (all evaluation profiles plus
# the taintlab/racelab checker corpora).
lint-corpus:
	$(PYTHON) -m pytest tests/test_corpus_verify.py -q

report:
	$(PYTHON) -m repro eval all --markdown evaluation-report.md

clean:
	rm -rf .pytest_cache .hypothesis __pycache__
	find . -name "*.pyc" -delete
