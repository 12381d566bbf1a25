# Convenience targets for the Harmonia reproduction.

PYTHON ?= python

.PHONY: test bench bench-smoke bench-sweep bench-vector bench-fleet bench-fleet-lpt bench-obs bench-build bench-serve bench-orchestrator fuzz-smoke golden report examples lint all

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-smoke:
	$(PYTHON) benchmarks/perf_smoke.py

bench-sweep:
	$(PYTHON) benchmarks/sweep_smoke.py

bench-vector:
	$(PYTHON) benchmarks/vector_smoke.py

bench-fleet:
	PYTHONPATH=src $(PYTHON) -m repro.cli fleet --json BENCH_fleet.json

bench-fleet-lpt:
	$(PYTHON) benchmarks/fleet_smoke.py

bench-obs:
	$(PYTHON) benchmarks/obs_smoke.py

bench-build:
	$(PYTHON) benchmarks/build_smoke.py

bench-serve:
	$(PYTHON) benchmarks/serve_smoke.py

bench-orchestrator:
	$(PYTHON) benchmarks/orchestrator_smoke.py

fuzz-smoke:
	$(PYTHON) benchmarks/fuzz_smoke.py

golden:
	$(PYTHON) tests/golden.py

report:
	$(PYTHON) -m repro.cli report

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	elif $(PYTHON) -c "import ruff" >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; falling back to a syntax check"; \
		$(PYTHON) -m compileall -q src tests benchmarks; \
	fi

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; $(PYTHON) $$script || exit 1; \
	done

all: test bench report
