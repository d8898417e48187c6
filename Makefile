# Convenience entries; everything also runs as plain commands with
# PYTHONPATH=src.

PY := PYTHONPATH=src python

# Line-coverage ratchet for `make test-cov` (see ISSUE 5 / ci.yml): set to
# the measured floor; raise it when coverage grows, never lower it.
COV_FLOOR := 85

.PHONY: test test-cov chaos bench bench-quick bench-diff serve-bench serve-bench-quick serve-bench-diff dist-bench dist-bench-quick dist-bench-diff fault-bench fault-bench-quick fault-bench-diff gateway-bench gateway-bench-quick gateway-bench-diff gateway-chaos-bench-quick elastic-bench elastic-bench-quick elastic-bench-diff bench-e2e bench-e2e-quick bench-e2e-compare

test:                       ## tier-1: full unit + benchmark-shape suite
	$(PY) -m pytest -x -q

test-cov:                   ## tier-1 with line-coverage ratchet (needs pytest-cov)
	$(PY) -m pytest -x -q --cov=src/repro --cov-report=term --cov-fail-under=$(COV_FLOOR)

chaos:                      ## chaos tier: crash/straggler/failover scenarios
	$(PY) -m pytest tests/chaos -q

bench:                      ## write the next BENCH_<n>.json (full timing)
	$(PY) -m benchmarks.run_bench

# The kernels section inside one run already times every available backend;
# the second leg re-runs the whole harness with the compiled backend as the
# process-wide default so the main training path is exercised under it too.
bench-quick:                ## CI smoke: short timing windows, 1 epoch, every backend
	$(PY) -m benchmarks.run_bench --quick --out /tmp/bench-quick.json
	@if $(PY) -c "import repro.kernels as k, sys; sys.exit('numba' not in k.available_backends())"; then \
		echo "== bench-quick: numba backend leg =="; \
		REPRO_KERNEL_BACKEND=numba $(PY) -m benchmarks.run_bench --quick --out /tmp/bench-quick-numba.json; \
	else \
		echo "bench-quick: numba unavailable, compiled-default leg skipped"; \
	fi

# usage: make bench-diff OLD=BENCH_1.json NEW=BENCH_2.json
bench-diff:
	$(PY) -m benchmarks.run_bench --diff $(OLD) $(NEW)

serve-bench:                ## merge a serving section into the newest BENCH_<n>.json
	$(PY) -m benchmarks.serve_bench $(if $(OUT),--out $(OUT))

serve-bench-quick:          ## CI smoke: tiny serving suite to /tmp
	$(PY) -m benchmarks.serve_bench --quick --out /tmp/bench-serve.json

# usage: make serve-bench-diff OLD=BENCH_3.json NEW=BENCH_4.json
serve-bench-diff:
	$(PY) -m benchmarks.serve_bench --diff $(OLD) $(NEW)

dist-bench:                 ## merge a distributed section into the newest BENCH_<n>.json
	$(PY) -m benchmarks.dist_bench --fail-on-regression $(if $(OUT),--out $(OUT))

dist-bench-quick:           ## CI smoke: tiny distributed suite to /tmp
	$(PY) -m benchmarks.dist_bench --quick --fail-on-regression --out /tmp/bench-dist.json

# usage: make dist-bench-diff OLD=BENCH_3.json NEW=BENCH_4.json
dist-bench-diff:
	$(PY) -m benchmarks.dist_bench --diff $(OLD) $(NEW)

fault-bench:                ## merge a faults section into the newest BENCH_<n>.json
	$(PY) -m benchmarks.fault_bench --fail-on-regression $(if $(OUT),--out $(OUT))

fault-bench-quick:          ## CI smoke: tiny fault suite to /tmp
	$(PY) -m benchmarks.fault_bench --quick --fail-on-regression --out /tmp/bench-faults.json

# usage: make fault-bench-diff OLD=BENCH_4.json NEW=BENCH_5.json
fault-bench-diff:
	$(PY) -m benchmarks.fault_bench --diff $(OLD) $(NEW)

gateway-bench:              ## merge a gateway section into the newest BENCH_<n>.json
	$(PY) -m benchmarks.gateway_bench --fail-on-regression $(if $(OUT),--out $(OUT))

gateway-bench-quick:        ## CI smoke: tiny gateway suite to /tmp, gated
	$(PY) -m benchmarks.gateway_bench --quick --fail-on-regression --out /tmp/bench-gateway.json

gateway-chaos-bench-quick:  ## CI chaos job: self-healing scenarios only, gated
	$(PY) -m benchmarks.gateway_bench --quick --chaos-only --fail-on-regression

# usage: make gateway-bench-diff OLD=BENCH_5.json NEW=BENCH_6.json
gateway-bench-diff:
	$(PY) -m benchmarks.gateway_bench --diff $(OLD) $(NEW)

# Elastic gates are determinism pins, so they run everywhere; only the
# process-fabric parity leg self-skips on single-core boxes (recorded in
# the section as gate_applied=false, same convention as dist-bench).
elastic-bench:              ## merge an elastic section into the newest BENCH_<n>.json
	$(PY) -m benchmarks.elastic_bench --fail-on-regression $(if $(OUT),--out $(OUT))

elastic-bench-quick:        ## CI smoke: tiny elastic suite to /tmp, gated
	$(PY) -m benchmarks.elastic_bench --quick --fail-on-regression --out /tmp/bench-elastic.json

# usage: make elastic-bench-diff OLD=BENCH_9.json NEW=BENCH_10.json
elastic-bench-diff:
	$(PY) -m benchmarks.elastic_bench --diff $(OLD) $(NEW)

# The one benchmark the pipeline runs (BENCHMARK.json); it sets its own
# PYTHONPATH, so these are plain wrappers.
bench-e2e:                  ## end-to-end benchmark: four workloads, every check
	python3 benchmarks/e2e/run.py $(if $(OUT),--out $(OUT))

bench-e2e-quick:            ## CI smoke: 2 short segments per workload
	python3 benchmarks/e2e/run.py --quick --out /tmp/bench-e2e.json

# usage: make bench-e2e-compare A=parent.json B=change.json
bench-e2e-compare:
	python3 benchmarks/e2e/run.py --compare $(A) $(B)
