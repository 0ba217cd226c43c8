PY ?= python
export PYTHONPATH := src

.PHONY: test examples bench bench-smoke bench-gates trace analyze-smoke faults-smoke check-docs telemetry-smoke metrics-baseline service-smoke

test:
	$(PY) -m pytest -x -q

# Run every example script the way a reader would (PYTHONPATH=src); fail on
# the first one that exits non-zero.
examples:
	for f in examples/*.py; do \
		echo "== $$f"; $(PY) $$f > /dev/null || exit 1; \
	done

# Smoke-test the fault layer: run the crash-count × policy sweep at tiny
# scale (zero-crash rows must match the failure-free system byte-for-byte)
# and the faults test suite (lineage recovery, retry exhaustion,
# determinism pins).
faults-smoke:
	$(PY) -m repro.experiments --only fig_faults --scale tiny
	$(PY) -m pytest tests/faults -q

# Smoke-test the open-loop service mode: run the fig_service arrival-rate
# sweep at tiny scale through the parallel harness, write + schema-validate
# the SLO report (the CLI exits non-zero on any violation), and run the
# service test suite (arrival determinism, warmup exclusion, autoscaler
# hysteresis, shed accounting, serial≡parallel identity).
service-smoke:
	$(PY) -m repro.experiments --only fig_service --scale tiny --parallel 2 --service-out service-out
	$(PY) -m pytest tests/service -q

# Markdown link check (README/DESIGN/EXPERIMENTS/docs/) + embedded doctests
# (src/repro modules and the markdown docs themselves) + doc/implementation
# drift: every experiments-CLI flag and Makefile target must be documented.
check-docs:
	$(PY) scripts/check_docs.py

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only -q

# Smoke-test the perf harness itself: run one experiment through the CLI
# twice against the same cache — the second invocation must be served from
# disk (watch the "[cached]" unit counts in the summary line) — then fail
# unless a serial and a 2-worker run print byte-identical tables.
bench-smoke:
	rm -rf .repro-cache-smoke
	$(PY) -m repro.experiments --only fig8 --scale tiny --parallel 2 --cache-dir .repro-cache-smoke
	$(PY) -m repro.experiments --only fig8 --scale tiny --parallel 2 --cache-dir .repro-cache-smoke
	$(PY) -m repro.experiments --only table2,fig8 --scale tiny > .repro-cache-smoke/serial.txt
	$(PY) -m repro.experiments --only table2,fig8 --scale tiny --parallel 2 > .repro-cache-smoke/parallel.txt
	cmp .repro-cache-smoke/serial.txt .repro-cache-smoke/parallel.txt
	rm -rf .repro-cache-smoke

# Smoke-test the telemetry subsystem: run table2 @ tiny with the live
# dashboard + telemetry export, and fig_service @ tiny (the run with
# autoscaler rows) with telemetry export; validate every emitted exposition
# file, and diff the canonical run against the committed BENCH_metrics.json
# baseline at zero tolerance.
telemetry-smoke:
	$(PY) -m repro.experiments --only table2 --scale tiny --dashboard --telemetry-out telemetry-out
	$(PY) scripts/metrics_diff.py validate-prom telemetry-out/metrics.prom telemetry-out/scrapes/*.prom
	$(PY) -m repro.experiments --only fig_service --scale tiny --telemetry-out telemetry-out/service
	$(PY) scripts/metrics_diff.py validate-prom telemetry-out/service/metrics.prom telemetry-out/service/scrapes/*.prom
	$(PY) scripts/metrics_diff.py check

# Regenerate BENCH_metrics.json (the telemetry regression-gate baseline;
# --measure-overhead also re-times telemetry-off vs telemetry-on).
metrics-baseline:
	$(PY) scripts/metrics_diff.py write --measure-overhead --repeats 5

# Run the end-to-end benchmark's correctness gates on each of its
# workloads (bench/README.md): a short run fails when a sample's sim_*
# values differ from the warm-up's, a batch does not finish, attribution
# does not validate, or the service workload sheds or writes an invalid SLO
# report.  batch-wide is the run that places on >= 32 workers.  One traced
# run then fails if the per-layer ledger cannot find a function it times.
BENCH_WORKLOADS := batch-shuffle batch-wide batch-observed service-steady

bench-gates:
	for w in $(BENCH_WORKLOADS); do \
		$(PY) bench/run.py --workload $$w --seed 1 --seconds 2 || exit 1; \
	done
	err=$$($(PY) bench/run.py --workload batch-observed --seed 1 --seconds 2 --trace 1 2>&1 >/dev/null) \
		|| { echo "$$err" >&2; exit 1; }; \
	echo "$$err" >&2; \
	! echo "$$err" | grep -q "ledger targets not found"

# Trace monotask lifecycles through a small experiment: writes
# traces/trace.jsonl + traces/trace.json (open the latter at
# https://ui.perfetto.dev), prints the allocation-latency tables, and
# validates the Chrome Trace export.
trace:
	$(PY) -m repro.experiments --trace --trace-out traces --only table2 --scale tiny
	$(PY) scripts/trace_stats.py --validate-chrome traces/trace.json
	$(PY) scripts/trace_stats.py traces/trace.jsonl

# Smoke-test the why-slow attribution engine on a canonical fig8 run:
# --analyze derives the critical-path JCT ledgers + idle blame ledger and
# fails on any sum-to-JCT identity violation; trace_analyze re-derives the
# same attribution from the JSONL artifact (--check re-validates) and must
# write it byte for byte as the live run did (the recorder's rows and the
# JSONL dicts reach the same parser); the flow-enriched Chrome trace and the
# idle-blame Prometheus gauges are both schema-validated.  A tiny fig_faults
# run repeats the live≡offline comparison on a trace with worker_down,
# monotask_lost and retry rows.  The same run with telemetry on must write
# the same attribution.json, and a telemetry.json, metrics.prom and scrapes/
# equal to a telemetry-only run's: the trace and telemetry share one fold
# per unit, which moves no byte of either (dashboard.txt is left out:
# --analyze appends its blame panels there).
analyze-smoke:
	$(PY) -m repro.experiments --analyze --trace-out analyze-out --only fig8 --scale tiny
	$(PY) scripts/trace_analyze.py analyze-out/trace.jsonl --check
	$(PY) scripts/trace_analyze.py analyze-out/trace.jsonl --top 5
	$(PY) scripts/trace_analyze.py analyze-out/trace.jsonl --out analyze-out/offline.json
	cmp analyze-out/offline.json analyze-out/attribution.json
	$(PY) scripts/trace_stats.py --validate-chrome analyze-out/trace.json
	$(PY) scripts/metrics_diff.py validate-prom analyze-out/attribution.prom
	$(PY) -m repro.experiments --analyze --trace-out analyze-out/faults --only fig_faults --scale tiny
	$(PY) scripts/trace_analyze.py analyze-out/faults/trace.jsonl --out analyze-out/faults/offline.json
	cmp analyze-out/faults/offline.json analyze-out/faults/attribution.json
	$(PY) -m repro.experiments --analyze --trace-out analyze-out/faults-shared --telemetry-out analyze-out/faults-shared/telemetry --only fig_faults --scale tiny
	$(PY) -m repro.experiments --telemetry-out analyze-out/faults-telemetry --only fig_faults --scale tiny
	cmp analyze-out/faults-shared/attribution.json analyze-out/faults/attribution.json
	cmp analyze-out/faults-shared/telemetry/telemetry.json analyze-out/faults-telemetry/telemetry.json
	cmp analyze-out/faults-shared/telemetry/metrics.prom analyze-out/faults-telemetry/metrics.prom
	diff -r analyze-out/faults-shared/telemetry/scrapes analyze-out/faults-telemetry/scrapes
