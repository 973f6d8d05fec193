# Developer entry points.  Every target works from a fresh checkout without
# `pip install -e .` because PYTHONPATH is pointed at the src/ layout.

PY ?= python
export PYTHONPATH := src

.PHONY: test coverage fuzz-smoke serve-smoke bench-smoke bench-batch bench-sharded bench-serving bench-adaptive bench-subscriptions bench-reshard bench-storage bench-aggregates bench-gate bench-e2e-quick bench-e2e profile profile-smoke docs-check loc install-dev

## Tier-1 verification: the coverage gate first — it runs the full test
## suite exactly once (fail-fast, under the line collector when pytest-cov
## is absent) and fails on any test failure or on coverage below the
## pinned baseline — then the seeded conformance fuzz smoke pass, so a
## plain unit-test regression surfaces as a unit-test failure rather than
## a shrunk fuzz artifact, and finally the networked-serving smoke (one
## scripted client session, subscription deltas checked against the
## recompute oracle).
test:
	$(MAKE) --no-print-directory coverage
	$(MAKE) --no-print-directory fuzz-smoke
	$(MAKE) --no-print-directory serve-smoke

## Line-coverage gate: `pytest --cov=repro --cov-fail-under=<baseline>`
## when pytest-cov is installed, a stdlib sys.settrace collector otherwise
## (tools/coverage_gate.py).  The threshold is pinned at the measured
## baseline of the stdlib collector; raise it as coverage grows.
coverage:
	$(PY) tools/coverage_gate.py

## Differential conformance fuzzing, seeded and time-boxed.  The case
## sequence is deterministic for a given seed; failures are shrunk and
## written to ./fuzz-failures/ as replayable JSON repros.  The second pass
## is a dedicated kill-mid-batch budget: every case crashes a durable
## engine at a fault-injection point, recovers, resumes, and diffs.
fuzz-smoke:
	$(PY) tools/fuzz.py --seed 0 --budget 30
	$(PY) tools/fuzz.py --seed 0 --budget 15 --mode crash-recovery

## Networked-serving smoke: boot the asyncio TCP server on an ephemeral
## port, run a scripted client session (paged snapshot, one subscription,
## a burst of batches over the wire, /metrics over HTTP) and assert the
## pushed per-commit deltas reproduce the oracle at every version stamp.
serve-smoke:
	$(PY) tools/serve_smoke.py

## Quick benchmark sanity pass: the batched-ingestion benchmark at 1/5 scale.
bench-smoke:
	REPRO_BENCH_SCALE=0.2 $(PY) -m pytest benchmarks/bench_batch_updates.py -q

## Full-scale batched-ingestion benchmark (writes benchmarks/results/).
bench-batch:
	$(PY) -m pytest benchmarks/bench_batch_updates.py -q

## Sharded scaling benchmark: per-tuple maintenance throughput vs shard
## count on the adversarial hot_shard scenario (asserts >=2x at 4 shards).
bench-sharded:
	$(PY) -m pytest benchmarks/bench_sharded_scaling.py -q

## Concurrent-serving benchmark: 4 snapshot readers vs the serialized
## read-after-write loop (asserts >=2x aggregate enumeration throughput).
bench-serving:
	$(PY) -m pytest benchmarks/bench_concurrent_serving.py -q

## Adaptive-epsilon benchmark: workload-adaptive retuning vs every fixed
## epsilon on the phase_shift scenario (asserts >=2x the worst fixed
## epsilon and within 20% of the best).
bench-adaptive:
	$(PY) -m pytest benchmarks/bench_adaptive.py -q

## Push-subscription fan-out benchmark: 200 concurrent subscribers on one
## event loop, every mirror reproduces the oracle from per-commit deltas,
## bounded queue memory under a deliberately slow subscriber.
bench-subscriptions:
	$(PY) -m pytest benchmarks/bench_subscriptions.py -q

## Elastic-resharding benchmark: online 2->4 split under a live writer
## (stall bounded, post-reshard throughput vs a fresh 4-shard fleet).
bench-reshard:
	$(PY) -m pytest benchmarks/bench_reshard.py -q

## Columnar-vs-dict storage benchmark: per-tuple maintenance touch
## throughput over every registered scenario (asserts >=3x geomean).
bench-storage:
	$(PY) -m pytest benchmarks/bench_storage.py -q

## Maintained ring aggregates vs enumerate-and-fold at 10k-group scale
## (asserts >=5x read latency) plus subscription payload-bytes comparison.
bench-aggregates:
	$(PY) -m pytest benchmarks/bench_aggregates.py -q

## Re-run every asserted benchmark claim at reduced scale (the CI gate).
bench-gate:
	$(PY) tools/bench_gate.py --smoke

## End-to-end serving benchmark (benchmarks/e2e, the contract in
## BENCHMARK.json): smoke pass (~10 s, writes nothing).
bench-e2e-quick:
	$(PY) benchmarks/e2e/run.py --quick

## The full set: 10 seeds x 4 workloads + traces -> benchmarks/e2e/results/.
bench-e2e:
	$(PY) benchmarks/e2e/run.py --seed 7

## Profile scenario ingestion under cProfile and refresh the committed
## hot-function report (benchmarks/results/profile_hotpath.txt).
profile:
	$(PY) tools/profile_hotpath.py

## CI smoke for the profiling harness: tiny streams, report to stdout.
profile-smoke:
	$(PY) tools/profile_hotpath.py --smoke

## Fail if any public module under src/repro/ lacks a module docstring.
docs-check:
	$(PY) tools/check_docstrings.py

## The tracked size metric of ROADMAP/CHANGES: lines of Python under src/.
## A ratchet: prints the count and fails above LOC_BUDGET.  A PR that
## shrinks src/ lowers the budget to its own result; nothing raises it.
LOC_BUDGET := 21495
loc:
	@loc=$$(find src -name '*.py' | xargs cat | wc -l); echo $$loc; \
	if [ $$loc -gt $(LOC_BUDGET) ]; then \
		echo "src/ has $$loc lines of Python, over the budget of $(LOC_BUDGET)" >&2; exit 1; \
	fi

## Editable install (after which PYTHONPATH=src is no longer needed).
install-dev:
	$(PY) -m pip install -e .
