#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml: same steps, same commands, so a
# green `make ci` (or `scripts/ci.sh`) means a green pipeline.
#
# Usage: scripts/ci.sh [packaging|tests|lint|coverage|bench|docs|all]   (default: all)

set -euo pipefail
cd "$(dirname "$0")/.."

step=${1:-all}
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

run_packaging() {
    echo "== packaging: pyproject.toml must be the only packaging source =="
    if [[ -f setup.py && -f pyproject.toml ]]; then
        echo "ERROR: both setup.py and pyproject.toml exist." >&2
        echo "Packaging moved to pyproject.toml (PR 1); delete setup.py." >&2
        exit 1
    fi
}

run_tests() {
    echo "== tests: PYTHONPATH=src python -m pytest -x -q --ignore=benchmarks =="
    # Includes tests/test_service.py (async service layer) and
    # tests/test_store.py (persistent answer warehouse: WAL crash recovery,
    # cold-store bit-identity, warm-store query savings); the async tests
    # carry their own per-test asyncio timeout guard, so a wedged event loop
    # fails fast instead of hanging the suite.
    python -m pytest -x -q --ignore=benchmarks
}

# Line-coverage floor for src/repro, enforced by the coverage job. A ratchet,
# not a target: raise it when the measured number climbs, never lower it to
# make a PR pass.
COVERAGE_FAIL_UNDER=80

run_coverage() {
    echo "== coverage: coverage run -m pytest, fail-under ${COVERAGE_FAIL_UNDER}% =="
    # Plain `coverage` (no pytest-cov plugin needed) so the step works
    # anywhere the stdlib + coverage wheel exist.
    if python -c "import coverage" >/dev/null 2>&1; then
        python -m coverage run --source=src/repro -m pytest -q --ignore=benchmarks
        python -m coverage report --fail-under="${COVERAGE_FAIL_UNDER}"
    else
        echo "coverage is not installed; skipping coverage (CI will still run it)." >&2
    fi
}

run_lint() {
    echo "== lint: ruff check . =="
    if command -v ruff >/dev/null 2>&1; then
        ruff check .
    elif python -m ruff --version >/dev/null 2>&1; then
        python -m ruff check .
    else
        echo "ruff is not installed; skipping lint (CI will still run it)." >&2
    fi
}

run_bench() {
    echo "== bench smoke: pytest benchmarks -q -k 'smoke or batch' =="
    # Includes benchmarks/test_store_scale_smoke.py (the sharded warehouse
    # must serve warm strictly faster than the direct oracle and clear the
    # cold-append throughput floor), benchmarks/test_incremental_smoke.py
    # (the incremental difftest acceptance cell: bit-identical to batch and
    # >= 10x cheaper per update at n = 5000) and
    # benchmarks/test_obs_overhead_smoke.py (the disabled observability
    # fast path must cost <= 2% of the store_scale cold cell).
    python -m pytest benchmarks -q -s -k "smoke or batch" --benchmark-disable
    echo "== repo benchmark output checks: perfbench/run.py, 8 s per workload =="
    # Mirrors the CI step: a failed job, query or output check, or an exact
    # count that differs between passes, makes run.py exit non-zero.
    python3 perfbench/run.py --workload paper-noisy --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload crowd-serve --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload crowd-serve --seed 1 --seconds 8 --trace 1
    echo "== obs sample trace: seeded service run + summarize round trip =="
    # Mirrors the CI artifact step: write a trace, prove it summarizes.
    python -m repro.service --sessions 4 --queries 25 \
        --latency-ms 0 --window-ms 0 --seed 0 \
        --metrics --trace-out obs-sample-trace.jsonl >/dev/null
    python -m repro.obs summarize obs-sample-trace.jsonl >/dev/null
    rm -f obs-sample-trace.jsonl
    echo "== bench suite: python -m repro.bench run --quick =="
    # Writes BENCH_scaling.json + BENCH_batch.json + BENCH_service.json (the
    # crowd-service throughput/latency suite) + BENCH_store.json (the answer
    # warehouse: cross-session dedup cells plus the store_scale raw
    # throughput cells) + BENCH_incremental.json (incremental maintainers
    # vs full recomputes, measured by the difftest drivers) at the repo root.
    python -m repro.bench run --quick
}

run_docs() {
    echo "== docs: python scripts/build_docs.py (autodoc + links; mkdocs if installed) =="
    python scripts/build_docs.py
}

case "$step" in
    packaging) run_packaging ;;
    tests) run_tests ;;
    lint) run_lint ;;
    coverage) run_coverage ;;
    bench) run_bench ;;
    docs) run_docs ;;
    all)
        run_packaging
        run_tests
        run_lint
        run_coverage
        run_bench
        run_docs
        ;;
    *)
        echo "unknown step: $step (expected packaging|tests|lint|coverage|bench|docs|all)" >&2
        exit 2
        ;;
esac
echo "ci: $step OK"
