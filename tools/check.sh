#!/usr/bin/env bash
# Local static-analysis gate - the same checks CI runs.
#
#   tools/check.sh           warning-clean Release -Werror build (CI's
#                            configuration) + full ctest
#                            + cryowire_lint + every experiment's
#                            anchor gate, its JSON and CSVs equal at
#                            --jobs 1 (+ clang-tidy and
#                            clang-format when installed)
#   tools/check.sh --lint    cryowire_lint only: the full rule set,
#                            plus the JSON findings and dependency
#                            report, without building anything
#   tools/check.sh --asan    the same build/tests under ASan+UBSan
#   tools/check.sh --ubsan   the same build/tests under UBSan alone
#   tools/check.sh --tsan    the same build/tests under TSan
#   tools/check.sh --bench   build the microbenchmarks, run them, and
#                            gate their timings against the committed
#                            BENCH_micro_*.json baselines
#   tools/check.sh --dse     fast DSE path: build only the sweep
#                            driver + its unit tests, run test_dse
#                            (cache-hit, shard-merge byte-identity and
#                            Pareto assertions), then CI's 10k-grid
#                            identity gate (tools/dse_identity.sh),
#                            ~seconds not minutes
#   tools/check.sh --serve   serving-layer path: build the daemon,
#                            load generator, and test_svc; run the
#                            unit/differential/live-session suite,
#                            then a short loadgen burst gated against
#                            the BENCH_serve.json baseline
#   tools/check.sh --chaos   failure-model path: build the chaos
#                            suite + the serve/sweep stack, run
#                            test_chaos (every failpoint schedule),
#                            then the SIGKILL recovery gate
#                            (tools/chaos_kill9.sh)
#
# clang-tidy and clang-format are optional: when absent the step is
# skipped with a notice instead of failing, so the gate still runs on
# minimal toolchains (gcc + cmake only). cryowire_lint needs only
# Python 3 and always runs.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
MODE="${1:-}"

BUILD_DIR="$ROOT/build-check"
CMAKE_ARGS=(-DCRYOWIRE_WERROR=ON)
# Every unsanitized mode builds CI's configuration, Release (-O3) with
# -Werror: some warnings fire only at -O3 (GCC 12's -Wrestrict false
# positive on std::string concatenation, GCC bug 105651), and the
# --bench timings must come from the optimization level of the
# committed baselines. The sanitizer modes keep the default build
# type, as CI's sanitizer jobs do.
case "$MODE" in
    --asan | --ubsan | --tsan) ;;
    *) CMAKE_ARGS+=(-DCMAKE_BUILD_TYPE=Release) ;;
esac
case "$MODE" in
    --asan)
        BUILD_DIR="$ROOT/build-check-asan"
        CMAKE_ARGS+=(-DCRYOWIRE_ASAN=ON)
        ;;
    --ubsan)
        BUILD_DIR="$ROOT/build-check-ubsan"
        CMAKE_ARGS+=(-DCRYOWIRE_UBSAN=ON)
        ;;
    --tsan)
        BUILD_DIR="$ROOT/build-check-tsan"
        CMAKE_ARGS+=(-DCRYOWIRE_TSAN=ON)
        ;;
    --bench)
        BUILD_DIR="$ROOT/build-check-bench"
        ;;
    --dse)
        # DSE fast path: the sweep driver, its unit tests and the
        # 10k-grid identity gate CI's dse job runs - enough to
        # validate a DesignPoint/sweep-engine change without the full
        # -Werror tree + experiment gate.
        echo "==> configure (${CMAKE_ARGS[*]})"
        cmake -S "$ROOT" -B "$BUILD_DIR" "${CMAKE_ARGS[@]}" >/dev/null
        echo "==> build cryowire_sweep + test_dse"
        cmake --build "$BUILD_DIR" -j "$(nproc)" \
            --target cryowire_sweep test_dse \
            -- --no-print-directory
        echo "==> test_dse"
        "$BUILD_DIR/tests/test_dse"
        "$ROOT/tools/dse_identity.sh" "$BUILD_DIR"
        echo "==> all checks passed"
        exit 0
        ;;
    --serve)
        # Serving-layer path: the daemon, the load generator, and
        # test_svc (admission/protocol units, the differential suite,
        # a live session, fault injection, overload, soak), then a
        # short steady
        # loadgen run gated against the committed latency baseline.
        echo "==> configure (${CMAKE_ARGS[*]})"
        cmake -S "$ROOT" -B "$BUILD_DIR" "${CMAKE_ARGS[@]}" >/dev/null
        echo "==> build cryowire_serve + cryowire_loadgen + test_svc"
        cmake --build "$BUILD_DIR" -j "$(nproc)" \
            --target cryowire_serve cryowire_loadgen test_svc \
            -- --no-print-directory
        echo "==> test_svc"
        (cd "$BUILD_DIR/tests" && ./test_svc)
        echo "==> loadgen steady run vs BENCH_serve.json"
        SOCK="$BUILD_DIR/serve_check.sock"
        "$BUILD_DIR/bench/cryowire_serve" --socket "$SOCK" --quiet &
        SERVE_PID=$!
        sleep 0.3
        "$BUILD_DIR/bench/cryowire_loadgen" --socket "$SOCK" \
            --pattern steady --rate 200 --duration-ms 3000 \
            --connections 2 --distinct 8 --seed 1 \
            --json "$BUILD_DIR/BENCH_serve.json" --shutdown-after
        wait "$SERVE_PID"
        # Latency baselines are noisy on shared runners; gate only
        # order-of-magnitude regressions (4x), like the CI serve job.
        python3 "$ROOT/tools/bench_gate.py" --threshold 4.0 \
            "$ROOT/BENCH_serve.json" "$BUILD_DIR/BENCH_serve.json"
        echo "==> all checks passed"
        exit 0
        ;;
    --chaos)
        # Failure-model path: the failpoint suite plus the SIGKILL
        # crash-recovery gate, against the plain -Werror tree (CI
        # additionally runs both under ASan in the chaos job).
        echo "==> configure (${CMAKE_ARGS[*]})"
        cmake -S "$ROOT" -B "$BUILD_DIR" "${CMAKE_ARGS[@]}" >/dev/null
        echo "==> build test_chaos + serve/sweep stack"
        cmake --build "$BUILD_DIR" -j "$(nproc)" \
            --target test_chaos cryowire_serve cryowire_loadgen \
            cryowire_sweep \
            -- --no-print-directory
        echo "==> test_chaos"
        "$BUILD_DIR/tests/test_chaos"
        echo "==> chaos_kill9 (SIGKILL recovery gate)"
        "$ROOT/tools/chaos_kill9.sh" "$BUILD_DIR"
        echo "==> all checks passed"
        exit 0
        ;;
    --lint)
        # Lint-only fast path: no configure, no build.
        mkdir -p "$BUILD_DIR"
        echo "==> cryowire_lint (full rule set)"
        python3 "$ROOT/tools/cryowire_lint" --root "$ROOT" \
            --json "$BUILD_DIR/lint_findings.json" \
            --deps-report "$BUILD_DIR/lint_deps.md"
        echo "==> findings:   $BUILD_DIR/lint_findings.json"
        echo "==> dep report: $BUILD_DIR/lint_deps.md"
        exit 0
        ;;
    "") ;;
    *)
        echo "usage: $0 [--lint|--asan|--ubsan|--tsan|--bench|--dse|--serve|--chaos]" >&2
        exit 2
        ;;
esac

if [[ "$MODE" == "--bench" ]]; then
    echo "==> configure (${CMAKE_ARGS[*]})"
    cmake -S "$ROOT" -B "$BUILD_DIR" "${CMAKE_ARGS[@]}" >/dev/null
    echo "==> build microbenchmarks"
    cmake --build "$BUILD_DIR" -j "$(nproc)" \
        --target bench_micro_models bench_micro_netsim \
        -- --no-print-directory
    for suite in micro_models micro_netsim; do
        echo "==> bench_$suite"
        "$BUILD_DIR/bench/bench_$suite" \
            --json "$BUILD_DIR/BENCH_$suite.json"
        echo "==> bench_gate ($suite)"
        python3 "$ROOT/tools/bench_gate.py" \
            "$ROOT/BENCH_$suite.json" "$BUILD_DIR/BENCH_$suite.json"
    done
    echo "==> all checks passed"
    exit 0
fi

echo "==> configure (${CMAKE_ARGS[*]})"
cmake -S "$ROOT" -B "$BUILD_DIR" "${CMAKE_ARGS[@]}" >/dev/null

echo "==> build (-Wall -Wextra -Wconversion -Werror)"
cmake --build "$BUILD_DIR" -j "$(nproc)" -- --no-print-directory

echo "==> ctest"
ctest --test-dir "$BUILD_DIR" -j "$(nproc)" --output-on-failure

echo "==> cryowire_lint"
python3 "$ROOT/tools/cryowire_lint" --root "$ROOT" \
    --json "$BUILD_DIR/lint_findings.json" \
    --deps-report "$BUILD_DIR/lint_deps.md"

if [[ -z "$MODE" ]]; then
    # Every registered experiment, so every paper anchor, including
    # the three long router-network sweeps (fig21, fig25, fig26); a
    # miss exits non-zero and fails the gate.
    echo "==> experiments (paper-anchor gate)"
    rm -rf "$BUILD_DIR/results-csv" "$BUILD_DIR/jobs-1-csv"
    "$BUILD_DIR/bench/cryowire_bench" --jobs "$(nproc)" --quiet \
        --json "$BUILD_DIR/results.json" --csv "$BUILD_DIR/results-csv"

    # One thread must write the same JSON and CSVs as the full-width run.
    echo "==> byte-identity at --jobs 1 vs --jobs $(nproc)"
    "$BUILD_DIR/bench/cryowire_bench" --jobs 1 --quiet \
        --json "$BUILD_DIR/jobs-1.json" --csv "$BUILD_DIR/jobs-1-csv"
    cmp "$BUILD_DIR/jobs-1.json" "$BUILD_DIR/results.json"
    diff -r "$BUILD_DIR/jobs-1-csv" "$BUILD_DIR/results-csv"

    if command -v clang-tidy >/dev/null 2>&1; then
        echo "==> clang-tidy"
        cmake -S "$ROOT" -B "$BUILD_DIR" \
            -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
        # Headers are covered transitively via the .cc that includes
        # them; -p points clang-tidy at the compile database.
        find "$ROOT/src" -name '*.cc' -print0 |
            xargs -0 -P "$(nproc)" -n 8 clang-tidy -p "$BUILD_DIR" \
                --quiet
    else
        echo "==> clang-tidy not installed; skipping"
    fi

    if command -v clang-format >/dev/null 2>&1; then
        echo "==> clang-format --dry-run"
        find "$ROOT/src" "$ROOT/tests" "$ROOT/bench" "$ROOT/examples" \
            \( -name '*.cc' -o -name '*.hh' -o -name '*.cpp' \) -print0 |
            xargs -0 clang-format --dry-run --Werror
    else
        echo "==> clang-format not installed; skipping"
    fi
fi

echo "==> all checks passed"
