#!/usr/bin/env bash
# Full local gate, mirroring .github/workflows/ci.yml:
#   1. invariant lint self-test, then the lint itself (threading /
#      memory-order / payload / seed rules),
#   2. Release build + complete test suite (including the socket worlds:
#      2- and 4-rank amtfmm_serve over unix and tcp, coalescing on and
#      off, labelled multiprocess, and the Golden.* simulated figures),
#      plus the kernel/operator tests
#      re-run with AMTFMM_FORCE_ISA=scalar (SIMD dispatch pinned off),
#      followed by the static concurrency contract when clang++ exists:
#      -Wthread-safety -Werror build, tests/static try_compile proofs,
#      and the amtfmm_lint AST analyzer over the compilation database,
#   3. rtcheck model-checker sweep (exhaustive DFS + seeded mutations + PCT),
#   4. Debug build of the multi-locality parity / LCO-semantics tests
#      (assertions, the ownership and payload-release debug checks enabled),
#   5. ThreadSanitizer build of the concurrency-sensitive targets,
#      including the socket executor: net_executor_test and the 2-rank
#      unix serve world (coalescing on and off),
#   6. AddressSanitizer build (libstdc++ checked containers on) + complete
#      test suite,
#   7. UndefinedBehaviorSanitizer build + complete test suite,
#   8. clang-format check (skipped when clang-format is unavailable),
#   9. benchmark smoke run with google-benchmark's JSON output
#      (--benchmark_out files for micro_operators, micro_runtime and the
#      setup-phase micro_tree run — tree, lists and DAG build up to
#      n = 1e5, with the dataflow_counting geometry — plus micro_runtime's
#      --benchmark_format=json on stdout; JSON checked, times not gated), the
#      per-ISA SIMD kernel sweep gated by scripts/check_bench_kernels.py
#      and the socket transport sweep gated by
#      scripts/check_bench_transport.py, and Fig. 3 at its default N
#      (~1 min) gated on its shape by scripts/check_fig3_shape.py: for
#      cube and sphere, Yukawa's efficiency at the largest core count is at
#      least Laplace's,
#  10. resident-serve, telemetry and trace-export smokes, then a 2-second
#      fmmbench run of every BENCHMARK.json workload, failing on a nonzero
#      exit, correct: false or failed > 0 (scripts/check_fmmbench.py).
#
# Usage: scripts/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "== Invariant lint (self-test, then tree) =="
python3 scripts/test_lint_invariants.py
python3 scripts/lint_invariants.py

echo "== Release build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"
# Top-level CMakeLists exports the compilation database; surface it at the
# repo root for clangd, run-clang-tidy, and amtfmm_lint -p defaults.
ln -sf build/compile_commands.json compile_commands.json
ctest --test-dir build --output-on-failure -j"$JOBS"

echo "== Static concurrency contract (clang legs) =="
# Mirrors the CI static-analysis job: a clang build carries
# -Wthread-safety -Werror=thread-safety (top-level CMakeLists), builds
# amtfmm_lint when the Clang CMake package is present, and runs the
# tests/static try_compile proofs plus the AST analyzer over the full
# compilation database.  GCC-only hosts skip with a notice — the regex
# lint above and CI remain the gate.
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-static -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_C_COMPILER=clang >/dev/null
  cmake --build build-static -j"$JOBS"
  ctest --test-dir build-static --output-on-failure -j"$JOBS" \
    -R 'StaticTsa|AmtfmmLint'
else
  echo "clang++ not installed; skipping thread-safety + amtfmm_lint legs" \
       "(CI enforces them)"
fi

echo "== Kernel/operator tests with SIMD dispatch forced to scalar =="
AMTFMM_FORCE_ISA=scalar ctest --test-dir build --output-on-failure \
  -j"$JOBS" -R 'Simd|Kernel|M2lRotation|Evaluator|Engine|Dag'

echo "== rtcheck: exhaustive DFS sweep =="
./build/tools/rtcheck --mode dfs
echo "== rtcheck: seeded-mutation detection =="
for m in steal-bottom-relaxed coalescer-count-after-insert \
         arena-input-no-lock counters-count-early; do
  ./build/tools/rtcheck --mutation "$m"
done
echo "== rtcheck: randomized (PCT) quick pass =="
./build/tools/rtcheck --mode pct --executions 64 --seed 1

echo "== Debug build (multi-locality parity, LCO semantics, payload release) =="
cmake -B build-debug -S . -DCMAKE_BUILD_TYPE=Debug >/dev/null
cmake --build build-debug -j"$JOBS" --target \
  expansion_lco_test lco_arena_test evaluator_test sim_test pipeline_test
ctest --test-dir build-debug --output-on-failure -j"$JOBS" \
  -R 'MultiLocality|ExpansionLco|LcoArena|EvalPipeline'

echo "== ThreadSanitizer build (runtime stress tests) =="
cmake -B build-tsan -S . -DAMTFMM_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$JOBS" --target \
  ws_deque_test executor_test coalescer_test trace_test lco_arena_test \
  counters_test net_frame_test net_transport_test net_executor_test \
  amtfmm_launch amtfmm_serve
./build-tsan/tests/runtime/ws_deque_test
./build-tsan/tests/runtime/executor_test
./build-tsan/tests/runtime/coalescer_test
./build-tsan/tests/runtime/trace_test
./build-tsan/tests/runtime/lco_arena_test
./build-tsan/tests/runtime/counters_test
./build-tsan/tests/runtime/net_frame_test
./build-tsan/tests/runtime/net_transport_test
./build-tsan/tests/runtime/net_executor_test
ctest --test-dir build-tsan --output-on-failure \
  -R '^Serve\.unix_np2(_nocoalesce)?$'

echo "== AddressSanitizer build + full test suite =="
cmake -B build-asan -S . -DAMTFMM_SANITIZE=address >/dev/null
cmake --build build-asan -j"$JOBS"
ctest --test-dir build-asan --output-on-failure -j"$JOBS"

echo "== UndefinedBehaviorSanitizer build + full test suite =="
cmake -B build-ubsan -S . -DAMTFMM_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j"$JOBS"
ctest --test-dir build-ubsan --output-on-failure -j"$JOBS"

echo "== clang-format check =="
if command -v clang-format >/dev/null 2>&1; then
  git ls-files 'src/**/*.hpp' 'src/**/*.cpp' 'bench/*.hpp' 'bench/*.cpp' \
    'tests/**/*.cpp' 'examples/*.cpp' \
    | xargs clang-format --dry-run -Werror
else
  echo "clang-format not installed; skipping (CI enforces it)"
fi

echo "== Benchmark smoke (JSON) =="
mkdir -p build/bench-smoke
./build/bench/micro_operators --benchmark_min_time=0.05 \
  --benchmark_out=build/bench-smoke/micro_operators.json \
  --benchmark_out_format=json
./build/bench/micro_runtime --benchmark_min_time=0.05 \
  --benchmark_out=build/bench-smoke/micro_runtime.json \
  --benchmark_out_format=json
./build/bench/micro_tree --benchmark_min_time=0.05 \
  --benchmark_filter='-/1000000$' \
  --benchmark_out=build/bench-smoke/micro_tree.json \
  --benchmark_out_format=json
for f in micro_operators micro_runtime micro_tree; do
  python3 -m json.tool "build/bench-smoke/$f.json" > /dev/null
done
./build/bench/micro_runtime --benchmark_filter=BM_SpawnDrain \
  --benchmark_min_time=0.01 --benchmark_format=json \
  | python3 -m json.tool > /dev/null

echo "== SIMD kernel sweep (BENCH_kernels.json) =="
./build/bench/micro_operators \
  --kernels-json build/bench-smoke/BENCH_kernels.json
./build/bench/micro_operators --isa scalar \
  --kernels-json build/bench-smoke/BENCH_kernels_scalar.json
python3 scripts/check_bench_kernels.py build/bench-smoke/BENCH_kernels.json \
  --ref build/bench-smoke/BENCH_kernels_scalar.json

echo "== Socket transport sweep (BENCH_transport.json) =="
./build/bench/micro_runtime --benchmark_filter=NONE \
  --transport-json build/bench-smoke/BENCH_transport.json
python3 scripts/check_bench_transport.py \
  build/bench-smoke/BENCH_transport.json

echo "== Fig. 3 shape at the default N (Yukawa efficiency >= Laplace) =="
./build/bench/fig3_strong_scaling \
  | tee build/bench-smoke/fig3_strong_scaling.txt \
  | python3 scripts/check_fig3_shape.py

echo "== Resident pipeline steady state (BENCH_serve.json) =="
./build/tools/amtfmm_serve --n=4000 --epochs=6 --localities=2 --cores=2 \
  --json=build/bench-smoke/BENCH_serve_inproc.json
./build/tools/amtfmm_launch --np=2 --transport=unix --timeout=120 \
  -- ./build/tools/amtfmm_serve --n=4000 --epochs=6 --cores=2 \
  --json=build/bench-smoke/BENCH_serve_net.json
python3 scripts/check_bench_serve.py \
  build/bench-smoke/BENCH_serve_inproc.json \
  build/bench-smoke/BENCH_serve_net.json \
  --out build/bench-smoke/BENCH_serve.json

echo "== Telemetry channel, trace merge, watchdog dump =="
python3 scripts/check_telemetry.py --build-dir build

echo "== Repository benchmark smoke (every BENCHMARK.json workload) =="
python3 scripts/check_fmmbench.py --out-dir build/bench-smoke

echo "== Trace export + critical-path analysis =="
./build/bench/fig4_utilization --n 20000 --intervals 20 \
  --trace-out=build/bench-smoke/fig4_trace.json \
  --json=build/bench-smoke/fig4_summary.json
./build/tools/trace_report build/bench-smoke/fig4_trace.json \
  --out build/bench-smoke/fig4_report.json
python3 -m json.tool build/bench-smoke/fig4_trace.json > /dev/null
python3 -m json.tool build/bench-smoke/fig4_summary.json > /dev/null
python3 -m json.tool build/bench-smoke/fig4_report.json > /dev/null

echo "== All checks passed =="
