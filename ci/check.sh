#!/usr/bin/env bash
# hetflow CI gate — the one command a PR must survive.
#
#   1. configure + build with -DHETFLOW_WERROR=ON (warnings are errors)
#   2. run the full ctest suite plain
#   3. core-overhead bench smoke: every synthetic DAG shape at 10^4
#      tasks through bench_core_overhead --smoke (throughput sanity,
#      exact completion counts, HEFT plan-time bound)
#   4. serve front-end smoke: bench_serve_load --smoke (closed-loop
#      multi-tenant load with bounded-queue/bounded-p99 assertions), the
#      fairness/starvation checkers via hetflow_check --selftest, and
#      bench_diff.py --selftest
#   5. cluster smoke: a 4-node cluster run through two-level
#      scheduling with a mid-run node kill, --validate (full audit +
#      inter-node directory invariants) and --metrics, for both
#      placement policies, plus bench_cluster_scaling --smoke
#   6. rebuild with HETFLOW_SANITIZE=address,undefined and run the full
#      suite again under the sanitizers (including the serve smoke)
#   7. rebuild with HETFLOW_SANITIZE=thread and run the parallel-sweep,
#      retry/timeout, campaign-checkpoint, observability golden/
#      determinism and cluster determinism/failure tests plus a --jobs 4
#      hetflow_bench smoke sweep under TSan — proves the
#      thread-confinement contract (docs/parallelism.md), not just
#      asserts it
#   8. checkpoint/resume smoke: a campaign killed after two rounds and
#      resumed from its checkpoint must report the same result as the
#      uninterrupted run (docs/fault_tolerance.md)
#   9. coverage floor: rebuild with HETFLOW_COVERAGE=ON, run the obs
#      suites, and require >= 90% line coverage on src/obs/ (gcovr when
#      installed, plain gcov otherwise)
#  10. lint: clang-tidy over files changed vs the merge base (all
#      first-party files when git history is unavailable); fails on any
#      diagnostic. Without clang-tidy installed, tools/lint.sh falls back
#      to a strict GCC pass.
#  11. hetflow_lint: the project-specific static analyzer
#      (docs/static_analysis.md) over the whole tree in --json mode;
#      fails on any unsuppressed finding against lint_baseline.txt.
#
# Usage: ci/check.sh [jobs]
set -eu -o pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="${1:-$(nproc)}"
cd "$repo_root"

echo "=== [1/11] build (WERROR) ==="
cmake -B build-ci -S . -DHETFLOW_WERROR=ON
cmake --build build-ci -j "$jobs"

echo "=== [2/11] ctest (plain) ==="
ctest --test-dir build-ci --output-on-failure -j "$jobs"

echo "=== [3/11] core-overhead bench smoke (10^4 tasks) ==="
# Catches hot-path regressions that unit tests miss: the smoke mode runs
# every DAG shape at 10^4 tasks plus the HEFT plan sanity, and exits
# non-zero on zero throughput, a failed count cross-check, or a blown
# HEFT time bound. --validate + --metrics run the exact bench workloads
# through the end-of-run audit and the observability layer, so the
# completion engine and the cost-model cache are exercised with every
# checker watching. Run from build-ci/bench: the bench writes
# BENCH_core.json into its cwd and the committed copy at the repo root
# (full 10^5/10^6 runs on an idle machine) must not be clobbered by
# smoke numbers. The smoke file is tagged "smoke": true, so it is not
# diffed against the committed full run (bench_diff.py refuses that).
(cd build-ci/bench && ./bench_core_overhead --smoke --validate --metrics)

echo "=== [4/11] serve front-end smoke ==="
# The serve smoke drives the closed-loop multi-tenant load generator at
# two scale points and fails on any bounded-queue or bounded-p99
# violation; the fairness/starvation detectors prove themselves live in
# the hetflow_check selftest (also a ctest, repeated here so this stage
# stands alone); bench_diff validates its own matching/threshold logic.
(cd build-ci/bench && ./bench_serve_load --smoke)
build-ci/tools/hetflow_check --selftest > /dev/null
python3 tools/bench_diff.py --selftest > /dev/null

echo "=== [5/11] cluster smoke (two-level scheduling + node fault) ==="
# A whole-node kill with recovery on a 4-node cluster, audited end to
# end: --validate runs the full checker battery including the
# inter-node directory invariants (check_cluster), under both placement
# policies and both a dynamic and a static-capable inner. The scaling
# bench smoke re-runs the locality-vs-blind ablation at 2/4 nodes and
# the weak-scaling bound.
for placement in locality blind; do
  build-ci/tools/hetflow_run --workflow montage:32 --platform cluster:4,4,1 \
      --sched cluster:dmda --placement "$placement" --node-fail 0.05@1+0.2 \
      --validate --metrics > /dev/null
done
build-ci/tools/hetflow_run --workflow cybershake:4,20 --platform cluster:4,4,1 \
    --sched cluster:eager --node-fail 0.05@0 --validate > /dev/null
(cd build-ci/bench && ./bench_cluster_scaling --smoke > /dev/null)

echo "=== [6/11] ctest (ASan + UBSan) ==="
# The full suite runs sanitized, which covers the retry/timeout/blacklist
# tests (core_failure_test), the kill-and-resume checkpoint property
# tests (workflow_campaign_test) and the rng state round-trip
# (util_rng_test) introduced with the fault-tolerance subsystem.
cmake -B build-asan -S . -DHETFLOW_WERROR=ON \
      -DHETFLOW_SANITIZE=address,undefined
cmake --build build-asan -j "$jobs"
ctest --test-dir build-asan --output-on-failure -j "$jobs"
(cd build-asan/bench && ./bench_core_overhead --smoke --validate --metrics)
(cd build-asan/bench && ./bench_serve_load --smoke)
build-asan/tools/hetflow_run --workflow montage:32 --platform cluster:4,4,1 \
    --sched cluster:dmda --node-fail 0.05@1+0.2 --validate --metrics \
    > /dev/null

echo "=== [7/11] parallel sweep + obs + cluster determinism under TSan ==="
cmake -B build-tsan -S . -DHETFLOW_WERROR=ON -DHETFLOW_SANITIZE=thread
cmake --build build-tsan -j "$jobs" \
      --target exec_pool_test exec_parallel_test core_failure_test \
               workflow_campaign_test obs_golden_test obs_determinism_test \
               cluster_determinism_test cluster_failure_test \
               check_cluster_test hetflow_bench
ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
      -R 'exec_pool_test|exec_parallel_test|core_failure_test|workflow_campaign_test|obs_golden_test|obs_determinism_test|cluster_determinism_test|cluster_failure_test|check_cluster_test'
build-tsan/tools/hetflow_bench \
    --workflows "montage:16;cholesky:6,512" --platforms hpc:4,2,0 \
    --scheds eager,dmda,heft --seeds 2 --noise 0.2 --jobs 4 \
    > build-tsan/sweep_jobs4.csv
build-tsan/tools/hetflow_bench \
    --workflows "montage:16;cholesky:6,512" --platforms hpc:4,2,0 \
    --scheds eager,dmda,heft --seeds 2 --noise 0.2 --jobs 1 \
    > build-tsan/sweep_jobs1.csv
cmp build-tsan/sweep_jobs4.csv build-tsan/sweep_jobs1.csv

echo "=== [8/11] checkpoint/resume round-trip smoke ==="
run="build-ci/tools/hetflow_run"
campaign_args=(--campaign surrogate --surface branin --evals 24 --batch 6)
"$run" "${campaign_args[@]}" > build-ci/campaign_straight.txt
"$run" "${campaign_args[@]}" --max-rounds 2 \
    --checkpoint build-ci/campaign_ckpt.json > /dev/null
"$run" --resume build-ci/campaign_ckpt.json > build-ci/campaign_resumed.txt
# The resumed run must land on the exact same result as the
# uninterrupted one (byte-identical "best ..." report line).
cmp <(grep best build-ci/campaign_straight.txt) \
    <(grep best build-ci/campaign_resumed.txt)

echo "=== [9/11] observability line-coverage floor ==="
# The obs layer is the serialization boundary the golden suites pin
# down; unexecuted code there is unpinned code. Floor: 90% of the lines
# in src/obs/ must run under the obs + trace test binaries.
cmake -B build-cov -S . -DHETFLOW_COVERAGE=ON
cmake --build build-cov -j "$jobs" \
      --target obs_metrics_test obs_golden_test obs_determinism_test \
               obs_property_test trace_test
ctest --test-dir build-cov --output-on-failure -j "$jobs" \
      -R 'obs_metrics_test|obs_golden_test|obs_determinism_test|obs_property_test|trace_test'
if command -v gcovr > /dev/null; then
  gcovr --root . --filter 'src/obs/' --fail-under-line 90 \
        --print-summary build-cov
else
  # gcov fallback: aggregate "Lines executed" over the hf_obs objects.
  obs_obj_dir="build-cov/src/CMakeFiles/hf_obs.dir/obs"
  gcov --no-output --object-directory "$obs_obj_dir" \
       "$obs_obj_dir"/*.gcda 2> /dev/null |
  awk '
    /^File /      { keep = ($0 ~ /src\/obs\//) }
    keep && /^Lines executed:/ {
      split($0, parts, /[:%]/)        # "Lines executed" | pct | " of N"
      pct = parts[2] + 0
      sub(/^[^0-9]*/, "", parts[3]); n = parts[3] + 0
      covered += pct / 100.0 * n; total += n
      keep = 0
    }
    END {
      if (total == 0) { print "coverage: no gcov data for src/obs"; exit 1 }
      pct = 100.0 * covered / total
      printf "src/obs line coverage: %.1f%% (floor 90%%)\n", pct
      exit (pct >= 90.0) ? 0 : 1
    }'
fi

echo "=== [10/11] lint (changed files) ==="
changed=()
if base="$(git merge-base HEAD origin/main 2>/dev/null ||
           git rev-parse HEAD~1 2>/dev/null)"; then
  while IFS= read -r f; do
    case "$f" in
      src/*.cpp|tools/*.cpp|bench/*.cpp) [ -f "$f" ] && changed+=("$f") ;;
    esac
  done < <(git diff --name-only "$base" HEAD)
fi
if [ "${#changed[@]}" -gt 0 ]; then
  tools/lint.sh build-ci "${changed[@]}"
else
  tools/lint.sh build-ci
fi

echo "=== [11/11] hetflow_lint (whole tree) ==="
# Stage 10's lint.sh already runs the text gate; this stage pins the JSON
# contract (docs/static_analysis.md) and the baseline workflow the way
# downstream tooling consumes them.
report="build-ci/hetflow_lint.json"
build-ci/tools/hetflow_lint --json --root "$repo_root" \
    --baseline lint_baseline.txt src tools bench tests > "$report" || {
  echo "ci/check.sh: unsuppressed hetflow_lint findings:" >&2
  build-ci/tools/hetflow_lint --root "$repo_root" \
      --baseline lint_baseline.txt src tools bench tests >&2 || true
  exit 1
}
grep -q '"unsuppressed": 0' "$report"

echo "ci/check.sh: all gates passed"
