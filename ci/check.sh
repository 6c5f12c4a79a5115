#!/usr/bin/env bash
# hetflow CI gate — the one command a PR must survive.
#
#   1. configure + build with -DHETFLOW_WERROR=ON (warnings are errors)
#   2. run the full ctest suite plain
#   3. core-overhead bench smoke: every synthetic DAG shape at 10^4
#      tasks through bench_core_overhead --smoke (throughput sanity,
#      exact completion counts, HEFT plan-time bound), then every shape
#      at 10^6 tasks with --validate (the end-of-run audit at full scale)
#   4. serve front-end smoke: bench_serve_load --smoke (closed-loop
#      multi-tenant load with bounded-queue/bounded-p99 assertions), the
#      fairness/starvation checkers via hetflow_check --selftest, and
#      bench_diff.py --selftest
#   5. cluster smoke: a 4-node cluster run through two-level
#      scheduling with a mid-run node kill, --validate (full audit +
#      inter-node directory invariants) and --metrics, for both
#      placement policies, a validated 10^4-task Montage on a 16-node
#      cluster, plus bench_cluster_scaling --smoke
#   6. benchmark harness smoke: build hetflow_perfbench and run each of
#      the four BENCHMARK.json workloads for one second; each run must
#      report "correct": true and "failed": 0
#   7. rebuild with HETFLOW_SANITIZE=address,undefined and run the full
#      suite again under the sanitizers (including the serve smoke)
#   8. rebuild with HETFLOW_SANITIZE=thread and run the parallel-sweep,
#      retry/timeout, campaign-checkpoint, observability golden/
#      determinism, JsonWriter and cluster determinism/failure tests
#      plus a --jobs 4 hetflow_bench smoke sweep under TSan — proves
#      the thread-confinement contract (docs/parallelism.md), not just
#      asserts it
#   9. checkpoint/resume smoke: a campaign killed after two rounds and
#      resumed from its checkpoint must report the same result as the
#      uninterrupted run (docs/fault_tolerance.md), and a hetflow_serve
#      run killed after one batch and resumed must write a latency CSV
#      and metrics JSON byte-identical to the uninterrupted run's
#      (docs/serving.md)
#  10. coverage floors: rebuild with HETFLOW_COVERAGE=ON and require
#      >= 90% line coverage on src/obs/ under the obs suites (the
#      exporters' at-scale parse/dump fixed-point test included) and
#      the JsonWriter suite, >= 95% on src/sched/ under the scheduler
#      suites, >= 90% on src/data/ under the data suites (the
#      eviction differential included), prefetch and cluster failure,
#      >= 95% on src/util/json*.cpp (the number formatter, the
#      writer and the parser) under the JsonWriter and Json suites,
#      >= 90% on src/core/runtime.cpp under the core, fault,
#      prefetch and golden suites, and >= 90% on
#      src/workflow/workflow.cpp under the workflow suites (gcovr when
#      installed, plain gcov otherwise)
#  11. lint: clang-tidy over files changed vs the merge base (all
#      first-party files when git history is unavailable); fails on any
#      diagnostic. Without clang-tidy installed, tools/lint.sh falls back
#      to a strict GCC pass.
#  12. hetflow_lint: the project-specific static analyzer
#      (docs/static_analysis.md) over the whole tree in --json mode;
#      fails on any unsuppressed finding against lint_baseline.txt.
#
# Usage: ci/check.sh [jobs]
set -eu -o pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="${1:-$(nproc)}"
cd "$repo_root"

echo "=== [1/12] build (WERROR) ==="
cmake -B build-ci -S . -DHETFLOW_WERROR=ON
cmake --build build-ci -j "$jobs"

echo "=== [2/12] ctest (plain) ==="
ctest --test-dir build-ci --output-on-failure -j "$jobs"

echo "=== [3/12] core-overhead bench (10^4 smoke, 10^6 validated) ==="
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
# The audit at the scale the bench claims: every shape at 10^6 tasks,
# validated (about 10 s; the JSON it writes stays in build-ci/bench).
(cd build-ci/bench && ./bench_core_overhead --tasks 1000000 --validate)

echo "=== [4/12] serve front-end smoke ==="
# The serve smoke drives the closed-loop multi-tenant load generator at
# two scale points and fails on any bounded-queue or bounded-p99
# violation; the fairness/starvation detectors prove themselves live in
# the hetflow_check selftest (also a ctest, repeated here so this stage
# stands alone); bench_diff validates its own matching/threshold logic.
(cd build-ci/bench && ./bench_serve_load --smoke)
build-ci/tools/hetflow_check --selftest > /dev/null
python3 tools/bench_diff.py --selftest > /dev/null

echo "=== [5/12] cluster smoke (two-level scheduling + node fault) ==="
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
# A validated 10^4-task Pegasus workflow on the 16-node cluster the
# cluster-observed benchmark workload runs on.
build-ci/tools/hetflow_run --workflow montage:2500 --platform cluster:16,4,1 \
    --sched cluster:dmda --validate --metrics > /dev/null
(cd build-ci/bench && ./bench_cluster_scaling --smoke > /dev/null)

echo "=== [6/12] benchmark harness smoke (perfbench, 1 s per workload) ==="
# hetflow_perfbench reads src/ APIs (RuntimeOptions, Recorder,
# SchedContext) that no other stage compiles it against; a break there
# would otherwise surface only at benchmark time. Each workload runs for
# one second and must pass the harness's own output, premise and
# determinism checks with no failed operation.
for workload in pegasus-hpc pegasus-workstation cluster-observed \
                serve-tenants; do
  result="$(CARGO_TARGET_DIR=build-ci/perfbench python3 perfbench/run.py \
      --workload "$workload" --seed 7 --seconds 1 --trace 0 | tail -n 1)"
  python3 -c '
import json, sys
result = json.loads(sys.argv[2])
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit("ci/check.sh: perfbench %s: %s" % (sys.argv[1], sys.argv[2]))
' "$workload" "$result"
done

echo "=== [7/12] ctest (ASan + UBSan) ==="
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

echo "=== [8/12] parallel sweep + obs + cluster determinism under TSan ==="
cmake -B build-tsan -S . -DHETFLOW_WERROR=ON -DHETFLOW_SANITIZE=thread
cmake --build build-tsan -j "$jobs" \
      --target exec_pool_test exec_parallel_test core_failure_test \
               workflow_campaign_test obs_golden_test obs_determinism_test \
               cluster_determinism_test cluster_failure_test \
               check_cluster_test util_json_writer_test hetflow_bench
ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
      -R 'exec_pool_test|exec_parallel_test|core_failure_test|workflow_campaign_test|obs_golden_test|obs_determinism_test|cluster_determinism_test|cluster_failure_test|check_cluster_test|util_json_writer_test'
build-tsan/tools/hetflow_bench \
    --workflows "montage:16;cholesky:6,512" --platforms hpc:4,2,0 \
    --scheds eager,dmda,heft --seeds 2 --noise 0.2 --jobs 4 \
    > build-tsan/sweep_jobs4.csv
build-tsan/tools/hetflow_bench \
    --workflows "montage:16;cholesky:6,512" --platforms hpc:4,2,0 \
    --scheds eager,dmda,heft --seeds 2 --noise 0.2 --jobs 1 \
    > build-tsan/sweep_jobs1.csv
cmp build-tsan/sweep_jobs4.csv build-tsan/sweep_jobs1.csv

echo "=== [9/12] checkpoint/resume round-trip smoke ==="
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
# The serve front end, killed after its first batch and resumed, must
# write the same latency table and metrics snapshot as a run that was
# never interrupted (both are built from the checkpointed ledgers).
serve="build-ci/tools/hetflow_serve"
cat > build-ci/serve_ops.jsonl <<'OPS'
{"op":"tenant","name":"a","weight":2}
{"op":"tenant","name":"b"}
{"op":"submit","tenant":0,"tasks":4,"count":6}
{"op":"submit","tenant":1,"shape":"diamond","tasks":5,"count":6}
{"op":"batch"}
{"op":"submit","tenant":0,"shape":"fanout","tasks":3,"count":3}
{"op":"drain"}
OPS
serve_args=(--script build-ci/serve_ops.jsonl --max-in-flight 2 --max-pending 8 --defer)
"$serve" "${serve_args[@]}" --latency-csv build-ci/serve_straight.csv \
    --metrics-out build-ci/serve_straight.json > /dev/null
rm -f build-ci/serve_ckpt.json
"$serve" "${serve_args[@]}" --max-batches 1 \
    --checkpoint build-ci/serve_ckpt.json > /dev/null
"$serve" "${serve_args[@]}" --resume build-ci/serve_ckpt.json \
    --latency-csv build-ci/serve_resumed.csv \
    --metrics-out build-ci/serve_resumed.json > /dev/null
cmp build-ci/serve_straight.csv build-ci/serve_resumed.csv
cmp build-ci/serve_straight.json build-ci/serve_resumed.json

echo "=== [10/12] line-coverage floors (src/obs, sched, data, util/json, core/runtime, workflow/workflow) ==="
# The obs, sched and data layers are what the golden and differential
# suites pin down; unexecuted code there is unpinned code. Each floor
# counts only the runs of its own test binaries (counters are reset in
# between):
#   src/obs/   >= 90% under the obs + trace suites and the JsonWriter
#              suite the exporters stream through;
#   src/sched/ >= 95% under the sched_* suites (schedule goldens and
#              the class-walk differential included), cluster
#              determinism, the cluster placement differential and the
#              cost-memo oracle;
#   src/data/  >= 90% under the data_* suites (the eviction
#              differential and its golden included), prefetch and
#              cluster failure (the only suite reaching distributed.cpp);
#   src/util/json*.cpp >= 95% under the JsonWriter suite (the
#              formatter's differential test against printf included)
#              and the Json suite (the parser json.cpp also holds);
#   src/core/runtime.cpp >= 90% under the core runtime, dependency,
#              partition, Redux, memo, failure and prefetch suites,
#              cluster failure and the obs and schedule goldens: the
#              attempt-ending, quarantine and node-fault paths all
#              funnel through a few shared helpers, and the floor keeps
#              every one of them exercised;
#   src/workflow/workflow.cpp >= 90% under the workflow_* suites: the
#              one-pass submission order's range, producer and cycle
#              errors stay exercised.
cmake -B build-cov -S . -DHETFLOW_COVERAGE=ON

# coverage_floor <library target> <sources> <floor %> <test>...
# <sources> is a directory ("src/obs/") or a file glob in one directory
# ("src/util/json*.cpp": json.cpp and json_writer.cpp, not headers).
coverage_floor() {
  local library="$1" sources="$2" floor="$3"
  shift 3
  cmake --build build-cov -j "$jobs" --target "$@"
  find build-cov -name '*.gcda' -delete
  ctest --test-dir build-cov --output-on-failure -j "$jobs" \
        -R "^($(IFS='|'; echo "$*"))\$"
  # The glob as a regular expression over source paths.
  local regex
  regex="$(printf '%s' "$sources" | sed 's/\./\\./g; s/\*/[^\/]*/g')"
  if command -v gcovr > /dev/null; then
    gcovr --root . --filter "$regex" --fail-under-line "$floor" \
          --print-summary build-cov
    return
  fi
  # gcov fallback: aggregate "Lines executed" over the library's objects
  # for the matching sources.
  local src_dir="${sources%/*}" file_glob="${sources##*/}"
  local obj_dir="build-cov/src/CMakeFiles/$library.dir/${src_dir#src/}"
  # ${file_glob} stays unquoted: the glob must expand.
  gcov --no-output --object-directory "$obj_dir" \
       "$obj_dir"/${file_glob:-*}.gcda 2> /dev/null |
  REGEX="$regex" awk -v dir="$sources" -v floor="$floor" '
    /^File /      { keep = ($0 ~ ENVIRON["REGEX"]) }
    keep && /^Lines executed:/ {
      split($0, parts, /[:%]/)        # "Lines executed" | pct | " of N"
      pct = parts[2] + 0
      sub(/^[^0-9]*/, "", parts[3]); n = parts[3] + 0
      covered += pct / 100.0 * n; total += n
      keep = 0
    }
    END {
      if (total == 0) { print "coverage: no gcov data for " dir; exit 1 }
      pct = 100.0 * covered / total
      printf "%s line coverage: %.1f%% of %d lines (floor %d%%)\n", dir,
             pct, total, floor
      exit (pct >= floor) ? 0 : 1
    }'
}

coverage_floor hf_obs src/obs/ 90 \
    obs_metrics_test obs_golden_test obs_determinism_test obs_property_test \
    trace_test util_json_writer_test
coverage_floor hf_sched src/sched/ 95 \
    sched_policies_test sched_heft_test sched_cpop_test sched_peft_test \
    sched_property_test sched_golden_test sched_placement_test \
    sched_feasibility_test cluster_determinism_test cluster_placement_test \
    core_memo_test
coverage_floor hf_data src/data/ 90 \
    data_handle_test data_transfer_test data_coherence_test \
    data_manager_test data_eviction_test core_prefetch_test \
    cluster_failure_test
coverage_floor hf_util 'src/util/json*.cpp' 95 \
    util_json_writer_test util_json_test
coverage_floor hf_core 'src/core/runtime.cpp' 90 \
    core_failure_test core_prefetch_test cluster_failure_test \
    obs_golden_test core_runtime_test core_dependency_test \
    core_partition_test core_memo_test sched_golden_test \
    core_redux_release_test
coverage_floor hf_workflow 'src/workflow/workflow.cpp' 90 \
    workflow_generators_test workflow_linalg_test workflow_dagfile_test \
    workflow_campaign_test workflow_streaming_test workflow_spec_test \
    workflow_transform_test workflow_characterize_test

echo "=== [11/12] lint (changed files) ==="
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

echo "=== [12/12] hetflow_lint (whole tree) ==="
# Stage 11's lint.sh already runs the text gate; this stage pins the JSON
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
