#!/usr/bin/env bash
# Minimal CI for FlowDiff:
#   1. tier-1 verify: configure, build, and run the full test suite;
#   2. AddressSanitizer pass: rebuild with FLOWDIFF_SANITIZE=address and
#      rerun ctest, then rerun the telemetry-plane suite (ctest -L http)
#      so its verdict is visible on its own in the transcript;
#   3. UndefinedBehaviorSanitizer pass: rebuild with
#      FLOWDIFF_SANITIZE=undefined and rerun the obs-layer tests (the
#      sampler/recorder/watchdog code paths PRs keep touching), plus the
#      ingest legs: the golden-trace corpus (ctest -L corpus) and the
#      seeded-corruption fuzz suites (ctest -L fuzz) — corrupted captures
#      are exactly where out-of-range arithmetic would hide — the
#      adversarial-scenario suites (ctest -L attack: attack generators,
#      diagnosis refinement, determinism pins), and the serve/provenance
#      suites, which previously only reran under ASan/TSan;
#   4. ThreadSanitizer pass: rebuild with FLOWDIFF_SANITIZE=thread and
#      rerun the concurrency-heavy suites (executor pool, sliding monitor,
#      incremental model, the scrape-under-load identity suite, obs layer),
#      plus the http-labeled telemetry-plane suite — scraping a live
#      monitor is the cross-thread read path most likely to hide a race —
#      the provenance-labeled suites (provenance records are built on the
#      feeding thread and read from the serve thread and explain CLI), and
#      the serve-labeled daemon suites: MonitorManager schedules
#      per-tenant shards across a worker pool while the telemetry plane
#      reads them;
#   5. corruption sweep: run bench/corruption_sweep in the UBSan tree —
#      diagnosis accuracy vs corruption rate, end to end under the
#      sanitizer;
#   6. unoptimized (Debug, -O0) pass: rebuild the robustness suite without
#      optimization and rerun the hostile-input cases under a ctest
#      timeout — the optimizer once deleted a loop that walked every idle
#      window of a timestamp gap, so the hang only showed at -O0;
#   7. throughput bench: run bench/throughput_replay (full timed leg, the
#      uninstrumented tier-1 tree) over the golden-trace corpus and
#      refresh BENCH_throughput.json at the repo root — the recorded perf
#      trajectory every PR extends. Sanitizer trees skip the timed leg but
#      still cover the code path once via the ctest case labeled `bench`
#      (ThroughputReplay.Quick) that the full ASan suite includes.
#
# Usage: tools/ci.sh [--skip-asan] [--skip-ubsan] [--skip-tsan]
# Run from anywhere; build trees land in
# <repo>/build-ci{,-asan,-ubsan,-tsan,-debug}.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
skip_asan=0
skip_ubsan=0
skip_tsan=0
for arg in "$@"; do
  case "$arg" in
    --skip-asan) skip_asan=1 ;;
    --skip-ubsan) skip_ubsan=1 ;;
    --skip-tsan) skip_tsan=1 ;;
    *)
      echo "unknown flag: $arg" >&2
      exit 2
      ;;
  esac
done

run_suite() {
  local build_dir="$1"
  shift
  local ctest_filter=""
  if [[ "${1:-}" == --tests=* ]]; then
    ctest_filter="${1#--tests=}"
    shift
  fi
  cmake -B "$build_dir" -S "$repo" "$@"
  cmake --build "$build_dir" -j "$jobs"
  if [[ -n "$ctest_filter" ]]; then
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" \
      --no-tests=error -R "$ctest_filter"
  else
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
  fi
}

echo "== tier-1: build + ctest =="
run_suite "$repo/build-ci"

echo "== bench: corpus ingest throughput (BENCH_throughput.json) =="
# Timed leg on the uninstrumented tree only; it also re-pins every
# committed .golden transcript byte for byte before reporting numbers.
"$repo/build-ci/bench/throughput_replay" --out="$repo/BENCH_throughput.json"

echo "== bench: adversarial recall/false-alarm sweep (BENCH_attack.json) =="
# Gated: nominal-intensity recall >= 0.9 with zero steady false alarms, or
# the sweep exits nonzero and CI fails here.
"$repo/build-ci/bench/attack_sweep" --out="$repo/BENCH_attack.json"

if [[ "$skip_asan" -eq 0 ]]; then
  echo "== ASan: build + ctest (FLOWDIFF_SANITIZE=address) =="
  run_suite "$repo/build-ci-asan" -DFLOWDIFF_SANITIZE=address
  # The full suite above already ran these; the labeled rerun makes the
  # ingest legs' verdicts visible on their own in the CI transcript.
  echo "== ASan: golden corpus + corruption fuzz (ctest -L corpus/fuzz) =="
  ctest --test-dir "$repo/build-ci-asan" --output-on-failure -j "$jobs" \
    --no-tests=error -L 'corpus|fuzz'
  echo "== ASan: telemetry plane (ctest -L http) =="
  ctest --test-dir "$repo/build-ci-asan" --output-on-failure -j "$jobs" \
    --no-tests=error -L http
  echo "== ASan: serve daemon (ctest -L serve) =="
  ctest --test-dir "$repo/build-ci-asan" --output-on-failure -j "$jobs" \
    --no-tests=error -L serve
  # Delta-maintained window modeling: each window's aggregates are
  # finalized in place and reset for reuse, which is exactly where a
  # stale pointer into recycled storage would hide.
  echo "== ASan: incremental window modeling (ctest -L incremental) =="
  ctest --test-dir "$repo/build-ci-asan" --output-on-failure -j "$jobs" \
    --no-tests=error -L incremental
fi

if [[ "$skip_ubsan" -eq 0 ]]; then
  echo "== UBSan: build + obs tests (FLOWDIFF_SANITIZE=undefined) =="
  run_suite "$repo/build-ci-ubsan" \
    "--tests=^(ObsTest|TimeseriesTest|FlightRecorderTest|ReportTest)\." \
    -DFLOWDIFF_SANITIZE=undefined
  echo "== UBSan: golden corpus + corruption fuzz (ctest -L corpus/fuzz) =="
  ctest --test-dir "$repo/build-ci-ubsan" --output-on-failure -j "$jobs" \
    --no-tests=error -L 'corpus|fuzz'
  echo "== UBSan: adversarial scenario suites (ctest -L attack) =="
  ctest --test-dir "$repo/build-ci-ubsan" --output-on-failure -j "$jobs" \
    --no-tests=error -L attack
  # serve/provenance previously reran only under ASan/TSan; integer-heavy
  # demux and stage-latency math deserve the UBSan pass too.
  echo "== UBSan: serve daemon + alarm provenance (ctest -L serve/provenance) =="
  ctest --test-dir "$repo/build-ci-ubsan" --output-on-failure -j "$jobs" \
    --no-tests=error -L 'serve|provenance'
  # The incremental modeler's streaming aggregates (histogram binning,
  # running sums, per-segment re-bucketing) are arithmetic-dense; UBSan
  # guards the oracle-identity sweep's math.
  echo "== UBSan: incremental window modeling (ctest -L incremental) =="
  ctest --test-dir "$repo/build-ci-ubsan" --output-on-failure -j "$jobs" \
    --no-tests=error -L incremental
  echo "== UBSan: corruption sweep bench (quick) =="
  "$repo/build-ci-ubsan/bench/corruption_sweep" --quick
  echo "== UBSan: attack sweep bench (quick) =="
  "$repo/build-ci-ubsan/bench/attack_sweep" --quick \
    --out="$repo/build-ci-ubsan/bench_attack_quick.json"
fi

if [[ "$skip_tsan" -eq 0 ]]; then
  echo "== TSan: build + concurrency tests (FLOWDIFF_SANITIZE=thread) =="
  run_suite "$repo/build-ci-tsan" \
    "--tests=^(ExecutorTest|ParallelModel|IncrementalModel|SlidingMonitor|ObsTest|TimeseriesTest|FlightRecorderTest)\." \
    -DFLOWDIFF_SANITIZE=thread
  # The scrape path is where a torn window commit would surface as a data
  # race: the serve thread reading monitor state while the feeding thread
  # commits windows.
  echo "== TSan: telemetry plane under scrape load (ctest -L http) =="
  ctest --test-dir "$repo/build-ci-tsan" --output-on-failure -j "$jobs" \
    --no-tests=error -L http
  # Provenance rings commit on the feeding thread and are read
  # concurrently by /provenance scrapes and the explain CLI.
  echo "== TSan: alarm provenance (ctest -L provenance) =="
  ctest --test-dir "$repo/build-ci-tsan" --output-on-failure -j "$jobs" \
    --no-tests=error -L provenance
  # The serve daemon is the most concurrent thing in the tree: per-tenant
  # shard tasks on the manager pool, live sources on the serve loop, and
  # the telemetry plane reading shard state from its own thread.
  echo "== TSan: serve daemon (ctest -L serve) =="
  ctest --test-dir "$repo/build-ci-tsan" --output-on-failure -j "$jobs" \
    --no-tests=error -L serve
  # Windows are modeled on whichever thread feeds them: a manager worker
  # in serve, the caller elsewhere, while health()/snapshot() read the
  # committed results from other threads.
  echo "== TSan: incremental window modeling (ctest -L incremental) =="
  ctest --test-dir "$repo/build-ci-tsan" --output-on-failure -j "$jobs" \
    --no-tests=error -L incremental
fi

echo "== Debug (-O0): hostile order + hostile timestamps =="
# Only the robustness suite is built; other suites' tests register as
# NOT_BUILT placeholders, which the -R filter leaves out.
cmake -B "$repo/build-ci-debug" -S "$repo" -DCMAKE_BUILD_TYPE=Debug
cmake --build "$repo/build-ci-debug" -j "$jobs" --target fuzz_robustness_test
ctest --test-dir "$repo/build-ci-debug" --output-on-failure -j "$jobs" \
  --no-tests=error --timeout 60 -R '^(HostileOrder|HostileTimestamp)\.'

echo "CI passed."
