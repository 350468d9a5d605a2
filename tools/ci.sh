#!/usr/bin/env bash
# Minimal CI for FlowDiff:
#   1. tier-1 verify: configure, build, and run the full test suite;
#   2. perfbench build: configure perfbench/ (the benchmark's stand-alone
#      build of src/ plus flowbench) and build flowbench without running
#      it, so a library change that breaks the API the benchmark uses
#      (MonitorOptions, SlidingMonitor, MonitorManager, monitor_config())
#      fails here rather than only when the benchmark runs;
#   3. AddressSanitizer pass: rebuild with FLOWDIFF_SANITIZE=address and
#      rerun ctest, then rerun the telemetry-plane suite (ctest -L http)
#      so its verdict is visible on its own in the transcript;
#   4. UndefinedBehaviorSanitizer pass: rebuild with
#      FLOWDIFF_SANITIZE=undefined and rerun the obs-layer tests (the
#      sampler, with the self-watchdog it runs, and the recorder), plus the
#      ingest legs: the golden-trace corpus (ctest -L corpus) and the
#      seeded-corruption fuzz suites (ctest -L fuzz) — corrupted captures
#      are exactly where out-of-range arithmetic would hide — the
#      adversarial-scenario suites (ctest -L attack: attack generators,
#      diagnosis refinement, determinism pins), and the serve/provenance
#      suites, which previously only reran under ASan/TSan;
#   5. ThreadSanitizer pass: rebuild with FLOWDIFF_SANITIZE=thread and
#      rerun the concurrency-heavy suites (executor pool, sliding monitor,
#      incremental model, the scrape-under-load identity suite, obs layer),
#      plus the http-labeled telemetry-plane suite — scraping a live
#      monitor is the cross-thread read path most likely to hide a race —
#      the provenance-labeled suites (provenance records are built on the
#      feeding thread and read from the serve thread and explain CLI,
#      including while both retention rings rotate), and
#      the serve-labeled daemon suites: MonitorManager schedules
#      per-tenant shards across a worker pool, whose windows sample the
#      one process-wide obs::Sampler, while the telemetry plane reads them;
#   6. corruption sweep: run bench/corruption_sweep in the UBSan tree —
#      diagnosis accuracy vs corruption rate, end to end under the
#      sanitizer;
#   7. unoptimized (Debug, -O0) pass with -D_GLIBCXX_ASSERTIONS: rebuild
#      the robustness suite without optimization and rerun the
#      hostile-input cases under a ctest timeout — the optimizer once
#      deleted a loop that walked every idle window of a timestamp gap, so
#      the hang only showed at -O0 — then rebuild the incremental-labeled
#      suites and rerun them (ctest -L incremental) with bounds-checked
#      container indexing, plus the simulator's controller and RNG suites
#      (standard-library distribution preconditions are only checked
#      there) and the task-detector suites with their oracle sweep (a
#      matcher indexing past its state's tokens reads inside a vector's
#      capacity, which only an assertion sees);
#   8. knob count (informational, gates nothing): tools/knob_count.py
#      prints the settable fields of every *Config/*Options/*Thresholds
#      struct in src/ headers, by struct, and their total.
#
# Performance is measured by perfbench/ (see perfbench/README.md), not
# here. CI writes nothing inside the source tree outside its build trees.
#
# Usage: tools/ci.sh [--skip-asan] [--skip-ubsan] [--skip-tsan]
# Run from anywhere; build trees land in
# <repo>/build-ci{,-perfbench,-asan,-ubsan,-tsan,-debug}.
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

echo "== bench: adversarial recall/false-alarm sweep (BENCH_attack.json) =="
# Gated: nominal-intensity recall >= 0.9 with zero steady false alarms, or
# the sweep exits nonzero and CI fails here. The JSON holds only verdict
# counts, so the regenerated copy must match the committed one byte for
# byte; a change that moves the sweep's figures commits the new file.
"$repo/build-ci/bench/attack_sweep" --out="$repo/build-ci/BENCH_attack.json"
cmp "$repo/build-ci/BENCH_attack.json" "$repo/BENCH_attack.json"

echo "== perfbench: build flowbench (not run) =="
cmake -B "$repo/build-ci-perfbench" -S "$repo/perfbench"
cmake --build "$repo/build-ci-perfbench" -j "$jobs" --target flowbench

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
  # demux and stage-latency math deserve the UBSan pass too, and so does
  # ring rotation: the provenance suites feed both retention rings (4096
  # audits, 256 explained windows) past their caps, one of them while a
  # second thread scrapes.
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
    "--tests=^(ExecutorTest|MonitorIdentity|IncrementalModel|SlidingMonitor|ObsTest|TimeseriesTest|FlightRecorderTest)\." \
    -DFLOWDIFF_SANITIZE=thread
  # The scrape path is where a torn window commit would surface as a data
  # race: the serve thread reading monitor state while the feeding thread
  # commits windows.
  echo "== TSan: telemetry plane under scrape load (ctest -L http) =="
  ctest --test-dir "$repo/build-ci-tsan" --output-on-failure -j "$jobs" \
    --no-tests=error -L http
  # Provenance rings commit on the feeding thread and are read
  # concurrently by /provenance scrapes and the explain CLI; one suite
  # rotates both retention rings past their caps while another thread
  # scrapes /provenance?id=, /audits and the transcript.
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

echo "== Debug (-O0): hostile order + hostile timestamps + controller + rng + task detection =="
# Only the robustness suite and the incremental-labeled suites are built;
# other suites' tests register as NOT_BUILT placeholders, which the -R and
# -L filters leave out. _GLIBCXX_ASSERTIONS bounds-checks every container
# index: the window state clears its buffers instead of freeing them, so
# an index past size() but inside the retained capacity is invisible to
# ASan and only an assertion catches it.
cmake -B "$repo/build-ci-debug" -S "$repo" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS
cmake --build "$repo/build-ci-debug" -j "$jobs" --target fuzz_robustness_test \
  incremental_model_test monitor_identity_test window_alloc_test \
  controller_test rng_test task_automaton_test task_detector_oracle_test
ctest --test-dir "$repo/build-ci-debug" --output-on-failure -j "$jobs" \
  --no-tests=error --timeout 60 \
  -R '^(HostileOrder|HostileTimestamp|Controller|DistributedControllerSet|Rng|TaskDetector|TaskAutomaton|TaskDetectorOracle)\.'
echo "== Debug (-O0, _GLIBCXX_ASSERTIONS): incremental window modeling =="
ctest --test-dir "$repo/build-ci-debug" --output-on-failure -j "$jobs" \
  --no-tests=error -L incremental

echo "== knobs: settable Config/Options/Thresholds fields (informational) =="
python3 "$repo/tools/knob_count.py" || true

echo "CI passed."
