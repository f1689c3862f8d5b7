#!/usr/bin/env bash
# Full local check: Release + Debug builds, tests in both, then the bench
# suite in Release (the `benches` lane). Mirrors what CI would run.
#
# `scripts/check.sh benches` builds in Release and runs every
# build/bench/bench_* to the end from inside build/ (benches write their
# BENCH_*.json there, never over the committed baselines), stopping at the
# first bench that exits non-zero and naming it.
#
# `scripts/check.sh tsan` instead builds with -fsanitize=thread and runs
# the concurrency-sensitive tests (worker pool / MapReduce engine /
# executor pipeline / query service / the query-variant pipeline matrix,
# whose prefix-probe case reads one shared candidate tree from every pool
# thread for k > 1, box, subspace and flip descs) under ThreadSanitizer.
#
# `scripts/check.sh asan` builds with -fsanitize=address,undefined and
# runs the full tier-1 suite under ASan+UBSan.
#
# `scripts/check.sh simd` builds once and runs the whole test suite once
# per dispatch tier (ZSKY_FORCE_ISA=scalar|sse42|avx2), skipping tiers the
# host CPU lacks — proving every ISA path computes identical results.
#
# `scripts/check.sh trace` builds with tracing compiled in AND armed at
# runtime (ZSKY_TRACE=1) under ThreadSanitizer, then runs the tier-1 suite
# — proving every span/counter call site is race-free while the whole
# pipeline records.
#
# `scripts/check.sh sched` runs the morsel-scheduler tests (worker-pool
# stealing, collapse parity, the pipeline and the service) under
# ThreadSanitizer, then bench_sched in Release — which self-checks the
# >=2x straggler-skew reduction — and fails if the scheduled end-to-end
# time regresses >10% over the committed BENCH_hotpath.json baseline.
#
# `scripts/check.sh shuffle` runs the engine's serial-reference matrix
# and the pipeline shuffle parity matrix (spill modes x combiner x
# retries, against the BNL oracle) under BOTH AddressSanitizer and
# ThreadSanitizer, then benchmarks the record path in Release and fails
# on a >10% records/sec regression against the committed
# BENCH_shuffle.json baseline.
#
# `scripts/check.sh queries` exercises the QueryDesc variant surface
# (constrained / subspace / k-skyband, docs/queries.md): the full
# scheme x local x variant parity matrix plus the QueryService variant
# fuzz under AddressSanitizer, a CLI flag round trip, then bench_queries
# in Release — which self-checks structural RZ-region pruning
# (regions_pruned_by_box > 0) and the win over full-skyline-then-filter
# at <= 10% box selectivity — with a >10% regression gate on the headline
# 10%-selectivity constrained latency vs the committed
# BENCH_queries.json baseline.
#
# `scripts/check.sh updates` exercises the incremental-maintenance write
# path (docs/updates.md): the mutation fuzz + committed corpus replays,
# the scheme x local update-parity matrix, the QueryService update unit
# tests and the stream and sliding-window suites (service_stream_test)
# under AddressSanitizer; the concurrent mutator/reader fuzz
# under ThreadSanitizer; a CLI insert/delete round trip; a 200-seed
# mutation-fuzz sweep in Release on a heap base and on a .zsc base
# (ZSKY_FUZZ_SEED 1000..1199, each seed running both backings, stopping at
# the first failing seed, which it prints for replay); then
# bench_updates in Release — which self-checks skyline invariance, the
# >=10x dominated-insert win over rebuild, and the <=2x median-latency
# ratio under a live mutate mix — with a >10% regression gate on concurrent
# inserts/sec vs the committed BENCH_updates.json baseline.
#
# `scripts/check.sh outofcore` exercises the mmap-backed .zsc subsystem:
# a CLI gen -> convert -> query round trip (the plain query, a box, a box
# with flips, k = 2 and a subspace, csv vs .zsc byte for byte), the
# format/corruption/parity and columnar-direct tests under
# AddressSanitizer (mmap-vs-heap bit-identity, bounded residency,
# SetDatasetFile, direct-vs-heap parity for every desc kind, sketch
# pruning), the readahead worker torture under
# ThreadSanitizer, then bench_outofcore in Release — which itself fails
# if the budget-bounded run's peak RSS exceeds base + budget + allowance
# or the direct run transposes any bytes — plus >10% gates on warm
# bounded throughput AND a separate cold lane (`bench_outofcore --cold`,
# page cache evicted) against the committed BENCH_outofcore.json
# baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "benches" ]; then
  echo "=== Benchmarks (Release): every bench to the end ==="
  cmake -B build -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build -j "$(nproc)"
  for b in build/bench/bench_*; do
    [ -x "$b" ] || continue
    name="$(basename "$b")"
    echo "--- $name ---"
    if ! (cd build && "./bench/$name"); then
      echo "FAIL: $name exited non-zero"
      exit 1
    fi
  done
  echo "BENCHES PASSED"
  exit 0
fi

if [ "${1:-}" = "simd" ]; then
  echo "=== SIMD dispatch: tests under every supported ISA tier ==="
  cmake -B build -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build -j "$(nproc)"
  features="$(./build/tools/zsky_cli cpu)"
  echo "host: $features"
  for isa in scalar sse42 avx2; do
    if [ "$isa" != scalar ] && ! grep -q "$isa=1" <<<"$features"; then
      echo "--- $isa: not supported by this host, skipped ---"
      continue
    fi
    echo "--- ZSKY_FORCE_ISA=$isa ---"
    ZSKY_FORCE_ISA="$isa" ctest --test-dir build --output-on-failure
  done
  echo "SIMD CHECKS PASSED"
  exit 0
fi

if [ "${1:-}" = "tsan" ]; then
  echo "=== ThreadSanitizer build + concurrency tests ==="
  cmake -B build-tsan -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DZSKY_SANITIZE=thread \
        -DZSKY_BUILD_BENCHMARKS=OFF -DZSKY_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-tsan --target mapreduce_test executor_test \
        query_service_test fuzz_test query_variants_test
  ctest --test-dir build-tsan --output-on-failure \
        -R 'WorkerPool|MapReduceJob|TaskRunner|Executor|Pipeline|QueryService|QueryVariantParity'
  echo "TSAN CHECKS PASSED"
  exit 0
fi

if [ "${1:-}" = "trace" ]; then
  echo "=== Tracing armed (ZSKY_TRACE=1) + TSan build + tier-1 tests ==="
  cmake -B build-trace -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DZSKY_SANITIZE=thread -DZSKY_TRACING=ON \
        -DZSKY_BUILD_BENCHMARKS=OFF -DZSKY_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-trace
  ZSKY_TRACE=1 ctest --test-dir build-trace --output-on-failure
  echo "TRACE CHECKS PASSED"
  exit 0
fi

if [ "${1:-}" = "asan" ]; then
  echo "=== AddressSanitizer+UBSan build + tier-1 tests ==="
  cmake -B build-asan -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DZSKY_SANITIZE=address \
        -DZSKY_BUILD_BENCHMARKS=OFF -DZSKY_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-asan
  ctest --test-dir build-asan --output-on-failure
  echo "ASAN CHECKS PASSED"
  exit 0
fi

if [ "${1:-}" = "sched" ]; then
  echo "=== Scheduler tests under TSan ==="
  cmake -B build-tsan -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DZSKY_SANITIZE=thread \
        -DZSKY_BUILD_BENCHMARKS=OFF -DZSKY_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-tsan --target mapreduce_test executor_test \
        query_service_test
  ctest --test-dir build-tsan --output-on-failure \
        -R 'WorkerPool|MapReduceJob|Executor|Pipeline|QueryService'

  echo "=== bench_sched vs committed hotpath baseline ==="
  cmake -B build -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build -j "$(nproc)" --target bench_sched
  (cd build && ./bench/bench_sched)
  baseline=$(grep -o '"hotpath_ms": [0-9.]*' BENCH_hotpath.json \
             | awk '{print $2}')
  current=$(grep -o '"sched_ms": [0-9.]*' build/BENCH_sched.json \
            | awk '{print $2}')
  echo "end-to-end ms: hotpath baseline=$baseline sched=$current"
  awk -v b="$baseline" -v c="$current" 'BEGIN {
    if (c > 1.1 * b) {
      printf "FAIL: scheduled end-to-end regressed >10%% (%.1f -> %.1f)\n", b, c
      exit 1
    }
    printf "OK: within 10%% of hotpath baseline (%.2fx)\n", c / b
  }'
  echo "SCHED CHECKS PASSED"
  exit 0
fi

if [ "${1:-}" = "shuffle" ]; then
  echo "=== Shuffle parity matrix under ASan ==="
  cmake -B build-asan -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DZSKY_SANITIZE=address \
        -DZSKY_BUILD_BENCHMARKS=OFF -DZSKY_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-asan --target mapreduce_test shuffle_parity_test
  ctest --test-dir build-asan --output-on-failure \
        -R 'MapReduceJob|RecordBuffer|ShuffleParity'

  echo "=== Shuffle parity matrix under TSan ==="
  cmake -B build-tsan -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DZSKY_SANITIZE=thread \
        -DZSKY_BUILD_BENCHMARKS=OFF -DZSKY_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-tsan --target mapreduce_test shuffle_parity_test
  ctest --test-dir build-tsan --output-on-failure \
        -R 'MapReduceJob|RecordBuffer|ShuffleParity'

  echo "=== Record-path throughput vs committed baseline ==="
  cmake -B build -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build -j "$(nproc)" --target bench_shuffle
  (cd build && ./bench/bench_shuffle)
  baseline=$(awk -F': ' '/"zero_copy_records_per_sec"/ {gsub(/,/, "", $2); print $2}' \
             BENCH_shuffle.json)
  current=$(awk -F': ' '/"zero_copy_records_per_sec"/ {gsub(/,/, "", $2); print $2}' \
            build/BENCH_shuffle.json)
  echo "zero-copy records/sec: baseline=$baseline current=$current"
  awk -v b="$baseline" -v c="$current" 'BEGIN {
    if (c < 0.9 * b) {
      printf "FAIL: records/sec regressed >10%% (%.0f -> %.0f)\n", b, c
      exit 1
    }
    printf "OK: within 10%% of baseline (%.2fx)\n", c / b
  }'
  echo "SHUFFLE CHECKS PASSED"
  exit 0
fi

if [ "${1:-}" = "queries" ]; then
  echo "=== Query-variant parity matrix + service fuzz under ASan ==="
  cmake -B build-asan -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DZSKY_SANITIZE=address \
        -DZSKY_BUILD_BENCHMARKS=OFF -DZSKY_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-asan --target query_variants_test query_plan_test \
        fuzz_test query_service_test
  ctest --test-dir build-asan --output-on-failure \
        -R 'QueryVariant|VariantCache|BoxPruning|BoxQuery|DimsQuery|QueryServiceVariant|QueryServiceFuzz|ProjectDimsInto|PlanReuse'

  echo "=== CLI variant-flag round trip (Release) ==="
  cmake -B build -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build -j "$(nproc)" --target zsky_cli bench_queries
  qt="$(mktemp -d)"
  trap 'rm -rf "$qt"' EXIT
  ./build/tools/zsky_cli gen --dist anti --n 20000 --dim 4 --seed 7 \
    --out "$qt/q.csv"
  ./build/tools/zsky_cli query --in "$qt/q.csv" \
    --lo 0,0,0,0 --hi 6553,65535,65535,65535 --k 2 > "$qt/boxed.txt"
  ./build/tools/zsky_cli query --in "$qt/q.csv" --dims 0,2 --flip 2 \
    > "$qt/sub.txt"
  echo "OK: $(head -1 "$qt/boxed.txt") / $(head -1 "$qt/sub.txt")"

  echo "=== bench_queries: pruning win + latency baseline ==="
  (cd build && ./bench/bench_queries)
  baseline=$(grep -o '"constrained_ms_sel10": [0-9.]*' BENCH_queries.json \
             | awk '{print $2}')
  current=$(grep -o '"constrained_ms_sel10": [0-9.]*' \
            build/BENCH_queries.json | awk '{print $2}')
  echo "10%-selectivity constrained ms: baseline=$baseline current=$current"
  awk -v b="$baseline" -v c="$current" 'BEGIN {
    if (c > 1.1 * b) {
      printf "FAIL: constrained query regressed >10%% (%.1f -> %.1f)\n", b, c
      exit 1
    }
    printf "OK: within 10%% of baseline (%.2fx)\n", c / b
  }'
  echo "QUERIES CHECKS PASSED"
  exit 0
fi

if [ "${1:-}" = "outofcore" ]; then
  echo "=== CLI gen -> convert -> query round trip (Release) ==="
  cmake -B build -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build -j "$(nproc)" --target zsky_cli bench_outofcore
  rt="$(mktemp -d)"
  trap 'rm -rf "$rt"' EXIT
  ./build/tools/zsky_cli gen --dist anti --n 50000 --dim 6 --seed 7 \
    --out "$rt/rt.csv"
  ./build/tools/zsky_cli convert --in "$rt/rt.csv" --out "$rt/rt.zsc"
  ./build/tools/zsky_cli query --in "$rt/rt.csv" > "$rt/heap.txt"
  ./build/tools/zsky_cli query --in "$rt/rt.zsc" > "$rt/mmap.txt"
  if ! diff -q "$rt/heap.txt" "$rt/mmap.txt"; then
    echo "FAIL: csv and converted .zsc skylines differ"
    exit 1
  fi
  echo "OK: csv and .zsc query output identical ($(head -1 "$rt/heap.txt"))"
  # Every desc kind runs job 1's column-direct wave on the .zsc and the
  # row scan on the csv's heap copy: the outputs must match byte for byte.
  box="--lo 0,5000,0,0,5000,0 --hi 45000,50000,45000,45000,60000,45000"
  for variant in "$box" "$box --flip 1,4" "--k 2" "--dims 0,2,3,5"; do
    # shellcheck disable=SC2086  # $variant is a list of flags.
    ./build/tools/zsky_cli query --in "$rt/rt.csv" $variant > "$rt/heap.txt"
    # shellcheck disable=SC2086
    ./build/tools/zsky_cli query --in "$rt/rt.zsc" $variant > "$rt/mmap.txt"
    if ! cmp -s "$rt/heap.txt" "$rt/mmap.txt"; then
      echo "FAIL: csv and .zsc output differ for: $variant"
      exit 1
    fi
    echo "OK: identical for $variant ($(head -1 "$rt/heap.txt"))"
  done

  echo "=== Columnar format + out-of-core parity tests under ASan ==="
  cmake -B build-asan -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DZSKY_SANITIZE=address \
        -DZSKY_BUILD_BENCHMARKS=OFF -DZSKY_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-asan --target columnar_test outofcore_parity_test \
        columnar_direct_test io_test
  ctest --test-dir build-asan --output-on-failure \
        -R 'Columnar|DatasetView|OutOfCore|BinaryTest'

  echo "=== Readahead worker torture under TSan ==="
  cmake -B build-tsan -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DZSKY_SANITIZE=thread \
        -DZSKY_BUILD_BENCHMARKS=OFF -DZSKY_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-tsan --target columnar_direct_test
  ctest --test-dir build-tsan --output-on-failure -R 'OutOfCoreReadahead'

  echo "=== bench_outofcore: RSS ceiling + throughput baseline ==="
  # Re-run the exact committed workload (the baseline may be the 50M
  # --full headline) so the throughput gate is apples-to-apples. The
  # bench exits non-zero itself when the budget-bounded run's peak RSS
  # breaks base + budget + allowance — the out-of-core claim.
  bn=$(grep -o '"n": [0-9]*' BENCH_outofcore.json | awk '{print $2}')
  bdim=$(grep -o '"dim": [0-9]*' BENCH_outofcore.json | awk '{print $2}')
  bmb=$(grep -o '"budget_mb": [0-9]*' BENCH_outofcore.json | awk '{print $2}')
  (cd build && ./bench/bench_outofcore --n "$bn" --dim "$bdim" \
    --budget-mb "$bmb")
  baseline=$(awk -F': ' '/"outofcore_points_per_sec"/ {gsub(/,/, "", $2); print $2}' \
             BENCH_outofcore.json)
  current=$(awk -F': ' '/"outofcore_points_per_sec"/ {gsub(/,/, "", $2); print $2}' \
            build/BENCH_outofcore.json)
  echo "bounded points/sec: baseline=$baseline current=$current"
  awk -v b="$baseline" -v c="$current" 'BEGIN {
    if (c < 0.9 * b) {
      printf "FAIL: bounded points/sec regressed >10%% (%.0f -> %.0f)\n", b, c
      exit 1
    }
    printf "OK: within 10%% of baseline (%.2fx)\n", c / b
  }'

  echo "=== bench_outofcore --cold: cold-run throughput baseline ==="
  # Separate lane: the page cache is dropped before each run, so this
  # measures the fault-in path the readahead worker hides — a regression
  # here (a lost madvise, a stalled worker) is invisible to the warm
  # gate. Gate on the better of the readahead-on/off lanes: which one
  # wins depends on whether the host has a spare core for the prefetch
  # worker, while a real cold-path regression slows both.
  (cd build && ./bench/bench_outofcore --n "$bn" --dim "$bdim" \
    --budget-mb "$bmb" --cold)
  cold_best() {
    awk -F': ' '/"cold_points_per_sec"|"cold_noreadahead_points_per_sec"/ {
      gsub(/,/, "", $2); if ($2 + 0 > best) best = $2 + 0
    } END {print best}' "$1"
  }
  baseline=$(cold_best BENCH_outofcore.json)
  current=$(cold_best build/BENCH_outofcore.json)
  echo "cold points/sec (best lane): baseline=$baseline current=$current"
  awk -v b="$baseline" -v c="$current" 'BEGIN {
    if (c < 0.9 * b) {
      printf "FAIL: cold points/sec regressed >10%% (%.0f -> %.0f)\n", b, c
      exit 1
    }
    printf "OK: within 10%% of baseline (%.2fx)\n", c / b
  }'
  echo "OUTOFCORE CHECKS PASSED"
  exit 0
fi

if [ "${1:-}" = "updates" ]; then
  echo "=== Mutation fuzz + update parity + unit tests under ASan ==="
  cmake -B build-asan -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DZSKY_SANITIZE=address \
        -DZSKY_BUILD_BENCHMARKS=OFF -DZSKY_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-asan --target fuzz_test update_parity_test \
        query_service_test service_stream_test
  ctest --test-dir build-asan --output-on-failure \
        -R 'QueryServiceMutate|QueryServiceUpdates|UpdateParity|QueryServiceFuzz|QueryServiceStream|QueryServiceWindow'

  echo "=== Concurrent mutators/readers under TSan ==="
  cmake -B build-tsan -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DZSKY_SANITIZE=thread \
        -DZSKY_BUILD_BENCHMARKS=OFF -DZSKY_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-tsan --target fuzz_test query_service_test
  ctest --test-dir build-tsan --output-on-failure \
        -R 'QueryServiceMutate|QueryServiceUpdates'

  echo "=== CLI insert/delete round trip (Release) ==="
  cmake -B build -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build -j "$(nproc)" --target zsky_cli bench_updates
  ut="$(mktemp -d)"
  trap 'rm -rf "$ut"' EXIT
  ./build/tools/zsky_cli gen --dist anti --n 20000 --dim 4 --seed 7 \
    --out "$ut/u.csv"
  # Inserting the origin must collapse the skyline to exactly the new id.
  ./build/tools/zsky_cli insert --in "$ut/u.csv" --points 0,0,0,0 \
    > "$ut/ins.txt"
  if [ "$(sed -n 2p "$ut/ins.txt")" != 20000 ] || \
     [ "$(wc -l < "$ut/ins.txt")" -ne 2 ]; then
    echo "FAIL: origin insert did not yield skyline {20000}"
    cat "$ut/ins.txt"
    exit 1
  fi
  # Deleting a skyline member must remove its (stable, pre-merge) id.
  ./build/tools/zsky_cli query --in "$ut/u.csv" > "$ut/base.txt"
  victim="$(sed -n 2p "$ut/base.txt")"
  ./build/tools/zsky_cli delete --in "$ut/u.csv" --ids "$victim" \
    > "$ut/del.txt"
  if grep -qx "$victim" "$ut/del.txt"; then
    echo "FAIL: deleted row $victim still in skyline"
    exit 1
  fi
  echo "OK: insert -> {20000}, delete removed row $victim"

  echo "=== Mutation fuzz sweep: 200 seeds x heap and .zsc bases (Release) ==="
  cmake --build build -j "$(nproc)" --target fuzz_test
  for seed in $(seq 1000 1199); do
    if ! ZSKY_FUZZ_SEED="$seed" ./build/tests/fuzz_test \
         --gtest_filter='Seeds/QueryServiceMutateFuzz.*' > "$ut/fuzz.log" 2>&1
    then
      cat "$ut/fuzz.log"
      echo "FAIL: mutation fuzz seed $seed (replay with ZSKY_FUZZ_SEED=$seed)"
      exit 1
    fi
  done
  echo "OK: 200 mutation-fuzz seeds match the BNL oracle on both backings"

  echo "=== bench_updates: delta win + latency ratio + inserts/sec baseline ==="
  (cd build && ./bench/bench_updates)
  baseline=$(awk -F': ' '/"inserts_per_sec_concurrent"/ {gsub(/,/, "", $2); print $2}' \
             BENCH_updates.json)
  current=$(awk -F': ' '/"inserts_per_sec_concurrent"/ {gsub(/,/, "", $2); print $2}' \
            build/BENCH_updates.json)
  echo "concurrent inserts/sec: baseline=$baseline current=$current"
  awk -v b="$baseline" -v c="$current" 'BEGIN {
    if (c < 0.9 * b) {
      printf "FAIL: inserts/sec regressed >10%% (%.0f -> %.0f)\n", b, c
      exit 1
    }
    printf "OK: within 10%% of baseline (%.2fx)\n", c / b
  }'
  echo "UPDATES CHECKS PASSED"
  exit 0
fi

echo "=== Release build + tests ==="
cmake -B build -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure

echo "=== Debug build + tests (assertions on) ==="
cmake -B build-debug -G Ninja -DCMAKE_BUILD_TYPE=Debug \
      -DZSKY_BUILD_BENCHMARKS=OFF -DZSKY_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-debug
ctest --test-dir build-debug --output-on-failure

bash scripts/check.sh benches

echo "ALL CHECKS PASSED"
