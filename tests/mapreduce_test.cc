#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <new>
#include <numeric>
#include <span>
#include <string>
#include <thread>

#include "mapreduce/job.h"
#include "mapreduce/record_buffer.h"
#include "mapreduce/task_runner.h"
#include "mapreduce/worker_pool.h"

// Counting allocator: replaces the global operator new/delete with
// malloc/free wrappers that count every heap allocation in the process.
// The steady-state test below uses the counter to prove the columnar
// record path allocates nothing per record once its chunk pool and
// scratch arrays are warm. Replacements call malloc, so the sanitizers
// still see every allocation. GCC can't pair call sites with these
// TU-local replacements and warns spuriously; replacement is global at
// link time, so new/delete always match.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) -
                                    1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// The nothrow forms must be replaced too: libstdc++'s stable_sort grabs
// its temporary buffer through operator new(nothrow), and the matching
// delete goes through the plain (replaced) form — mixing the library's
// nothrow new with our free() trips ASan's alloc-dealloc-mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace zsky::mr {
namespace {

TEST(TaskRunnerTest, RunsEveryTaskExactlyOnce) {
  TaskRunner runner(4);
  std::vector<std::atomic<int>> hits(100);
  const auto metrics = runner.Run(100, [&](size_t task) {
    hits[task].fetch_add(1);
  });
  EXPECT_EQ(metrics.size(), 100u);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskRunnerTest, ZeroTasks) {
  TaskRunner runner(2);
  EXPECT_TRUE(runner.Run(0, [](size_t) { FAIL(); }).empty());
}

TEST(TaskRunnerTest, SingleThreadFallback) {
  TaskRunner runner(1);
  int counter = 0;
  runner.Run(10, [&](size_t) { ++counter; });  // No data race possible.
  EXPECT_EQ(counter, 10);
}

TEST(TaskRunnerTest, DefaultsToHardwareConcurrency) {
  TaskRunner runner(0);
  EXPECT_GE(runner.num_threads(), 1u);
}

TEST(TaskRunnerTest, MeasuresTaskTime) {
  TaskRunner runner(2);
  const auto metrics = runner.Run(4, [&](size_t) {
    volatile double x = 0;
    for (int i = 0; i < 100000; ++i) x = x + i;
  });
  for (const auto& m : metrics) EXPECT_GE(m.ms, 0.0);
}

TEST(WaveStatsTest, Summarize) {
  std::vector<TaskMetrics> tasks(3);
  tasks[0].ms = 1.0;
  tasks[1].ms = 2.0;
  tasks[2].ms = 6.0;
  const WaveStats stats = Summarize(tasks);
  EXPECT_DOUBLE_EQ(stats.max_ms, 6.0);
  EXPECT_DOUBLE_EQ(stats.min_ms, 1.0);
  EXPECT_DOUBLE_EQ(stats.mean_ms, 3.0);
  EXPECT_DOUBLE_EQ(stats.skew, 2.0);
}

TEST(MakespanTest, EmptyAndZeroSlots) {
  EXPECT_EQ(MakespanMs({}, 4), 0.0);
  std::vector<TaskMetrics> tasks(2);
  EXPECT_EQ(MakespanMs(tasks, 0), 0.0);
}

TEST(MakespanTest, SingleSlotIsSum) {
  std::vector<TaskMetrics> tasks(3);
  tasks[0].ms = 1.0;
  tasks[1].ms = 2.0;
  tasks[2].ms = 3.0;
  EXPECT_DOUBLE_EQ(MakespanMs(tasks, 1), 6.0);
}

TEST(MakespanTest, EnoughSlotsIsMax) {
  std::vector<TaskMetrics> tasks(3);
  tasks[0].ms = 1.0;
  tasks[1].ms = 5.0;
  tasks[2].ms = 3.0;
  EXPECT_DOUBLE_EQ(MakespanMs(tasks, 3), 5.0);
  EXPECT_DOUBLE_EQ(MakespanMs(tasks, 10), 5.0);
}

TEST(MakespanTest, LptPacking) {
  // Durations 4,3,3,2 on 2 slots: LPT gives {4,2} and {3,3} -> 6.
  std::vector<TaskMetrics> tasks(4);
  tasks[0].ms = 3.0;
  tasks[1].ms = 4.0;
  tasks[2].ms = 2.0;
  tasks[3].ms = 3.0;
  EXPECT_DOUBLE_EQ(MakespanMs(tasks, 2), 6.0);
}

TEST(MakespanTest, StragglerDominates) {
  // One giant task bounds the wave no matter how many slots.
  std::vector<TaskMetrics> tasks(8);
  for (auto& t : tasks) t.ms = 1.0;
  tasks[3].ms = 100.0;
  EXPECT_DOUBLE_EQ(MakespanMs(tasks, 8), 100.0);
  // Even with fewer slots, LPT keeps the straggler's slot otherwise empty.
  EXPECT_DOUBLE_EQ(MakespanMs(tasks, 4), 100.0);
  EXPECT_DOUBLE_EQ(MakespanMs(tasks, 1), 107.0);
}

TEST(SimulatedMsTest, AddsShuffleTerm) {
  JobMetrics metrics;
  metrics.map_tasks.resize(2);
  metrics.map_tasks[0].ms = 10.0;
  metrics.map_tasks[1].ms = 10.0;
  metrics.reduce_tasks.resize(1);
  metrics.reduce_tasks[0].ms = 5.0;
  metrics.shuffle_bytes = 1048576;  // 1 MiB at 1 MiB/s ~ 1000 ms.
  const double with_net = metrics.SimulatedMs(2, 1.0);
  EXPECT_NEAR(with_net, 10.0 + 1000.0 + 5.0, 1e-6);
  const double no_net = metrics.SimulatedMs(2, 0.0);
  EXPECT_NEAR(no_net, 15.0, 1e-9);
}

// Word-count style job: verifies grouping, combining and shuffle counters.
TEST(MapReduceJobTest, SumPerKey) {
  MapReduceJob<uint64_t>::Options options;
  options.num_reduce_tasks = 3;
  options.num_threads = 4;
  MapReduceJob<uint64_t> job(options);

  std::mutex mu;
  std::map<int32_t, uint64_t> sums;
  const JobMetrics metrics = job.Run(
      8,
      [](size_t task, auto& emit) {
        // Each split emits values 1..10 to keys 0..4.
        for (uint64_t v = 1; v <= 10; ++v) {
          emit(static_cast<int32_t>((task + v) % 5), v);
        }
      },
      [](int32_t, std::span<const uint64_t> values, auto&& emit) {
        uint64_t total = 0;
        for (uint64_t v : values) total += v;
        emit(total);
      },
      [&](int32_t key, std::span<const uint64_t> values) {
        uint64_t total = 0;
        for (uint64_t v : values) total += v;
        const std::lock_guard<std::mutex> lock(mu);
        sums[key] += total;
      });

  uint64_t grand_total = 0;
  for (const auto& [key, total] : sums) grand_total += total;
  EXPECT_EQ(grand_total, 8u * 55u);
  EXPECT_EQ(sums.size(), 5u);
  EXPECT_EQ(metrics.map_tasks.size(), 8u);
  EXPECT_EQ(metrics.reduce_tasks.size(), 3u);
  // Combiner collapses each (task,key) group to one record.
  EXPECT_LT(metrics.shuffle_records, 8u * 10u);
  EXPECT_GT(metrics.shuffle_bytes, 0u);
  EXPECT_GT(metrics.combiner_in, metrics.combiner_out);
}

TEST(MapReduceJobTest, NegativeKeysAreDropped) {
  MapReduceJob<int>::Options options;
  options.num_reduce_tasks = 2;
  options.num_threads = 2;
  MapReduceJob<int> job(options);
  std::atomic<int> reduced{0};
  const JobMetrics metrics = job.Run(
      2,
      [](size_t, auto& emit) {
        emit(-1, 1);
        emit(0, 2);
      },
      nullptr,
      [&](int32_t, std::span<const int> values) {
        reduced.fetch_add(static_cast<int>(values.size()));
      });
  EXPECT_EQ(reduced.load(), 2);
  EXPECT_EQ(metrics.shuffle_records, 2u);
}

TEST(MapReduceJobTest, CombinerCanBeDisabled) {
  MapReduceJob<int>::Options options;
  options.num_reduce_tasks = 1;
  options.enable_combiner = false;
  options.num_threads = 1;
  MapReduceJob<int> job(options);
  const JobMetrics metrics = job.Run(
      4,
      [](size_t, auto& emit) {
        for (int i = 0; i < 5; ++i) emit(0, i);
      },
      [](int32_t, std::span<const int>, auto&&) {
        // Would erase everything if invoked.
      },
      [](int32_t, std::span<const int> values) {
        EXPECT_EQ(values.size(), 20u);
      });
  EXPECT_EQ(metrics.shuffle_records, 20u);
  EXPECT_EQ(metrics.combiner_in, 0u);
}

TEST(MapReduceJobTest, KeysPartitionedAcrossReducers) {
  MapReduceJob<int>::Options options;
  options.num_reduce_tasks = 4;
  options.num_threads = 4;
  MapReduceJob<int> job(options);
  std::mutex mu;
  std::map<int32_t, int> seen;  // key -> times reduced.
  job.Run(
      6,
      [](size_t, auto& emit) {
        for (int32_t k = 0; k < 12; ++k) emit(k, 1);
      },
      nullptr,
      [&](int32_t key, std::span<const int> values) {
        const std::lock_guard<std::mutex> lock(mu);
        seen[key] += 1;
        EXPECT_EQ(values.size(), 6u);
      });
  EXPECT_EQ(seen.size(), 12u);
  for (const auto& [key, times] : seen) EXPECT_EQ(times, 1);
}

TEST(MapReduceJobTest, SpillToDiskMatchesInMemory) {
  auto run = [](bool spill) {
    MapReduceJob<uint64_t>::Options options;
    options.num_reduce_tasks = 3;
    options.num_threads = 2;
    options.spill_to_disk = spill;
    options.spill_dir = ::testing::TempDir();
    MapReduceJob<uint64_t> job(options);
    std::mutex mu;
    std::map<int32_t, uint64_t> sums;
    const JobMetrics metrics = job.Run(
        5,
        [](size_t task, auto& emit) {
          for (uint64_t v = 0; v < 50; ++v) emit((task * v) % 9, v);
        },
        nullptr,
        [&](int32_t key, std::span<const uint64_t> values) {
          uint64_t total = 0;
          for (uint64_t v : values) total += v;
          const std::lock_guard<std::mutex> lock(mu);
          sums[key] += total;
        });
    EXPECT_EQ(metrics.spill_bytes > 0, spill);
    EXPECT_EQ(metrics.shuffle_records, 5u * 50u);
    return sums;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(MapReduceJobTest, SpillWithCombinerAndStructValues) {
  struct Pair {
    int32_t a;
    uint32_t b;
  };
  MapReduceJob<Pair>::Options options;
  options.num_reduce_tasks = 2;
  options.num_threads = 1;
  options.spill_to_disk = true;
  options.spill_dir = ::testing::TempDir();
  MapReduceJob<Pair> job(options);
  std::atomic<uint64_t> sum{0};
  job.Run(
      3,
      [](size_t task, auto& emit) {
        emit(static_cast<int32_t>(task),
             Pair{static_cast<int32_t>(task), 10});
      },
      [](int32_t, std::span<const Pair> values, auto&& emit) {
        for (const Pair& p : values) emit(p);
      },
      [&](int32_t, std::span<const Pair> values) {
        for (const Pair& p : values) sum.fetch_add(p.b);
      });
  EXPECT_EQ(sum.load(), 30u);
}

TEST(MapReduceJobTest, RetriesRecoverFromInjectedFailures) {
  MapReduceJob<int>::Options options;
  options.num_reduce_tasks = 2;
  options.num_threads = 2;
  options.max_task_attempts = 3;
  // Every task crashes twice, then succeeds on the third attempt.
  options.failure_injector = [](MapReduceJob<int>::Wave, size_t,
                                uint32_t attempt) { return attempt <= 2; };
  MapReduceJob<int> job(options);
  std::atomic<int> total{0};
  const JobMetrics metrics = job.Run(
      4,
      [](size_t, auto& emit) { emit(0, 1); },
      nullptr,
      [&](int32_t, std::span<const int> values) {
        total.fetch_add(static_cast<int>(values.size()));
      });
  EXPECT_TRUE(metrics.succeeded);
  EXPECT_EQ(total.load(), 4);
  // 4 map tasks + 2 reduce tasks, 2 failed attempts each.
  EXPECT_EQ(metrics.failed_attempts, (4u + 2u) * 2u);
}

TEST(MapReduceJobTest, ExhaustedAttemptsMarkJobFailed) {
  MapReduceJob<int>::Options options;
  options.num_reduce_tasks = 1;
  options.num_threads = 1;
  options.max_task_attempts = 2;
  options.failure_injector = [](MapReduceJob<int>::Wave wave, size_t task,
                                uint32_t) {
    return wave == MapReduceJob<int>::Wave::kMap && task == 0;  // Task 0
                                                                // never
                                                                // commits.
  };
  MapReduceJob<int> job(options);
  std::atomic<int> records{0};
  const JobMetrics metrics = job.Run(
      3,
      [](size_t task, auto& emit) {
        emit(0, static_cast<int>(task));
      },
      nullptr,
      [&](int32_t, std::span<const int> values) {
        records.fetch_add(static_cast<int>(values.size()));
      });
  EXPECT_FALSE(metrics.succeeded);
  EXPECT_EQ(records.load(), 2);  // Tasks 1 and 2 committed.
  EXPECT_EQ(metrics.failed_attempts, 2u);
}

TEST(MapReduceJobTest, RandomFailuresStillProduceExactOutput) {
  // 40% attempt-failure probability with generous retries: the committed
  // output must match a failure-free run exactly (atomic task commit).
  auto run = [](bool inject) {
    MapReduceJob<uint64_t>::Options options;
    options.num_reduce_tasks = 3;
    options.num_threads = 4;
    options.max_task_attempts = inject ? 50 : 1;
    if (inject) {
      auto rng = std::make_shared<std::atomic<uint64_t>>(12345);
      options.failure_injector = [rng](MapReduceJob<uint64_t>::Wave, size_t,
                                       uint32_t) {
        // xorshift-style deterministic-ish hash of the call sequence.
        uint64_t x = rng->fetch_add(0x9E3779B97F4A7C15ULL);
        x ^= x >> 33;
        x *= 0xFF51AFD7ED558CCDULL;
        return (x >> 40) % 10 < 4;
      };
    }
    MapReduceJob<uint64_t> job(options);
    std::mutex mu;
    std::map<int32_t, uint64_t> sums;
    const JobMetrics metrics = job.Run(
        6,
        [](size_t task, auto& emit) {
          for (uint64_t v = 0; v < 20; ++v) emit((task + v) % 7, v);
        },
        nullptr,
        [&](int32_t key, std::span<const uint64_t> values) {
          uint64_t total = 0;
          for (uint64_t v : values) total += v;
          const std::lock_guard<std::mutex> lock(mu);
          sums[key] += total;
        });
    EXPECT_TRUE(metrics.succeeded);
    return sums;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(WorkerPoolTest, RunsEveryTaskExactlyOnce) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  const auto metrics = pool.Run(257, [&](size_t task) {
    hits[task].fetch_add(1);
  });
  EXPECT_EQ(metrics.size(), 257u);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPoolTest, ZeroTasksAndReuse) {
  WorkerPool pool(2);
  EXPECT_TRUE(pool.Run(0, [](size_t) { FAIL(); }).empty());
  int counter = 0;
  std::mutex mu;
  pool.Run(5, [&](size_t) {
    const std::lock_guard<std::mutex> lock(mu);
    ++counter;
  });
  EXPECT_EQ(counter, 5);
}

TEST(WorkerPoolTest, MeasuresTaskTime) {
  WorkerPool pool(2);
  const auto metrics = pool.Run(4, [&](size_t) {
    volatile double x = 0;
    for (int i = 0; i < 100000; ++i) x = x + i;
  });
  ASSERT_EQ(metrics.size(), 4u);
  for (const auto& m : metrics) EXPECT_GE(m.ms, 0.0);
}

// Many tiny waves back-to-back on one pool: this is the pattern a query
// pipeline produces (map wave, shuffle wave, reduce wave, next job, ...)
// and is exactly what exposes lost-wakeup or early-join races between the
// wave generation counter and the worker check-in protocol.
TEST(WorkerPoolTest, StressManySmallWavesBackToBack) {
  WorkerPool pool(4);
  std::atomic<size_t> total{0};
  size_t expected = 0;
  for (int round = 0; round < 500; ++round) {
    const size_t count = 1 + static_cast<size_t>(round % 7);
    expected += count;
    const auto metrics = pool.Run(count, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(metrics.size(), count);
  }
  EXPECT_EQ(total.load(), expected);
}

// One pool shared by several jobs in sequence, like the executor shares
// its pool across job 1, job 2, and the final merge.
TEST(WorkerPoolTest, SharedAcrossJobs) {
  WorkerPool pool(3);
  for (int round = 0; round < 20; ++round) {
    MapReduceJob<int>::Options options;
    options.num_reduce_tasks = 3;
    options.pool = &pool;
    MapReduceJob<int> job(options);
    std::atomic<int> total{0};
    job.Run(
        5,
        [](size_t task, auto& emit) {
          emit(static_cast<int32_t>(task), 1);
        },
        nullptr,
        [&](int32_t, std::span<const int> values) {
          total.fetch_add(static_cast<int>(values.size()));
        });
    EXPECT_EQ(total.load(), 5);
  }
}

TEST(WorkerPoolStealTest, RunsEveryTaskExactlyOnce) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  StealStats stats;
  const auto metrics = pool.RunStealing(
      257, [&](size_t task) { hits[task].fetch_add(1); }, &stats);
  EXPECT_EQ(metrics.size(), 257u);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(stats.morsels, 257u);
  ASSERT_EQ(stats.per_slot.size(), pool.slots());
  size_t executed = 0;
  for (size_t e : stats.per_slot) executed += e;
  EXPECT_EQ(executed, 257u);
}

TEST(WorkerPoolStealTest, ZeroTasksAndReuse) {
  WorkerPool pool(2);
  StealStats stats;
  EXPECT_TRUE(pool.RunStealing(0, [](size_t) { FAIL(); }, &stats).empty());
  EXPECT_EQ(stats.morsels, 0u);
  std::atomic<int> counter{0};
  pool.RunStealing(5, [&](size_t) { counter.fetch_add(1); }, &stats);
  EXPECT_EQ(counter.load(), 5);
  // Waves alternate between modes on one pool (a pipeline mixes morselized
  // and static waves freely).
  pool.Run(5, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
  pool.RunStealing(5, [&](size_t) { counter.fetch_add(1); }, nullptr);
  EXPECT_EQ(counter.load(), 15);
}

// Deterministic straggler: the first task of queue 0 blocks until every
// other task in the wave has finished, so queue 0's second task cannot be
// run by whichever slot is stuck in the straggler. Case analysis makes a
// steal unavoidable: if slot 0 runs task 0, some other slot must steal
// task 1; if a thief runs task 0, that already is a steal.
TEST(WorkerPoolStealTest, StragglerQueueIsDrainedByThieves) {
  WorkerPool pool(3);
  const uint32_t slots = pool.slots();
  ASSERT_GE(slots, 2u);
  const size_t count = 2 * static_cast<size_t>(slots);
  std::atomic<size_t> finished{0};
  StealStats stats;
  pool.RunStealing(
      count,
      [&](size_t task) {
        if (task == 0) {
          while (finished.load(std::memory_order_acquire) < count - 1) {
            std::this_thread::yield();
          }
        }
        finished.fetch_add(1, std::memory_order_release);
      },
      &stats);
  EXPECT_EQ(finished.load(), count);
  EXPECT_GE(stats.stolen, 1u);
  EXPECT_EQ(stats.morsels, count);
}

// With exactly one task per slot, each task spinning until every task has
// started forces all slots to execute concurrently: a blocked thread holds
// exactly one task, so by pigeonhole every slot (workers and the caller)
// runs exactly one.
TEST(WorkerPoolStealTest, AllSlotsParticipate) {
  WorkerPool pool(3);
  const uint32_t slots = pool.slots();
  const size_t count = slots;
  std::atomic<size_t> started{0};
  StealStats stats;
  pool.RunStealing(
      count,
      [&](size_t) {
        started.fetch_add(1, std::memory_order_acq_rel);
        while (started.load(std::memory_order_acquire) < count) {
          std::this_thread::yield();
        }
      },
      &stats);
  ASSERT_EQ(stats.per_slot.size(), slots);
  for (size_t e : stats.per_slot) EXPECT_EQ(e, 1u);
}

// Morsel scheduling must not change what a job computes, only who runs
// which task: same pool, same job, bit-identical per-key results.
TEST(MapReduceJobTest, MorselSchedulingMatchesStatic) {
  WorkerPool pool(4);
  auto run = [&](bool morsels) {
    MapReduceJob<uint64_t>::Options options;
    options.num_reduce_tasks = 3;
    options.pool = &pool;
    options.morsel_scheduling = morsels;
    MapReduceJob<uint64_t> job(options);
    std::mutex mu;
    std::map<int32_t, std::vector<uint64_t>> out;
    const JobMetrics metrics = job.Run(
        16,
        [](size_t task, auto& emit) {
          for (uint64_t v = 0; v < 50; ++v) {
            emit(static_cast<int32_t>((task * 50 + v) % 23), task * 1000 + v);
          }
        },
        nullptr,
        [&](int32_t key, std::span<const uint64_t> values) {
          std::vector<uint64_t> sorted(values.begin(), values.end());
          std::sort(sorted.begin(), sorted.end());
          const std::lock_guard<std::mutex> lock(mu);
          out[key] = std::move(sorted);
        });
    if (morsels) {
      EXPECT_GT(metrics.morsels_total, 0u);
    } else {
      EXPECT_EQ(metrics.morsels_total, 0u);
      EXPECT_EQ(metrics.tasks_stolen, 0u);
    }
    return out;
  };
  EXPECT_EQ(run(true), run(false));
}

// Reduce-side collapse: a pass-through combiner is trivially idempotent,
// so oversized runs may legally be pre-combined in parallel slices. One
// key receives the bulk of the records; with a small morsel target its
// run is sliced, and the reducer must still see the exact same values.
TEST(MapReduceJobTest, CollapseOversizedRunsMatchesUncollapsed) {
  WorkerPool pool(4);
  auto run = [&](size_t morsel_records) {
    MapReduceJob<uint64_t>::Options options;
    options.num_reduce_tasks = 2;
    options.pool = &pool;
    options.reduce_morsel_records = morsel_records;
    MapReduceJob<uint64_t> job(options);
    std::mutex mu;
    std::map<int32_t, std::pair<size_t, uint64_t>> out;  // key -> (n, sum)
    const JobMetrics metrics = job.Run(
        8,
        [](size_t task, auto& emit) {
          // Key 0 is the giant run; keys 1..4 stay tiny.
          for (uint64_t v = 0; v < 2000; ++v) emit(0, task * 2000 + v);
          emit(static_cast<int32_t>(1 + task % 4), task);
        },
        [](int32_t, std::span<const uint64_t> values, auto&& emit) {
          for (uint64_t v : values) emit(v);  // Pass-through: idempotent.
        },
        [&](int32_t key, std::span<const uint64_t> values) {
          uint64_t sum = 0;
          for (uint64_t v : values) sum += v;
          const std::lock_guard<std::mutex> lock(mu);
          out[key] = {values.size(), sum};
        });
    if (morsel_records > 0) {
      EXPECT_GT(metrics.collapse_tasks, 0u);
      EXPECT_GE(metrics.collapsed_runs, 1u);
    } else {
      EXPECT_EQ(metrics.collapse_tasks, 0u);
      EXPECT_EQ(metrics.collapsed_runs, 0u);
    }
    return out;
  };
  EXPECT_EQ(run(512), run(0));
}

TEST(MapReduceJobTest, MapRecordsInPopulatedFromSplitSize) {
  MapReduceJob<int>::Options options;
  options.num_reduce_tasks = 2;
  options.num_threads = 2;
  options.split_size = [](size_t split) { return 10 * (split + 1); };
  MapReduceJob<int> job(options);
  const JobMetrics metrics = job.Run(
      3,
      [](size_t, auto& emit) { emit(0, 1); },
      nullptr, [](int32_t, std::span<const int>) {});
  ASSERT_EQ(metrics.map_tasks.size(), 3u);
  EXPECT_EQ(metrics.map_tasks[0].records_in, 10u);
  EXPECT_EQ(metrics.map_tasks[1].records_in, 20u);
  EXPECT_EQ(metrics.map_tasks[2].records_in, 30u);
}

TEST(MapReduceJobTest, ParallelShuffleMatchesSerial) {
  // Value arrival order per (reducer, key) must be identical whether the
  // reducers pull on the pool or serially (spawn-per-wave jobs have no
  // pool): the parallel pull assigns whole reducers to tasks, so each
  // reducer still pulls its records in task-major order.
  auto run = [](bool on_pool) {
    MapReduceJob<uint64_t>::Options options;
    options.num_reduce_tasks = 4;
    options.num_threads = 4;
    options.spawn_per_wave = !on_pool;
    MapReduceJob<uint64_t> job(options);
    std::mutex mu;
    std::map<int32_t, std::vector<uint64_t>> values_by_key;
    const JobMetrics metrics = job.Run(
        6,
        [](size_t task, auto& emit) {
          for (uint64_t v = 0; v < 30; ++v) {
            emit(static_cast<int32_t>((task * 3 + v) % 11), task * 100 + v);
          }
        },
        nullptr,
        [&](int32_t key, std::span<const uint64_t> values) {
          const std::lock_guard<std::mutex> lock(mu);
          values_by_key[key].assign(values.begin(), values.end());
        });
    EXPECT_EQ(metrics.shuffle_records, 6u * 30u);
    return values_by_key;
  };
  EXPECT_EQ(run(true), run(false));
}

// Failure injection on the parallel-shuffle + spill path: retried map
// attempts re-spill, retried reduce attempts re-pull through the parallel
// shuffle, and the committed output must still match a failure-free run
// record for record (atomic task commit). Spill files must not leak on
// any attempt, failed or retried.
TEST(MapReduceJobTest, ParallelShuffleWithSpillSurvivesInjectedFailures) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "zsky_parallel_shuffle_failures";
  fs::create_directories(dir);
  auto spill_file_count = [&] {
    size_t count = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().filename().string().rfind("zsky_spill_", 0) == 0) {
        ++count;
      }
    }
    return count;
  };

  auto run = [&](bool inject) {
    MapReduceJob<uint64_t>::Options options;
    options.num_reduce_tasks = 4;
    options.num_threads = 4;
    options.spill_to_disk = true;
    options.spill_dir = dir.string();
    if (inject) {
      options.max_task_attempts = 3;
      // First attempt of every map task and of every even reduce task
      // fails — both waves see retries.
      options.failure_injector = [](MapReduceJob<uint64_t>::Wave wave,
                                    size_t task, uint32_t attempt) {
        if (attempt >= 2) return false;
        if (wave == MapReduceJob<uint64_t>::Wave::kMap) return true;
        return task % 2 == 0;
      };
    }
    MapReduceJob<uint64_t> job(options);
    std::mutex mu;
    std::map<int32_t, std::vector<uint64_t>> values_by_key;
    const JobMetrics metrics = job.Run(
        6,
        [](size_t task, auto& emit) {
          for (uint64_t v = 0; v < 30; ++v) {
            emit(static_cast<int32_t>((task * 3 + v) % 11), task * 100 + v);
          }
        },
        nullptr,
        [&](int32_t key, std::span<const uint64_t> values) {
          const std::lock_guard<std::mutex> lock(mu);
          values_by_key[key].assign(values.begin(), values.end());
        });
    EXPECT_TRUE(metrics.succeeded);
    EXPECT_EQ(metrics.shuffle_records, 6u * 30u);
    EXPECT_GT(metrics.spill_bytes, 0u);
    // 6 map tasks + reduce tasks 0 and 2 each burned exactly one attempt.
    EXPECT_EQ(metrics.failed_attempts, inject ? 8u : 0u);
    return values_by_key;
  };

  const auto clean = run(/*inject=*/false);
  EXPECT_EQ(spill_file_count(), 0u);
  const auto injected = run(/*inject=*/true);
  EXPECT_EQ(spill_file_count(), 0u);
  EXPECT_EQ(clean, injected);
  fs::remove_all(dir);
}

// Spill files must be cleaned up on every exit path, including a job whose
// tasks exhausted their attempts.
TEST(MapReduceJobTest, SpillFilesRemovedAfterSuccessAndFailure) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "zsky_spill_cleanup_test";
  fs::create_directories(dir);
  auto spill_file_count = [&] {
    size_t count = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().filename().string().rfind("zsky_spill_", 0) == 0) {
        ++count;
      }
    }
    return count;
  };

  auto run = [&](bool fail) {
    MapReduceJob<uint64_t>::Options options;
    options.num_reduce_tasks = 2;
    options.num_threads = 2;
    options.spill_to_disk = true;
    options.spill_dir = dir.string();
    if (fail) {
      options.max_task_attempts = 1;
      options.failure_injector = [](MapReduceJob<uint64_t>::Wave wave, size_t,
                                    uint32_t) {
        return wave == MapReduceJob<uint64_t>::Wave::kReduce;
      };
    }
    MapReduceJob<uint64_t> job(options);
    const JobMetrics metrics = job.Run(
        3,
        [](size_t, auto& emit) {
          for (uint64_t v = 0; v < 10; ++v) emit(static_cast<int32_t>(v), v);
        },
        nullptr, [](int32_t, std::span<const uint64_t>) {});
    EXPECT_EQ(metrics.succeeded, !fail);
    EXPECT_GT(metrics.spill_bytes, 0u);
  };
  run(/*fail=*/false);
  EXPECT_EQ(spill_file_count(), 0u);
  run(/*fail=*/true);
  EXPECT_EQ(spill_file_count(), 0u);
  fs::remove_all(dir);
}

// Two jobs spilling into the same directory must never collide on file
// names (the seed derived names from the job's address, which allocators
// reuse).
TEST(MapReduceJobTest, ConsecutiveSpillJobsGetDistinctFiles) {
  auto run = [] {
    MapReduceJob<uint64_t>::Options options;
    options.num_reduce_tasks = 2;
    options.num_threads = 1;
    options.spill_to_disk = true;
    options.spill_dir = ::testing::TempDir();
    MapReduceJob<uint64_t> job(options);
    std::atomic<uint64_t> sum{0};
    job.Run(
        2,
        [](size_t, auto& emit) {
          for (uint64_t v = 1; v <= 4; ++v) emit(static_cast<int32_t>(v), v);
        },
        nullptr,
        [&](int32_t, std::span<const uint64_t> values) {
          for (uint64_t v : values) sum.fetch_add(v);
        });
    return sum.load();
  };
  EXPECT_EQ(run(), 20u);
  EXPECT_EQ(run(), 20u);  // Address reuse across jobs must be harmless.
}

TEST(MapReduceJobTest, LegacySpawnPerWaveStillWorks) {
  MapReduceJob<int>::Options options;
  options.num_reduce_tasks = 2;
  options.num_threads = 2;
  options.spawn_per_wave = true;
  MapReduceJob<int> job(options);
  std::atomic<int> total{0};
  const JobMetrics metrics = job.Run(
      4,
      [](size_t, auto& emit) { emit(0, 1); },
      nullptr,
      [&](int32_t, std::span<const int> values) {
        total.fetch_add(static_cast<int>(values.size()));
      });
  EXPECT_EQ(total.load(), 4);
  EXPECT_EQ(metrics.shuffle_records, 4u);
}

TEST(MapReduceJobTest, CustomSizeFunction) {
  MapReduceJob<int>::Options options;
  options.num_reduce_tasks = 1;
  options.num_threads = 1;
  options.record_overhead_bytes = 0;
  MapReduceJob<int> job(options);
  const JobMetrics metrics = job.Run(
      1,
      [](size_t, auto& emit) { emit(0, 7); },
      nullptr, [](int32_t, std::span<const int>) {},
      [](const int&) { return size_t{100}; });
  EXPECT_EQ(metrics.shuffle_bytes, 100u);
}

TEST(RecordBufferTest, DefaultSpillDirRespectsTmpdir) {
  const char* old = std::getenv("TMPDIR");
  const std::string saved = old != nullptr ? old : "";
  ::setenv("TMPDIR", "/custom/tmpdir", 1);
  EXPECT_EQ(DefaultSpillDir(), "/custom/tmpdir");
  MapReduceJob<int>::Options fresh;
  EXPECT_EQ(fresh.spill_dir, "/custom/tmpdir");
  ::setenv("TMPDIR", "", 1);  // Empty counts as unset.
  EXPECT_EQ(DefaultSpillDir(), "/tmp");
  ::unsetenv("TMPDIR");
  EXPECT_EQ(DefaultSpillDir(), "/tmp");
  if (old != nullptr) {
    ::setenv("TMPDIR", saved.c_str(), 1);
  } else {
    ::unsetenv("TMPDIR");
  }
}

// The core acceptance test of the zero-copy shuffle: after one warm-up
// run fills the chunk pool and the grouping scratch, further runs of the
// same job must not allocate per record — only the O(tasks + reducers)
// bookkeeping of a wave (task-metric vectors, wave closures) remains.
TEST(MapReduceJobTest, SteadyStateWaveIsAllocationFree) {
  constexpr size_t kTasks = 8;
  constexpr uint64_t kPerTask = 20000;
  MapReduceJob<uint64_t>::Options options;
  options.num_reduce_tasks = 4;
  options.num_threads = 4;
  MapReduceJob<uint64_t> job(options);

  auto run_once = [&] {
    std::atomic<uint64_t> sum{0};
    const JobMetrics metrics = job.Run(
        kTasks,
        [](size_t task, auto& emit) {
          for (uint64_t v = 0; v < kPerTask; ++v) {
            emit(static_cast<int32_t>((task * 13 + v) % 97),
                 task * 1000000 + v);
          }
        },
        nullptr,
        [&](int32_t, std::span<const uint64_t> values) {
          uint64_t local = 0;
          for (uint64_t v : values) local += v;
          sum.fetch_add(local, std::memory_order_relaxed);
        });
    EXPECT_EQ(metrics.shuffle_records, kTasks * kPerTask);
    return std::pair<uint64_t, size_t>{sum.load(),
                                       metrics.shuffle_alloc_bytes};
  };

  const auto [expected, warm_alloc] = run_once();  // Warm-up.
  EXPECT_GT(warm_alloc, 0u);  // First run builds the arenas.
  const size_t allocs_before = g_alloc_count.load();
  const auto [sum2, steady_alloc] = run_once();
  const size_t allocs = g_alloc_count.load() - allocs_before;
  EXPECT_EQ(sum2, expected);
  // The engine's own accounting agrees: no new backing storage.
  EXPECT_EQ(steady_alloc, 0u);
  // And the global counter proves it end to end: way below one allocation
  // per hundred records (the observed count is O(tasks + reducers)).
  EXPECT_LT(allocs, kTasks * kPerTask / 100);
}

// Engine-level matrix against a serial reference that spells out the
// engine's contract: keys reach each reducer in ascending order; per key,
// values arrive in task-major emit order (split 0's records first); with
// the combiner on, each (task, key) run is combined exactly once before
// the shuffle; and a failed attempt leaves no output. Every cell — spill
// mode x combiner x injected retries — runs with reducers pulling on the
// pool and with the serial pull of spawn-per-wave jobs.
TEST(MapReduceJobTest, MatchesSerialReferenceAcrossTheMatrix) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "zsky_parity_matrix";
  fs::create_directories(dir);
  enum class Spill { kOff, kFull, kBudget };
  constexpr size_t kTasks = 6;
  constexpr uint32_t kReducers = 4;

  // Skewed sizes so the budget spill has distinct "largest" tasks.
  auto map = [](size_t task, auto& emit) {
    const uint64_t count = (task + 1) * 1500;
    for (uint64_t v = 0; v < count; ++v) {
      emit(static_cast<int32_t>((task * 7 + v) % 23), task * 1000000 + v);
    }
  };
  // Order-preserving pairwise sum: collapses records while keeping the
  // output dependent on the input order, so any ordering difference shows
  // up in the final values.
  auto combine = [](int32_t, std::span<const uint64_t> values, auto&& emit) {
    for (size_t i = 0; i < values.size(); i += 2) {
      emit(i + 1 < values.size() ? values[i] + values[i + 1] : values[i]);
    }
  };

  using Output = std::map<int32_t, std::vector<uint64_t>>;
  auto reference = [&](bool combiner) {
    Output out;
    for (size_t task = 0; task < kTasks; ++task) {
      std::map<int32_t, std::vector<uint64_t>> runs;
      auto collect = [&](int32_t key, uint64_t value) {
        runs[key].push_back(value);
      };
      map(task, collect);
      for (const auto& [key, run] : runs) {
        std::vector<uint64_t>& dst = out[key];
        if (combiner) {
          combine(key, std::span<const uint64_t>(run),
                  [&](uint64_t v) { dst.push_back(v); });
        } else {
          dst.insert(dst.end(), run.begin(), run.end());
        }
      }
    }
    return out;
  };

  auto run = [&](Spill spill, bool combiner, bool retry, bool on_pool) {
    MapReduceJob<uint64_t>::Options options;
    options.num_reduce_tasks = kReducers;
    options.num_threads = 4;
    options.spawn_per_wave = !on_pool;
    options.enable_combiner = combiner;
    options.spill_to_disk = spill == Spill::kFull;
    if (spill == Spill::kBudget) {
      // Accounted at pinned chunk capacity (~384 KB per task): the first
      // finisher stays under 512 KB and later tasks spill themselves
      // mid-wave — a partial spill whatever the completion order.
      options.shuffle_memory_budget_bytes = 512 * 1024;
    }
    options.spill_dir = dir.string();
    if (retry) {
      options.max_task_attempts = 3;
      options.failure_injector = [](MapReduceJob<uint64_t>::Wave, size_t task,
                                    uint32_t attempt) {
        return attempt == 1 && task % 2 == 0;
      };
    }
    MapReduceJob<uint64_t> job(options);
    std::mutex mu;
    Output out;
    std::vector<std::vector<int32_t>> keys_seen(kReducers);
    const JobMetrics metrics = job.Run(kTasks, map, combine,
        [&](int32_t key, std::span<const uint64_t> values) {
          const std::lock_guard<std::mutex> lock(mu);
          EXPECT_TRUE(out.find(key) == out.end()) << "key " << key;
          out[key].assign(values.begin(), values.end());
          keys_seen[static_cast<uint32_t>(key) % kReducers].push_back(key);
        });
    EXPECT_TRUE(metrics.succeeded);
    for (const std::vector<int32_t>& keys : keys_seen) {
      EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    }
    if (spill == Spill::kFull) {
      EXPECT_EQ(metrics.spilled_tasks, kTasks);
    } else if (spill == Spill::kBudget) {
      EXPECT_GT(metrics.spilled_tasks, 0u);
      EXPECT_LT(metrics.spilled_tasks, kTasks);
    } else {
      EXPECT_EQ(metrics.spilled_tasks, 0u);
    }
    return out;
  };

  for (const bool combiner : {false, true}) {
    const Output expected = reference(combiner);
    for (const Spill spill : {Spill::kOff, Spill::kFull, Spill::kBudget}) {
      for (const bool retry : {false, true}) {
        for (const bool on_pool : {true, false}) {
          SCOPED_TRACE(testing::Message()
                       << "spill=" << static_cast<int>(spill)
                       << " combiner=" << combiner << " retry=" << retry
                       << " on_pool=" << on_pool);
          EXPECT_EQ(run(spill, combiner, retry, on_pool), expected);
        }
      }
    }
  }
  fs::remove_all(dir);
}

// The memory budget spills the *largest* buffers first and frees them:
// buffered bytes after the spill must fit the budget.
TEST(MapReduceJobTest, MemoryBudgetSpillsLargestTasksFirst) {
  MapReduceJob<uint64_t>::Options options;
  options.num_reduce_tasks = 2;
  options.num_threads = 2;
  options.spill_dir = ::testing::TempDir();
  // The budget counts chunk CAPACITY, what the arenas pin: task t emits
  // (t+1)*3000 records split over 2 buckets, so tasks 0..4 pin one 96 KB
  // chunk per bucket (192 KB) and task 5 (4500 records/bucket) pins 384
  // KB. A 300 KB budget keeps only the first task to finish buffered;
  // every later task self-spills mid-wave.
  options.shuffle_memory_budget_bytes = 300 * 1024;
  MapReduceJob<uint64_t> job(options);
  std::mutex mu;
  std::map<int32_t, uint64_t> sums;
  const JobMetrics metrics = job.Run(
      6,
      [](size_t task, auto& emit) {
        const uint64_t count = (task + 1) * 3000;
        for (uint64_t v = 0; v < count; ++v) {
          emit(static_cast<int32_t>(v % 5), v);
        }
      },
      nullptr,
      [&](int32_t key, std::span<const uint64_t> values) {
        uint64_t total = 0;
        for (uint64_t v : values) total += v;
        const std::lock_guard<std::mutex> lock(mu);
        sums[key] += total;
      });
  EXPECT_TRUE(metrics.succeeded);
  EXPECT_GT(metrics.spilled_tasks, 0u);
  EXPECT_LT(metrics.spilled_tasks, 6u);
  EXPECT_GT(metrics.spill_bytes, 0u);
  // Whatever the completion order, the first finished task (192 KB) fits
  // the budget and every subsequent one crosses it: exactly five spills.
  EXPECT_EQ(metrics.spilled_tasks, 5u);

  // Same sums without any budget.
  MapReduceJob<uint64_t>::Options plain;
  plain.num_reduce_tasks = 2;
  plain.num_threads = 2;
  MapReduceJob<uint64_t> job2(plain);
  std::map<int32_t, uint64_t> sums2;
  job2.Run(
      6,
      [](size_t task, auto& emit) {
        const uint64_t count = (task + 1) * 3000;
        for (uint64_t v = 0; v < count; ++v) {
          emit(static_cast<int32_t>(v % 5), v);
        }
      },
      nullptr,
      [&](int32_t key, std::span<const uint64_t> values) {
        uint64_t total = 0;
        for (uint64_t v : values) total += v;
        const std::lock_guard<std::mutex> lock(mu);
        sums2[key] += total;
      });
  EXPECT_EQ(sums, sums2);
}

// Pathologically sparse keys (range >> record count) take the
// stable-sort fallback instead of a huge counting-sort histogram; the
// grouping contract (ascending keys, task-major stable values) holds.
TEST(MapReduceJobTest, SparseKeysFallBackToStableSort) {
  MapReduceJob<uint32_t>::Options options;
  options.num_reduce_tasks = 1;  // Everything meets in one reducer.
  options.num_threads = 2;
  MapReduceJob<uint32_t> job(options);
  std::vector<std::pair<int32_t, std::vector<uint32_t>>> seen;
  job.Run(
      4,
      [](size_t task, auto& emit) {
        for (uint32_t v = 0; v < 50; ++v) {
          // Keys spaced ~40M apart over the int32 range.
          emit(static_cast<int32_t>((v % 50) * 40000000 + 3),
               static_cast<uint32_t>(task * 1000 + v));
        }
      },
      nullptr,
      [&](int32_t key, std::span<const uint32_t> values) {
        seen.emplace_back(key,
                          std::vector<uint32_t>(values.begin(), values.end()));
      });
  ASSERT_EQ(seen.size(), 50u);
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_LT(seen[i - 1].first, seen[i].first);  // Ascending keys.
  }
  for (const auto& [key, values] : seen) {
    ASSERT_EQ(values.size(), 4u);
    for (size_t i = 1; i < values.size(); ++i) {
      EXPECT_LT(values[i - 1], values[i]);  // Task-major stable order.
    }
  }
}

}  // namespace
}  // namespace zsky::mr
