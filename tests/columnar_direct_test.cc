#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "algo/bnl.h"
#include "common/cpu.h"
#include "common/dominance.h"
#include "common/dominance_block.h"
#include "common/quantizer.h"
#include "common/scan_counters.h"
#include "core/executor.h"
#include "gen/synthetic.h"
#include "io/columnar.h"

namespace zsky {
namespace {

constexpr uint32_t kBits = 12;

std::string TempZsc(const char* tag) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + tag +
         ".zsc";
}

// Restores the previous ISA tier on scope exit (mirrors
// simd_dispatch_test's helper).
class ScopedIsa {
 public:
  ScopedIsa() : saved_(ActiveIsa()) {}
  ~ScopedIsa() { SetActiveIsa(saved_); }

 private:
  Isa saved_;
};

// --- The SoA mask kernel itself, against a scalar Dominates oracle, on
// every tier the host supports. The kernel's early exits (per-filter
// testz, all-dominated group break) must never change the answer.
TEST(ColumnarDirectKernelTest, MaskMatchesDominatesOracleAcrossTiers) {
  std::mt19937 rng(7);
  for (const uint32_t dim : {1u, 2u, 4u, 7u, 8u}) {
    const size_t n = 1000;
    const size_t stride = n + 13;  // Deliberately != n: stride is honored.
    std::vector<Coord> soa(stride * dim, 0);
    std::uniform_int_distribution<Coord> coord(0, 63);
    for (uint32_t k = 0; k < dim; ++k) {
      for (size_t i = 0; i < n; ++i) soa[k * stride + i] = coord(rng);
    }
    DominanceBlock filt(dim);
    std::vector<Coord> fbuf(dim);
    for (size_t f = 0; f < 37; ++f) {
      for (uint32_t k = 0; k < dim; ++k) fbuf[k] = coord(rng);
      filt.Append(fbuf);
    }
    // Row-major copies for the oracle.
    auto row_of = [&](size_t i, std::vector<Coord>& out) {
      out.resize(dim);
      for (uint32_t k = 0; k < dim; ++k) out[k] = soa[k * stride + i];
    };
    const size_t begin = 3, end = n - 5;
    std::vector<uint8_t> expect(end - begin, 0);
    size_t expect_count = 0;
    std::vector<Coord> r(dim), fr(dim);
    for (size_t i = begin; i < end; ++i) {
      row_of(i, r);
      for (size_t f = 0; f < filt.size(); ++f) {
        filt.CopyPoint(f, fr);
        if (Dominates(fr, r)) {
          expect[i - begin] = 1;
          ++expect_count;
          break;
        }
      }
    }
    const MaskFilterIndex index(filt);
    ScopedIsa guard;
    for (const Isa isa : {Isa::kScalar, Isa::kSse42, Isa::kAvx2}) {
      if (!IsaSupported(isa)) continue;
      SetActiveIsa(isa);
      std::vector<uint8_t> mask(end - begin, 0xCC);
      const size_t count =
          SoAMaskAnyDominated(soa.data(), stride, dim, begin, end,
                              filt.lanes(), filt.lane_stride(), filt.size(),
                              nullptr, mask.data());
      EXPECT_EQ(count, expect_count) << IsaName(isa) << " dim " << dim;
      EXPECT_EQ(mask, expect) << IsaName(isa) << " dim " << dim;
      // The min-pruned index (Morton-reordered copy + tile and supertile
      // minima) must answer identically to the plain full scan.
      std::vector<uint8_t> pruned(end - begin, 0xCC);
      const simd::MaskFilterPruning pruning = index.pruning();
      const size_t pruned_count = SoAMaskAnyDominated(
          soa.data(), stride, dim, begin, end, index.block.lanes(),
          index.block.lane_stride(), index.block.size(), &pruning,
          pruned.data());
      EXPECT_EQ(pruned_count, expect_count) << IsaName(isa) << " dim " << dim;
      EXPECT_EQ(pruned, expect) << IsaName(isa) << " dim " << dim;
      // Empty filter leaves the mask all-zero.
      std::vector<uint8_t> none(end - begin, 0xCC);
      EXPECT_EQ(SoAMaskAnyDominated(soa.data(), stride, dim, begin, end,
                                    filt.lanes(), filt.lane_stride(), 0,
                                    nullptr, none.data()),
                0u);
      EXPECT_EQ(none, std::vector<uint8_t>(end - begin, 0));
    }
  }
}

// --- Columnar-direct vs heap parity over the scheme x local matrix. Both
// must be bit-identical (and match the BNL oracle): the direct wave is
// the same filter/route predicates in the same row order, just fed
// column-at-a-time.
struct DirectCase {
  PartitioningScheme partitioning;
  LocalAlgorithm local;
};

std::string DirectCaseName(const ::testing::TestParamInfo<DirectCase>& info) {
  std::string name =
      std::string(PartitioningSchemeName(info.param.partitioning)) + "_" +
      std::string(LocalAlgorithmName(info.param.local));
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

class ColumnarDirectParityTest : public ::testing::TestWithParam<DirectCase> {
 protected:
  static void SetUpTestSuite() {
    points_ = new PointSet(GenerateQuantized(Distribution::kAnticorrelated,
                                             3000, 4, 515, Quantizer(kBits)));
    path_ = new std::string(TempZsc("columnar_direct_parity"));
    std::string error;
    ASSERT_TRUE(WriteColumnarFile(*path_, *points_, kBits, &error)) << error;
  }
  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete points_;
    delete path_;
    points_ = nullptr;
    path_ = nullptr;
  }

  static PointSet* points_;
  static std::string* path_;
};

PointSet* ColumnarDirectParityTest::points_ = nullptr;
std::string* ColumnarDirectParityTest::path_ = nullptr;

TEST_P(ColumnarDirectParityTest, DirectMatchesHeapAndBnl) {
  const DirectCase& c = GetParam();
  ExecutorOptions options;
  options.partitioning = c.partitioning;
  options.local = c.local;
  options.merge = MergeAlgorithm::kZMerge;
  options.num_groups = 6;
  options.expansion = 3;
  options.sample_ratio = 0.05;
  options.bits = kBits;
  options.num_map_tasks = 7;
  options.num_threads = 4;

  std::string error;
  const auto mapped = ColumnarDataset::Open(*path_, &error);
  ASSERT_NE(mapped, nullptr) << error;

  const SkylineIndices heap =
      ParallelSkylineExecutor(options).Execute(*points_).skyline;
  const SkylineIndices direct =
      ParallelSkylineExecutor(options).Execute(mapped->view()).skyline;

  EXPECT_EQ(heap, direct) << options.Label();
  EXPECT_EQ(direct, BnlSkyline(*points_)) << options.Label();
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAndLocals, ColumnarDirectParityTest,
    ::testing::ValuesIn([] {
      std::vector<DirectCase> cases;
      for (PartitioningScheme scheme :
           {PartitioningScheme::kRandom, PartitioningScheme::kGrid,
            PartitioningScheme::kAngle, PartitioningScheme::kQuadTree,
            PartitioningScheme::kNaiveZ, PartitioningScheme::kZhg,
            PartitioningScheme::kZdg}) {
        for (LocalAlgorithm local :
             {LocalAlgorithm::kSortBased, LocalAlgorithm::kZSearch,
              LocalAlgorithm::kBbs}) {
          cases.push_back({scheme, local});
        }
      }
      return cases;
    }()),
    DirectCaseName);

// The mask wave and the heap run agree on every ISA tier, and every tier
// agrees with every other (the mask kernel's dispatch cannot change
// results).
TEST(ColumnarDirectIsaTest, AllTiersBitIdentical) {
  const PointSet points = GenerateQuantized(Distribution::kAnticorrelated,
                                            4000, 6, 77, Quantizer(kBits));
  const std::string path = TempZsc("columnar_direct_isa");
  std::string error;
  ASSERT_TRUE(WriteColumnarFile(path, points, kBits, &error)) << error;
  const auto mapped = ColumnarDataset::Open(path, &error);
  ASSERT_NE(mapped, nullptr) << error;

  ExecutorOptions options;
  options.bits = kBits;
  options.num_groups = 4;
  options.num_threads = 2;
  const SkylineIndices oracle = BnlSkyline(points);

  ScopedIsa guard;
  for (const Isa isa : {Isa::kScalar, Isa::kSse42, Isa::kAvx2}) {
    if (!IsaSupported(isa)) continue;
    SetActiveIsa(isa);
    const SkylineIndices direct =
        ParallelSkylineExecutor(options).Execute(mapped->view()).skyline;
    const SkylineIndices heap =
        ParallelSkylineExecutor(options).Execute(points).skyline;
    EXPECT_EQ(direct, oracle) << IsaName(isa);
    EXPECT_EQ(heap, oracle) << IsaName(isa);
  }
  std::remove(path.c_str());
}

// --- The headline counter: an SZB-eligible plain query over a `.zsc`
// backing must run with ZERO transpose bytes on the direct wave, while a
// box desc over the same file takes the cursor and transposes every
// scanned row.
TEST(ColumnarDirectMetricsTest, TransposeBytesZeroOnDirectPlan) {
  const PointSet points = GenerateQuantized(Distribution::kIndependent, 20000,
                                            6, 321, Quantizer(kBits));
  const std::string path = TempZsc("columnar_direct_transpose");
  std::string error;
  ASSERT_TRUE(WriteColumnarFile(path, points, kBits, &error)) << error;
  const auto mapped = ColumnarDataset::Open(path, &error);
  ASSERT_NE(mapped, nullptr) << error;

  ExecutorOptions options;
  options.bits = kBits;
  options.num_groups = 4;
  options.num_threads = 2;
  const SkylineQueryResult direct =
      ParallelSkylineExecutor(options).Execute(mapped->view());
  EXPECT_EQ(direct.metrics.job1.transpose_bytes, 0u);

  // A box covering the whole domain keeps every row but is not the plain
  // desc, so the scan goes through the cursor.
  QueryDesc whole_box;
  whole_box.box_lo.assign(points.dim(), 0);
  whole_box.box_hi.assign(points.dim(), (Coord{1} << kBits) - 1);
  const SkylineQueryResult cursor =
      ParallelSkylineExecutor(options).Execute(mapped->view(), whole_box);
  // The cursor transposes at least the whole scan once.
  EXPECT_GE(cursor.metrics.job1.transpose_bytes,
            points.size() * points.dim() * sizeof(Coord));
  EXPECT_EQ(direct.skyline, cursor.skyline);
  std::remove(path.c_str());
}

// With the SZB filter off (as ChoosePlan sets it at extreme
// dimensionality) a plain query still takes the mask wave: no block to
// scan, every alive row goes to the router, nothing is transposed.
TEST(ColumnarDirectMetricsTest, MaskWaveRunsWithoutTheSzbFilter) {
  const PointSet points = GenerateQuantized(Distribution::kAnticorrelated,
                                            8000, 5, 322, Quantizer(kBits));
  const std::string path = TempZsc("columnar_direct_nofilter");
  std::string error;
  ASSERT_TRUE(WriteColumnarFile(path, points, kBits, &error)) << error;
  const auto mapped = ColumnarDataset::Open(path, &error);
  ASSERT_NE(mapped, nullptr) << error;

  ExecutorOptions options;
  options.bits = kBits;
  options.num_groups = 4;
  options.num_threads = 2;
  options.enable_szb_filter = false;
  const SkylineQueryResult direct =
      ParallelSkylineExecutor(options).Execute(mapped->view());
  EXPECT_EQ(direct.metrics.job1.transpose_bytes, 0u);
  EXPECT_EQ(direct.metrics.filtered_by_szb, 0u);
  EXPECT_EQ(direct.skyline, BnlSkyline(points));
  EXPECT_EQ(direct.skyline,
            ParallelSkylineExecutor(options).Execute(points).skyline);
  std::remove(path.c_str());
}

// --- Sketch pruning: a constrained query over a multi-block `.zsc` whose
// box excludes whole sketch blocks must skip them wholesale — with the
// skyline AND the box-drop counter bit-identical to the heap run, and the
// pruned-row counter accounting for the skipped blocks.
TEST(OutOfCoreSketchTest, BoxPruningParityAndCounter) {
  // Three sketch blocks with disjoint value ranges: rows of block b lie in
  // [b * 1200, b * 1200 + 500]. A box capped at 600 makes blocks 1 and 2
  // sketch-disjoint.
  const uint32_t dim = 4;
  const size_t block = static_cast<size_t>(kColumnarSketchBlockRows);
  const size_t n = 3 * block;
  PointSet points(dim);
  std::mt19937 rng(99);
  std::uniform_int_distribution<Coord> low(0, 500);
  std::vector<Coord> row(dim);
  for (size_t i = 0; i < n; ++i) {
    const Coord base = static_cast<Coord>(1200 * (i / block));
    for (uint32_t d = 0; d < dim; ++d) row[d] = base + low(rng);
    points.Append(row);
  }
  const std::string path = TempZsc("outofcore_sketch");
  std::string error;
  ASSERT_TRUE(WriteColumnarFile(path, points, kBits, &error)) << error;
  const auto mapped = ColumnarDataset::Open(path, &error);
  ASSERT_NE(mapped, nullptr) << error;
  ASSERT_TRUE(mapped->has_sketch());
  ASSERT_EQ(mapped->sketch_blocks(), 3u);

  ExecutorOptions options;
  options.bits = kBits;
  options.num_groups = 4;
  options.num_threads = 2;
  QueryDesc desc;
  desc.box_lo.assign(dim, 0);
  desc.box_hi.assign(dim, 600);

  const SkylineQueryResult heap =
      ParallelSkylineExecutor(options).Execute(points, desc);
  const SkylineQueryResult cold =
      ParallelSkylineExecutor(options).Execute(mapped->view(), desc);
  EXPECT_EQ(heap.skyline, cold.skyline);
  EXPECT_EQ(heap.metrics.dropped_by_box, cold.metrics.dropped_by_box);
  // The heap view has no sketch; the columnar run skipped two whole
  // blocks without touching their pages.
  EXPECT_EQ(heap.metrics.job1.rows_pruned_by_sketch, 0u);
  EXPECT_GE(cold.metrics.job1.rows_pruned_by_sketch, 2 * block);
  std::remove(path.c_str());
}

// A pre-sketch file (synthesized by truncating at the trailer offset)
// takes the unpruned scan and still answers identically.
TEST(OutOfCoreSketchTest, PreSketchFileScansUnpruned) {
  const PointSet points = GenerateQuantized(Distribution::kIndependent, 5000,
                                            4, 11, Quantizer(kBits));
  const std::string path = TempZsc("outofcore_presketch");
  std::string error;
  ASSERT_TRUE(WriteColumnarFile(path, points, kBits, &error)) << error;
  ASSERT_EQ(::truncate(path.c_str(),
                       static_cast<off_t>(ColumnarSketchOffset(4, 5000))),
            0);
  const auto mapped = ColumnarDataset::Open(path, &error);
  ASSERT_NE(mapped, nullptr) << error;
  EXPECT_FALSE(mapped->has_sketch());

  ExecutorOptions options;
  options.bits = kBits;
  options.num_groups = 4;
  options.num_threads = 2;
  QueryDesc desc;
  desc.box_lo.assign(4, 0);
  desc.box_hi.assign(4, 1000);
  const SkylineQueryResult heap =
      ParallelSkylineExecutor(options).Execute(points, desc);
  const SkylineQueryResult cold =
      ParallelSkylineExecutor(options).Execute(mapped->view(), desc);
  EXPECT_EQ(heap.skyline, cold.skyline);
  EXPECT_EQ(cold.metrics.job1.rows_pruned_by_sketch, 0u);
  std::remove(path.c_str());
}

// --- Readahead torture: a tiny residency budget, concurrent queries on
// one dataset, ranges at and past the end, and teardown races between
// the worker and the destructor. Run under ASan/TSan by scripts/check.sh.
TEST(OutOfCoreReadaheadTest, ConcurrentQueriesUnderTinyBudget) {
  const PointSet points = GenerateQuantized(Distribution::kAnticorrelated,
                                            60000, 6, 1234, Quantizer(kBits));
  const std::string path = TempZsc("outofcore_readahead");
  std::string error;
  ASSERT_TRUE(WriteColumnarFile(path, points, kBits, &error)) << error;

  ColumnarDataset::Options map_options;
  map_options.bounded_residency = true;
  map_options.readahead = true;
  const auto mapped = ColumnarDataset::Open(path, &error, map_options);
  ASSERT_NE(mapped, nullptr) << error;
  ASSERT_TRUE(mapped->view().has_prefetch_hook());

  ExecutorOptions options;
  options.bits = kBits;
  options.num_groups = 4;
  options.num_threads = 2;
  options.shuffle_memory_budget_bytes = 64 * 1024;
  const SkylineIndices expect =
      ParallelSkylineExecutor(options).Execute(points).skyline;

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (int q = 0; q < 3; ++q) {
        const SkylineIndices got =
            ParallelSkylineExecutor(options).Execute(mapped->view()).skyline;
        if (got != expect) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0u);

  // Hostile direct requests: clamped, empty, and out-of-range are all
  // no-ops that must not wedge or crash the worker.
  mapped->RequestReadahead(points.size() - 10, points.size() + 100);
  mapped->RequestReadahead(5, 5);
  mapped->RequestReadahead(points.size() + 1, points.size() + 2);
  for (int i = 0; i < 100; ++i) mapped->RequestReadahead(0, 1000);
  std::remove(path.c_str());
  // Destructor joins the worker with requests possibly still queued.
}

TEST(OutOfCoreReadaheadTest, DisarmedViewNeverPrefetches) {
  const PointSet points = GenerateQuantized(Distribution::kIndependent, 20000,
                                            4, 5, Quantizer(kBits));
  const std::string path = TempZsc("outofcore_readahead_off");
  std::string error;
  ASSERT_TRUE(WriteColumnarFile(path, points, kBits, &error)) << error;
  ColumnarDataset::Options map_options;
  map_options.readahead = true;
  const auto mapped = ColumnarDataset::Open(path, &error, map_options);
  ASSERT_NE(mapped, nullptr) << error;

  // ExecutorOptions::readahead = false disarms the hook for the query
  // without touching the backing: zero readahead bytes metered.
  ExecutorOptions options;
  options.bits = kBits;
  options.num_groups = 4;
  options.num_threads = 2;
  options.readahead = false;
  const SkylineQueryResult off =
      ParallelSkylineExecutor(options).Execute(mapped->view());
  EXPECT_EQ(off.metrics.job1.readahead_bytes, 0u);
  EXPECT_EQ(off.skyline,
            ParallelSkylineExecutor(options).Execute(points).skyline);
  std::remove(path.c_str());
}

// Open-then-destroy without any query: the lazily-spawned worker never
// starts, and the destructor must not block on it.
TEST(OutOfCoreReadaheadTest, IdleDatasetTearsDownCleanly) {
  const PointSet points = GenerateQuantized(Distribution::kIndependent, 1000,
                                            3, 8, Quantizer(kBits));
  const std::string path = TempZsc("outofcore_readahead_idle");
  std::string error;
  ASSERT_TRUE(WriteColumnarFile(path, points, kBits, &error)) << error;
  ColumnarDataset::Options map_options;
  map_options.readahead = true;
  for (int i = 0; i < 3; ++i) {
    const auto mapped = ColumnarDataset::Open(path, &error, map_options);
    ASSERT_NE(mapped, nullptr) << error;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace zsky
