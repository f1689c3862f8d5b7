// Streams and sliding windows served through the write path: the skyline
// of an append-only stream is a QueryService fed by Insert batches from an
// empty base, and the skyline of the last W arrivals is the same service
// with the expired rows deleted. Every answer is checked against a batch
// skyline of the rows the stream holds at that step.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "algo/skyline.h"
#include "algo/sort_based.h"
#include "common/dominance.h"
#include "common/quantizer.h"
#include "common/rng.h"
#include "core/query_service.h"
#include "gen/synthetic.h"

namespace zsky {
namespace {

constexpr uint32_t kBits = 10;
constexpr Coord kMax = (Coord{1} << kBits) - 1;

PointSet MakePoints(Distribution d, size_t n, uint32_t dim, uint64_t seed) {
  return GenerateQuantized(d, n, dim, seed, Quantizer(kBits));
}

QueryServiceOptions StreamOptions(size_t merge_threshold) {
  QueryServiceOptions options;
  options.executor.bits = kBits;
  options.executor.num_groups = 4;
  options.executor.num_threads = 2;
  options.delta_merge_threshold = merge_threshold;
  return options;
}

// Rows [begin, end) of `stream` as one Insert batch.
PointSet Slice(const PointSet& stream, size_t begin, size_t end) {
  PointSet batch(stream.dim());
  for (size_t i = begin; i < end; ++i) batch.Append(stream[i]);
  return batch;
}

struct StreamCase {
  Distribution distribution;
  size_t n;
  uint32_t dim;
  size_t batch;            // Rows per Insert call.
  size_t merge_threshold;  // 0 = the delta is never merged.
  uint64_t seed;
};

std::string StreamCaseName(const ::testing::TestParamInfo<StreamCase>& info) {
  const StreamCase& c = info.param;
  return std::string(DistributionName(c.distribution)) + "_n" +
         std::to_string(c.n) + "_d" + std::to_string(c.dim) + "_batch" +
         std::to_string(c.batch) + "_merge" +
         std::to_string(c.merge_threshold);
}

class QueryServiceStreamOracleTest
    : public ::testing::TestWithParam<StreamCase> {};

// After a whole stream arrives in Insert batches, the service's skyline
// is the batch skyline. With no deletes every merge keeps the rows in
// arrival order, so logical ids are arrival indices throughout.
TEST_P(QueryServiceStreamOracleTest, MatchesBatchSkyline) {
  const StreamCase& c = GetParam();
  const PointSet stream = MakePoints(c.distribution, c.n, c.dim, c.seed);
  QueryService service(StreamOptions(c.merge_threshold), PointSet(c.dim));
  for (size_t begin = 0; begin < stream.size(); begin += c.batch) {
    const size_t end = std::min(stream.size(), begin + c.batch);
    const MutationResult inserted = service.Insert(Slice(stream, begin, end));
    ASSERT_TRUE(inserted.ok) << inserted.error;
    EXPECT_EQ(inserted.first_id, begin);
    EXPECT_EQ(inserted.applied, end - begin);
  }
  EXPECT_EQ(service.Query().skyline, SortBasedSkyline(stream));
  EXPECT_EQ(service.delta_stats().alive_rows, stream.size());
  EXPECT_EQ(service.stats().inserts, stream.size());
  if (c.merge_threshold == 0) {
    EXPECT_EQ(service.stats().merges, 0u);
  } else {
    EXPECT_GE(service.stats().merges, stream.size() / c.merge_threshold);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, QueryServiceStreamOracleTest,
    ::testing::Values(
        StreamCase{Distribution::kIndependent, 3000, 3, 100, 0, 1},
        StreamCase{Distribution::kIndependent, 3000, 6, 250, 1000, 2},
        StreamCase{Distribution::kCorrelated, 3000, 4, 1, 512, 3},
        StreamCase{Distribution::kAnticorrelated, 2000, 2, 64, 256, 4},
        StreamCase{Distribution::kAnticorrelated, 1500, 5, 1500, 0, 5}),
    StreamCaseName);

// An arrival an earlier row dominates never joins the skyline; one that
// dominates the skyline replaces it.
TEST(QueryServiceStreamTest, DominatedArrivalStaysOut) {
  QueryService service(StreamOptions(0), PointSet(2));
  PointSet ps(2);
  ps.Append({5, 5});
  ps.Append({6, 6});  // Dominated on arrival.
  ps.Append({2, 2});  // Dominates (5,5).
  for (size_t i = 0; i < ps.size(); ++i) {
    const MutationResult inserted = service.Insert(Slice(ps, i, i + 1));
    ASSERT_TRUE(inserted.ok) << inserted.error;
    EXPECT_EQ(inserted.first_id, i);
    const SkylineIndices expected =
        i < 2 ? SkylineIndices{0} : SkylineIndices{2};
    EXPECT_EQ(service.Query().skyline, expected) << "after arrival " << i;
  }
  const DeltaStats delta = service.delta_stats();
  EXPECT_EQ(delta.alive_rows, 3u);
  EXPECT_EQ(delta.delta_candidates, 1u);
}

// Best-last order: every arrival dominates every row before it, so the
// skyline is always the newest row alone, across automatic merges too.
TEST(QueryServiceStreamTest, WorstCaseAdversarialOrder) {
  PointSet stream(2);
  stream.Reserve(500);
  for (Coord v = 500; v-- > 0;) stream.Append({v, v});
  QueryService service(StreamOptions(64), PointSet(2));
  for (uint32_t id = 0; id < stream.size(); ++id) {
    const MutationResult inserted = service.Insert(Slice(stream, id, id + 1));
    ASSERT_TRUE(inserted.ok) << inserted.error;
    ASSERT_EQ(service.Query().skyline, (SkylineIndices{id})) << "row " << id;
  }
  EXPECT_EQ(service.stats().merges, 500u / 64);
  EXPECT_EQ(service.delta_stats().alive_rows, 500u);
}

// Batch first ids count every row inserted before the batch, whether or
// not a merge folded the earlier rows into the base.
TEST(QueryServiceStreamTest, FirstIdsFollowArrivalOrder) {
  const PointSet stream = MakePoints(Distribution::kIndependent, 500, 3, 6);
  QueryService service(StreamOptions(100), PointSet(3));
  size_t begin = 0;
  for (size_t batch = 1; begin < stream.size(); batch = batch % 37 + 7) {
    const size_t end = std::min(stream.size(), begin + batch);
    const MutationResult inserted = service.Insert(Slice(stream, begin, end));
    ASSERT_TRUE(inserted.ok) << inserted.error;
    EXPECT_EQ(inserted.first_id, begin);
    EXPECT_EQ(service.delta_stats().logical_rows, end);
    begin = end;
  }
  EXPECT_GE(service.stats().merges, 4u);
  EXPECT_EQ(service.Query().skyline, SortBasedSkyline(stream));
}

// Skyline of the rows in arrival order [upto - window, upto).
SkylineIndices BruteWindowSkyline(const PointSet& stream, size_t upto,
                                  size_t window) {
  const size_t begin = upto >= window ? upto - window : 0;
  SkylineIndices result;
  for (size_t i = begin; i < upto; ++i) {
    bool dominated = false;
    for (size_t j = begin; j < upto && !dominated; ++j) {
      dominated = j != i && Dominates(stream[j], stream[i]);
    }
    if (!dominated) result.push_back(static_cast<uint32_t>(i));
  }
  return result;
}

// A count-based sliding window kept in a QueryService: each batch of
// arrivals is inserted, then the rows that fell out of the window are
// deleted in one batch. A merge compacts logical ids (docs/updates.md);
// the window's rows are always a suffix of the stream, so after one the
// window holds ids 0..size-1 in arrival order.
class ServiceWindow {
 public:
  ServiceWindow(uint32_t dim, size_t window, size_t merge_threshold)
      : service_(StreamOptions(merge_threshold), PointSet(dim)),
        window_(window) {}

  void Push(const PointSet& batch) {
    const MutationResult inserted = service_.Insert(batch);
    ASSERT_TRUE(inserted.ok) << inserted.error;
    for (size_t i = 0; i < batch.size(); ++i) {
      ids_.push_back(inserted.first_id + static_cast<uint32_t>(i));
    }
    arrivals_ += batch.size();
    if (inserted.merged) Renumber();
    if (ids_.size() <= window_) return;
    const size_t expired = ids_.size() - window_;
    const std::vector<uint32_t> dead(ids_.begin(), ids_.begin() + expired);
    const MutationResult deleted = service_.Delete(dead);
    ASSERT_TRUE(deleted.ok) << deleted.error;
    ASSERT_EQ(deleted.applied, expired);
    ASSERT_EQ(deleted.rejected, 0u);
    ids_.erase(ids_.begin(), ids_.begin() + expired);
    if (deleted.merged) Renumber();
  }

  // The service's skyline as arrival indices into the stream.
  SkylineIndices SkylineArrivals() {
    const size_t first_arrival = arrivals_ - ids_.size();
    SkylineIndices arrivals;
    for (uint32_t id : service_.Query().skyline) {
      const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
      if (it == ids_.end() || *it != id) {
        ADD_FAILURE() << "skyline id " << id << " is not in the window";
        continue;
      }
      arrivals.push_back(
          static_cast<uint32_t>(first_arrival + (it - ids_.begin())));
    }
    return arrivals;
  }

  QueryService& service() { return service_; }

 private:
  void Renumber() {
    for (size_t i = 0; i < ids_.size(); ++i) {
      ids_[i] = static_cast<uint32_t>(i);
    }
  }

  QueryService service_;
  size_t window_;
  std::deque<uint32_t> ids_;  // Current logical ids, oldest row first.
  size_t arrivals_ = 0;
};

struct WindowCase {
  Distribution distribution;
  size_t n;
  uint32_t dim;
  size_t window;
  size_t merge_threshold;
  uint64_t seed;
};

std::string WindowCaseName(const ::testing::TestParamInfo<WindowCase>& info) {
  const WindowCase& c = info.param;
  return std::string(DistributionName(c.distribution)) + "_n" +
         std::to_string(c.n) + "_d" + std::to_string(c.dim) + "_window" +
         std::to_string(c.window) + "_merge" +
         std::to_string(c.merge_threshold);
}

class QueryServiceWindowOracleTest
    : public ::testing::TestWithParam<WindowCase> {};

TEST_P(QueryServiceWindowOracleTest, MatchesBruteForceAtEveryStep) {
  const WindowCase& c = GetParam();
  const PointSet stream = MakePoints(c.distribution, c.n, c.dim, c.seed);
  ServiceWindow window(c.dim, c.window, c.merge_threshold);
  for (size_t i = 0; i < stream.size(); ++i) {
    window.Push(Slice(stream, i, i + 1));
    if (HasFatalFailure()) return;
    ASSERT_EQ(window.SkylineArrivals(),
              BruteWindowSkyline(stream, i + 1, c.window))
        << "after arrival " << i;
  }
  EXPECT_EQ(window.service().delta_stats().alive_rows,
            std::min(c.window, stream.size()));
  if (c.merge_threshold != 0 && c.window < c.n) {
    EXPECT_GT(window.service().stats().merges, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, QueryServiceWindowOracleTest,
    ::testing::Values(
        WindowCase{Distribution::kIndependent, 600, 2, 50, 64, 1},
        WindowCase{Distribution::kIndependent, 600, 4, 100, 0, 2},
        WindowCase{Distribution::kCorrelated, 600, 3, 64, 32, 3},
        WindowCase{Distribution::kAnticorrelated, 500, 3, 40, 128, 4},
        WindowCase{Distribution::kIndependent, 300, 2, 1, 16, 5},
        WindowCase{Distribution::kIndependent, 100, 3, 1000, 8, 6}),
    WindowCaseName);

// Deleting the expired row that dominated the rest surfaces the row it
// hid, whether the rows sit in the delta (no merges) or in the base,
// where the delete repair promotes the dead band member's witness.
TEST(QueryServiceWindowTest, ExpiredDominatorRevealsSuccessor) {
  PointSet ps(2);
  ps.Append({0, 0});  // Dominates everything.
  ps.Append({5, 5});  // Hidden by (0,0).
  ps.Append({6, 7});  // Hidden by (5,5).
  for (size_t merge_threshold : {0u, 1u}) {
    ServiceWindow window(2, 2, merge_threshold);
    window.Push(Slice(ps, 0, 1));
    window.Push(Slice(ps, 1, 2));
    EXPECT_EQ(window.SkylineArrivals(), (SkylineIndices{0}));
    window.Push(Slice(ps, 2, 3));  // The window is now {1, 2}.
    EXPECT_EQ(window.SkylineArrivals(), (SkylineIndices{1}))
        << "merge threshold " << merge_threshold;
    EXPECT_EQ(window.service().stats().repairs, merge_threshold)
        << "merge threshold " << merge_threshold;
  }
}

// When a row's dominator expires, the row surfaces only if no younger
// row hides it too.
TEST(QueryServiceWindowTest, YoungerDominatorKeepsRowHidden) {
  ServiceWindow window(2, 3, 0);
  PointSet ps(2);
  ps.Append({5, 5});  // 0: hidden by 1.
  ps.Append({1, 1});  // 1.
  ps.Append({9, 9});  // 2: hidden by 1, then by 4.
  ps.Append({8, 0});  // 3: incomparable with 1 and 4.
  ps.Append({3, 3});  // 4: hidden by 1 until 1 expires with this arrival.
  ps.Append({7, 7});  // 5: hidden by 4.
  const std::vector<SkylineIndices> expected = {{0},    {1},    {1},
                                                {1, 3}, {3, 4}, {3, 4}};
  for (size_t i = 0; i < ps.size(); ++i) {
    window.Push(Slice(ps, i, i + 1));
    EXPECT_EQ(window.SkylineArrivals(), expected[i]) << "after arrival " << i;
  }
}

TEST(QueryServiceWindowTest, WindowOfOneKeepsOnlyNewest) {
  ServiceWindow window(2, 1, 0);
  PointSet ps(2);
  ps.Append({1, 1});
  ps.Append({9, 9});
  window.Push(Slice(ps, 0, 1));
  window.Push(Slice(ps, 1, 2));
  EXPECT_EQ(window.SkylineArrivals(), (SkylineIndices{1}));
  EXPECT_EQ(window.service().delta_stats().alive_rows, 1u);
}

// A long correlated stream crosses the merge threshold many times; each
// merge rebuilds the base from the window alone, so the alive rows never
// exceed the window and the answer stays exact after every merge.
TEST(QueryServiceWindowTest, MergesCompactTheExpiredRows) {
  const PointSet stream = MakePoints(Distribution::kCorrelated, 5000, 3, 7);
  constexpr size_t kWindow = 1000;
  constexpr size_t kBatch = 50;
  ServiceWindow window(3, kWindow, 512);
  for (size_t begin = 0; begin < stream.size(); begin += kBatch) {
    window.Push(Slice(stream, begin, begin + kBatch));
    if (HasFatalFailure()) return;
    const DeltaStats delta = window.service().delta_stats();
    EXPECT_EQ(delta.alive_rows, std::min(kWindow, begin + kBatch));
    EXPECT_LE(delta.logical_rows, kWindow + 512);
  }
  EXPECT_EQ(window.SkylineArrivals(),
            BruteWindowSkyline(stream, stream.size(), kWindow));
  EXPECT_GE(window.service().stats().merges, 8u);
}

// Long random streams with random batch sizes, windows and merge
// thresholds, checked against the brute-force window skyline at spot
// steps and at the end.
class QueryServiceWindowFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryServiceWindowFuzz, LongStreamSpotChecks) {
  Rng rng(GetParam());
  const uint32_t dim = 2 + static_cast<uint32_t>(rng.NextBounded(3));
  const size_t window = 64 + rng.NextBounded(200);
  const size_t merge_threshold =
      rng.NextBounded(4) == 0 ? 0 : 16 + rng.NextBounded(240);
  ServiceWindow sky(dim, window, merge_threshold);
  PointSet history(dim);
  size_t next_check = 311;
  while (history.size() < 2500) {
    const size_t batch = 1 + rng.NextBounded(8);
    const size_t begin = history.size();
    std::vector<Coord> p(dim);
    for (size_t i = 0; i < batch; ++i) {
      for (Coord& c : p) c = static_cast<Coord>(rng.NextBounded(kMax + 1));
      history.Append(p);
    }
    sky.Push(Slice(history, begin, history.size()));
    if (HasFatalFailure()) return;
    if (history.size() >= next_check || history.size() >= 2500) {
      next_check += 311;
      ASSERT_EQ(sky.SkylineArrivals(),
                BruteWindowSkyline(history, history.size(), window))
          << "after " << history.size() << " arrivals (dim " << dim
          << ", window " << window << ", merge " << merge_threshold << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryServiceWindowFuzz,
                         ::testing::Values(11u, 12u, 13u));

}  // namespace
}  // namespace zsky
