// Micro-benchmarks of the library's primitives (google-benchmark):
// Z-address encode/compare, RZ-region construction, ZB-tree build and
// queries, and the centralized skyline algorithms head-to-head.

#include <benchmark/benchmark.h>

#include "algo/bnl.h"
#include "algo/sort_based.h"
#include "common/quantizer.h"
#include "gen/synthetic.h"
#include "index/zbtree.h"
#include "index/zsearch.h"
#include "zorder/rz_region.h"
#include "zorder/zorder_codec.h"

namespace zsky {
namespace {

constexpr uint32_t kBits = 16;

PointSet MakePoints(Distribution d, size_t n, uint32_t dim, uint64_t seed) {
  return GenerateQuantized(d, n, dim, seed, Quantizer(kBits));
}

void BM_ZEncode(benchmark::State& state) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  ZOrderCodec codec(dim, kBits);
  const PointSet ps = MakePoints(Distribution::kIndependent, 1024, dim, 1);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.Encode(ps[i++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZEncode)->Arg(2)->Arg(5)->Arg(10)->Arg(64)->Arg(225);

void BM_ZCompare(benchmark::State& state) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  ZOrderCodec codec(dim, kBits);
  const PointSet ps = MakePoints(Distribution::kIndependent, 1024, dim, 2);
  const auto addresses = codec.EncodeAll(ps);
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = addresses[i & 1023];
    const auto& b = addresses[(i * 7 + 1) & 1023];
    benchmark::DoNotOptimize(a < b);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZCompare)->Arg(5)->Arg(64)->Arg(225);

void BM_RZRegionFromAddresses(benchmark::State& state) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  ZOrderCodec codec(dim, kBits);
  const PointSet ps = MakePoints(Distribution::kIndependent, 1024, dim, 3);
  auto addresses = codec.EncodeAll(ps);
  size_t i = 0;
  for (auto _ : state) {
    auto a = addresses[i & 1023];
    auto b = addresses[(i + 1) & 1023];
    if (b < a) std::swap(a, b);
    benchmark::DoNotOptimize(RZRegion::FromAddresses(codec, a, b));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RZRegionFromAddresses)->Arg(5)->Arg(64);

void BM_ZBTreeBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  ZOrderCodec codec(5, kBits);
  const PointSet ps = MakePoints(Distribution::kIndependent, n, 5, 4);
  for (auto _ : state) {
    ZBTree tree(&codec, ps);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ZBTreeBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ZBTreeExistsDominator(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  ZOrderCodec codec(5, kBits);
  const PointSet ps = MakePoints(Distribution::kAnticorrelated, n, 5, 5);
  ZBTree tree(&codec, ps);
  const PointSet probes = MakePoints(Distribution::kIndependent, 1024, 5, 6);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.ExistsDominatorOf(probes[i++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZBTreeExistsDominator)->Arg(10000)->Arg(100000);

template <SkylineIndices (*Algo)(const PointSet&)>
void BM_CentralizedSkyline(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const uint32_t dim = static_cast<uint32_t>(state.range(1));
  const PointSet ps = MakePoints(Distribution::kIndependent, n, dim, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Algo(ps));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_TEMPLATE(BM_CentralizedSkyline, BnlSkyline)
    ->Args({10000, 5})
    ->Args({50000, 5});
BENCHMARK_TEMPLATE(BM_CentralizedSkyline, SortBasedSkyline)
    ->Args({10000, 5})
    ->Args({50000, 5});

void BM_ZSearch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const uint32_t dim = static_cast<uint32_t>(state.range(1));
  ZOrderCodec codec(dim, kBits);
  const PointSet ps = MakePoints(Distribution::kIndependent, n, dim, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ZSearchSkyline(codec, ps));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ZSearch)->Args({10000, 5})->Args({50000, 5})->Args({50000, 8});

}  // namespace
}  // namespace zsky

BENCHMARK_MAIN();
