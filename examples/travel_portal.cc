// Travel portal: one dataset, four skyline query flavours.
//
// A flight-search backend keeps offers as (price, duration, stops,
// departure-shift) — all minimized — and answers:
//   1. the plain skyline ("best trade-offs overall"),
//   2. a constrained skyline ("...under $400 and at most 1 stop"),
//   3. a subspace skyline ("I only care about price and duration"),
//   4. a 3-skyband ranked top-5 ("a deeper shortlist, best first").

#include <algorithm>
#include <cstdio>

#include "zsky.h"

namespace {

using namespace zsky;

constexpr uint32_t kDim = 4;
const char* kCriteria[kDim] = {"price", "duration", "stops", "dep-shift"};

PointSet MakeOffers(size_t n, const Quantizer& quantizer, uint64_t seed) {
  Rng rng(seed);
  PointSet offers(kDim);
  offers.Reserve(n);
  std::vector<Coord> row(kDim);
  for (size_t i = 0; i < n; ++i) {
    // Nonstop flights are shorter but pricier; red-eyes are cheaper.
    const double stops = rng.NextBounded(3);          // 0..2 stops.
    const double dep_shift = rng.NextDouble();        // Hours off-peak.
    const double duration =
        std::clamp(0.25 + 0.2 * stops + 0.1 * rng.NextGaussian(), 0.0, 1.0);
    const double price = std::clamp(
        0.8 - 0.18 * stops - 0.15 * dep_shift + 0.1 * rng.NextGaussian(),
        0.0, 1.0);
    row[0] = quantizer.Quantize(price);
    row[1] = quantizer.Quantize(duration);
    row[2] = quantizer.Quantize(stops / 3.0);
    row[3] = quantizer.Quantize(dep_shift);
    offers.Append(row);
  }
  return offers;
}

void PrintOffer(const PointSet& offers, const Quantizer& quantizer,
                uint32_t row) {
  std::printf("  offer %6u:", row);
  for (uint32_t k = 0; k < kDim; ++k) {
    std::printf(" %s=%.2f", kCriteria[k],
                quantizer.Dequantize(offers[row][k]));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  const Quantizer quantizer(16);
  const PointSet offers = MakeOffers(150'000, quantizer, 13);
  const ZOrderCodec codec(kDim, quantizer.bits());
  std::printf("offers: %zu, criteria: price/duration/stops/dep-shift "
              "(all minimized)\n\n",
              offers.size());

  // 1. Plain skyline via the cost-based planned pipeline.
  ExecutorOptions base;
  base.bits = quantizer.bits();
  const PlanChoice plan = ChoosePlan(offers, base);
  std::printf("planner: %s (estimated skyline fraction %.1f%%)\n",
              plan.rationale.c_str(),
              100.0 * plan.estimated_skyline_fraction);
  const SkylineQueryResult result =
      ParallelSkylineExecutor(plan.options).Execute(offers);
  std::printf("1. skyline: %zu offers (%s)\n", result.skyline.size(),
              FormatRunSummary(plan.options, offers.size(), result).c_str());

  // 2. Constrained skyline: price <= 0.4 (about $400 normalized), at most
  //    1 stop, anything else unconstrained.
  RTree rtree(offers);
  std::vector<Coord> lo(kDim, 0);
  std::vector<Coord> hi{quantizer.Quantize(0.4), quantizer.max_value(),
                        quantizer.Quantize(1.0 / 3.0),
                        quantizer.max_value()};
  const SkylineIndices constrained =
      ConstrainedSkyline(codec, offers, rtree, lo, hi);
  std::printf("2. constrained skyline (price<=0.4, stops<=1): %zu offers\n",
              constrained.size());

  // 3. Subspace skyline: price & duration only.
  const std::vector<uint32_t> dims{0, 1};
  const SkylineIndices subspace = SubspaceSkyline(offers, dims);
  std::printf("3. subspace skyline (price, duration): %zu offers\n",
              subspace.size());

  // 4. 3-skyband, ranked, top 5.
  QueryDesc band_desc;
  band_desc.k = 3;
  const SkylineQueryResult band =
      ParallelSkylineExecutor(base).Execute(offers, band_desc);
  const auto top =
      TopKSkyline(offers, band.skyline, 5, SkylineRank::kScoreSum);
  std::printf("4. 3-skyband: %zu offers; top 5 by score:\n",
              band.skyline.size());
  for (const RankedPoint& rp : top) PrintOffer(offers, quantizer, rp.row);

  // Sanity: the library can verify its own answer.
  const bool ok = !VerifySkyline(offers, result.skyline).has_value();
  std::printf("\nskyline verified: %s\n", ok ? "yes" : "NO (bug!)");
  return ok ? 0 : 1;
}
