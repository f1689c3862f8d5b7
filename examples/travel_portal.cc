// Travel portal: one dataset, four skyline query flavours.
//
// A flight-search backend keeps offers as (price, duration, stops,
// departure-shift) — all minimized — and answers every flavour with the
// one parallel pipeline, each flavour a QueryDesc:
//   1. the plain skyline ("best trade-offs overall"),
//   2. a constrained skyline ("...under $400 and at most 1 stop"): a box,
//   3. a subspace skyline ("I only care about price and duration"): dims,
//   4. a 3-skyband ranked top-5 ("a deeper shortlist, best first"): k.
// The example checks its own answers: the plain skyline with
// VerifySkyline, the box and subspace flavours against OracleQuery.

#include <algorithm>
#include <cstdio>

#include "algo/oracle.h"
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
  std::printf("offers: %zu, criteria: price/duration/stops/dep-shift "
              "(all minimized)\n\n",
              offers.size());

  ExecutorOptions options;
  options.bits = quantizer.bits();
  const ParallelSkylineExecutor executor(options);

  // 1. Plain skyline.
  const SkylineQueryResult result = executor.Execute(offers);
  std::printf("1. skyline: %zu offers (%s)\n", result.skyline.size(),
              FormatRunSummary(options, offers.size(), result).c_str());

  // 2. Constrained skyline: price <= 0.4 (about $400 normalized), at most
  //    1 stop, anything else unconstrained.
  QueryDesc box;
  box.box_lo.assign(kDim, 0);
  box.box_hi = {quantizer.Quantize(0.4), quantizer.max_value(),
                quantizer.Quantize(1.0 / 3.0), quantizer.max_value()};
  const SkylineIndices constrained = executor.Execute(offers, box).skyline;
  std::printf("2. constrained skyline (price<=0.4, stops<=1): %zu offers\n",
              constrained.size());

  // 3. Subspace skyline: price & duration only.
  QueryDesc subspace;
  subspace.dims = {0, 1};
  const SkylineIndices projected = executor.Execute(offers, subspace).skyline;
  std::printf("3. subspace skyline (price, duration): %zu offers\n",
              projected.size());

  // 4. 3-skyband, ranked, top 5.
  QueryDesc band_desc;
  band_desc.k = 3;
  const SkylineQueryResult band = executor.Execute(offers, band_desc);
  const auto top =
      TopKSkyline(offers, band.skyline, 5, SkylineRank::kScoreSum);
  std::printf("4. 3-skyband: %zu offers; top 5 by score:\n",
              band.skyline.size());
  for (const RankedPoint& rp : top) PrintOffer(offers, quantizer, rp.row);

  // Sanity: the library can check its own answers.
  const Coord max_coord = quantizer.max_value();
  const bool skyline_ok = !VerifySkyline(offers, result.skyline).has_value();
  const bool box_ok = constrained == OracleQuery(offers, box, max_coord);
  const bool subspace_ok =
      projected == OracleQuery(offers, subspace, max_coord);
  std::printf("\nskyline verified: %s; constrained and subspace match the "
              "oracle: %s\n",
              skyline_ok ? "yes" : "NO (bug!)",
              box_ok && subspace_ok ? "yes" : "NO (bug!)");
  return skyline_ok && box_ok && subspace_ok ? 0 : 1;
}
