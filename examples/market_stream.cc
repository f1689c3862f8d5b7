// Live market feed: maintain the "efficient frontier" of listings as
// offers arrive, through the serving layer's write path. The service
// starts from an empty base; each tick's offers are one
// QueryService::Insert batch, and the dashboard reads the frontier with
// Query().
//
// Scenario: a used-car marketplace streams offers (price, mileage, age,
// distance-to-buyer — all minimized). Inserts land in the delta overlay
// (docs/updates.md), which folds into a fresh base every
// delta_merge_threshold rows. At the end the frontier is checked against
// a batch skyline of the whole stream.

#include <algorithm>
#include <cstdio>

#include "zsky.h"

int main() {
  using namespace zsky;

  constexpr uint32_t kDim = 4;
  constexpr size_t kOffers = 200'000;
  constexpr size_t kTick = 1'000;  // Offers per Insert batch.
  static_assert(kOffers % kTick == 0);
  const Quantizer quantizer(16);

  QueryServiceOptions options;
  options.executor.bits = quantizer.bits();
  QueryService market(options, PointSet(kDim));

  Rng rng(99);
  PointSet stream(kDim);  // The whole feed, kept for the final check.
  stream.Reserve(kOffers);
  PointSet tick(kDim);
  std::vector<Coord> offer(kDim);
  Stopwatch watch;
  for (size_t i = 0; i < kOffers; ++i) {
    // Correlated listing: newer cars cost more and have fewer miles.
    const double age = rng.NextDouble();
    const double price =
        std::min(1.0, std::max(0.0, (1.0 - age) * 0.8 +
                                        0.2 * rng.NextDouble()));
    const double mileage =
        std::min(1.0, std::max(0.0, age * 0.7 + 0.3 * rng.NextDouble()));
    const double distance = rng.NextDouble();
    offer[0] = quantizer.Quantize(price);
    offer[1] = quantizer.Quantize(mileage);
    offer[2] = quantizer.Quantize(age);
    offer[3] = quantizer.Quantize(distance);
    tick.Append(offer);
    stream.Append(offer);
    if (tick.size() < kTick) continue;

    const MutationResult inserted = market.Insert(tick);
    if (!inserted.ok) {
      std::fprintf(stderr, "insert failed: %s\n", inserted.error.c_str());
      return 1;
    }
    tick.Clear();
    if ((i + 1) % 50'000 == 0) {
      const QueryService::Stats stats = market.stats();
      std::printf("after %7zu offers: frontier %5zu  (fast-path rejects "
                  "%6zu, merges %2zu)  %.1f ms elapsed\n",
                  i + 1, market.Query().skyline.size(),
                  stats.fast_path_inserts, stats.merges, watch.ElapsedMs());
    }
  }

  const SkylineIndices frontier = market.Query().skyline;
  const double total_ms = watch.ElapsedMs();
  std::printf("\nprocessed %zu offers in %.1f ms (%.0f offers/ms)\n",
              kOffers, total_ms, kOffers / total_ms);
  std::printf("final frontier: %zu listings\n", frontier.size());

  // Logical ids are arrival order: the stream has no deletes, so every
  // merge keeps all rows in insertion order.
  const bool exact = frontier == BnlSkyline(stream);
  std::printf("frontier matches the batch skyline of the stream: %s\n",
              exact ? "yes" : "NO");
  return exact ? 0 : 1;
}
