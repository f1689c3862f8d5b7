#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/point_set.h"

namespace perfbench {

using zsky::Coord;

// The three workloads (see BENCHMARK.json for why each exists).
inline constexpr std::string_view kHeapAnti = "heap-anti";
inline constexpr std::string_view kZscBox = "zsc-box";
inline constexpr std::string_view kMutateMix = "mutate-mix";
bool IsWorkload(std::string_view name);

// Every input is generated here from the run's seed, with the
// benchmark's own generators, so the inputs never change with the
// library's code. Coordinates are 16-bit, the library's default
// resolution.
inline constexpr uint32_t kDim = 8;
inline constexpr uint32_t kBits = 16;
inline constexpr size_t kHeapAntiRows = 100000;
inline constexpr size_t kZscBoxRows = 8000000;
inline constexpr Coord kZscBoxHi = 32767;  // Box [0, kZscBoxHi]^8.
inline constexpr size_t kMixRows = 500000;
inline constexpr size_t kMixInsertBatch = 64;
inline constexpr size_t kMixDeleteBatch = 16;
inline constexpr size_t kMixMergeThreshold = 8192;
// mutate-mix compares the skyline with a reference every this many
// rounds, and after the last round.
inline constexpr size_t kMixCheckpointEvery = 200;

// Deterministic 64-bit generator (SplitMix64).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1p-53; }
  Coord NextCoord() { return static_cast<Coord>(Next() >> (64 - kBits)); }
  uint64_t NextBelow(uint64_t bound) { return Next() % bound; }
  double NextGaussian();

 private:
  uint64_t state_;
};

// `n` rows of uniform independent coordinates.
std::vector<Coord> GenerateIndependent(Rng& rng, size_t n);
// `n` anti-correlated rows: uniform directions rescaled onto a
// constant-sum hyperplane whose offset is drawn around the middle, so a
// good value in one dimension forces bad values in others.
std::vector<Coord> GenerateAnticorrelated(Rng& rng, size_t n);

// Inputs of heap-anti and zsc-box: one dataset queried over and over.
struct ReadInputs {
  std::vector<Coord> points;  // heap-anti: the dataset.
  std::string zsc_path;       // zsc-box: the prepared `.zsc` file.
  std::vector<Coord> box_lo;  // Constraint box; empty = full space.
  std::vector<Coord> box_hi;
  std::vector<uint32_t> reference;  // Ascending skyline row ids.
};

// Inputs of mutate-mix: a base dataset, a fixed trace of rounds (insert
// a batch, delete a batch, query), and reference skylines.
struct MixInputs {
  std::vector<Coord> base;
  size_t rounds = 0;
  std::vector<Coord> inserts;     // rounds * kMixInsertBatch rows.
  std::vector<uint32_t> deletes;  // rounds * kMixDeleteBatch logical ids.
  std::vector<uint32_t> base_reference;    // Skyline before any mutation.
  std::vector<uint32_t> checkpoint_rounds; // Ascending.
  std::vector<std::vector<uint32_t>> checkpoint_references;

  std::span<const Coord> InsertBatch(size_t round) const;
  std::span<const uint32_t> DeleteBatch(size_t round) const;
};

// Rounds in a mutate-mix trace for a run of `seconds`: a fixed count per
// second, never a count that depends on host speed.
size_t MixRounds(int seconds);

// Workload inputs of a given size, with their reference answers.
ReadInputs MakeHeapAnti(uint64_t seed, size_t rows);
// Writes the dataset to `zsc_path` through the library's ColumnarWriter.
ReadInputs MakeZscBox(uint64_t seed, size_t rows, const std::string& zsc_path);
MixInputs MakeMutateMix(uint64_t seed, size_t rows, size_t rounds);

// Path of the inputs file of `workload` for `seed` (and, for mutate-mix,
// `seconds`) in `dir`.
std::string InputsPath(std::string_view workload, uint64_t seed, int seconds,
                       const std::string& dir);

// Generates the full-size inputs into InputsPath(...) unless already
// there, and returns that path. Files are written under a temporary name
// and renamed, so an interrupted prepare never leaves a file that looks
// complete. Throws on I/O failure.
std::string PrepareInputs(std::string_view workload, uint64_t seed,
                          int seconds, const std::string& dir);

ReadInputs LoadReadInputs(const std::string& path);
MixInputs LoadMixInputs(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
