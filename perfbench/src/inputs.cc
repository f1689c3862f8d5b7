#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <thread>

#include "io/columnar.h"
#include "mirror.h"
#include "oracle.h"

namespace perfbench {

namespace {

// Bump when a generator or the file layout changes, so cached inputs of
// an older benchmark are never reused.
constexpr uint32_t kInputsVersion = 1;
constexpr char kMagic[4] = {'Z', 'P', 'B', 'I'};

// Per-workload salts: one seed gives each workload an unrelated stream.
constexpr uint64_t kHeapAntiSalt = 0x6865617061ull;
constexpr uint64_t kZscBoxSalt = 0x7a7363626full;
constexpr uint64_t kMixSalt = 0x6d69786d69ull;
constexpr uint64_t kMixBaseSeed = 0x6d69786261ull;
constexpr uint64_t kMixDeleteSeed = 0x6d69786465ull;

unsigned OracleThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

// Minimal binary container: magic, version, then length-prefixed arrays.
// Written under a temporary name; Commit() publishes it.
class Writer {
 public:
  explicit Writer(const std::string& path)
      : path_(path),
        tmp_(path + ".tmp"),
        file_(std::fopen(tmp_.c_str(), "wb")) {
    if (file_ == nullptr) throw std::runtime_error("cannot create " + tmp_);
    Raw(kMagic, sizeof(kMagic));
    U64(kInputsVersion);
  }

  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  template <typename T>
  void Array(const std::vector<T>& v) {
    U64(v.size());
    Raw(v.data(), v.size() * sizeof(T));
  }
  void String(const std::string& s) {
    U64(s.size());
    Raw(s.data(), s.size());
  }
  void Commit() {
    const bool closed = std::fclose(file_.release()) == 0;
    if (!closed || std::rename(tmp_.c_str(), path_.c_str()) != 0) {
      std::remove(tmp_.c_str());
      throw std::runtime_error("cannot write " + path_);
    }
  }

 private:
  void Raw(const void* data, size_t bytes) {
    if (bytes > 0 && std::fwrite(data, 1, bytes, file_.get()) != bytes) {
      throw std::runtime_error("short write to " + tmp_);
    }
  }

  std::string path_;
  std::string tmp_;
  File file_;
};

class Reader {
 public:
  explicit Reader(const std::string& path)
      : path_(path), file_(std::fopen(path.c_str(), "rb")) {
    if (file_ == nullptr) throw std::runtime_error("cannot open " + path);
    char magic[4];
    Raw(magic, sizeof(magic));
    if (!std::equal(magic, magic + 4, kMagic) || U64() != kInputsVersion) {
      throw std::runtime_error(path + ": not a current inputs file");
    }
  }

  uint64_t U64() {
    uint64_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  template <typename T>
  std::vector<T> Array() {
    const uint64_t n = U64();
    if (n > (uint64_t{1} << 32)) throw std::runtime_error(path_ + ": corrupt");
    std::vector<T> v(n);
    Raw(v.data(), n * sizeof(T));
    return v;
  }
  std::string String() {
    const std::vector<char> chars = Array<char>();
    return std::string(chars.begin(), chars.end());
  }

 private:
  void Raw(void* data, size_t bytes) {
    if (bytes > 0 && std::fread(data, 1, bytes, file_.get()) != bytes) {
      throw std::runtime_error(path_ + ": truncated");
    }
  }

  std::string path_;
  File file_;
};

void WriteReadInputs(const ReadInputs& inputs, const std::string& path) {
  Writer out(path);
  out.Array(inputs.points);
  out.Array(inputs.box_lo);
  out.Array(inputs.box_hi);
  out.Array(inputs.reference);
  out.String(inputs.zsc_path.empty()
                 ? std::string()
                 : std::filesystem::path(inputs.zsc_path).filename().string());
  out.Commit();
}

}  // namespace

ReadInputs MakeHeapAnti(uint64_t seed, size_t rows) {
  Rng rng(seed ^ kHeapAntiSalt);
  ReadInputs inputs;
  inputs.points = GenerateAnticorrelated(rng, rows);
  inputs.reference = ReferenceSkyline(inputs.points.data(), rows, kDim,
                                      nullptr, OracleThreads());
  return inputs;
}

ReadInputs MakeZscBox(uint64_t seed, size_t rows, const std::string& zsc_path) {
  Rng rng(seed ^ kZscBoxSalt);
  const std::string tmp = zsc_path + ".tmp";
  std::vector<Coord> in_box;
  std::vector<uint32_t> in_box_rows;
  {
    zsky::ColumnarWriter writer(tmp, kDim, rows, kBits);
    if (!writer.ok()) throw std::runtime_error(writer.error());
    for (size_t begin = 0; begin < rows;
         begin += zsky::ColumnarWriter::kChunkRows) {
      const size_t count =
          std::min(zsky::ColumnarWriter::kChunkRows, rows - begin);
      const std::vector<Coord> chunk = GenerateIndependent(rng, count);
      for (size_t i = 0; i < count; ++i) {
        const Coord* p = chunk.data() + i * kDim;
        if (std::all_of(p, p + kDim, [](Coord c) { return c <= kZscBoxHi; })) {
          in_box.insert(in_box.end(), p, p + kDim);
          in_box_rows.push_back(static_cast<uint32_t>(begin + i));
        }
      }
      if (!writer.AppendRows(chunk.data(), count)) {
        throw std::runtime_error(writer.error());
      }
    }
    if (!writer.Finish()) throw std::runtime_error(writer.error());
  }
  std::filesystem::rename(tmp, zsc_path);

  ReadInputs inputs;
  inputs.zsc_path = zsc_path;
  inputs.box_lo.assign(kDim, 0);
  inputs.box_hi.assign(kDim, kZscBoxHi);
  for (uint32_t i : ReferenceSkyline(in_box.data(), in_box_rows.size(), kDim,
                                     nullptr, OracleThreads())) {
    inputs.reference.push_back(in_box_rows[i]);
  }
  return inputs;
}

MixInputs MakeMutateMix(uint64_t seed, size_t rows, size_t rounds) {
  // One base and one stream of deleted ids for every seed; the seed draws
  // the inserted rows. The skyline of a random 500k x 8d set varies by
  // some 10% in size between draws, and every mutate-mix cost scales with
  // it. Deletes take ~90% of the time, most of it in the few band repairs
  // whose dominance region is large, so which ids a trace deletes moved
  // ops_per_s by 12-16% (IQR over median of 5-10 seeds on a quiet 4-vCPU
  // VM) while reruns of one seed moved it by under 1%.
  Rng base_rng(kMixBaseSeed);
  Rng delete_rng(kMixDeleteSeed);
  Rng rng(seed ^ kMixSalt);
  MixInputs inputs;
  inputs.base = GenerateIndependent(base_rng, rows);
  inputs.rounds = rounds;
  inputs.base_reference = ReferenceSkyline(inputs.base.data(), rows, kDim,
                                           nullptr, OracleThreads());
  Mirror mirror(inputs.base, kDim, kMixMergeThreshold);
  for (size_t round = 0; round < rounds; ++round) {
    const std::vector<Coord> batch = GenerateIndependent(rng, kMixInsertBatch);
    inputs.inserts.insert(inputs.inserts.end(), batch.begin(), batch.end());
    mirror.Insert(batch);
    // Distinct ids, uniform over the rows alive at this point.
    std::vector<uint32_t> ids;
    while (ids.size() < kMixDeleteBatch) {
      const auto id =
          static_cast<uint32_t>(delete_rng.NextBelow(mirror.logical_rows()));
      if (mirror.alive(id) &&
          std::find(ids.begin(), ids.end(), id) == ids.end()) {
        ids.push_back(id);
      }
    }
    inputs.deletes.insert(inputs.deletes.end(), ids.begin(), ids.end());
    mirror.Delete(ids);
    if ((round + 1) % kMixCheckpointEvery == 0 || round + 1 == rounds) {
      inputs.checkpoint_rounds.push_back(static_cast<uint32_t>(round));
      inputs.checkpoint_references.push_back(ReferenceSkyline(
          mirror.coords().data(), mirror.logical_rows(), kDim,
          mirror.alive_mask().data(), OracleThreads()));
    }
  }
  return inputs;
}

bool IsWorkload(std::string_view name) {
  return name == kHeapAnti || name == kZscBox || name == kMutateMix;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::NextGaussian() {
  // Box-Muller; 1 - u keeps the logarithm finite.
  const double u = 1.0 - NextDouble();
  const double v = NextDouble();
  return std::sqrt(-2.0 * std::log(u)) * std::cos(2.0 * std::numbers::pi * v);
}

std::vector<Coord> GenerateIndependent(Rng& rng, size_t n) {
  std::vector<Coord> out(n * kDim);
  for (Coord& c : out) c = rng.NextCoord();
  return out;
}

std::vector<Coord> GenerateAnticorrelated(Rng& rng, size_t n) {
  constexpr double kScale = 1 << kBits;
  constexpr Coord kMax = (1u << kBits) - 1;
  std::vector<Coord> out(n * kDim);
  double v[kDim];
  for (size_t i = 0; i < n; ++i) {
    const double plane = std::clamp(0.5 + 0.08 * rng.NextGaussian(), 0.0, 1.0);
    double sum = 0.0;
    for (double& x : v) {
      x = rng.NextDouble();
      sum += x;
    }
    const double scale = sum > 0.0 ? plane * kDim / sum : 1.0;
    for (uint32_t d = 0; d < kDim; ++d) {
      const double q = std::floor(std::clamp(v[d] * scale, 0.0, 1.0) * kScale);
      out[i * kDim + d] = std::min(kMax, static_cast<Coord>(q));
    }
  }
  return out;
}

std::span<const Coord> MixInputs::InsertBatch(size_t round) const {
  return std::span<const Coord>(inserts)
      .subspan(round * kMixInsertBatch * kDim, kMixInsertBatch * kDim);
}

std::span<const uint32_t> MixInputs::DeleteBatch(size_t round) const {
  return std::span<const uint32_t>(deletes)
      .subspan(round * kMixDeleteBatch, kMixDeleteBatch);
}

size_t MixRounds(int seconds) {
  // A round takes 70-100 ms on a 4-vCPU x86 VM. A merge folds the delta
  // about every 103 rounds, so a 20 s run sees four.
  constexpr size_t kRoundsPerSecond = 25;
  return std::max<size_t>(kMixCheckpointEvery,
                          kRoundsPerSecond * static_cast<size_t>(seconds));
}

std::string InputsPath(std::string_view workload, uint64_t seed, int seconds,
                       const std::string& dir) {
  std::string name = dir + "/" + std::string(workload) + "-s" +
                     std::to_string(seed);
  if (workload == kMutateMix) name += "-r" + std::to_string(MixRounds(seconds));
  return name + ".in";
}

std::string PrepareInputs(std::string_view workload, uint64_t seed,
                          int seconds, const std::string& dir) {
  if (!IsWorkload(workload)) {
    throw std::invalid_argument("unknown workload " + std::string(workload));
  }
  const std::string path = InputsPath(workload, seed, seconds, dir);
  if (std::filesystem::exists(path)) return path;
  std::filesystem::create_directories(dir);
  if (workload == kHeapAnti) {
    WriteReadInputs(MakeHeapAnti(seed, kHeapAntiRows), path);
  } else if (workload == kZscBox) {
    const std::string zsc = dir + "/" + std::string(workload) + "-s" +
                            std::to_string(seed) + ".zsc";
    WriteReadInputs(MakeZscBox(seed, kZscBoxRows, zsc), path);
  } else {
    const MixInputs inputs =
        MakeMutateMix(seed, kMixRows, MixRounds(seconds));
    Writer out(path);
    out.Array(inputs.base);
    out.U64(inputs.rounds);
    out.Array(inputs.inserts);
    out.Array(inputs.deletes);
    out.Array(inputs.base_reference);
    out.Array(inputs.checkpoint_rounds);
    for (const std::vector<uint32_t>& reference :
         inputs.checkpoint_references) {
      out.Array(reference);
    }
    out.Commit();
  }
  return path;
}

ReadInputs LoadReadInputs(const std::string& path) {
  Reader in(path);
  ReadInputs inputs;
  inputs.points = in.Array<Coord>();
  inputs.box_lo = in.Array<Coord>();
  inputs.box_hi = in.Array<Coord>();
  inputs.reference = in.Array<uint32_t>();
  const std::string zsc_name = in.String();
  if (!zsc_name.empty()) {
    inputs.zsc_path =
        (std::filesystem::path(path).parent_path() / zsc_name).string();
  }
  return inputs;
}

MixInputs LoadMixInputs(const std::string& path) {
  Reader in(path);
  MixInputs inputs;
  inputs.base = in.Array<Coord>();
  inputs.rounds = in.U64();
  inputs.inserts = in.Array<Coord>();
  inputs.deletes = in.Array<uint32_t>();
  inputs.base_reference = in.Array<uint32_t>();
  inputs.checkpoint_rounds = in.Array<uint32_t>();
  for (size_t i = 0; i < inputs.checkpoint_rounds.size(); ++i) {
    inputs.checkpoint_references.push_back(in.Array<uint32_t>());
  }
  if (inputs.inserts.size() != inputs.rounds * kMixInsertBatch * kDim ||
      inputs.deletes.size() != inputs.rounds * kMixDeleteBatch) {
    throw std::runtime_error(path + ": trace does not match its round count");
  }
  return inputs;
}

}  // namespace perfbench
