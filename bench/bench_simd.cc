// SIMD dispatch bench: per-ISA dominance-kernel throughput, Z-order codec
// throughput (seed bit-loop vs magic-shuffle scalar vs BMI2 pdep/pext),
// and the end-to-end pipeline pinned to the scalar tier with the PR-1
// per-point SZB walk vs the best tier with the batched block filter —
// verifying the skylines are bit-identical. Emits BENCH_simd.json.
//
// Tiers the host cannot run report as 0 ms / 0x and are omitted from the
// JSON, so the bench is meaningful on non-AVX2 hardware too.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/cpu.h"
#include "common/dominance_kernels.h"
#include "common/stopwatch.h"
#include "zorder/zorder_codec.h"

namespace zsky::bench {
namespace {

constexpr int kReps = 3;

template <typename Fn>
double BestMs(const Fn& fn, int reps = kReps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    const double ms = watch.ElapsedMs();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

// --- 1. Kernel throughput: full-block scans per tier. All-zero probes
// make AnyDominates scan every tile (nothing dominates the origin), so
// early exits never mask the kernel's raw rate. ---
struct KernelTimes {
  double ms[3] = {0.0, 0.0, 0.0};  // Indexed by Isa.
  double Speedup(Isa isa) const {
    const double t = ms[static_cast<int>(isa)];
    return t > 0.0 ? ms[0] / t : 0.0;
  }
};

KernelTimes BenchKernels(const PointSet& points) {
  const size_t n = points.size();
  const uint32_t dim = points.dim();
  std::vector<Coord> soa(n * dim);
  for (uint32_t k = 0; k < dim; ++k) {
    const Coord* src = points.raw().data() + k;
    Coord* lane = soa.data() + k * n;
    for (size_t i = 0; i < n; ++i) lane[i] = src[i * dim];
  }
  constexpr size_t kProbes = 24;
  const std::vector<Coord> zero(dim, 0);
  std::vector<uint8_t> flags(n);
  KernelTimes result;
  for (Isa isa : {Isa::kScalar, Isa::kSse42, Isa::kAvx2}) {
    if (!IsaSupported(isa)) continue;
    const simd::KernelTable& table = simd::KernelTableFor(isa);
    volatile size_t sink = 0;
    result.ms[static_cast<int>(isa)] = BestMs([&] {
      size_t acc = 0;
      for (size_t q = 0; q < kProbes; ++q) {
        acc += table.any_dominates(soa.data(), n, dim, 0, n, zero.data());
        acc += table.count_dominators(soa.data(), n, dim, 0, n, zero.data());
        acc += table.mark_dominated_by(soa.data(), n, dim, 0, n, zero.data(),
                                       flags.data());
      }
      sink = acc;
    });
    (void)sink;
  }
  return result;
}

// --- 2. Codec throughput. Baseline is the seed's bit-by-bit interleave
// (one branch per address bit), reproduced here verbatim. ---
void EncodeBitLoop(const ZOrderCodec& codec, std::span<const Coord> point,
                   std::span<uint64_t> words) {
  for (auto& w : words) w = 0;
  size_t t = 0;
  for (uint32_t level = 0; level < codec.bits(); ++level) {
    const uint32_t coord_bit = codec.bits() - 1 - level;
    for (uint32_t k = 0; k < codec.dim(); ++k, ++t) {
      if ((point[k] >> coord_bit) & 1u) {
        words[t / 64] |= uint64_t{1} << (63 - (t % 64));
      }
    }
  }
}

struct CodecTimes {
  double encode_bitloop_ms = 0.0;
  double encode_scalar_ms = 0.0;  // Magic-shuffle scalar path.
  double encode_bmi2_ms = 0.0;    // 0 when the host lacks BMI2.
  double decode_bitloop_ms = 0.0;
  double decode_scalar_ms = 0.0;
  double decode_bmi2_ms = 0.0;
  bool bmi2 = false;
};

// Seed-style bit-by-bit decode, the PR-1 baseline.
void DecodeBitLoop(const ZOrderCodec& codec, const ZAddress& address,
                   std::span<Coord> out) {
  for (uint32_t k = 0; k < codec.dim(); ++k) out[k] = 0;
  size_t t = 0;
  for (uint32_t level = 0; level < codec.bits(); ++level) {
    const uint32_t coord_bit = codec.bits() - 1 - level;
    for (uint32_t k = 0; k < codec.dim(); ++k, ++t) {
      if (address.GetBit(t)) out[k] |= Coord{1} << coord_bit;
    }
  }
}

CodecTimes BenchCodec(const PointSet& points) {
  const ZOrderCodec codec(points.dim(), kBits);
  CodecTimes result;
  result.bmi2 = codec.uses_bmi2();
  const size_t n = points.size();
  std::vector<uint64_t> words(codec.num_words());
  volatile uint64_t sink = 0;

  result.encode_bitloop_ms = BestMs([&] {
    uint64_t acc = 0;
    for (size_t i = 0; i < n; ++i) {
      EncodeBitLoop(codec, points[i], words);
      acc ^= words[0];
    }
    sink = acc;
  });
  result.encode_scalar_ms = BestMs([&] {
    uint64_t acc = 0;
    for (size_t i = 0; i < n; ++i) {
      codec.EncodeToScalar(points[i], words);
      acc ^= words[0];
    }
    sink = acc;
  });
  if (result.bmi2) {
    result.encode_bmi2_ms = BestMs([&] {
      uint64_t acc = 0;
      for (size_t i = 0; i < n; ++i) {
        codec.EncodeTo(points[i], words);
        acc ^= words[0];
      }
      sink = acc;
    });
  }

  const std::vector<ZAddress> addresses = codec.EncodeAll(points);
  std::vector<Coord> out(codec.dim());
  result.decode_bitloop_ms = BestMs([&] {
    uint64_t acc = 0;
    for (const ZAddress& a : addresses) {
      DecodeBitLoop(codec, a, out);
      acc ^= out[0];
    }
    sink = acc;
  });
  result.decode_scalar_ms = BestMs([&] {
    uint64_t acc = 0;
    for (const ZAddress& a : addresses) {
      codec.DecodeScalar(a, out);
      acc ^= out[0];
    }
    sink = acc;
  });
  if (result.bmi2) {
    result.decode_bmi2_ms = BestMs([&] {
      uint64_t acc = 0;
      for (const ZAddress& a : addresses) {
        codec.Decode(a, out);
        acc ^= out[0];
      }
      sink = acc;
    });
  }
  (void)sink;
  return result;
}

// --- 3. End-to-end: the scalar tier vs the best tier. ---
struct EndToEnd {
  double scalar_ms = 0.0;
  double simd_ms = 0.0;
  bool identical = false;
  size_t skyline = 0;
  double Speedup() const { return simd_ms > 0.0 ? scalar_ms / simd_ms : 0.0; }
};

ExecutorOptions PipelineOptions() {
  ExecutorOptions options;
  options.bits = kBits;
  options.partitioning = PartitioningScheme::kZdg;
  options.local = LocalAlgorithm::kZSearch;
  options.merge = MergeAlgorithm::kZMerge;
  options.num_groups = 8;
  options.num_map_tasks = 16;
  options.num_threads = 4;
  return options;
}

EndToEnd BenchEndToEnd(const PointSet& points, Isa best) {
  EndToEnd result;
  SkylineIndices scalar_skyline;
  SkylineIndices simd_skyline;
  {
    SetActiveIsa(Isa::kScalar);
    const ParallelSkylineExecutor executor(PipelineOptions());
    result.scalar_ms =
        BestMs([&] { scalar_skyline = executor.Execute(points).skyline; });
  }
  {
    SetActiveIsa(best);
    const ParallelSkylineExecutor executor(PipelineOptions());
    result.simd_ms =
        BestMs([&] { simd_skyline = executor.Execute(points).skyline; });
  }
  result.identical = scalar_skyline == simd_skyline;
  result.skyline = simd_skyline.size();
  return result;
}

void WriteJson(const char* path, size_t n, uint32_t dim,
               const KernelTimes& kernel, const CodecTimes& codec,
               const EndToEnd& e2e) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("!! cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"workload\": {\"n\": %zu, \"dim\": %u, \"bits\": %u, "
               "\"distribution\": \"independent\"},\n",
               n, dim, kBits);
  std::fprintf(f, "  \"host\": {\"sse42\": %s, \"avx2\": %s, \"bmi2\": %s},\n",
               HostCpuFeatures().sse42 ? "true" : "false",
               HostCpuFeatures().avx2 ? "true" : "false",
               HostCpuFeatures().bmi2 ? "true" : "false");
  std::fprintf(f, "  \"kernel\": {\"scalar_ms\": %.3f", kernel.ms[0]);
  for (Isa isa : {Isa::kSse42, Isa::kAvx2}) {
    if (!IsaSupported(isa)) continue;
    std::fprintf(f, ", \"%s_ms\": %.3f, \"%s_speedup\": %.3f",
                 IsaName(isa).data(), kernel.ms[static_cast<int>(isa)],
                 IsaName(isa).data(), kernel.Speedup(isa));
  }
  std::fprintf(f, "},\n");
  std::fprintf(f,
               "  \"codec_encode\": {\"bitloop_ms\": %.3f, "
               "\"shuffle_ms\": %.3f, \"shuffle_speedup\": %.3f",
               codec.encode_bitloop_ms, codec.encode_scalar_ms,
               codec.encode_scalar_ms > 0.0
                   ? codec.encode_bitloop_ms / codec.encode_scalar_ms
                   : 0.0);
  if (codec.bmi2) {
    std::fprintf(f, ", \"bmi2_ms\": %.3f, \"bmi2_speedup\": %.3f",
                 codec.encode_bmi2_ms,
                 codec.encode_bmi2_ms > 0.0
                     ? codec.encode_bitloop_ms / codec.encode_bmi2_ms
                     : 0.0);
  }
  std::fprintf(f, "},\n");
  std::fprintf(f,
               "  \"codec_decode\": {\"bitloop_ms\": %.3f, "
               "\"shuffle_ms\": %.3f, \"shuffle_speedup\": %.3f",
               codec.decode_bitloop_ms, codec.decode_scalar_ms,
               codec.decode_scalar_ms > 0.0
                   ? codec.decode_bitloop_ms / codec.decode_scalar_ms
                   : 0.0);
  if (codec.bmi2) {
    std::fprintf(f, ", \"bmi2_ms\": %.3f, \"bmi2_speedup\": %.3f",
                 codec.decode_bmi2_ms,
                 codec.decode_bmi2_ms > 0.0
                     ? codec.decode_bitloop_ms / codec.decode_bmi2_ms
                     : 0.0);
  }
  std::fprintf(f, "},\n");
  std::fprintf(f,
               "  \"end_to_end\": {\"scalar_ms\": %.3f, \"simd_ms\": %.3f, "
               "\"speedup\": %.3f, \"identical\": %s, "
               "\"skyline_size\": %zu}\n",
               e2e.scalar_ms, e2e.simd_ms, e2e.Speedup(),
               e2e.identical ? "true" : "false", e2e.skyline);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

int Main() {
  constexpr size_t kN = 500000;
  constexpr uint32_t kDim = 8;
  PrintBanner("simd", "per-ISA dominance kernels + BMI2 Z-order codec",
              "500k x 8d kernel/codec microbenches plus end-to-end");

  const Isa initial = ActiveIsa();
  const Isa best = IsaSupported(Isa::kAvx2)   ? Isa::kAvx2
                   : IsaSupported(Isa::kSse42) ? Isa::kSse42
                                               : Isa::kScalar;
  std::printf("host: sse42=%d avx2=%d bmi2=%d, best tier: %s\n",
              HostCpuFeatures().sse42, HostCpuFeatures().avx2,
              HostCpuFeatures().bmi2, IsaName(best).data());

  const PointSet points = MakeData(Distribution::kIndependent, kN, kDim, 42);

  const KernelTimes kernel = BenchKernels(points);
  std::printf("%-28s %10s %8s\n", "kernel tier (full scans)", "best-of-3",
              "speedup");
  for (Isa isa : {Isa::kScalar, Isa::kSse42, Isa::kAvx2}) {
    if (!IsaSupported(isa)) continue;
    std::printf("%-28s %9.1fms %7.2fx\n", IsaName(isa).data(),
                kernel.ms[static_cast<int>(isa)], kernel.Speedup(isa));
  }

  SetActiveIsa(best);
  const CodecTimes codec = BenchCodec(points);
  std::printf("%-28s %10s %8s\n", "codec path (500k points)", "best-of-3",
              "speedup");
  std::printf("%-28s %9.1fms %7.2fx\n", "encode bit-loop (seed)",
              codec.encode_bitloop_ms, 1.0);
  std::printf("%-28s %9.1fms %7.2fx\n", "encode magic shuffle",
              codec.encode_scalar_ms,
              codec.encode_bitloop_ms / codec.encode_scalar_ms);
  if (codec.bmi2) {
    std::printf("%-28s %9.1fms %7.2fx\n", "encode pdep",
                codec.encode_bmi2_ms,
                codec.encode_bitloop_ms / codec.encode_bmi2_ms);
  }
  std::printf("%-28s %9.1fms %7.2fx\n", "decode bit-loop (seed)",
              codec.decode_bitloop_ms, 1.0);
  std::printf("%-28s %9.1fms %7.2fx\n", "decode magic shuffle",
              codec.decode_scalar_ms,
              codec.decode_bitloop_ms / codec.decode_scalar_ms);
  if (codec.bmi2) {
    std::printf("%-28s %9.1fms %7.2fx\n", "decode pext",
                codec.decode_bmi2_ms,
                codec.decode_bitloop_ms / codec.decode_bmi2_ms);
  }

  const EndToEnd e2e = BenchEndToEnd(points, best);
  SetActiveIsa(initial);
  std::printf("%-28s %9.1fms -> %9.1fms %7.2fx  identical=%s\n",
              "end-to-end Execute", e2e.scalar_ms, e2e.simd_ms, e2e.Speedup(),
              e2e.identical ? "yes" : "NO");

  std::printf("# CSV,metric,baseline_ms,optimized_ms,speedup\n");
  for (Isa isa : {Isa::kSse42, Isa::kAvx2}) {
    if (!IsaSupported(isa)) continue;
    std::printf("# CSV,kernel_%s,%.3f,%.3f,%.3f\n", IsaName(isa).data(),
                kernel.ms[0], kernel.ms[static_cast<int>(isa)],
                kernel.Speedup(isa));
  }
  std::printf("# CSV,encode_shuffle,%.3f,%.3f,%.3f\n",
              codec.encode_bitloop_ms, codec.encode_scalar_ms,
              codec.encode_bitloop_ms / codec.encode_scalar_ms);
  if (codec.bmi2) {
    std::printf("# CSV,encode_bmi2,%.3f,%.3f,%.3f\n", codec.encode_bitloop_ms,
                codec.encode_bmi2_ms,
                codec.encode_bitloop_ms / codec.encode_bmi2_ms);
  }
  std::printf("# CSV,end_to_end,%.3f,%.3f,%.3f\n", e2e.scalar_ms, e2e.simd_ms,
              e2e.Speedup());

  WriteJson("BENCH_simd.json", kN, kDim, kernel, codec, e2e);
  return e2e.identical ? 0 : 1;
}

}  // namespace
}  // namespace zsky::bench

int main() { return zsky::bench::Main(); }
