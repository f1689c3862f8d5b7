#ifndef ZSKY_ZORDER_ZORDER_CODEC_H_
#define ZSKY_ZORDER_ZORDER_CODEC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/point_set.h"
#include "zorder/zaddress.h"

namespace zsky {

// Encodes points to Z-addresses and back for a fixed (dim, bits) geometry.
//
// Interleaving order is level-major: the most significant bit of every
// dimension comes first (dimension 0 outermost), i.e. address bit
// t = level * dim + k carries bit (bits - 1 - level) of coordinate k.
//
// The key property the library relies on (verified by property tests): the
// induced order is *monotone with respect to dominance* — if p dominates q
// then Encode(p) < Encode(q).
//
// Implementation: the constructor compiles the geometry into an
// "interleave plan" — for every (address word, dimension) pair, the 64-bit
// mask of word bits that dimension owns plus which coordinate bits feed
// them (within one word a dimension's bits are stride-`dim` regular and
// its coordinate bits contiguous). Encoding a word is then one
// scatter-into-mask per dimension:
//   * BMI2 path: a single pdep per (word, dimension) — used when the CPU
//     has BMI2 and the active ISA tier allows it (common/cpu.h).
//   * Scalar path: magic shift-or shuffles (log2(bits) masked doubling
//     steps, precomputed) for power-of-two `dim`, a bit-loop otherwise.
// Decoding mirrors this with pext / reversed shuffles. All paths produce
// identical words (tests/simd_dispatch_test.cc).
class ZOrderCodec {
 public:
  // `dim` >= 1, 1 <= `bits` <= 32. Coordinates must fit in `bits` bits.
  ZOrderCodec(uint32_t dim, uint32_t bits);

  uint32_t dim() const { return dim_; }
  uint32_t bits() const { return bits_; }
  size_t total_bits() const { return total_bits_; }
  size_t num_words() const { return num_words_; }
  Coord max_coord() const { return max_coord_; }
  // True iff this codec instance dispatched to the BMI2 pdep/pext path
  // (fixed at construction from the then-active ISA).
  bool uses_bmi2() const { return use_bmi2_; }

  ZAddress Encode(std::span<const Coord> point) const;

  // Allocation-free variant: encodes into caller-provided storage of
  // num_words() entries (cleared by this call). Hot paths (routers, bulk
  // tree builds) use this with a reused scratch buffer.
  void EncodeTo(std::span<const Coord> point, std::span<uint64_t> words) const;

  // Decodes into `out`, which must have `dim()` entries.
  void Decode(const ZAddress& address, std::span<Coord> out) const;

  std::vector<Coord> Decode(const ZAddress& address) const;

  // Non-BMI2 reference paths; public so parity tests and ablation benches
  // can pin a path regardless of dispatch. Same contracts as
  // EncodeTo / Decode.
  void EncodeToScalar(std::span<const Coord> point,
                      std::span<uint64_t> words) const;
  void DecodeScalar(const ZAddress& address, std::span<Coord> out) const;

  // Encodes every point of `points` (dimensions must match).
  std::vector<ZAddress> EncodeAll(const PointSet& points) const;

  // Returns the all-zeros / all-ones addresses (curve endpoints).
  ZAddress MinAddress() const { return ZAddress(num_words_); }
  ZAddress MaxAddress() const;

 private:
  // One (word, dimension) slice of the interleave: within word `w`,
  // dimension `k` owns the bits of `mask` (stride-`dim` regular, lowest at
  // `offset`), fed by the `count` contiguous coordinate bits starting at
  // bit `shift` — ascending mask bits carry ascending coordinate bits.
  struct LaneSlice {
    uint64_t mask = 0;
    uint8_t shift = 0;
    uint8_t offset = 0;
    uint8_t count = 0;
  };

  // One masked-doubling step of the magic shuffle (scalar fast path).
  struct ShuffleStep {
    uint32_t shift;
    uint64_t mask;
  };

  // Defined in zorder_codec_bmi2.cc (the only TU built with -mbmi2).
  void EncodeToBmi2(std::span<const Coord> point,
                    std::span<uint64_t> words) const;
  void DecodeBmi2(const ZAddress& address, std::span<Coord> out) const;

  uint32_t dim_;
  uint32_t bits_;
  size_t total_bits_;
  size_t num_words_;
  Coord max_coord_;
  bool use_bmi2_ = false;
  bool pow2_shuffle_ = false;

  std::vector<LaneSlice> plan_;  // [word * dim_ + k]
  std::vector<ShuffleStep> spread_steps_;    // pow2 dim only
  std::vector<ShuffleStep> compress_steps_;  // pow2 dim only
};

// The rows of `points` in Z-order, equal addresses by row index. With
// `sorted_words`, also returns the rows' addresses in that order,
// codec.num_words() words each. Sorts (leading word, row) records by value
// and only the runs that tie on the leading word by their full address.
std::vector<uint32_t> ZOrderPermutation(
    const ZOrderCodec& codec, const PointSet& points,
    std::vector<uint64_t>* sorted_words = nullptr);

}  // namespace zsky

#endif  // ZSKY_ZORDER_ZORDER_CODEC_H_
