#include "zorder/zorder_codec.h"

#include <algorithm>
#include <bit>

#include "common/cpu.h"

namespace zsky {

namespace {

// Repetitions of a `width`-bit run of ones every `period` bits.
uint64_t RepeatMask(uint32_t width, uint32_t period) {
  const uint64_t unit = width >= 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
  uint64_t mask = 0;
  for (uint32_t pos = 0; pos < 64; pos += period) {
    mask |= unit << pos;
  }
  return mask;
}

// Software pdep: scatters the low bits of `src` onto the set bits of
// `mask`, lowest first. Fallback for non-power-of-two dimensionality.
uint64_t SoftPdep(uint64_t src, uint64_t mask) {
  uint64_t out = 0;
  while (mask != 0) {
    const uint64_t low = mask & (~mask + 1);
    if (src & 1u) out |= low;
    src >>= 1;
    mask &= mask - 1;
  }
  return out;
}

// Software pext: gathers the bits of `src` selected by `mask` into the
// low bits of the result, lowest first.
uint64_t SoftPext(uint64_t src, uint64_t mask) {
  uint64_t out = 0;
  uint64_t bit = 1;
  while (mask != 0) {
    const uint64_t low = mask & (~mask + 1);
    if (src & low) out |= bit;
    bit <<= 1;
    mask &= mask - 1;
  }
  return out;
}

}  // namespace

ZOrderCodec::ZOrderCodec(uint32_t dim, uint32_t bits)
    : dim_(dim),
      bits_(bits),
      total_bits_(static_cast<size_t>(dim) * bits),
      num_words_((total_bits_ + 63) / 64),
      max_coord_(bits == 32 ? 0xFFFFFFFFu : ((Coord{1} << bits) - 1)),
      use_bmi2_(UseBmi2Codec()) {
  ZSKY_CHECK(dim >= 1);
  ZSKY_CHECK(bits >= 1 && bits <= 32);

  // Compile the interleave plan: walk every address bit once, attributing
  // it to its (word, dimension) slice. Within a slice the word-bit
  // positions are stride-`dim` regular and the coordinate bits contiguous
  // (ascending mask bit <-> ascending coordinate bit), which is what makes
  // the pdep / magic-shuffle scatter exact.
  plan_.assign(num_words_ * dim_, LaneSlice{});
  std::vector<uint8_t> min_bit(num_words_ * dim_, 0xFF);
  for (size_t t = 0; t < total_bits_; ++t) {
    const uint32_t level = static_cast<uint32_t>(t / dim_);
    const uint32_t k = static_cast<uint32_t>(t % dim_);
    const size_t slice = (t / 64) * dim_ + k;
    plan_[slice].mask |= uint64_t{1} << (63 - (t % 64));
    const uint8_t b = static_cast<uint8_t>(bits_ - 1 - level);
    if (b < min_bit[slice]) min_bit[slice] = b;
  }
  for (size_t s = 0; s < plan_.size(); ++s) {
    LaneSlice& e = plan_[s];
    if (e.mask == 0) continue;
    e.shift = min_bit[s];
    e.offset = static_cast<uint8_t>(std::countr_zero(e.mask));
    e.count = static_cast<uint8_t>(std::popcount(e.mask));
  }

  // Magic-shuffle steps for the scalar path: masked doubling spreads a
  // contiguous chunk to stride `dim` when `dim` is a power of two (<= 32;
  // wider dims put at most one bit per dimension in a word, handled by
  // the count==1 fast path).
  if (std::has_single_bit(dim_) && dim_ <= 32) {
    pow2_shuffle_ = true;
    for (uint32_t g = 64 / dim_; g >= 2; g /= 2) {
      const uint32_t h = g / 2;
      spread_steps_.push_back({h * (dim_ - 1), RepeatMask(h, h * dim_)});
    }
    for (uint32_t h = 1; h * 2 <= 64 / dim_; h *= 2) {
      compress_steps_.push_back(
          {h * (dim_ - 1), RepeatMask(2 * h, 2 * h * dim_)});
    }
  }
}

ZAddress ZOrderCodec::Encode(std::span<const Coord> point) const {
  ZAddress address(num_words_);
  EncodeTo(point, address.mutable_words());
  return address;
}

void ZOrderCodec::EncodeTo(std::span<const Coord> point,
                           std::span<uint64_t> words) const {
  if (use_bmi2_) {
    ZSKY_DCHECK(point.size() == dim_);
    ZSKY_DCHECK(words.size() == num_words_);
    EncodeToBmi2(point, words);
  } else {
    EncodeToScalar(point, words);
  }
}

void ZOrderCodec::EncodeToScalar(std::span<const Coord> point,
                                 std::span<uint64_t> words) const {
  ZSKY_DCHECK(point.size() == dim_);
  ZSKY_DCHECK(words.size() == num_words_);
  const LaneSlice* e = plan_.data();
  for (size_t w = 0; w < num_words_; ++w) {
    uint64_t acc = 0;
    for (uint32_t k = 0; k < dim_; ++k, ++e) {
      ZSKY_DCHECK(point[k] <= max_coord_);
      if (e->count == 0) continue;
      const uint64_t chunk =
          (static_cast<uint64_t>(point[k]) >> e->shift) &
          ((uint64_t{1} << e->count) - 1);
      if (e->count == 1) {
        acc |= chunk << e->offset;
      } else if (pow2_shuffle_) {
        uint64_t x = chunk;
        for (const ShuffleStep& s : spread_steps_) {
          x = (x | (x << s.shift)) & s.mask;
        }
        acc |= x << e->offset;
      } else {
        acc |= SoftPdep(chunk, e->mask);
      }
    }
    words[w] = acc;
  }
}

void ZOrderCodec::Decode(const ZAddress& address, std::span<Coord> out) const {
  if (use_bmi2_) {
    ZSKY_DCHECK(out.size() == dim_);
    ZSKY_DCHECK(address.num_words() == num_words_);
    DecodeBmi2(address, out);
  } else {
    DecodeScalar(address, out);
  }
}

void ZOrderCodec::DecodeScalar(const ZAddress& address,
                               std::span<Coord> out) const {
  ZSKY_DCHECK(out.size() == dim_);
  ZSKY_DCHECK(address.num_words() == num_words_);
  for (uint32_t k = 0; k < dim_; ++k) out[k] = 0;
  const LaneSlice* e = plan_.data();
  for (size_t w = 0; w < num_words_; ++w) {
    const uint64_t word = address.words()[w];
    for (uint32_t k = 0; k < dim_; ++k, ++e) {
      if (e->count == 0) continue;
      if (e->count == 1) {
        out[k] |= static_cast<Coord>((word >> e->offset) & 1u) << e->shift;
      } else if (pow2_shuffle_) {
        uint64_t x = (word >> e->offset) & (e->mask >> e->offset);
        for (const ShuffleStep& s : compress_steps_) {
          x = (x | (x >> s.shift)) & s.mask;
        }
        out[k] |= static_cast<Coord>(x << e->shift);
      } else {
        out[k] |= static_cast<Coord>(SoftPext(word, e->mask) << e->shift);
      }
    }
  }
}

std::vector<Coord> ZOrderCodec::Decode(const ZAddress& address) const {
  std::vector<Coord> out(dim_);
  Decode(address, out);
  return out;
}

std::vector<ZAddress> ZOrderCodec::EncodeAll(const PointSet& points) const {
  ZSKY_CHECK(points.dim() == dim_);
  std::vector<ZAddress> out;
  out.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) out.push_back(Encode(points[i]));
  return out;
}

std::vector<uint32_t> ZOrderPermutation(const ZOrderCodec& codec,
                                        const PointSet& points,
                                        std::vector<uint64_t>* sorted_words) {
  ZSKY_CHECK(points.dim() == codec.dim());
  const size_t n = points.size();
  const size_t words = codec.num_words();
  std::vector<uint64_t> raw(n * words);
  for (size_t i = 0; i < n; ++i) {
    codec.EncodeTo(points[i], {raw.data() + i * words, words});
  }
  struct Record {
    uint64_t lead;
    uint32_t row;
  };
  std::vector<Record> records(n);
  for (size_t i = 0; i < n; ++i) {
    records[i] = {raw[i * words], static_cast<uint32_t>(i)};
  }
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              return a.lead != b.lead ? a.lead < b.lead : a.row < b.row;
            });
  if (words > 1) {
    // Break leading-word ties on the remaining words.
    auto tail_less = [&](const Record& a, const Record& b) {
      const uint64_t* wa = raw.data() + size_t{a.row} * words;
      const uint64_t* wb = raw.data() + size_t{b.row} * words;
      for (size_t w = 1; w < words; ++w) {
        if (wa[w] != wb[w]) return wa[w] < wb[w];
      }
      return a.row < b.row;
    };
    for (size_t begin = 0; begin < n;) {
      size_t end = begin + 1;
      while (end < n && records[end].lead == records[begin].lead) ++end;
      if (end - begin > 1) {
        std::sort(records.begin() + begin, records.begin() + end, tail_less);
      }
      begin = end;
    }
  }
  std::vector<uint32_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = records[i].row;
  if (sorted_words != nullptr) {
    sorted_words->resize(n * words);
    for (size_t i = 0; i < n; ++i) {
      std::copy_n(raw.data() + size_t{perm[i]} * words, words,
                  sorted_words->data() + i * words);
    }
  }
  return perm;
}

ZAddress ZOrderCodec::MaxAddress() const {
  ZAddress address(num_words_);
  for (size_t t = 0; t < total_bits_; ++t) address.SetBit(t, true);
  return address;
}

}  // namespace zsky
