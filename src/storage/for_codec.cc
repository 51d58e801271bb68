#include "storage/for_codec.h"

namespace mqo {

namespace {

/// Words needed for `rows` deltas of `width` bits.
uint64_t WordsFor(size_t rows, uint32_t width) {
  return (static_cast<uint64_t>(rows) * width + 63) / 64;
}

}  // namespace

uint32_t BitWidthFor(uint64_t v) {
  uint32_t w = 0;
  while (v != 0) {
    ++w;
    v >>= 1;
  }
  return w;
}

std::shared_ptr<const ForColumn> ForColumn::Encode(
    const std::vector<int64_t>& values) {
  const size_t n = values.size();
  if (n == 0) return nullptr;
  auto fc = std::make_shared<ForColumn>();
  fc->num_values_ = n;
  const size_t num_blocks = (n + kForBlockRows - 1) / kForBlockRows;
  fc->blocks_.reserve(num_blocks);
  uint64_t word_offset = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t begin = b * kForBlockRows;
    const size_t end = std::min(n, begin + kForBlockRows);
    int64_t mn = values[begin];
    int64_t mx = values[begin];
    for (size_t i = begin + 1; i < end; ++i) {
      mn = std::min(mn, values[i]);
      mx = std::max(mx, values[i]);
    }
    ForBlock blk;
    blk.reference = mn;
    // Unsigned subtraction: well-defined for the full int64 range (the span
    // of a block whose values straddle zero can exceed INT64_MAX).
    blk.max_delta =
        static_cast<uint64_t>(mx) - static_cast<uint64_t>(mn);
    blk.bit_width = BitWidthFor(blk.max_delta);
    blk.word_offset = word_offset;
    word_offset += WordsFor(end - begin, blk.bit_width);
    fc->blocks_.push_back(blk);
  }
  fc->packed_.assign(word_offset, 0);
  for (size_t b = 0; b < num_blocks; ++b) {
    const ForBlock& blk = fc->blocks_[b];
    if (blk.bit_width == 0) continue;
    const size_t begin = b * kForBlockRows;
    const size_t end = std::min(n, begin + kForBlockRows);
    uint64_t* words = fc->packed_.data() + blk.word_offset;
    const uint64_t uref = static_cast<uint64_t>(blk.reference);
    size_t bit = 0;
    for (size_t i = begin; i < end; ++i) {
      const uint64_t delta = static_cast<uint64_t>(values[i]) - uref;
      const size_t word = bit >> 6;
      const size_t off = bit & 63;
      words[word] |= delta << off;
      // A delta straddling the word boundary spills its high bits into the
      // next word; off > 0 there, so the 64 - off shift stays in [1, 63].
      if (off + blk.bit_width > 64) words[word + 1] |= delta >> (64 - off);
      bit += blk.bit_width;
    }
  }
  return fc;
}

Result<std::shared_ptr<const ForColumn>> ForColumn::FromParts(
    uint64_t num_values, std::vector<ForBlock> blocks,
    std::vector<uint64_t> packed) {
  if (num_values == 0 ||
      blocks.size() != (num_values + kForBlockRows - 1) / kForBlockRows) {
    return Status::Internal("FOR column corrupt: block count mismatch");
  }
  uint64_t word_offset = 0;
  for (size_t b = 0; b < blocks.size(); ++b) {
    ForBlock& blk = blocks[b];
    if (blk.bit_width > 64 || blk.bit_width != BitWidthFor(blk.max_delta)) {
      return Status::Internal("FOR column corrupt: bad block bit width");
    }
    blk.word_offset = word_offset;  // Recomputed, never trusted.
    const size_t begin = b * kForBlockRows;
    const size_t rows =
        std::min<size_t>(kForBlockRows, static_cast<size_t>(num_values) - begin);
    word_offset += WordsFor(rows, blk.bit_width);
  }
  if (packed.size() != word_offset) {
    return Status::Internal("FOR column corrupt: packed size mismatch");
  }
  auto fc = std::make_shared<ForColumn>();
  fc->num_values_ = static_cast<size_t>(num_values);
  fc->blocks_ = std::move(blocks);
  fc->packed_ = std::move(packed);
  return std::shared_ptr<const ForColumn>(std::move(fc));
}

int64_t ForColumn::ValueAt(size_t i) const {
  const ForBlock& blk = blocks_[i / kForBlockRows];
  if (blk.bit_width == 0) return blk.reference;
  const size_t bit = (i % kForBlockRows) * blk.bit_width;
  const uint64_t* words = packed_.data() + blk.word_offset;
  const size_t word = bit >> 6;
  const size_t off = bit & 63;
  uint64_t d = words[word] >> off;
  if (off + blk.bit_width > 64) d |= words[word + 1] << (64 - off);
  const uint64_t mask =
      blk.bit_width == 64 ? ~uint64_t{0} : (uint64_t{1} << blk.bit_width) - 1;
  return static_cast<int64_t>(static_cast<uint64_t>(blk.reference) +
                              (d & mask));
}

void ForColumn::Unpack(size_t begin, size_t end, int64_t* out) const {
  size_t i = begin;
  while (i < end) {
    const size_t b = i / kForBlockRows;
    const ForBlock& blk = blocks_[b];
    const size_t block_end = std::min(end, (b + 1) * kForBlockRows);
    if (blk.bit_width == 0) {
      for (; i < block_end; ++i) *out++ = blk.reference;
      continue;
    }
    const uint64_t* words = packed_.data() + blk.word_offset;
    const uint64_t uref = static_cast<uint64_t>(blk.reference);
    const uint64_t mask =
        blk.bit_width == 64 ? ~uint64_t{0} : (uint64_t{1} << blk.bit_width) - 1;
    size_t bit = (i % kForBlockRows) * blk.bit_width;
    for (; i < block_end; ++i) {
      const size_t word = bit >> 6;
      const size_t off = bit & 63;
      uint64_t d = words[word] >> off;
      if (off + blk.bit_width > 64) d |= words[word + 1] << (64 - off);
      *out++ = static_cast<int64_t>(uref + (d & mask));
      bit += blk.bit_width;
    }
  }
}

void ForColumn::UnpackDeltas(size_t b, uint64_t* out) const {
  const ForBlock& blk = blocks_[b];
  const size_t rows = BlockRows(b);
  if (blk.bit_width == 0) {
    for (size_t j = 0; j < rows; ++j) out[j] = 0;
    return;
  }
  const uint64_t* words = packed_.data() + blk.word_offset;
  const uint64_t mask =
      blk.bit_width == 64 ? ~uint64_t{0} : (uint64_t{1} << blk.bit_width) - 1;
  size_t bit = 0;
  for (size_t j = 0; j < rows; ++j) {
    const size_t word = bit >> 6;
    const size_t off = bit & 63;
    uint64_t d = words[word] >> off;
    if (off + blk.bit_width > 64) d |= words[word + 1] << (64 - off);
    out[j] = d & mask;
    bit += blk.bit_width;
  }
}

namespace {

template <typename T>
std::shared_ptr<const ZoneMap> BuildZones(const T* v, size_t n) {
  if (n == 0) return nullptr;
  auto zm = std::make_shared<ZoneMap>();
  zm->num_rows = n;
  const size_t num_zones = (n + kForBlockRows - 1) / kForBlockRows;
  zm->zones.reserve(num_zones);
  for (size_t z = 0; z < num_zones; ++z) {
    const size_t begin = z * kForBlockRows;
    const size_t end = std::min(n, begin + kForBlockRows);
    T mn = v[begin];
    T mx = v[begin];
    for (size_t i = begin + 1; i < end; ++i) {
      mn = std::min(mn, v[i]);
      mx = std::max(mx, v[i]);
    }
    ZoneMap::Entry entry;
    entry.min = static_cast<double>(mn);
    entry.max = static_cast<double>(mx);
    zm->zones.push_back(entry);
  }
  return zm;
}

}  // namespace

std::shared_ptr<const ZoneMap> ZoneMap::FromInts(const int64_t* v, size_t n) {
  return BuildZones(v, n);
}

std::shared_ptr<const ZoneMap> ZoneMap::FromDoubles(const double* v, size_t n) {
  return BuildZones(v, n);
}

std::shared_ptr<const ZoneMap> ZoneMap::FromFor(const ForColumn& fc) {
  if (fc.size() == 0) return nullptr;
  auto zm = std::make_shared<ZoneMap>();
  zm->num_rows = fc.size();
  zm->zones.reserve(fc.blocks().size());
  for (const ForBlock& blk : fc.blocks()) {
    ZoneMap::Entry entry;
    entry.min = static_cast<double>(blk.reference);
    entry.max = static_cast<double>(static_cast<int64_t>(
        static_cast<uint64_t>(blk.reference) + blk.max_delta));
    zm->zones.push_back(entry);
  }
  return zm;
}

}  // namespace mqo
