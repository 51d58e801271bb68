// Lightweight numeric compression: frame-of-reference (FOR) codes and
// per-zone min/max maps.
//
// A ForColumn stores an int64 column as fixed-size blocks of
// kForBlockRows values. Each block keeps its minimum as the *reference*
// and bit-packs the unsigned deltas (value - reference) at the smallest
// width that holds the block's largest delta, LSB-first into 64-bit words
// (each block starts word-aligned). Clustered or narrow-range data packs
// into a few bits per value; the exact block min/max ride along for free
// as (reference, reference + max_delta), which is what lets execution
// evaluate constant comparisons in the delta domain and skip whole blocks
// without decoding (Abadi et al., "Integrating Compression and Execution
// in Column-Oriented Database Systems").
//
// A ZoneMap is the persisted per-zone min/max (plus a null-free flag) of
// one numeric column, over the same kForBlockRows granule. The granule is
// fixed — never the adaptive morsel size, which varies with the thread
// count — so zone-pruning decisions, and the counters derived from them,
// are identical at every thread count. Both structures are immutable and
// shared (shared_ptr) across copy-on-write column payloads.

#ifndef MQO_STORAGE_FOR_CODEC_H_
#define MQO_STORAGE_FOR_CODEC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"

namespace mqo {

/// Rows per FOR block and per zone-map entry. Matches kDefaultMorselRows
/// (storage/morsel.h) so a default-granule morsel is exactly one block, but
/// is deliberately a separate constant: the adaptive morsel granule changes
/// with the thread count, the codec granule never does.
constexpr size_t kForBlockRows = 1024;

/// Bits needed to represent `v` (0 for 0).
uint32_t BitWidthFor(uint64_t v);

/// One FOR block: `bit_width`-bit deltas against `reference`, starting at
/// `packed[word_offset]`. The block's exact value range is
/// [reference, reference + max_delta].
struct ForBlock {
  int64_t reference = 0;    ///< Block minimum.
  uint64_t max_delta = 0;   ///< max(value) - reference over the block.
  uint32_t bit_width = 0;   ///< Bits per packed delta (== BitWidthFor(max_delta)).
  uint64_t word_offset = 0; ///< First word of this block's deltas in packed().
};

/// An immutable frame-of-reference-encoded int64 column. Shared across
/// copy-on-write column payloads; all accessors are thread-safe reads.
class ForColumn {
 public:
  /// Encodes `values`. Returns null for empty input. The encoding is always
  /// exact; whether it is *smaller* than the plain vector is the caller's
  /// decision (compare ByteSize() against values.size() * 8).
  static std::shared_ptr<const ForColumn> Encode(
      const std::vector<int64_t>& values);

  /// Reassembles a column from spilled parts, revalidating every invariant
  /// decode relies on (block count, exact bit widths, word offsets, packed
  /// size) so a corrupt file fails loudly instead of reading out of bounds.
  /// Block word_offsets are recomputed, not trusted.
  static Result<std::shared_ptr<const ForColumn>> FromParts(
      uint64_t num_values, std::vector<ForBlock> blocks,
      std::vector<uint64_t> packed);

  size_t size() const { return num_values_; }
  const std::vector<ForBlock>& blocks() const { return blocks_; }
  const std::vector<uint64_t>& packed() const { return packed_; }

  /// Rows in block `b` (the last block may be short).
  size_t BlockRows(size_t b) const {
    const size_t begin = b * kForBlockRows;
    const size_t end = begin + kForBlockRows;
    return (end <= num_values_ ? kForBlockRows : num_values_ - begin);
  }

  /// Decoded value at row `i`.
  int64_t ValueAt(size_t i) const;

  /// Decodes rows [begin, end) into `out[0 .. end-begin)`.
  void Unpack(size_t begin, size_t end, int64_t* out) const;

  /// Raw deltas of block `b` into `out[0 .. BlockRows(b))` — the
  /// compressed-domain input of predicate and hash kernels.
  void UnpackDeltas(size_t b, uint64_t* out) const;

  /// Physical bytes of the encoding: block headers plus packed words. The
  /// encoded form is adopted only when this beats the plain vector.
  size_t ByteSize() const {
    return blocks_.size() * kForBlockHeaderBytes +
           packed_.size() * sizeof(uint64_t);
  }

  /// Serialized per-block header bytes (reference + max_delta + bit_width);
  /// also the accounting weight of one block in ByteSize().
  static constexpr size_t kForBlockHeaderBytes =
      sizeof(int64_t) + sizeof(uint64_t) + sizeof(uint32_t);

 private:
  size_t num_values_ = 0;
  std::vector<ForBlock> blocks_;
  std::vector<uint64_t> packed_;
};

/// Per-zone min/max (and null-free flag) of one numeric column, granule
/// kForBlockRows. min/max are widened to double — the domain filter
/// literals compare in — so one zone test covers int64 and double columns
/// alike. The engine has no nulls today; null_free is stored so the spill
/// format does not need another revision when it does.
struct ZoneMap {
  struct Entry {
    double min = 0.0;
    double max = 0.0;
    bool null_free = true;
  };

  size_t num_rows = 0;  ///< Rows covered; zones.size() == ceil(num_rows / granule).
  std::vector<Entry> zones;

  static std::shared_ptr<const ZoneMap> FromInts(const int64_t* v, size_t n);
  static std::shared_ptr<const ZoneMap> FromDoubles(const double* v, size_t n);
  /// Exact zones straight from the block headers — O(blocks), no decode.
  static std::shared_ptr<const ZoneMap> FromFor(const ForColumn& fc);

  /// Accounting bytes (counted into ColumnVector::ByteSize).
  size_t ByteSize() const {
    return zones.size() * (2 * sizeof(double) + 1);
  }
};

/// Default for build-time numeric compression of ingested tables: on.
inline bool NumericCompressionDefault() { return true; }

}  // namespace mqo

#endif  // MQO_STORAGE_FOR_CODEC_H_
