// Typed column vectors: the storage layer's physical representation.
//
// A ColumnVector holds one typed payload — int64 (key/date domains), double
// (aggregate outputs and fractional data), or string — behind a shared,
// copy-on-write handle: copying a ColumnVector shares the payload in O(1),
// and the first mutation through a non-const accessor detaches a private
// copy. That makes table scans and materialized-segment reads zero-copy
// views, while operator kernels that build fresh columns pay nothing extra
// (a freshly constructed vector is always uniquely owned).
//
// String columns come in two physical forms behind the same logical type:
// raw (a std::string vector) and dictionary-encoded (a sorted-unique
// dictionary shared across copies plus a dense int32 code vector). The
// dictionary is immutable once built, so gathers, appends between columns
// sharing a dictionary, and segment reads move only int32 codes. Because the
// dictionary is sorted, code order equals lexicographic order within one
// dictionary, and per-entry hashes are precomputed so cell hashing is an
// array lookup that agrees with raw-string hashing.
//
// Numeric cells compare and hash by value regardless of physical type (an
// int64 column joins against a double column exactly as the row engine's
// ValueEq does); strings and numbers never compare equal, and numbers order
// before strings, matching ValueLess.
//
// Int64 columns likewise come in two physical forms: plain (an int64 vector)
// and frame-of-reference-encoded (storage/for_codec.h — per-block reference +
// bit-packed deltas, adopted at ColumnStore build/append time only when it
// shrinks the column). Readers that must handle both forms use Int64At();
// the non-const ints() accessor decodes first, so mutation sites keep
// working. Numeric columns may additionally carry a persisted per-zone
// min/max ZoneMap, which scan pipelines consult to skip whole zones; any
// mutation through a non-const accessor drops the zone map (it describes the
// rows it was built over).

#ifndef MQO_STORAGE_COLUMN_H_
#define MQO_STORAGE_COLUMN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/for_codec.h"
#include "storage/named_rows.h"

// Thread sanitizer builds (GCC defines __SANITIZE_THREAD__, Clang reports
// the feature).
#if defined(__SANITIZE_THREAD__)
#define MQO_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MQO_TSAN 1
#endif
#endif
#ifndef MQO_TSAN
#define MQO_TSAN 0
#endif

namespace mqo {

/// Physical type of one column vector.
enum class VecType { kInt64, kDouble, kString };

/// Selection vector: row positions into a batch, in increasing order.
using SelVector = std::vector<uint32_t>;

/// Immutable sorted-unique string dictionary. `hashes[c]` is
/// HashString(entries[c]), precomputed so dictionary-encoded cells hash in
/// O(1) and agree with raw-string cell hashes (equal strings hash equally
/// even across different dictionaries).
struct ColumnDict {
  std::vector<std::string> entries;
  std::vector<uint64_t> hashes;
  /// Accounting bytes of `entries` and `hashes` (counted into every
  /// ColumnVector::ByteSize that uses the dictionary), summed once here.
  size_t bytes = 0;

  /// Builds a dictionary from already sorted-unique entries.
  static std::shared_ptr<const ColumnDict> FromSortedUnique(
      std::vector<std::string> sorted_unique);

  /// Code of `s`, or -1 if absent (binary search on the sorted entries).
  int32_t Lookup(const std::string& s) const;
};

/// One typed column. Exactly the payload vector matching `type()` is
/// populated (for dictionary-encoded string columns, the code vector plus the
/// shared dictionary). Copies share the payload (copy-on-write).
class ColumnVector {
 public:
  explicit ColumnVector(VecType type = VecType::kInt64)
      : type_(type), data_(std::make_shared<Payload>()) {}

  VecType type() const { return type_; }
  bool is_numeric() const { return type_ != VecType::kString; }

  size_t size() const;

  /// Raw int64 payload. The non-const accessor decodes a FOR-encoded column
  /// first (and drops any zone map — the caller is about to mutate); the
  /// const accessor must only be used on unencoded columns (it is empty for
  /// encoded ones) — readers that must handle both forms use Int64At().
  const std::vector<int64_t>& ints() const { return data_->ints; }
  const std::vector<double>& doubles() const { return data_->doubles; }
  std::vector<int64_t>& ints() {
    if (for_encoded()) DecodeInPlace();
    Payload* p = Mutable();
    p->zones.reset();
    return p->ints;
  }
  std::vector<double>& doubles() {
    Payload* p = Mutable();
    p->zones.reset();
    return p->doubles;
  }

  /// Raw string payload. The non-const accessor decodes a dictionary-encoded
  /// column first so legacy mutation sites keep working; the const accessor
  /// must only be used on unencoded columns (it is empty for encoded ones) —
  /// readers that must handle both forms use StringAt().
  const std::vector<std::string>& strings() const { return data_->strs; }
  std::vector<std::string>& strings() {
    if (dict_encoded()) DecodeInPlace();
    return Mutable()->strs;
  }

  /// True iff this string column is dictionary-encoded.
  bool dict_encoded() const {
    return type_ == VecType::kString && data_->dict != nullptr;
  }
  /// Shared dictionary (null when not encoded).
  const std::shared_ptr<const ColumnDict>& dict() const { return data_->dict; }
  /// Dense codes into dict()->entries. Meaningful only when dict_encoded().
  const std::vector<int32_t>& codes() const { return data_->codes; }

  /// String cell readable in both physical forms. Precondition: kString.
  const std::string& StringAt(size_t i) const {
    return data_->dict ? data_->dict->entries[data_->codes[i]]
                       : data_->strs[i];
  }

  /// True iff this int64 column is frame-of-reference-encoded.
  bool for_encoded() const {
    return type_ == VecType::kInt64 && data_->fr != nullptr;
  }
  /// Shared FOR encoding (null when not encoded).
  const std::shared_ptr<const ForColumn>& for_column() const {
    return data_->fr;
  }
  /// Persisted per-zone min/max, or null. Valid only for the payload it was
  /// built over (mutating accessors drop it).
  const std::shared_ptr<const ZoneMap>& zone_map() const {
    return data_->zones;
  }

  /// Int64 cell readable in both physical forms. Precondition: kInt64.
  int64_t Int64At(size_t i) const {
    return data_->fr ? data_->fr->ValueAt(i) : data_->ints[i];
  }

  /// Converts a raw string column to dictionary encoding (sorted-unique
  /// dictionary + int32 codes). No-op for non-string or already-encoded
  /// columns. Returns true iff the column is dictionary-encoded on exit.
  bool DictEncode();

  /// Frame-of-reference-encodes a plain int64 column, adopting the encoding
  /// only when it is physically smaller than the plain vector (clustered or
  /// narrow-range data). No-op for other types, already-encoded, or
  /// incompressible columns. Returns true iff FOR-encoded on exit.
  bool ForEncode();

  /// Builds (or rebuilds) the per-zone min/max map of a numeric column.
  /// O(blocks) for FOR-encoded columns (exact, straight from block headers).
  /// No-op for strings and empty columns.
  void BuildZoneMap();

  /// Attaches an externally built zone map (spill rehydration). The caller
  /// guarantees it describes this column's current rows.
  void SetZoneMap(std::shared_ptr<const ZoneMap> zones) {
    Mutable()->zones = std::move(zones);
  }

  /// Assembles a FOR-encoded int64 column from a decoded encoding (spill
  /// rehydration and tests).
  static ColumnVector FromFor(std::shared_ptr<const ForColumn> fr);

  /// Converts an encoded column back to its raw payload (dictionary-encoded
  /// strings to raw strings, FOR-encoded int64 to a plain vector). Zone maps
  /// survive — decoding does not change the values. No-op otherwise.
  void DecodeInPlace();

  /// Assembles a dictionary-encoded column from parts (spill rehydration and
  /// tests). Every code must index into the dictionary.
  static ColumnVector FromDict(std::shared_ptr<const ColumnDict> dict,
                               std::vector<int32_t> codes);

  /// True iff `other` shares this column's payload (a zero-copy view).
  bool SharesPayloadWith(const ColumnVector& other) const {
    return data_ == other.data_;
  }

  /// Numeric cell widened to double. Precondition: is_numeric().
  double Number(size_t i) const {
    return type_ == VecType::kInt64 ? static_cast<double>(Int64At(i))
                                    : data_->doubles[i];
  }

  /// Cell as the row engine's Value.
  Value GetValue(size_t i) const;

  /// New vector holding the cells at `sel`, same type. Dictionary-encoded
  /// columns gather codes and share the dictionary (no string copies).
  ColumnVector Gather(const SelVector& sel) const;

  /// Appends cell `i` of `other`. Precondition: same type().
  void AppendFrom(const ColumnVector& other, size_t i);

  /// Appends every cell of `other`. Precondition: same type(). The bulk
  /// append the pipeline sinks use to merge per-morsel chunks without a
  /// serial gather. An empty unencoded target adopts `other`'s dictionary;
  /// mismatched dictionaries fall back to raw strings.
  void AppendAll(const ColumnVector& other);

  void Reserve(size_t n);

  /// Physical payload bytes held by this column (raw string columns count
  /// character storage plus per-string object overhead; dictionary-encoded
  /// columns count the code vector plus the dictionary; FOR-encoded int64
  /// columns count block headers plus packed words, not the decoded width).
  /// Zone maps count too. This is what MatStore budget accounting and
  /// eviction weights see.
  size_t ByteSize() const;

  /// Value-semantics cell hash: equal numbers hash equally across int64 and
  /// double columns; equal strings hash equally across raw and
  /// dictionary-encoded columns.
  uint64_t HashCell(size_t i) const;

  /// ValueEq semantics (numbers by value, strings by content, mixed false).
  /// Cells of two columns sharing one dictionary compare by code.
  static bool CellsEqual(const ColumnVector& a, size_t i, const ColumnVector& b,
                         size_t j);

 private:
  struct Payload {
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<std::string> strs;
    // Dictionary form: dense codes into an immutable shared dictionary.
    // Detached payload copies still share the dictionary itself.
    std::vector<int32_t> codes;
    std::shared_ptr<const ColumnDict> dict;
    // FOR form (int64 only): immutable shared encoding; `ints` is empty
    // while this is set. Detached payload copies share the encoding itself.
    std::shared_ptr<const ForColumn> fr;
    // Persisted per-zone min/max of a numeric column; dropped by any
    // mutating accessor (it describes the rows it was built over).
    std::shared_ptr<const ZoneMap> zones;
  };

  /// Detaches a private payload copy before mutation if the payload is
  /// shared. A payload can have been shared with other threads (a batch
  /// served from a store or cache) whose last reads precede their handle
  /// drop; use_count() is a relaxed load, so the sole-owner path acquires
  /// before writing in place. TSan does not model fences, so under TSan the
  /// acquire is a handle copy/drop instead: its acq_rel count updates are
  /// the operations TSan tracks.
  Payload* Mutable() {
    if (data_.use_count() != 1) {
      data_ = std::make_shared<Payload>(*data_);
    } else {
#if MQO_TSAN
      std::shared_ptr<Payload>(data_).reset();
#else
      std::atomic_thread_fence(std::memory_order_acquire);
#endif
    }
    return data_.get();
  }

  VecType type_;
  std::shared_ptr<Payload> data_;
};

/// Accumulates row-engine Values into a typed column: all-integral numeric
/// input becomes an int64 vector, other numeric input a double vector, string
/// input a string vector. Mixing numbers and strings in one column is
/// rejected (generated data and operator outputs are type-consistent).
class ColumnBuilder {
 public:
  Status Append(const Value& v);
  /// Finalizes the column. An empty builder yields an empty int64 column.
  Result<ColumnVector> Finish() &&;

 private:
  bool seen_number_ = false;
  bool seen_string_ = false;
  bool all_integral_ = true;
  std::vector<double> nums_;
  std::vector<std::string> strs_;
};

}  // namespace mqo

#endif  // MQO_STORAGE_COLUMN_H_
