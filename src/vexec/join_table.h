// The shared equi-join hash table: built once in parallel, probed
// concurrently.
//
// The table is a CSR (compressed sparse row) directory over flat arrays:
// `offsets_` (one slot per bucket, plus one) delimits each bucket's run of
// entries in `rows_` (build row ids) and `hashes_` (each entry's full key
// hash). There is no per-key node and no per-bucket allocation. A row's
// bucket is the top bits of its *mixed* key hash (Fmix64): the key hash
// itself can have constant low bits (HashDouble of an integer key does), so
// it never picks a bucket directly.
//
// Build is a stable counting scatter on the pipeline driver's primitives:
// (1) key hashes and bucket ids for every build row, morsel-parallel into
// per-row slots; (2) per-bucket counts, prefix-summed into `offsets_`;
// (3) a scatter of every row into its bucket's next free slot. Steps (2)
// and (3) run one worker per partition, a partition being a contiguous
// range of buckets (the top bits of the bucket id), so workers write
// disjoint slots with no locks. Every worker scans the rows in ascending
// order, so each bucket lists its rows in ascending order and the table is
// identical for every thread count. Probes are pure reads, so morsel
// workers probe the finished table concurrently.
//
// A probe hashes a range of probe rows column-at-a-time with the build's own
// hash kernel, then per row walks its bucket, skips entries whose full hash
// differs, and compares the keys of the rest. Matches come out in ascending
// build-row order.
//
// The build also publishes a JoinBloomFilter over the key hashes (plus a
// numeric min/max zone for single-key joins): probe-side pipelines test it
// before probing — sideways information passing — and skip rows (or whole
// morsels, via the zone) that cannot match. The filter is conservative: no
// false negatives, so dropping rows it rejects preserves inner-join
// semantics exactly.
//
// Dictionary-encoded string keys probe on codes: if both sides share a
// dictionary, key equality is an int32 compare; if the dictionaries differ,
// a probe-code→build-code remap (two-pointer merge of the sorted
// dictionaries) gives the same O(1) compare. Remaps are cached per probe
// dictionary in a DictRemapCache that the probing operator owns, not in the
// table: the table holds no mutable state, so one table (a base relation's
// persistent join index) serves every pipeline, batch and client, and a probe
// dictionary lives only as long as the pipeline that probed with it.
// Unencoded columns use the generic cell compare.
//
// An empty key set hashes every row to the same value, so one bucket holds
// every build row: probing any row matches all of them, which is exactly
// the row engine's cross-product semantics for condition-less joins.

#ifndef MQO_VEXEC_JOIN_TABLE_H_
#define MQO_VEXEC_JOIN_TABLE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "algebra/logical_expr.h"
#include "common/hash.h"
#include "storage/column_batch.h"
#include "storage/pipeline.h"

namespace mqo {

class MetricsRegistry;

/// One resolved join: condition column indices and the joined output schema.
struct JoinSpec {
  struct Cond {
    int left;   ///< Key column index on the probe (left) side.
    int right;  ///< Key column index on the build (right) side.
  };
  std::vector<Cond> conds;
  std::vector<ColumnRef> out_names;  ///< Left names then right names.
};

/// Resolves `predicate` against the two schemas (either orientation per
/// condition, as JoinRows does) and rejects overlapping output aliases with
/// the row engine's Unimplemented status.
Result<JoinSpec> ResolveJoinSpec(const std::vector<ColumnRef>& left,
                                 const std::vector<ColumnRef>& right,
                                 const JoinPredicate& predicate);

/// Key hashes of rows [begin, end) of `batch` over key columns `cols`,
/// written to `out[r - begin]`: `seed` folded through HashCombine with each
/// column's ColumnVector::HashCell, so equal keys hash equally across
/// physical forms. The per-column type dispatch is hoisted out of the row
/// loop, so each column contributes one flat pass over its payload (FOR
/// columns unpack a block at a time).
void HashKeyRange(const ColumnBatch& batch, const std::vector<int>& cols,
                  uint32_t begin, uint32_t end, uint64_t seed, uint64_t* out);

class JoinBloomFilter;

/// Refines `sel` (row positions into `batch`) to the rows whose join-key
/// hash may be in `bloom`. With `use_range` (single numeric key), rows whose
/// key falls outside the filter's published min/max are dropped too. The
/// surviving set is a pure per-row function — independent of morsel
/// boundaries and thread counts. Returns the number of rows dropped.
size_t BloomRefineSel(const ColumnBatch& batch, const std::vector<int>& keys,
                      const JoinBloomFilter& bloom, bool use_range,
                      SelVector* sel);

/// Min/max of a numeric column over rows [begin, end), as flat typed loops.
/// NaN cells are skipped (they match no join key); with no other cell the
/// range is empty: lo = +inf, hi = -inf.
void NumericMinMax(const ColumnVector& col, uint32_t begin, uint32_t end,
                   double* lo, double* hi);

/// Compact Bloom filter over a build side's key hashes, plus an optional
/// numeric key range for zone (min/max) pruning. Immutable after Build;
/// MayContain never returns a false negative.
class JoinBloomFilter {
 public:
  /// ~12 bits per key with two probe positions (~2% false positives).
  static std::shared_ptr<JoinBloomFilter> Build(
      const std::vector<uint64_t>& hashes);

  bool MayContain(uint64_t h) const {
    uint64_t i1 = 0;
    uint64_t i2 = 0;
    BitsOf(h, &i1, &i2);
    return ((bits_[i1 >> 6] >> (i1 & 63)) & (bits_[i2 >> 6] >> (i2 & 63)) &
            1) != 0;
  }

  /// Zone range over a single numeric build key (unset for string or
  /// multi-column keys).
  bool has_range() const { return has_range_; }
  double min_key() const { return min_key_; }
  double max_key() const { return max_key_; }

  void SetRange(double min_key, double max_key) {
    has_range_ = true;
    min_key_ = min_key;
    max_key_ = max_key;
  }

 private:
  /// The two bit positions of key hash `h`: the low and high 32-bit halves
  /// of the mixed hash (the key hash's own low bits can be constant).
  void BitsOf(uint64_t h, uint64_t* i1, uint64_t* i2) const {
    const uint64_t m = Fmix64(h);
    *i1 = m & bit_mask_;
    *i2 = (m >> 32) & bit_mask_;
  }

  std::vector<uint64_t> bits_;
  uint64_t bit_mask_ = 0;  ///< Bit count minus one (a power of two).
  bool has_range_ = false;
  double min_key_ = 0.0;
  double max_key_ = 0.0;
};

/// Probe-code→build-code maps of one probing operator, keyed by (key
/// position, probe dictionary). Keys hold the probe dictionary alive, so an
/// entry can never be confused with a new dictionary reusing the same
/// address; values pin the maps handed out through PreparedProbe. The cache
/// dies with its operator, releasing every dictionary it saw. Thread-safe.
class DictRemapCache {
 public:
  /// The remap of `probe` onto `build` for key position `key`, built on
  /// first use (a racing builder's map is dropped; the first insert wins).
  std::shared_ptr<const std::vector<int32_t>> Get(
      size_t key, const std::shared_ptr<const ColumnDict>& probe,
      const ColumnDict& build);

  /// Remaps built so far (obs: vexec.dict_remap).
  int64_t builds() const { return builds_.load(std::memory_order_relaxed); }

 private:
  std::mutex mu_;
  std::map<std::pair<size_t, std::shared_ptr<const ColumnDict>>,
           std::shared_ptr<const std::vector<int32_t>>>
      cache_;
  std::atomic<int64_t> builds_{0};
};

/// Immutable hash table over a build-side batch, shared across probe
/// workers, pipelines and (as a base relation's join index) batches.
class JoinHashTable {
 public:
  /// Builds over `build`, keyed by `key_cols` (column indices into `build`).
  /// `options.num_threads > 1` parallelizes the hash phase by morsel and the
  /// count and scatter phases by partition. Counts one `vexec.hash_builds`
  /// event into `metrics` when it is non-null and enabled.
  static JoinHashTable Build(ColumnBatch build, std::vector<int> key_cols,
                             const PipelineOptions& options,
                             MetricsRegistry* metrics = nullptr);

  /// Per-probe-batch key resolution: how each key column compares against
  /// its build counterpart. Built once per chunk (or morsel) by Prepare(),
  /// then handed to ProbeRange.
  struct PreparedProbe {
    enum class Mode : uint8_t {
      kGeneric,   ///< Value-semantics CellsEqual.
      kSameDict,  ///< Both sides share one dictionary: compare codes.
      kRemap,     ///< Different dictionaries: probe code → build code map.
    };
    struct Key {
      Mode mode = Mode::kGeneric;
      const std::vector<int32_t>* remap = nullptr;  ///< For kRemap.
    };
    std::vector<Key> keys;
    int dict_keys = 0;  ///< Keys resolved to code compares (obs: dict_hits).
    /// Pins cached remap vectors (and their dictionaries) for this probe.
    std::vector<std::shared_ptr<const std::vector<int32_t>>> pinned;
  };

  /// Resolves the probe-side key columns against the build side, fetching
  /// dictionary remaps from `remaps` where the sides use different
  /// dictionaries. Thread-safe.
  PreparedProbe Prepare(const ColumnBatch& probe,
                        const std::vector<int>& probe_keys,
                        DictRemapCache* remaps) const;

  /// Probes rows [begin, end) of `probe` (key columns `probe_keys`,
  /// parallel to the build key columns) in ascending order. For each match
  /// appends the probe row to `left_rows` and the build row to
  /// `right_rows`; one probe row's matches come in ascending build-row
  /// order. Thread-safe: the table is immutable.
  void ProbeRange(const PreparedProbe& prepared, const ColumnBatch& probe,
                  const std::vector<int>& probe_keys, uint32_t begin,
                  uint32_t end, SelVector* left_rows,
                  SelVector* right_rows) const;

  /// The build-side batch (for gathering matched rows).
  const ColumnBatch& build() const { return build_; }

  /// Bloom filter over the build keys (null for condition-less joins).
  const std::shared_ptr<const JoinBloomFilter>& bloom() const {
    return bloom_;
  }

 private:
  /// Bucket of key hash `h`: the top bits of the mixed hash.
  size_t BucketOf(uint64_t h) const {
    return static_cast<size_t>(Fmix64(h) >> bucket_shift_);
  }

  ColumnBatch build_;
  std::vector<int> key_cols_;
  /// 64 minus log2 of the bucket count (at least two buckets, so < 64).
  int bucket_shift_ = 63;
  /// Bucket b holds entries [offsets_[b], offsets_[b + 1]).
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> rows_;     ///< Build row of each entry.
  std::vector<uint64_t> hashes_;   ///< Full key hash of each entry.
  std::shared_ptr<const JoinBloomFilter> bloom_;
};

}  // namespace mqo

#endif  // MQO_VEXEC_JOIN_TABLE_H_
