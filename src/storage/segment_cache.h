// Cross-batch semantic segment cache: the online extension of the paper's
// materialize-once/read-many sharing.
//
// Within one batch, MQO materializes a shared subexpression once and reads
// it many times. A long-lived MqoSession serves many batches, often from
// many concurrent clients running overlapping templates — so a segment
// materialized for batch A should be a cache hit for batch B. This cache
// holds those segments keyed by structural ClassFingerprint
// (stats/feedback.h): a recursive hash over operator kind, payload, and
// child fingerprints, minimized over each class's live operators, so it
// survives memo rebuilds — a later batch builds a fresh memo with different
// EqIds, yet the shared subexpression hashes to the same key. Because the
// fingerprint is purely structural (it does not hash the data), every
// segment carries its base-table dependency set plus the table versions it
// was computed against; InvalidateTable bumps a version and drops
// dependents, so a segment whose base table changed is a miss, never a
// stale hit.
//
// Storage and governance reuse the MatStore machinery wholesale: the cache
// owns a MatStore under its own byte budget, so cached segments get the
// same cost-weighted-LRU eviction, disk spill with transparent rehydration,
// COW payload handoff, and pinning as intra-batch segments. Insertion is
// first-writer-wins (PutIfAbsent): two concurrent batches materializing the
// same class never clobber each other. Lookup returns a COW copy of the
// cached batch, so the caller's copy stays valid regardless of later
// eviction or invalidation.
//
// The optimizer closes the loop: FingerprintSnapshot() hands each batch
// optimization an immutable set of currently-cached fingerprints, and
// classes in that set are costed as zero-compute/zero-write materialization
// candidates (their bytes are already paid for), which steers plans toward
// reading the cache.
//
// Thread-safety: all public methods are safe to call concurrently; the
// cache's own mutex guards the dependency/version maps and stats, and the
// inner MatStore locks itself (the cache never calls back into itself from
// the store, so there is no lock cycle).

#ifndef MQO_STORAGE_SEGMENT_CACHE_H_
#define MQO_STORAGE_SEGMENT_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/mat_store.h"

namespace mqo {

/// Operation counters of one SharedSegmentCache (cross-batch view; the
/// inner store's own MatStoreStats count the storage-level traffic).
struct SegmentCacheStats {
  int64_t lookups = 0;
  int64_t hits = 0;          ///< Valid segment served (cross-batch reuse).
  int64_t misses = 0;        ///< Never cached, or evicted-and-erased.
  int64_t stale_misses = 0;  ///< ... of misses: present but base table moved.
  int64_t inserts = 0;
  int64_t insert_races_lost = 0;    ///< PutIfAbsent found the key present.
  /// Dropped by InvalidateTable/Clear, or found stale on lookup/insert.
  int64_t invalidated_segments = 0;
};

/// Base-table versions (table -> version; an absent table is version 0).
/// Sorted for deterministic iteration in tests.
using TableVersions = std::map<std::string, uint64_t>;

/// Fingerprint-keyed segment cache shared across a session's batches.
class SharedSegmentCache {
 public:
  /// `options.budget_bytes` governs the cache's resident footprint exactly
  /// as it governs a per-run MatStore.
  explicit SharedSegmentCache(MatStoreOptions options);

  SharedSegmentCache(const SharedSegmentCache&) = delete;
  SharedSegmentCache& operator=(const SharedSegmentCache&) = delete;

  /// On a hit, copies the cached segment into `*out` (an immutable COW
  /// copy — shared payloads, valid regardless of later eviction or
  /// invalidation) and returns true. Returns false on a miss: never cached,
  /// payload lost, or stale against a table version bump — stale entries
  /// are dropped on the spot so they can never serve old rows.
  bool Lookup(uint64_t fingerprint, ColumnBatch* out);

  /// Inserts a freshly materialized segment with its base-table dependency
  /// set (ClassBaseTables of the materialized class), stamped with the
  /// versions in `read_versions` — the TableVersionSnapshot taken before the
  /// segment's inputs were read. A segment computed against a version that
  /// has since been invalidated is dropped instead of stored. First writer
  /// wins; losing the race is not an error. `expected_reads` seeds the
  /// eviction weight exactly like the per-run store's SetExpectedReads.
  void Insert(uint64_t fingerprint, ColumnBatch segment,
              const std::set<std::string>& base_tables,
              const TableVersions& read_versions, double expected_reads);

  /// The current version of every table invalidated so far. Taken when a run
  /// starts and passed to Insert, so the run's segments carry the versions
  /// of the data it read, not of the data current at publish time.
  TableVersions TableVersionSnapshot() const;

  /// Drops every segment that depends on `table` and bumps the table's
  /// version, so in-flight runs that read the old data cannot publish their
  /// segments as fresh. Safe while runs are in flight (the data mutation
  /// it announces is the caller's to order against those runs).
  void InvalidateTable(const std::string& table);

  /// Drops everything (all segments, all dependency records); versions are
  /// retained so the monotonic-version staleness contract holds.
  void Clear();

  /// Immutable snapshot of every currently-cached (valid) fingerprint, for
  /// the optimizer's zero-cost candidate overlay. The snapshot is taken at
  /// batch-optimization start, so one optimization sees one consistent
  /// cache state.
  std::shared_ptr<const std::unordered_set<uint64_t>> FingerprintSnapshot()
      const;

  SegmentCacheStats stats() const;
  /// The inner store's counters (spills/reloads of cached segments).
  MatStoreStats store_stats() const { return store_.stats(); }
  size_t size() const;
  size_t bytes_used() const { return store_.bytes_used(); }

 private:
  /// True iff every dependency in `deps` (table -> version the segment was
  /// computed against) still matches the current table versions. `mu_` held.
  bool FreshLocked(const TableVersions& deps) const;

  MatStore store_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, TableVersions> deps_;  ///< fingerprint -> deps.
  TableVersions versions_;                            ///< Current versions.
  SegmentCacheStats stats_;
  ObsContext* obs_ = nullptr;
};

}  // namespace mqo

#endif  // MQO_STORAGE_SEGMENT_CACHE_H_
