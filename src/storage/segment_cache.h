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
// Storage and governance are the session's one MatStore: the cache is an
// index of fingerprint -> segment handle over that store, which also holds
// the in-flight runs' own segments, all under one byte budget. A run Puts
// each segment it computes into the store once, reads it through its
// handle, and Inserts the handle here; insertion is first-writer-wins, so
// two concurrent batches materializing the same class never clobber each
// other. Lookup hands out a handle and does no I/O: the reading run pins
// (and, if spilled, rehydrates) the segment through the store outside this
// cache's mutex. Dropping an index entry (invalidation, Clear) never pulls
// a segment from under a run that holds its handle: the segment stays
// readable until the last handle drops.
//
// The optimizer closes the loop: FingerprintSnapshot() hands each batch
// optimization an immutable set of currently-cached fingerprints, and
// classes in that set are costed as zero-compute/zero-write materialization
// candidates (their bytes are already paid for), which steers plans toward
// reading the cache.
//
// Thread-safety: all public methods are safe to call concurrently; the
// cache's own mutex guards the index, the version map and stats, and the
// store locks itself (the store never calls back into the cache, so there
// is no lock cycle).

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

class MetricsRegistry;

/// Operation counters of one SharedSegmentCache (cross-batch view; the
/// session store's MatStoreStats count the storage-level traffic).
struct SegmentCacheStats {
  int64_t lookups = 0;
  int64_t hits = 0;          ///< Valid segment served (cross-batch reuse).
  int64_t misses = 0;        ///< Never cached, dropped, or payload lost.
  int64_t stale_misses = 0;  ///< ... of misses: present but base table moved.
  int64_t inserts = 0;
  int64_t insert_races_lost = 0;    ///< Insert found the key present.
  /// Dropped by InvalidateTable/Clear, or found stale on lookup/insert.
  int64_t invalidated_segments = 0;
};

/// Base-table versions (table -> version; an absent table is version 0).
/// Sorted for deterministic iteration in tests.
using TableVersions = std::map<std::string, uint64_t>;

/// Fingerprint index over a session's segment store, shared across the
/// session's batches.
class SharedSegmentCache {
 public:
  /// The session's store: `options.budget_bytes` governs every live
  /// segment, cached or held by an in-flight run.
  explicit SharedSegmentCache(MatStoreOptions options);

  SharedSegmentCache(const SharedSegmentCache&) = delete;
  SharedSegmentCache& operator=(const SharedSegmentCache&) = delete;

  /// The store runs put their segments into and read them through.
  MatStore* store() { return &store_; }

  /// The handle cached under `fingerprint`, or a null handle on a miss:
  /// never cached, payload lost to a failed reload, or stale against a
  /// table version bump — stale and lost entries are dropped on the spot,
  /// so they can never serve old rows. No I/O: pin the handle through
  /// store() to read it.
  SegmentRef Lookup(uint64_t fingerprint);

  /// Indexes a freshly materialized segment of store() with its base-table
  /// dependency set (ClassBaseTables of the materialized class), stamped
  /// with the versions in `read_versions` — the TableVersionSnapshot taken
  /// before the segment's inputs were read. A segment computed against a
  /// version that has since been invalidated is not indexed. First writer
  /// wins; losing the race is not an error.
  void Insert(uint64_t fingerprint, const SegmentRef& segment,
              const std::set<std::string>& base_tables,
              const TableVersions& read_versions);

  /// The current version of every table invalidated so far. Taken when a run
  /// starts and passed to Insert, so the run's segments carry the versions
  /// of the data it read, not of the data current at publish time.
  TableVersions TableVersionSnapshot() const;

  /// Drops every index entry that depends on `table` and bumps the table's
  /// version, so in-flight runs that read the old data cannot publish their
  /// segments as fresh. Safe while runs are in flight: a run keeps reading
  /// the segments it holds handles to (the data mutation it announces is
  /// the caller's to order against those runs).
  void InvalidateTable(const std::string& table);

  /// Drops every index entry; versions are retained so the monotonic-version
  /// staleness contract holds. Segments still held by runs live on until
  /// those runs drop them.
  void Clear();

  /// Immutable snapshot of every currently-cached (valid) fingerprint, for
  /// the optimizer's zero-cost candidate overlay. The snapshot is taken at
  /// batch-optimization start, so one optimization sees one consistent
  /// cache state.
  std::shared_ptr<const std::unordered_set<uint64_t>> FingerprintSnapshot()
      const;

  SegmentCacheStats stats() const;
  /// The session store's counters: every put, pin, spill and reload of the
  /// session, cached segments and in-flight run segments alike.
  MatStoreStats store_stats() const { return store_.stats(); }
  /// Indexed segments.
  size_t size() const;
  /// Resident bytes of the session store.
  size_t bytes_used() const { return store_.bytes_used(); }

 private:
  struct Entry {
    SegmentRef segment;
    TableVersions deps;  ///< table -> version the segment was computed from.
  };

  /// True iff every dependency in `deps` still matches the current table
  /// versions. `mu_` held.
  bool FreshLocked(const TableVersions& deps) const;

  MatStore store_;  ///< Declared first: it outlives the index's handles.
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Entry> entries_;  ///< fingerprint -> entry.
  TableVersions versions_;                        ///< Current versions.
  SegmentCacheStats stats_;
  ObsContext* obs_ = nullptr;
};

/// Publishes the storage counters into `metrics` as gauges holding their
/// totals at call time: `mat_store.*` from `store`, plus `segment_cache.*`
/// when `cache` is set. MatStoreStats and SegmentCacheStats are the only
/// counts of these events; this is their one metrics export.
void ExportStorageStats(const MatStoreStats& store,
                        const SegmentCacheStats* cache,
                        MetricsRegistry* metrics);

}  // namespace mqo

#endif  // MQO_STORAGE_SEGMENT_CACHE_H_
