// The materialize-once/read-many segment store shared by both executors —
// memory-governed and safe under concurrent batches.
//
// MQO's value proposition is to execute a shared subexpression once and read
// it many times; this store holds those results as columnar segments
// (ColumnBatch, COW column payloads). The store is keyless: Put returns a
// shared handle (SegmentRef), and the owners keep their own keyed indexes —
// a run's executor maps memo equivalence classes to handles, and the
// session's cross-batch segment cache (storage/segment_cache.h) maps
// structural class fingerprints to handles over the same store. A segment
// lives while any handle to it does; when the last one drops, its payload
// and its spill file are freed. The vectorized engine reads segments
// zero-copy; the row interpreter converts at the boundary
// (BatchToRows/BatchFromRows).
//
// Memory governance: a byte budget caps the resident payload bytes of every
// live segment. When a Put (or a reload) pushes the store over budget,
// victims are evicted — written once to a spill directory (storage/spill.h)
// and their in-memory payloads released. Pin rehydrates a spilled segment
// transparently, so callers never observe the difference beyond latency.
// Eviction is cost-weighted LRU over remaining expected reads: the victim is
// the unpinned resident segment with the smallest remaining reload saving
// (expected remaining reads x payload bytes), ties broken least-recently-
// used first — fully deterministic for a fixed operation sequence. Each
// segment's expected reads start at the Put's estimate, grow by
// AddExpectedReads (a cache hit adds the reading run's planned reads), and
// every Pin, by any reader, consumes one. Pinned segments are never evicted,
// so zero-copy readers and in-flight pipelines hold stable batches. A spill
// failure never fails a Put: the victim stays resident, the store runs over
// budget, and last_error() records why.
//
// Concurrency: every public operation holds one internal mutex, so
// concurrent batches share a store safely. Spill writes and reloads happen
// under that mutex (segment granularity: one segment moves at a time). A
// batch copied out of a pinned segment is immutable and safe to read from
// any thread. The store must outlive every handle and pin it issued.
//
// Accounting charges each resident segment's owned payloads once; zero-copy
// views handed to readers share those payloads and cost nothing extra. A
// segment larger than the whole budget is spilled straight back out by the
// enforcing Put; a reload may leave the store transiently over budget until
// the next Put or reload enforces again (never evicting the segment it just
// brought in, to rule out reload thrash within one access).

#ifndef MQO_STORAGE_MAT_STORE_H_
#define MQO_STORAGE_MAT_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "storage/spill.h"

namespace mqo {

class ObsContext;

/// Governance knobs of one MatStore.
struct MatStoreOptions {
  /// Resident-byte budget; 0 disables governance (nothing ever spills).
  size_t budget_bytes = 0;
  /// Spill directory; empty = a unique temp directory, created lazily on
  /// the first eviction and removed when the store dies.
  std::string spill_dir;
  /// Observability sink (obs/obs.h): put/hit/evict/rehydrate/pin trace
  /// events with byte counts. Null = silent. The counters live in
  /// MatStoreStats only.
  ObsContext* obs = nullptr;
};

/// Operation counters, exposed for tests, benches and the metrics export.
struct MatStoreStats {
  int64_t puts = 0;
  int64_t gets = 0;          ///< Pins served.
  int64_t hits = 0;          ///< ... served resident (no disk touch).
  int64_t evictions = 0;     ///< Segments whose payload was released.
  int64_t spill_writes = 0;  ///< Evictions that had to write the file.
  int64_t reloads = 0;       ///< Pins served by reading the spill file.
  size_t bytes_spilled = 0;
  size_t bytes_reloaded = 0;
};

class MatStore;
struct StoredSegment;  ///< A segment's record inside its store.

/// Shared handle to one segment: copies share it, and the segment is freed
/// (payload and spill file) when the last handle — or pin — drops. Null
/// when default-constructed.
class SegmentRef {
 public:
  SegmentRef() = default;
  explicit operator bool() const { return segment_ != nullptr; }
  /// Payload bytes, resident or spilled. The accessors need a non-null
  /// handle; they read what the Put fixed, so they take no lock.
  size_t bytes() const;
  int64_t rows() const;
  const std::vector<ColumnRef>& names() const;

 private:
  friend class MatStore;
  friend class PinnedSegment;
  explicit SegmentRef(std::shared_ptr<StoredSegment> segment)
      : segment_(std::move(segment)) {}

  std::shared_ptr<StoredSegment> segment_;
};

/// RAII read lease on one segment: while alive, the store will not evict
/// the segment, and the lease's handle keeps it from being freed. batch() is
/// the lease's own COW copy (shared payloads, O(columns)), stable for the
/// pin's whole lifetime (pipelines, probes, boundary conversions).
class PinnedSegment {
 public:
  PinnedSegment() = default;
  PinnedSegment(PinnedSegment&& o) noexcept { *this = std::move(o); }
  PinnedSegment& operator=(PinnedSegment&& o) noexcept;
  PinnedSegment(const PinnedSegment&) = delete;
  PinnedSegment& operator=(const PinnedSegment&) = delete;
  ~PinnedSegment() { Release(); }

  bool valid() const { return static_cast<bool>(ref_); }
  const ColumnBatch& batch() const { return batch_; }
  /// True when this pin had to read the segment back from its spill file.
  bool reloaded() const { return reloaded_; }

  /// Drops the pin early (idempotent).
  void Release();

 private:
  friend class MatStore;
  PinnedSegment(SegmentRef ref, ColumnBatch batch, bool reloaded)
      : ref_(std::move(ref)), batch_(std::move(batch)), reloaded_(reloaded) {}

  SegmentRef ref_;
  ColumnBatch batch_;
  bool reloaded_ = false;
};

/// Live columnar segments held under one byte budget. Thread-safe:
/// concurrent batches may Put/Pin/AddExpectedReads on one store.
class MatStore {
 public:
  MatStore() = default;
  explicit MatStore(MatStoreOptions options)
      : options_(options), spill_dir_(options.spill_dir) {}
  ~MatStore();
  MatStore(const MatStore&) = delete;
  MatStore& operator=(const MatStore&) = delete;

  /// Stores `segment` with `expected_reads` future reads (its eviction
  /// weight), then enforces the budget — which may spill this segment or
  /// others. Never fails: a spill error leaves its victim resident.
  SegmentRef Put(ColumnBatch segment, double expected_reads = 0.0);

  /// Pins the segment of `ref`, reloading it from its spill file if it was
  /// evicted, and consumes one of its expected reads. Internal on reload
  /// failure (the segment is then lost for good: see IsLost).
  Result<PinnedSegment> Pin(const SegmentRef& ref);

  /// Adds `reads` to the remaining expected reads of `ref`.
  void AddExpectedReads(const SegmentRef& ref, double reads);

  /// True iff the segment is held in memory (false while spilled).
  bool IsResident(const SegmentRef& ref) const;
  /// True once a reload of the segment failed: it can never be read again.
  bool IsLost(const SegmentRef& ref) const;

  /// Live segments (resident or spilled).
  size_t size() const;
  /// Resident payload bytes — what the budget governs.
  size_t bytes_used() const;
  /// Payload bytes currently living in spill files instead of memory.
  size_t bytes_spilled() const;
  size_t budget_bytes() const { return options_.budget_bytes; }
  /// Snapshot of the operation counters (a copy: safe under concurrency).
  MatStoreStats stats() const;
  /// Status of the most recent failed spill/reload, OK when none failed.
  Status last_error() const;

 private:
  friend class PinnedSegment;

  /// Spills victims until bytes_used() <= budget, never touching pinned
  /// segments or `protect` (the segment just reloaded). Stops at the first
  /// spill failure. `mu_` held.
  void EnforceBudgetLocked(const StoredSegment* protect);
  /// Writes `s` out (if not already on disk) and releases its payload.
  /// `mu_` held.
  Status EvictLocked(StoredSegment* s);
  void Unpin(StoredSegment* s);
  /// Deleter of the last handle: drops the segment and its spill file.
  void Free(StoredSegment* s);

  MatStoreOptions options_;
  mutable std::mutex mu_;
  SpillDir spill_dir_;
  std::unordered_set<StoredSegment*> segments_;  ///< Live, not owned.
  size_t bytes_used_ = 0;
  size_t bytes_spilled_ = 0;
  uint64_t tick_ = 0;
  MatStoreStats stats_;
  Status last_error_;
};

}  // namespace mqo

#endif  // MQO_STORAGE_MAT_STORE_H_
