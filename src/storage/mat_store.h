// The materialize-once/read-many segment store shared by both executors —
// memory-governed and safe under concurrent batches.
//
// MQO's value proposition is to execute a shared subexpression once and read
// it many times; this store holds those results as columnar segments
// (ColumnBatch, COW column payloads), keyed by a 64-bit segment key: the
// per-run executors key by the memo equivalence class that was materialized,
// and the cross-batch segment cache (storage/segment_cache.h) keys by
// structural class fingerprint, which survives memo rebuilds. The vectorized
// engine reads segments zero-copy; the row interpreter converts at the
// boundary (BatchToRows/BatchFromRows).
//
// Memory governance: a byte budget caps the resident payload bytes. When a
// Put (or a reload) pushes the store over budget, victims are evicted —
// written once to a spill directory (storage/spill.h) and their in-memory
// payloads released. Get/Pin rehydrate spilled segments transparently, so
// callers never observe the difference beyond latency. Eviction is
// cost-weighted LRU over remaining expected reads: the victim is the
// unpinned resident segment with the smallest remaining reload saving
// (expected remaining reads x payload bytes), ties broken least-recently-
// used first, then by key — fully deterministic for a fixed operation
// sequence. Pinned segments are never evicted, so zero-copy readers and
// in-flight pipelines hold stable batches; because column payloads are
// copy-on-write, a batch copied out of the store stays valid even after the
// store later evicts the segment.
//
// Concurrency: every public operation — Put, PutIfAbsent, Get, Pin, Erase,
// eviction, accounting reads — holds one internal mutex, so concurrent
// batches share a store safely; PinnedSegment release re-enters only Unpin.
// Spill writes and reloads happen under that mutex (segment granularity:
// one segment moves at a time; async background spill is future work).
// Under concurrency prefer Pin() over Get(): the pointer Get returns is
// stable only until another thread triggers an eviction, while a pin blocks
// eviction of its segment for the lease's lifetime. A batch COW-copied out
// of a pinned segment is immutable and safe to read from any thread.
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
#include <mutex>
#include <unordered_map>

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
  /// Observability sink (obs/obs.h): put/hit/evict/rehydrate/pin events with
  /// byte counts, plus mat_store.* counters. Null = silent.
  ObsContext* obs = nullptr;
};

/// Operation counters, exposed for tests and bench_mat_store.
struct MatStoreStats {
  int64_t puts = 0;
  int64_t gets = 0;          ///< Get/Pin calls that found a segment.
  int64_t hits = 0;          ///< ... served resident (no disk touch).
  int64_t evictions = 0;     ///< Segments whose payload was released.
  int64_t spill_writes = 0;  ///< Evictions that had to write the file.
  int64_t reloads = 0;       ///< Gets served by reading the spill file.
  size_t bytes_spilled = 0;
  size_t bytes_reloaded = 0;
};

/// Per-segment runtime telemetry, snapshotted by MatStore::Telemetry() for
/// the facade's EXPLAIN ANALYZE (actual reads vs the expected reads the
/// optimizer predicted).
struct SegmentTelemetry {
  int64_t rows = 0;             ///< Rows of the stored batch.
  size_t bytes = 0;             ///< Payload bytes.
  int64_t reads = 0;            ///< Get/Pin calls served for this segment.
  int64_t reloads = 0;          ///< ... of those, served from the spill file.
  double expected_reads_initial = 0.0;  ///< SetExpectedReads at put time.
  bool ever_spilled = false;
};

class MatStore;

/// RAII read lease on one segment: while any PinnedSegment for `key` is
/// alive, the store will not evict or erase that segment. batch() is the
/// lease's own COW copy (shared payloads, O(columns)), so it stays stable
/// for the pin's whole lifetime (pipelines, probes, boundary conversions) —
/// even when a concurrent Put replaces the key. A replacement is a new
/// segment: the lease no longer pins anything in the store.
class PinnedSegment {
 public:
  PinnedSegment() = default;
  PinnedSegment(PinnedSegment&& o) noexcept { *this = std::move(o); }
  PinnedSegment& operator=(PinnedSegment&& o) noexcept;
  PinnedSegment(const PinnedSegment&) = delete;
  PinnedSegment& operator=(const PinnedSegment&) = delete;
  ~PinnedSegment() { Release(); }

  bool valid() const { return store_ != nullptr; }
  const ColumnBatch& batch() const { return batch_; }

  /// Drops the pin early (idempotent).
  void Release();

 private:
  friend class MatStore;
  PinnedSegment(MatStore* store, uint64_t key, uint64_t generation,
                ColumnBatch batch)
      : store_(store),
        key_(key),
        generation_(generation),
        batch_(std::move(batch)) {}

  MatStore* store_ = nullptr;
  uint64_t key_ = 0;
  uint64_t generation_ = 0;  ///< The pinned Put of `key_`.
  ColumnBatch batch_;
};

/// Columnar segments keyed by a 64-bit segment key (memo class id or class
/// fingerprint), held under a byte budget. Thread-safe: concurrent batches
/// may Put/Get/Pin/Erase one store; see the file comment for the Get-vs-Pin
/// pointer-stability contract.
class MatStore {
 public:
  MatStore() = default;
  explicit MatStore(MatStoreOptions options)
      : options_(options), spill_dir_(options.spill_dir) {}
  MatStore(const MatStore&) = delete;
  MatStore& operator=(const MatStore&) = delete;

  /// Inserts or replaces the segment for `key`, then enforces the budget
  /// (which may spill this segment or others). Fails on spill I/O errors.
  /// Replacing a pinned key is safe: live leases keep reading their own
  /// copy of the old payload, which leaves the store's accounting like any
  /// batch copied out of it. The new segment starts unpinned, so this Put
  /// may evict it at once.
  Status Put(uint64_t key, ColumnBatch segment);

  /// Inserts the segment only when `key` is absent — the first writer wins,
  /// so two concurrent batches materializing the same shared subexpression
  /// never clobber each other's segment. `*inserted` (optional) reports
  /// whether this call stored its batch.
  Status PutIfAbsent(uint64_t key, ColumnBatch segment,
                     bool* inserted = nullptr);

  /// The segment for `key`, reloaded from its spill file if it was evicted,
  /// or nullptr if it was never materialized (or its reload failed — see
  /// last_error()). The pointer is stable until the segment is next evicted,
  /// erased, or replaced — which a concurrent batch can trigger at any time,
  /// so under concurrency use Pin() instead.
  const ColumnBatch* Get(uint64_t key);

  /// Like Get, but returns a RAII lease that blocks eviction of `key` while
  /// alive. NotFound if never materialized; Internal on reload failure.
  Result<PinnedSegment> Pin(uint64_t key);

  /// Drops the segment (resident or spilled) and its spill file. Returns
  /// true when something was erased. Pinned segments cannot be erased.
  bool Erase(uint64_t key);

  /// Drops every segment and every spill file. No segment may be pinned.
  void Clear();

  /// Expected number of future reads of `key` — the eviction-cost weight.
  /// Each Get/Pin of `key` consumes one. May be set before the Put.
  void SetExpectedReads(uint64_t key, double reads);

  bool Contains(uint64_t key) const;
  /// True iff the segment is held in memory (false when spilled or absent).
  bool IsResident(uint64_t key) const;
  size_t size() const;

  /// Payload bytes of the segment for `key` (resident or spilled), 0 if
  /// absent.
  size_t SegmentBytes(uint64_t key) const;

  /// Resident payload bytes — what the budget governs.
  size_t bytes_used() const;
  /// Payload bytes currently living in spill files instead of memory.
  size_t bytes_spilled() const;
  size_t budget_bytes() const { return options_.budget_bytes; }
  /// Snapshot of the operation counters (a copy: safe under concurrency).
  MatStoreStats stats() const;
  /// Per-segment read/reload/spill telemetry, keyed by segment key.
  std::unordered_map<uint64_t, SegmentTelemetry> Telemetry() const;
  /// Status of the most recent failed spill/reload, OK when none failed.
  Status last_error() const;

 private:
  friend class PinnedSegment;

  struct Entry {
    ColumnBatch batch;       ///< Payload; columns empty while spilled.
    bool resident = false;
    size_t bytes = 0;        ///< Payload bytes, resident or not.
    std::string spill_path;  ///< Non-empty once spilled at least once.
    int pins = 0;              ///< Live leases of this generation.
    uint64_t generation = 0;   ///< Tick of the Put that stored `batch`.
    uint64_t last_use = 0;
    double expected_reads = 0.0;  ///< Remaining, decremented per Get/Pin.
    int64_t rows = 0;             ///< Telemetry: rows at put time.
    int64_t reads = 0;            ///< Telemetry: Get/Pin calls served.
    int64_t reloads = 0;          ///< Telemetry: reads off the spill file.
    double expected_reads_initial = 0.0;
    bool ever_spilled = false;
  };

  /// Insertion shared by Put/PutIfAbsent; `mu_` held.
  Status PutLocked(uint64_t key, ColumnBatch segment);
  /// Rehydrates + bumps LRU/read accounting; shared by Get and Pin. `mu_`
  /// held.
  Result<Entry*> TouchLocked(uint64_t key);
  /// Spills victims until bytes_used() <= budget, never touching pinned
  /// segments or `protect_key` (the segment just reloaded; kNoProtect =
  /// none). `mu_` held.
  Status EnforceBudgetLocked(uint64_t protect_key);
  /// Writes `e` out (if not already on disk) and releases its payload.
  /// `mu_` held.
  Status EvictLocked(uint64_t key, Entry* e);
  void Unpin(uint64_t key, uint64_t generation);

  static constexpr uint64_t kNoProtect = ~0ull;

  MatStoreOptions options_;
  mutable std::mutex mu_;
  SpillDir spill_dir_;
  std::unordered_map<uint64_t, Entry> entries_;
  std::unordered_map<uint64_t, double> read_hints_;  ///< Set before Put.
  size_t bytes_used_ = 0;
  size_t bytes_spilled_ = 0;
  uint64_t tick_ = 0;
  MatStoreStats stats_;
  Status last_error_;
};

}  // namespace mqo

#endif  // MQO_STORAGE_MAT_STORE_H_
