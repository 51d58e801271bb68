#include "storage/mat_store.h"

#include <cassert>

#include "obs/obs.h"

namespace mqo {

/// One stored segment. The const fields are fixed at Put; the rest belong
/// to the owning store and are guarded by its mutex.
struct StoredSegment {
  StoredSegment(MatStore* owner, uint64_t seq, ColumnBatch segment,
                double reads)
      : store(owner),
        id(seq),
        bytes(segment.ByteSize()),
        rows(static_cast<int64_t>(segment.num_rows)),
        names(segment.names),
        batch(std::move(segment)),
        last_use(seq),
        expected_reads(reads) {}

  MatStore* const store;
  const uint64_t id;  ///< Put sequence number; names the segment in traces.
  const size_t bytes;  ///< Payload bytes, resident or not.
  const int64_t rows;
  const std::vector<ColumnRef> names;
  ColumnBatch batch;  ///< Payload; columns empty while spilled.
  bool resident = true;
  bool lost = false;       ///< A reload failed; the payload is gone.
  std::string spill_path;  ///< Non-empty once spilled.
  int pins = 0;
  uint64_t last_use;
  double expected_reads;  ///< Remaining, decremented per Pin.
};

size_t SegmentRef::bytes() const { return segment_->bytes; }
int64_t SegmentRef::rows() const { return segment_->rows; }
const std::vector<ColumnRef>& SegmentRef::names() const {
  return segment_->names;
}

PinnedSegment& PinnedSegment::operator=(PinnedSegment&& o) noexcept {
  if (this != &o) {
    Release();
    ref_ = std::move(o.ref_);
    batch_ = std::move(o.batch_);
    reloaded_ = o.reloaded_;
    o.ref_ = SegmentRef{};
    o.batch_ = ColumnBatch{};
  }
  return *this;
}

void PinnedSegment::Release() {
  if (ref_) ref_.segment_->store->Unpin(ref_.segment_.get());
  batch_ = ColumnBatch{};
  ref_ = SegmentRef{};  // may free the segment: last, after the unpin
}

MatStore::~MatStore() {
  assert(segments_.empty() && "MatStore destroyed while handles are live");
}

void MatStore::Unpin(StoredSegment* s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (s->pins > 0) --s->pins;
}

void MatStore::Free(StoredSegment* s) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    segments_.erase(s);
    if (s->resident) {
      bytes_used_ -= s->bytes;
    } else if (!s->lost) {
      bytes_spilled_ -= s->bytes;
    }
    if (!s->spill_path.empty()) spill_dir_.RemoveFile(s->spill_path);
  }
  delete s;
}

SegmentRef MatStore::Put(ColumnBatch segment, double expected_reads) {
  std::lock_guard<std::mutex> lock(mu_);
  auto* s = new StoredSegment(this, ++tick_, std::move(segment), expected_reads);
  SegmentRef ref(std::shared_ptr<StoredSegment>(
      s, [](StoredSegment* dead) { dead->store->Free(dead); }));
  segments_.insert(s);
  bytes_used_ += s->bytes;
  ++stats_.puts;
  if (Tracer* t = TracerOf(options_.obs)) {
    t->Instant("mat_store.put", "storage",
               {TNum("segment", static_cast<double>(s->id)),
                TNum("bytes", static_cast<double>(s->bytes)),
                TNum("rows", static_cast<double>(s->rows)),
                TNum("expected_reads", expected_reads)});
  }
  EnforceBudgetLocked(nullptr);
  return ref;
}

Result<PinnedSegment> MatStore::Pin(const SegmentRef& ref) {
  std::lock_guard<std::mutex> lock(mu_);
  StoredSegment* s = ref.segment_.get();
  if (s->lost) {
    return Status::Internal("segment " + std::to_string(s->id) +
                            " was lost to a failed reload");
  }
  const bool reload = !s->resident;
  if (reload) {
    auto reloaded = ReadSegmentFile(s->spill_path);
    if (!reloaded.ok()) {
      last_error_ = reloaded.status();
      s->lost = true;
      bytes_spilled_ -= s->bytes;
      return reloaded.status();
    }
    s->batch = std::move(reloaded).ValueOrDie();
    s->resident = true;
    bytes_used_ += s->bytes;
    bytes_spilled_ -= s->bytes;
    ++stats_.reloads;
    stats_.bytes_reloaded += s->bytes;
    if (Tracer* t = TracerOf(options_.obs)) {
      t->Instant("mat_store.rehydrate", "storage",
                 {TNum("segment", static_cast<double>(s->id)),
                  TNum("bytes", static_cast<double>(s->bytes))});
    }
    // The spill file stays valid (segments are immutable), so a future
    // eviction releases the payload without rewriting the file.
    EnforceBudgetLocked(s);
  } else {
    ++stats_.hits;
    if (Tracer* t = TracerOf(options_.obs)) {
      t->Instant("mat_store.hit", "storage",
                 {TNum("segment", static_cast<double>(s->id))});
    }
  }
  ++stats_.gets;
  s->last_use = ++tick_;
  if (s->expected_reads > 0.0) s->expected_reads -= 1.0;
  ++s->pins;
  if (Tracer* t = TracerOf(options_.obs)) {
    t->Instant("mat_store.pin", "storage",
               {TNum("segment", static_cast<double>(s->id)),
                TNum("pins", s->pins)});
  }
  return PinnedSegment(ref, s->batch, reload);
}

void MatStore::AddExpectedReads(const SegmentRef& ref, double reads) {
  std::lock_guard<std::mutex> lock(mu_);
  ref.segment_->expected_reads += reads;
}

Status MatStore::EvictLocked(StoredSegment* s) {
  const bool write_file = s->spill_path.empty();
  if (write_file) {
    MQO_ASSIGN_OR_RETURN(std::string path, spill_dir_.NextPath());
    Status written = WriteSegmentFile(path, s->batch);
    if (!written.ok()) {
      spill_dir_.RemoveFile(path);
      return written;
    }
    s->spill_path = std::move(path);
    ++stats_.spill_writes;
  }
  s->batch.columns.clear();  // release the store's payload references
  s->resident = false;
  bytes_used_ -= s->bytes;
  bytes_spilled_ += s->bytes;
  ++stats_.evictions;
  stats_.bytes_spilled += s->bytes;
  if (Tracer* t = TracerOf(options_.obs)) {
    t->Instant("mat_store.evict", "storage",
               {TNum("segment", static_cast<double>(s->id)),
                TNum("bytes", static_cast<double>(s->bytes)),
                TNum("spill_write", write_file ? 1 : 0),
                TNum("expected_reads_left", s->expected_reads)});
  }
  return Status::OK();
}

void MatStore::EnforceBudgetLocked(const StoredSegment* protect) {
  if (options_.budget_bytes == 0) return;
  while (bytes_used_ > options_.budget_bytes) {
    // Victim: the unpinned resident segment with the smallest remaining
    // reload saving (expected reads x bytes), least recently used first on
    // ties — deterministic for a fixed operation sequence (use ticks are
    // unique).
    StoredSegment* victim = nullptr;
    double victim_weight = 0.0;
    for (StoredSegment* s : segments_) {
      if (!s->resident || s->pins > 0 || s == protect) continue;
      const double weight = s->expected_reads * static_cast<double>(s->bytes);
      if (victim == nullptr || weight < victim_weight ||
          (weight == victim_weight && s->last_use < victim->last_use)) {
        victim = s;
        victim_weight = weight;
      }
    }
    if (victim == nullptr) return;  // everything left is pinned or protected
    Status evicted = EvictLocked(victim);
    if (!evicted.ok()) {
      // Degrade to running over budget: the segment stays readable.
      last_error_ = evicted;
      return;
    }
  }
}

bool MatStore::IsResident(const SegmentRef& ref) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ref.segment_->resident;
}

bool MatStore::IsLost(const SegmentRef& ref) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ref.segment_->lost;
}

size_t MatStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

size_t MatStore::bytes_used() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_used_;
}

size_t MatStore::bytes_spilled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_spilled_;
}

MatStoreStats MatStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Status MatStore::last_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_error_;
}

}  // namespace mqo
