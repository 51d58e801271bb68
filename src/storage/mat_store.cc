#include "storage/mat_store.h"

#include <cassert>

#include "obs/obs.h"

namespace mqo {

PinnedSegment& PinnedSegment::operator=(PinnedSegment&& o) noexcept {
  if (this != &o) {
    Release();
    store_ = o.store_;
    key_ = o.key_;
    generation_ = o.generation_;
    batch_ = std::move(o.batch_);
    o.store_ = nullptr;
    o.batch_ = ColumnBatch{};
  }
  return *this;
}

void PinnedSegment::Release() {
  if (store_ != nullptr) store_->Unpin(key_, generation_);
  store_ = nullptr;
  batch_ = ColumnBatch{};
}

void MatStore::Unpin(uint64_t key, uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  // A lease on a replaced segment pins nothing in the store.
  if (it != entries_.end() && it->second.generation == generation &&
      it->second.pins > 0) {
    --it->second.pins;
  }
}

Status MatStore::PutLocked(uint64_t key, ColumnBatch segment) {
  Entry& e = entries_[key];
  if (e.resident) bytes_used_ -= e.bytes;
  if (!e.spill_path.empty()) {
    // The old spill file holds stale content now.
    bytes_spilled_ -= e.resident ? 0 : e.bytes;
    spill_dir_.RemoveFile(e.spill_path);
    e.spill_path.clear();
  }
  e.bytes = segment.ByteSize();
  e.rows = static_cast<int64_t>(segment.num_rows);
  e.batch = std::move(segment);
  e.resident = true;
  e.pins = 0;
  e.last_use = ++tick_;
  e.generation = e.last_use;
  auto hint = read_hints_.find(key);
  if (hint != read_hints_.end()) {
    e.expected_reads = hint->second;
    read_hints_.erase(hint);
  }
  e.expected_reads_initial = e.expected_reads;
  bytes_used_ += e.bytes;
  ++stats_.puts;
  if (Tracer* t = TracerOf(options_.obs)) {
    t->Instant("mat_store.put", "storage",
               {TNum("eq", static_cast<double>(key)),
                TNum("bytes", static_cast<double>(e.bytes)),
                TNum("rows", static_cast<double>(e.rows)),
                TNum("expected_reads", e.expected_reads)});
  }
  if (MetricsRegistry* m = MetricsOf(options_.obs)) {
    m->AddCounter("mat_store.puts");
    m->AddCounter("mat_store.put_bytes", static_cast<double>(e.bytes));
  }
  return EnforceBudgetLocked(kNoProtect);
}

Status MatStore::Put(uint64_t key, ColumnBatch segment) {
  std::lock_guard<std::mutex> lock(mu_);
  return PutLocked(key, std::move(segment));
}

Status MatStore::PutIfAbsent(uint64_t key, ColumnBatch segment,
                             bool* inserted) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(key) > 0) {
    if (inserted != nullptr) *inserted = false;
    return Status::OK();
  }
  if (inserted != nullptr) *inserted = true;
  return PutLocked(key, std::move(segment));
}

Result<MatStore::Entry*> MatStore::TouchLocked(uint64_t key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound("segment E" + std::to_string(key) +
                            " was never materialized");
  }
  Entry& e = it->second;
  ++stats_.gets;
  ++e.reads;
  if (!e.resident) {
    auto reloaded = ReadSegmentFile(e.spill_path);
    if (!reloaded.ok()) {
      last_error_ = reloaded.status();
      return reloaded.status();
    }
    e.batch = std::move(reloaded).ValueOrDie();
    e.resident = true;
    bytes_used_ += e.bytes;
    bytes_spilled_ -= e.bytes;
    ++stats_.reloads;
    ++e.reloads;
    stats_.bytes_reloaded += e.bytes;
    if (Tracer* t = TracerOf(options_.obs)) {
      t->Instant("mat_store.rehydrate", "storage",
                 {TNum("eq", static_cast<double>(key)),
                  TNum("bytes", static_cast<double>(e.bytes))});
    }
    if (MetricsRegistry* m = MetricsOf(options_.obs)) {
      m->AddCounter("mat_store.reloads");
      m->AddCounter("mat_store.bytes_reloaded", static_cast<double>(e.bytes));
    }
    // The spill file stays valid (segments are immutable between Puts), so
    // a future eviction releases the payload without rewriting the file.
    MQO_RETURN_NOT_OK(EnforceBudgetLocked(key));
  } else {
    ++stats_.hits;
    if (Tracer* t = TracerOf(options_.obs)) {
      t->Instant("mat_store.hit", "storage",
                 {TNum("eq", static_cast<double>(key))});
    }
    if (MetricsRegistry* m = MetricsOf(options_.obs)) {
      m->AddCounter("mat_store.hits");
    }
  }
  e.last_use = ++tick_;
  if (e.expected_reads > 0.0) e.expected_reads -= 1.0;
  return &e;
}

const ColumnBatch* MatStore::Get(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto touched = TouchLocked(key);
  return touched.ok() ? &touched.ValueOrDie()->batch : nullptr;
}

Result<PinnedSegment> MatStore::Pin(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  MQO_ASSIGN_OR_RETURN(Entry * e, TouchLocked(key));
  ++e->pins;
  if (Tracer* t = TracerOf(options_.obs)) {
    t->Instant("mat_store.pin", "storage",
               {TNum("eq", static_cast<double>(key)), TNum("pins", e->pins)});
  }
  return PinnedSegment(this, key, e->generation, e->batch);
}

Status MatStore::EvictLocked(uint64_t key, Entry* e) {
  (void)key;
  bool wrote_file = false;
  if (e->spill_path.empty()) {
    auto path = spill_dir_.NextPath();
    if (!path.ok()) {
      last_error_ = path.status();
      return path.status();
    }
    Status written = WriteSegmentFile(path.ValueOrDie(), e->batch);
    if (!written.ok()) {
      last_error_ = written;
      spill_dir_.RemoveFile(path.ValueOrDie());
      return written;
    }
    e->spill_path = std::move(path).ValueOrDie();
    ++stats_.spill_writes;
    wrote_file = true;
  }
  e->batch = ColumnBatch{};  // release the store's payload references
  e->resident = false;
  e->ever_spilled = true;
  bytes_used_ -= e->bytes;
  bytes_spilled_ += e->bytes;
  ++stats_.evictions;
  stats_.bytes_spilled += e->bytes;
  if (Tracer* t = TracerOf(options_.obs)) {
    t->Instant("mat_store.evict", "storage",
               {TNum("bytes", static_cast<double>(e->bytes)),
                TNum("spill_write", wrote_file ? 1 : 0),
                TNum("expected_reads_left", e->expected_reads)});
  }
  if (MetricsRegistry* m = MetricsOf(options_.obs)) {
    m->AddCounter("mat_store.evictions");
    m->AddCounter("mat_store.bytes_spilled", static_cast<double>(e->bytes));
    if (wrote_file) m->AddCounter("mat_store.spill_writes");
  }
  return Status::OK();
}

Status MatStore::EnforceBudgetLocked(uint64_t protect_key) {
  if (options_.budget_bytes == 0) return Status::OK();
  while (bytes_used_ > options_.budget_bytes) {
    // Victim: the unpinned resident segment with the smallest remaining
    // reload saving (expected reads x bytes), oldest first on ties, key as
    // the final tiebreaker — deterministic for a fixed operation sequence.
    bool have_victim = false;
    uint64_t victim = 0;
    Entry* victim_entry = nullptr;
    double victim_weight = 0.0;
    for (auto& [key, e] : entries_) {
      if (!e.resident || e.pins > 0 || key == protect_key) continue;
      const double weight = e.expected_reads * static_cast<double>(e.bytes);
      const bool better =
          !have_victim || weight < victim_weight ||
          (weight == victim_weight &&
           (e.last_use < victim_entry->last_use ||
            (e.last_use == victim_entry->last_use && key < victim)));
      if (better) {
        have_victim = true;
        victim = key;
        victim_entry = &e;
        victim_weight = weight;
      }
    }
    if (!have_victim) break;  // everything left is pinned or protected
    MQO_RETURN_NOT_OK(EvictLocked(victim, victim_entry));
  }
  return Status::OK();
}

bool MatStore::Erase(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.pins > 0) return false;
  Entry& e = it->second;
  if (e.resident) bytes_used_ -= e.bytes;
  else bytes_spilled_ -= e.bytes;
  if (!e.spill_path.empty()) spill_dir_.RemoveFile(e.spill_path);
  entries_.erase(it);
  return true;
}

void MatStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, e] : entries_) {
    assert(e.pins == 0 && "Clear with live pins");
    (void)key;
    if (!e.spill_path.empty()) spill_dir_.RemoveFile(e.spill_path);
  }
  entries_.clear();
  read_hints_.clear();
  bytes_used_ = 0;
  bytes_spilled_ = 0;
}

void MatStore::SetExpectedReads(uint64_t key, double reads) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.expected_reads = reads;
    it->second.expected_reads_initial = reads;
  } else {
    read_hints_[key] = reads;
  }
}

bool MatStore::Contains(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(key) > 0;
}

bool MatStore::IsResident(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  return it != entries_.end() && it->second.resident;
}

size_t MatStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t MatStore::SegmentBytes(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  return it == entries_.end() ? 0 : it->second.bytes;
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

std::unordered_map<uint64_t, SegmentTelemetry> MatStore::Telemetry() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, SegmentTelemetry> out;
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) {
    SegmentTelemetry t;
    t.rows = e.rows;
    t.bytes = e.bytes;
    t.reads = e.reads;
    t.reloads = e.reloads;
    t.expected_reads_initial = e.expected_reads_initial;
    t.ever_spilled = e.ever_spilled;
    out.emplace(key, t);
  }
  return out;
}

}  // namespace mqo
