#include "storage/segment_cache.h"

#include "obs/obs.h"

namespace mqo {

SharedSegmentCache::SharedSegmentCache(MatStoreOptions options)
    : store_(options), obs_(options.obs) {}

bool SharedSegmentCache::FreshLocked(const TableVersions& deps) const {
  for (const auto& [table, version] : deps) {
    auto it = versions_.find(table);
    const uint64_t current = it == versions_.end() ? 0 : it->second;
    if (current != version) return false;
  }
  return true;
}

bool SharedSegmentCache::Lookup(uint64_t fingerprint, ColumnBatch* out) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.lookups;
  if (MetricsRegistry* m = MetricsOf(obs_)) {
    m->AddCounter("segment_cache.lookups");
  }
  auto it = deps_.find(fingerprint);
  if (it == deps_.end()) {
    ++stats_.misses;
    if (MetricsRegistry* m = MetricsOf(obs_)) {
      m->AddCounter("segment_cache.misses");
    }
    return false;
  }
  if (!FreshLocked(it->second)) {
    // A base table moved under this segment: drop it now so it can never
    // serve stale rows, and report a miss.
    deps_.erase(it);
    store_.Erase(fingerprint);
    ++stats_.misses;
    ++stats_.stale_misses;
    ++stats_.invalidated_segments;
    if (MetricsRegistry* m = MetricsOf(obs_)) {
      m->AddCounter("segment_cache.misses");
      m->AddCounter("segment_cache.stale_misses");
    }
    return false;
  }
  auto pin = store_.Pin(fingerprint);
  if (!pin.ok()) {
    // The store lost the payload (reload failure); degrade to a miss.
    deps_.erase(fingerprint);
    store_.Erase(fingerprint);
    ++stats_.misses;
    if (MetricsRegistry* m = MetricsOf(obs_)) {
      m->AddCounter("segment_cache.misses");
    }
    return false;
  }
  // COW copy under the pin: the caller's batch shares payloads and stays
  // valid no matter what happens to the cache afterwards.
  *out = pin.ValueOrDie().batch();
  ++stats_.hits;
  if (MetricsRegistry* m = MetricsOf(obs_)) {
    m->AddCounter("segment_cache.hits");
  }
  if (Tracer* t = TracerOf(obs_)) {
    t->Instant("segment_cache.hit", "storage",
               {TNum("fingerprint", static_cast<double>(fingerprint)),
                TNum("rows", static_cast<double>(out->num_rows))});
  }
  return true;
}

void SharedSegmentCache::Insert(uint64_t fingerprint, ColumnBatch segment,
                                const std::set<std::string>& base_tables,
                                const TableVersions& read_versions,
                                double expected_reads) {
  TableVersions deps;
  for (const auto& table : base_tables) {
    auto it = read_versions.find(table);
    deps[table] = it == read_versions.end() ? 0 : it->second;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!FreshLocked(deps)) {
    // A dependency was invalidated after the segment's inputs were read:
    // its rows may be stale, so it is never stored.
    ++stats_.invalidated_segments;
    return;
  }
  if (deps_.count(fingerprint) > 0) {
    ++stats_.insert_races_lost;
    return;
  }
  store_.SetExpectedReads(fingerprint, expected_reads);
  bool inserted = false;
  Status put = store_.PutIfAbsent(fingerprint, std::move(segment), &inserted);
  if (!put.ok() || !inserted) {
    // Losing the first-writer race (or a spill failure during admission) is
    // not an error — the batch that computed this segment still has its own
    // copy; we just record no dependency entry, so an orphaned store entry
    // can never be served.
    ++stats_.insert_races_lost;
    return;
  }
  deps_[fingerprint] = std::move(deps);
  ++stats_.inserts;
  if (MetricsRegistry* m = MetricsOf(obs_)) {
    m->AddCounter("segment_cache.inserts");
  }
  if (Tracer* t = TracerOf(obs_)) {
    t->Instant("segment_cache.insert", "storage",
               {TNum("fingerprint", static_cast<double>(fingerprint)),
                TNum("tables", static_cast<double>(base_tables.size()))});
  }
}

void SharedSegmentCache::InvalidateTable(const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  ++versions_[table];
  for (auto it = deps_.begin(); it != deps_.end();) {
    if (it->second.count(table) > 0) {
      store_.Erase(it->first);
      it = deps_.erase(it);
      ++stats_.invalidated_segments;
      if (MetricsRegistry* m = MetricsOf(obs_)) {
        m->AddCounter("segment_cache.invalidated");
      }
    } else {
      ++it;
    }
  }
}

void SharedSegmentCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [fp, deps] : deps_) {
    (void)deps;
    // Best-effort per-key erase (MatStore::Clear asserts no pins; a
    // concurrent reader may legitimately hold one).
    store_.Erase(fp);
    ++stats_.invalidated_segments;
  }
  deps_.clear();
}

TableVersions SharedSegmentCache::TableVersionSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return versions_;
}

std::shared_ptr<const std::unordered_set<uint64_t>>
SharedSegmentCache::FingerprintSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  auto snapshot = std::make_shared<std::unordered_set<uint64_t>>();
  snapshot->reserve(deps_.size());
  for (const auto& [fp, deps] : deps_) {
    (void)deps;
    snapshot->insert(fp);
  }
  return snapshot;
}

SegmentCacheStats SharedSegmentCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t SharedSegmentCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return deps_.size();
}

}  // namespace mqo
