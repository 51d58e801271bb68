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

SegmentRef SharedSegmentCache::Lookup(uint64_t fingerprint) {
  SegmentRef dropped;  // freed after the unlock: no spill-file I/O under mu_
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.lookups;
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) {
    ++stats_.misses;
    return SegmentRef{};
  }
  const bool fresh = FreshLocked(it->second.deps);
  if (!fresh || store_.IsLost(it->second.segment)) {
    // A base table moved under this segment, or its payload is gone: drop
    // it now so it can never serve, and report a miss.
    dropped = std::move(it->second.segment);
    entries_.erase(it);
    ++stats_.misses;
    if (!fresh) {
      ++stats_.stale_misses;
      ++stats_.invalidated_segments;
    }
    return SegmentRef{};
  }
  ++stats_.hits;
  if (Tracer* t = TracerOf(obs_)) {
    t->Instant("segment_cache.hit", "storage",
               {TNum("fingerprint", static_cast<double>(fingerprint)),
                TNum("rows", static_cast<double>(it->second.segment.rows()))});
  }
  return it->second.segment;
}

void SharedSegmentCache::Insert(uint64_t fingerprint, const SegmentRef& segment,
                                const std::set<std::string>& base_tables,
                                const TableVersions& read_versions) {
  TableVersions deps;
  for (const auto& table : base_tables) {
    auto it = read_versions.find(table);
    deps[table] = it == read_versions.end() ? 0 : it->second;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!FreshLocked(deps)) {
    // A dependency was invalidated after the segment's inputs were read:
    // its rows may be stale, so it is never indexed.
    ++stats_.invalidated_segments;
    return;
  }
  if (!entries_.emplace(fingerprint, Entry{segment, std::move(deps)}).second) {
    ++stats_.insert_races_lost;
    return;
  }
  ++stats_.inserts;
  if (Tracer* t = TracerOf(obs_)) {
    t->Instant("segment_cache.insert", "storage",
               {TNum("fingerprint", static_cast<double>(fingerprint)),
                TNum("tables", static_cast<double>(base_tables.size()))});
  }
}

void SharedSegmentCache::InvalidateTable(const std::string& table) {
  std::vector<SegmentRef> dropped;  // freed after the unlock
  std::lock_guard<std::mutex> lock(mu_);
  ++versions_[table];
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.deps.count(table) > 0) {
      dropped.push_back(std::move(it->second.segment));
      it = entries_.erase(it);
      ++stats_.invalidated_segments;
    } else {
      ++it;
    }
  }
}

void SharedSegmentCache::Clear() {
  std::vector<SegmentRef> dropped;  // freed after the unlock
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [fp, entry] : entries_) {
    (void)fp;
    dropped.push_back(std::move(entry.segment));
    ++stats_.invalidated_segments;
  }
  entries_.clear();
}

TableVersions SharedSegmentCache::TableVersionSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return versions_;
}

std::shared_ptr<const std::unordered_set<uint64_t>>
SharedSegmentCache::FingerprintSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  auto snapshot = std::make_shared<std::unordered_set<uint64_t>>();
  snapshot->reserve(entries_.size());
  for (const auto& [fp, entry] : entries_) {
    (void)entry;
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
  return entries_.size();
}

void ExportStorageStats(const MatStoreStats& store,
                        const SegmentCacheStats* cache,
                        MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  auto set = [metrics](std::string_view name, double value) {
    metrics->SetGauge(name, value);
  };
  set("mat_store.puts", static_cast<double>(store.puts));
  set("mat_store.gets", static_cast<double>(store.gets));
  set("mat_store.hits", static_cast<double>(store.hits));
  set("mat_store.evictions", static_cast<double>(store.evictions));
  set("mat_store.spill_writes", static_cast<double>(store.spill_writes));
  set("mat_store.reloads", static_cast<double>(store.reloads));
  set("mat_store.bytes_spilled", static_cast<double>(store.bytes_spilled));
  set("mat_store.bytes_reloaded", static_cast<double>(store.bytes_reloaded));
  if (cache == nullptr) return;
  set("segment_cache.lookups", static_cast<double>(cache->lookups));
  set("segment_cache.hits", static_cast<double>(cache->hits));
  set("segment_cache.misses", static_cast<double>(cache->misses));
  set("segment_cache.stale_misses", static_cast<double>(cache->stale_misses));
  set("segment_cache.inserts", static_cast<double>(cache->inserts));
  set("segment_cache.insert_races_lost",
      static_cast<double>(cache->insert_races_lost));
  set("segment_cache.invalidated",
      static_cast<double>(cache->invalidated_segments));
}

}  // namespace mqo
