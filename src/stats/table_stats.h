// Data-driven table statistics: collection (AnalyzeTable) and the registry
// the optimizer consults.
//
// AnalyzeTable runs one morsel-parallel pass over a ColumnStore (the shared
// pipeline driver in storage/pipeline.h) computing, per column: row count,
// numeric min/max, a KMV distinct sketch, an average stored width, and —
// for numeric columns — an equi-depth histogram built from a deterministic
// stride sample (all rows below AnalyzeOptions::sample_target). Workers fold
// morsels into thread-local accumulators; the merge is order-independent
// (sketch union, min/max, stride-keyed samples), so results are identical at
// every thread count.
//
// TableStatsRegistry caches TableStatsData per base table, analyzing lazily
// on first access from a bound DataSet — the "first optimization pays the
// scan" model. Re-binding data (regeneration) invalidates everything.

#ifndef MQO_STATS_TABLE_STATS_H_
#define MQO_STATS_TABLE_STATS_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/dataset.h"
#include "stats/histogram.h"
#include "stats/sketch.h"

namespace mqo {

/// Knobs of one analyze pass.
struct AnalyzeOptions {
  /// Histogram resolution (equi-depth buckets).
  size_t histogram_buckets = 64;
  /// Row threshold above which histograms sample (deterministic stride)
  /// instead of reading every value.
  size_t sample_target = 4096;
  /// KMV sketch size (distinct-count accuracy / memory trade-off).
  size_t sketch_k = KmvSketch::kDefaultK;
  /// Worker threads of the analyze pipeline (1 = serial).
  int num_threads = 1;
};

/// Collected statistics of one column.
struct ColumnStatsData {
  std::string name;          ///< Unqualified column name.
  bool numeric = false;      ///< min/max and histogram meaningful.
  double min_value = 0.0;
  double max_value = 0.0;
  double distinct = 1.0;     ///< Sketch estimate (exact for small columns).
  double avg_width_bytes = 8.0;
  std::shared_ptr<const KmvSketch> sketch;  ///< For downstream merging.
  std::shared_ptr<const EquiDepthHistogram> histogram;  ///< Numeric only.
};

/// Collected statistics of one table.
struct TableStatsData {
  double row_count = 0.0;
  std::vector<ColumnStatsData> columns;

  /// Column lookup by unqualified name; nullptr if unknown.
  const ColumnStatsData* Find(const std::string& name) const;
};

/// One pass over `store` computing TableStatsData (see file comment).
TableStatsData AnalyzeTable(const ColumnStore& store,
                            const AnalyzeOptions& options = {});

/// Lazily-populated per-table statistics, keyed by base-table name.
///
/// Thread-safe: a long-lived session shares one registry across concurrent
/// batch optimizations, so every access — including the lazy first-touch
/// analysis, which runs under the lock and thereby analyzes each table
/// exactly once — is serialized on an internal mutex. Get hands out shared
/// ownership, so an optimization keeps reading the statistics it fetched
/// even when a concurrent Invalidate or rebind drops them from the registry.
/// The mutex makes the registry immovable — long-lived owners re-point it
/// with Reset() instead of move-assigning a fresh one.
class TableStatsRegistry {
 public:
  TableStatsRegistry() = default;
  explicit TableStatsRegistry(const DataSet* data, AnalyzeOptions options = {})
      : data_(data), options_(options) {}

  TableStatsRegistry(const TableStatsRegistry&) = delete;
  TableStatsRegistry& operator=(const TableStatsRegistry&) = delete;

  /// Stats for `table`, analyzing lazily from the bound DataSet on first
  /// access. nullptr when no data is bound or the table has none.
  std::shared_ptr<const TableStatsData> Get(const std::string& table) const;

  /// Installs pre-computed stats (tests, external collectors).
  void Put(std::string table, TableStatsData stats);

  /// Drops one table's cached stats (re-analyzed on next Get).
  void Invalidate(const std::string& table) {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.erase(table);
  }

  /// Drops everything and re-points at `data` — the data-regeneration hook.
  void BindData(const DataSet* data) {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.clear();
    data_ = data;
  }

  /// BindData plus fresh analyze options — what a session constructor uses
  /// instead of move-assigning a new registry (the mutex is immovable).
  void Reset(const DataSet* data, AnalyzeOptions options) {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.clear();
    data_ = data;
    options_ = options;
  }

  size_t num_analyzed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.size();
  }
  const AnalyzeOptions& options() const { return options_; }

 private:
  mutable std::mutex mu_;
  const DataSet* data_ = nullptr;
  AnalyzeOptions options_;
  mutable std::map<std::string, std::shared_ptr<const TableStatsData>> cache_;
};

}  // namespace mqo

#endif  // MQO_STATS_TABLE_STATS_H_
