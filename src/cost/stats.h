// Cardinality and statistics estimation over LQDAG equivalence classes.
//
// Two statistics sources, selected by StatsMode:
//   kCatalogGuess — System-R constants over catalog declarations: equality
//     selectivity 1/V(col), range selectivity from declared min/max (1/3
//     default when unbounded), equijoin selectivity 1/max(V(left), V(right)),
//     aggregate output min(prod V(group), input rows). This path is kept
//     bit-for-bit stable so the paper's reported numbers stay reproducible.
//   kCollected — data-driven statistics from a TableStatsRegistry
//     (src/stats/): scans take row counts, KMV-sketch distincts and
//     equi-depth histograms from an analyze pass over the ColumnStore;
//     filters interpolate histogram buckets (and Clip() the histogram for
//     upstream operators); equijoins estimate via histogram overlap of the
//     key ranges; group-bys use the sketch-backed distincts.
// Either way, runtime CardinalityFeedback (observed materialized-segment
// cardinalities, matched by structural fingerprint) overrides estimated row
// counts, closing the optimize→execute→observe loop.
//
// Statistics are per equivalence class (every operator in a class produces
// the same result set) and are computed once, bottom-up, from the first
// operator of the class.

#ifndef MQO_COST_STATS_H_
#define MQO_COST_STATS_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "cost/cost_model.h"
#include "lqdag/memo.h"
#include "stats/feedback.h"
#include "stats/table_stats.h"

namespace mqo {

/// Which statistics source the estimator uses.
enum class StatsMode {
  kCatalogGuess,  ///< Catalog declarations + System-R constants (paper-exact).
  kCollected,     ///< Sampled histograms + sketches from a TableStatsRegistry.
};

const char* StatsModeToString(StatsMode mode);

/// Statistics configuration of one estimator.
struct StatsOptions {
  StatsMode mode = StatsMode::kCatalogGuess;
  /// Collected per-table statistics; required for kCollected (a null
  /// registry degrades to kCatalogGuess).
  const TableStatsRegistry* table_stats = nullptr;
  /// Observed cardinalities from prior executions; optional, used in every
  /// mode.
  const CardinalityFeedback* feedback = nullptr;
};

/// Statistics for one column of a derived result.
struct ColumnStat {
  ColumnRef column;
  double distinct = 1.0;
  double min_value = 0.0;
  double max_value = 0.0;
  bool numeric = false;  ///< min/max meaningful (numbers and dates)
  int width_bytes = 4;
  /// Collected-mode extras (null under kCatalogGuess): the column's
  /// equi-depth histogram (clipped as predicates restrict it) and distinct
  /// sketch. Shared, never mutated in place.
  std::shared_ptr<const EquiDepthHistogram> histogram;
  std::shared_ptr<const KmvSketch> sketch;
};

/// Statistics for one equivalence class's result.
struct RelStats {
  double rows = 0.0;
  double row_width_bytes = 0.0;
  std::vector<ColumnStat> columns;

  double SizeBytes() const { return rows * row_width_bytes; }
  double Blocks(const CostModel& cm) const { return cm.Blocks(SizeBytes()); }

  /// Column stat lookup; nullptr if unknown.
  const ColumnStat* Find(const ColumnRef& c) const;
};

/// Estimates and caches RelStats per equivalence class.
class StatsEstimator {
 public:
  explicit StatsEstimator(Memo* memo, StatsOptions options = {})
      : memo_(memo), options_(options) {
    if (options_.table_stats == nullptr) options_.mode = StatsMode::kCatalogGuess;
  }

  /// Statistics of class `eq` (canonicalized). Cached.
  const RelStats& ClassStats(EqId eq);

  /// Selectivity of one comparison against `input` statistics.
  double Selectivity(const Comparison& cmp, const RelStats& input) const;

  /// Selectivity of a conjunctive predicate (independence assumption).
  double Selectivity(const Predicate& pred, const RelStats& input) const;

  /// The mode the estimator actually runs in (kCollected degraded to
  /// kCatalogGuess when no registry was supplied).
  StatsMode mode() const { return options_.mode; }

  /// Drops all cached statistics (e.g. after further memo expansion).
  void InvalidateAll() {
    cache_.clear();
    fingerprints_.clear();
  }

 private:
  RelStats Compute(EqId eq);
  RelStats ComputeForOp(const MemoOp& op);
  /// Collected-mode scan statistics; false when the table is not analyzed
  /// (caller falls back to the catalog path).
  bool ScanFromCollected(const MemoOp& op, const Table& table, RelStats* out);
  /// Overrides `out->rows` with an observed cardinality when the feedback
  /// map has this class's fingerprint.
  void ApplyFeedback(EqId eq, RelStats* out);

  Memo* memo_;
  StatsOptions options_;
  std::unordered_map<EqId, RelStats> cache_;
  std::unordered_map<EqId, uint64_t> fingerprints_;
};

}  // namespace mqo

#endif  // MQO_COST_STATS_H_
