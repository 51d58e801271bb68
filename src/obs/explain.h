// EXPLAIN ANALYZE for materialization decisions.
//
// The paper's contribution is choosing *which* classes to materialize; these
// structs put each choice side by side with what actually happened at run
// time: estimated vs actual rows (matched through CardinalityFeedback
// fingerprints), expected vs actual segment reads, and the cost model's
// predicted benefit vs a realized-savings proxy. obs stays a leaf library, so
// classes are identified here by plain ints/fingerprints — the facade does
// the matching against memo/MatStore state.

#ifndef MQO_OBS_EXPLAIN_H_
#define MQO_OBS_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mqo {

/// Optimizer-side view of one selected materialization, captured at plan time.
struct MatClassEstimate {
  int eq = -1;                    ///< memo equivalence class id
  uint64_t fingerprint = 0;       ///< structural ClassFingerprint
  std::string label;              ///< short plan description for the report
  int attributes = 0;             ///< the class's attribute count
  double est_rows = 0;            ///< StatsEstimator row estimate
  double expected_reads = 0;      ///< ExpectedSegmentReads at plan time
  double footprint_bytes = 0;     ///< estimated segment size
  double predicted_benefit_ms = 0;  ///< bc(S \ {e}) - bc(S), cost-model units
};

/// Executor-side view of the same segment, captured after the batch ran.
struct SegmentRuntime {
  int eq = -1;
  uint64_t fingerprint = 0;
  int64_t actual_rows = 0;    ///< rows in the materialized batch
  double compute_ms = 0;      ///< wall time to produce the segment once
  int64_t reads = 0;          ///< times consumers fetched it from the store
  int64_t reloads = 0;        ///< reads served by spill rehydration
  int64_t bytes = 0;          ///< resident size
  int columns = 0;            ///< columns the segment holds (its width)
  bool ever_spilled = false;
};

/// One row of the report: estimate joined with runtime by class id.
struct ExplainEntry {
  MatClassEstimate est;
  SegmentRuntime run;
  bool executed = false;       ///< false when the batch was only optimized
  /// Realized-savings proxy: compute_ms * (reads - 1) — the wall time that
  /// recomputing the segment for every consumer would have added. Comparable
  /// to predicted_benefit_ms in spirit, not in units (the cost model speaks
  /// estimated ms, this is measured ms).
  double realized_saved_ms = 0;
};

/// Render the per-class table plus a totals line.
std::string RenderExplainAnalyze(const std::vector<ExplainEntry>& entries);

}  // namespace mqo

#endif  // MQO_OBS_EXPLAIN_H_
