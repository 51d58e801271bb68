// The vectorized engine's column-pruning rules, written once.
//
// Every execution call carries the set of columns its consumer reads
// (ColumnNeed), pushed top-down through the plan. An aggregate needs its
// group keys and arguments, a filter adds its conjunct columns, a project
// resets the need to its column list, a sort passes it through, and a join
// splits it: each input executes with (need ∩ its attributes) ∪ its join
// keys.
//
// Two walks apply these rules: pipeline compilation
// (VectorPlanExecutor::RunPipelineFor), which prunes every pipeline, join
// and breaker to what some operator above it reads, and AddSegmentReads,
// the pre-pass that sizes every materialized segment to the union of what
// its readers read before any segment is computed.

#ifndef MQO_VEXEC_COLUMN_NEED_H_
#define MQO_VEXEC_COLUMN_NEED_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "physical/plan.h"

namespace mqo {

/// A join's need split across its inputs: what each side must emit (its
/// share of the need plus its join keys), what the join itself must emit
/// from each side (that share alone), and the key columns, one per
/// condition, in condition order.
struct JoinNeed {
  EqId probe = -1;  ///< Child 0's class: it streams through the pipeline.
  EqId build = -1;  ///< Child 1's class, or the side input's.
  ColumnNeed left;
  ColumnNeed right;
  ColumnNeed left_out;
  ColumnNeed right_out;
  std::vector<ColumnRef> left_keys;
  std::vector<ColumnRef> right_keys;
};

/// The attributes of class `eq` that `need` names, in class order.
std::vector<ColumnRef> NeedAttrs(Memo* memo, EqId eq, const ColumnNeed& need);

/// What an aggregate sink reads: its group keys and aggregate arguments.
ColumnNeed AggregateNeed(const MemoOp& agg);

/// What `node` (a filter, project, sort, join or aggregate) reads of its
/// streaming input, child 0, when its consumers read `need`. A join also
/// fills `*join`; its keys resolve against the full class attributes, so
/// overlapping aliases fail with the row engine's Unimplemented whatever is
/// pruned. Internal for sources and batch roots.
Result<ColumnNeed> InputNeed(Memo* memo, const PlanNode& node,
                             const ColumnNeed& need, JoinNeed* join);

/// Adds to `*needs` what executing `plan` for a consumer that reads `need`
/// of it reads of each class in `materialized` (canonical ids): the
/// columns its ReadMaterialized leaves and join side inputs read, as
/// VectorPlanExecutor runs the plan. A materialized segment must hold the
/// union over its readers: the query roots, read at full class width, and
/// the compute plans of its materialized ancestors, each walked with that
/// ancestor's own need, ancestors first.
Status AddSegmentReads(Memo* memo, const PlanNodePtr& plan, ColumnNeed need,
                       const std::unordered_set<EqId>& materialized,
                       std::unordered_map<EqId, ColumnNeed>* needs);

}  // namespace mqo

#endif  // MQO_VEXEC_COLUMN_NEED_H_
