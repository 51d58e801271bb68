// Logical transformation rules and the memo expansion driver.
//
// The rule set matches the paper's experimental setup (Section 6): select
// push-down (done at normalization and preserved here), join commutativity
// and associativity (generating bushy join trees), and select and aggregate
// subsumption (which create the cross-query sharing opportunities when a
// query is repeated with different selection constants).
//
// Expansion runs on a worklist (Cascades' "explored" marks, Graefe 1995): a
// join is derived from again only when it is new, or when its left child
// class gained an operator or merged since its last visit; a subsumption
// pair only when one of its ops is new to their child class. Joins are
// visited in ascending op id, new ones appended.

#ifndef MQO_LQDAG_RULES_H_
#define MQO_LQDAG_RULES_H_

#include "common/status.h"
#include "lqdag/memo.h"

namespace mqo {

/// Knobs for memo expansion. Every rule always runs; `max_ops` bounds the
/// DAG size defensively (expansion fails with OutOfRange when exceeded).
struct ExpansionOptions {
  int max_ops = 500000;
};

/// Statistics about one expansion run.
struct ExpansionStats {
  int ops_before = 0;
  int ops_after = 0;
  int classes_after = 0;
  int merges = 0;
};

/// Applies every transformation rule to fixpoint (the "expanded
/// LQDAG"). Idempotent: a second call adds nothing.
Result<ExpansionStats> ExpandMemo(Memo* memo, const ExpansionOptions& options = {});

}  // namespace mqo

#endif  // MQO_LQDAG_RULES_H_
