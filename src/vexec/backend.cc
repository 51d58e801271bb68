#include "vexec/backend.h"

#include <memory>

namespace mqo {

namespace {

std::unique_ptr<ConsolidatedExecutor> MakeExecutor(ExecBackend backend,
                                                   Memo* memo,
                                                   const DataSet* data,
                                                   const ExecOptions& exec) {
  if (backend == ExecBackend::kVector) {
    return std::make_unique<VectorPlanExecutor>(memo, data, exec);
  }
  return std::make_unique<PlanExecutor>(memo, data, exec);
}

}  // namespace

const char* ExecBackendToString(ExecBackend backend) {
  switch (backend) {
    case ExecBackend::kRow:
      return "row";
    case ExecBackend::kVector:
      return "vector";
  }
  return "?";
}

Result<std::vector<NamedRows>> ExecuteConsolidatedWith(
    ExecBackend backend, Memo* memo, const DataSet* data,
    const ConsolidatedPlan& plan, const ExecOptions& exec) {
  MQO_ASSIGN_OR_RETURN(ExecResult result, ExecuteConsolidatedResult(
                                              backend, memo, data, plan, exec));
  return std::move(result.results);
}

Result<ExecResult> ExecuteConsolidatedResult(ExecBackend backend, Memo* memo,
                                             const DataSet* data,
                                             const ConsolidatedPlan& plan,
                                             const ExecOptions& exec) {
  // The row interpreter is serial but its segment store honours the same
  // memory budget, so both engines spill under identical pressure.
  std::unique_ptr<ConsolidatedExecutor> executor =
      MakeExecutor(backend, memo, data, exec);
  ExecResult out;
  MQO_ASSIGN_OR_RETURN(out.results, executor->ExecuteConsolidated(plan));
  out.feedback = executor->feedback();
  // A session run owns no store: its traffic is the session store's.
  if (exec.shared_cache == nullptr) out.store_stats = executor->store().stats();
  out.segments = executor->SegmentRuntimes();
  out.cross_batch_hits = executor->cross_batch_hits();
  return out;
}

Result<NamedRows> ExecutePlanWith(ExecBackend backend, Memo* memo,
                                  const DataSet* data, const PlanNodePtr& plan,
                                  const ExecOptions& exec) {
  return MakeExecutor(backend, memo, data, exec)->Execute(plan);
}

}  // namespace mqo
