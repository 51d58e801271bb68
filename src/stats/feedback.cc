#include "stats/feedback.h"

#include "common/hash.h"

namespace mqo {

uint64_t ClassFingerprint(const Memo& memo, EqId eq,
                          std::unordered_map<EqId, uint64_t>* cache) {
  eq = memo.Find(eq);
  if (cache != nullptr) {
    auto it = cache->find(eq);
    if (it != cache->end()) return it->second;
  }
  uint64_t best = 0;
  bool any = false;
  for (OpId oid : memo.ClassOps(eq)) {
    const MemoOp& op = memo.op(oid);
    uint64_t h = op.PayloadHash();
    for (EqId child : op.children) {
      h = HashCombine(h, ClassFingerprint(memo, child, cache));
    }
    if (!any || h < best) best = h;
    any = true;
  }
  if (cache != nullptr) (*cache)[eq] = best;
  return best;
}

namespace {

void CollectBaseTables(const Memo& memo, EqId eq,
                       std::unordered_map<EqId, bool>* visited,
                       std::set<std::string>* out) {
  eq = memo.Find(eq);
  if (!visited->emplace(eq, true).second) return;
  for (OpId oid : memo.ClassOps(eq)) {
    const MemoOp& op = memo.op(oid);
    if (op.kind == LogicalOp::kScan) out->insert(op.table);
    for (EqId child : op.children) {
      CollectBaseTables(memo, child, visited, out);
    }
  }
}

}  // namespace

std::set<std::string> ClassBaseTables(const Memo& memo, EqId eq) {
  std::set<std::string> out;
  std::unordered_map<EqId, bool> visited;
  CollectBaseTables(memo, eq, &visited, &out);
  return out;
}

}  // namespace mqo
