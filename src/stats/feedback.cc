#include "stats/feedback.h"

#include "common/hash.h"

namespace mqo {

namespace {

/// The operator of canonical class `eq` whose hash its fingerprint takes
/// (the first on ties), or -1 for a class without live operators.
OpId FingerprintOp(const Memo& memo, EqId eq,
                   std::unordered_map<EqId, uint64_t>* cache, uint64_t* hash) {
  OpId best = -1;
  *hash = 0;
  for (OpId oid : memo.ClassOps(eq)) {
    const MemoOp& op = memo.op(oid);
    uint64_t h = op.PayloadHash();
    for (EqId child : op.children) {
      h = HashCombine(h, ClassFingerprint(memo, child, cache));
    }
    if (best < 0 || h < *hash) {
      best = oid;
      *hash = h;
    }
  }
  return best;
}

}  // namespace

uint64_t ClassFingerprint(const Memo& memo, EqId eq,
                          std::unordered_map<EqId, uint64_t>* cache) {
  eq = memo.Find(eq);
  if (cache != nullptr) {
    auto it = cache->find(eq);
    if (it != cache->end()) return it->second;
  }
  uint64_t best = 0;
  FingerprintOp(memo, eq, cache, &best);
  if (cache != nullptr) (*cache)[eq] = best;
  return best;
}

std::string ClassStructuralKey(const Memo& memo, EqId eq,
                               std::unordered_map<EqId, uint64_t>* fingerprints,
                               std::unordered_map<EqId, std::string>* keys) {
  eq = memo.Find(eq);
  auto it = keys->find(eq);
  if (it != keys->end()) return it->second;
  uint64_t hash = 0;
  const OpId oid = FingerprintOp(memo, eq, fingerprints, &hash);
  std::string key;
  if (oid >= 0) {
    const MemoOp& op = memo.op(oid);
    key = op.PayloadKey() + "(";
    for (size_t i = 0; i < op.children.size(); ++i) {
      if (i > 0) key += ',';
      key += ClassStructuralKey(memo, op.children[i], fingerprints, keys);
    }
    key += ')';
  }
  (*keys)[eq] = key;
  return key;
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
