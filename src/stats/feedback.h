// Runtime cardinality feedback: observed row counts keyed by a structural
// class fingerprint.
//
// The executors know the *actual* cardinality of every segment they
// materialize; the optimizer's estimates for the same subexpressions can be
// orders of magnitude off (catalog declarations vs. generated data). This
// module closes the loop: executors record (fingerprint, observed rows)
// pairs while running a consolidated plan, and later optimizations override
// their estimated RelStats rows wherever a fingerprint matches.
//
// Fingerprints are structural — a recursive hash over each operator's typed
// payload (MemoOp::PayloadHash, the memo's hash-consing key: 96.99955 and
// 97.00045 differ though both print as 97.000) and child fingerprints,
// minimized over every live operator of an equivalence class — so they
// survive memo reconstruction: a later batch in a session builds a fresh
// memo with different EqIds, yet any shared subexpression hashes to the same
// fingerprint and picks up the observation. Feedback matches are not
// verified; the segment cache verifies each hit with ClassStructuralKey.

#ifndef MQO_STATS_FEEDBACK_H_
#define MQO_STATS_FEEDBACK_H_

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>

#include "lqdag/memo.h"

namespace mqo {

/// Structural fingerprint of class `eq`: min over the class's live operators
/// of hash(MemoOp::PayloadHash, child fingerprints). Deterministic across memo
/// rebuilds of the same logical expressions. `cache` (per memo) avoids
/// recomputing shared subtrees.
uint64_t ClassFingerprint(const Memo& memo, EqId eq,
                          std::unordered_map<EqId, uint64_t>* cache);

/// Canonical structural key of class `eq`: the exact payload
/// (MemoOp::PayloadKey) of the operator whose hash ClassFingerprint takes,
/// followed by its children's keys. Equal keys name the same expression
/// whatever the fingerprints say; the cross-batch segment cache compares
/// them on every hit. `fingerprints` and `keys` (per memo) avoid
/// recomputing shared subtrees.
std::string ClassStructuralKey(const Memo& memo, EqId eq,
                               std::unordered_map<EqId, uint64_t>* fingerprints,
                               std::unordered_map<EqId, std::string>* keys);

/// Names of every base table the class's expression reads (sorted, deduped):
/// the union of kScan tables over all live operators reachable from `eq`.
/// The cross-batch segment cache records these as the segment's
/// dependencies, so a BindData/append on any of them invalidates the cached
/// segment.
std::set<std::string> ClassBaseTables(const Memo& memo, EqId eq);

/// Observed cardinalities of materialized subexpressions, keyed by
/// ClassFingerprint. Accumulated by the executors, merged across batch runs
/// by the facade session, and consulted by StatsEstimator.
class CardinalityFeedback {
 public:
  /// Records an observation (last write wins — later batches see fresher
  /// data).
  void Record(uint64_t fingerprint, double rows) {
    observed_[fingerprint] = rows;
  }

  /// The observed row count for `fingerprint`, or nullptr.
  const double* Find(uint64_t fingerprint) const {
    auto it = observed_.find(fingerprint);
    return it == observed_.end() ? nullptr : &it->second;
  }

  /// Folds `other` into this map (other's observations win on conflict).
  void MergeFrom(const CardinalityFeedback& other) {
    for (const auto& [fp, rows] : other.observed_) observed_[fp] = rows;
  }

  bool empty() const { return observed_.empty(); }
  size_t size() const { return observed_.size(); }
  void clear() { observed_.clear(); }

  const std::unordered_map<uint64_t, double>& observations() const {
    return observed_;
  }

 private:
  std::unordered_map<uint64_t, double> observed_;
};

}  // namespace mqo

#endif  // MQO_STATS_FEEDBACK_H_
