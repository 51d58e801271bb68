#include "algebra/predicate.h"

#include <algorithm>
#include <sstream>

#include "common/string_util.h"

namespace mqo {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::string Literal::ToString() const {
  if (is_number()) return FormatDouble(number(), number() == static_cast<int64_t>(number()) ? 0 : 3);
  return "'" + str() + "'";
}

uint64_t Literal::Hash() const {
  if (is_number()) return HashCombine(1, HashDouble(number()));
  return HashCombine(2, HashString(str()));
}

bool Literal::operator<(const Literal& o) const {
  if (is_number() != o.is_number()) return is_number();
  if (is_number()) return number() < o.number();
  return str() < o.str();
}

std::string Comparison::ToString() const {
  return column.ToString() + " " + CompareOpToString(op) + " " + literal.ToString();
}

uint64_t Comparison::Hash() const {
  uint64_t h = column.Hash();
  h = HashCombine(h, static_cast<uint64_t>(op));
  h = HashCombine(h, literal.Hash());
  return h;
}

bool Comparison::operator<(const Comparison& o) const {
  if (!(column == o.column)) return column < o.column;
  if (op != o.op) return op < o.op;
  return literal < o.literal;
}

Predicate::Predicate(std::vector<Comparison> conjuncts)
    : conjuncts_(std::move(conjuncts)) {
  std::sort(conjuncts_.begin(), conjuncts_.end());
  conjuncts_.erase(std::unique(conjuncts_.begin(), conjuncts_.end()),
                   conjuncts_.end());
}

void Predicate::AddConjunct(Comparison c) {
  conjuncts_.push_back(std::move(c));
  std::sort(conjuncts_.begin(), conjuncts_.end());
  conjuncts_.erase(std::unique(conjuncts_.begin(), conjuncts_.end()),
                   conjuncts_.end());
}

std::string Predicate::ToString() const {
  std::vector<std::string> parts;
  for (const auto& c : conjuncts_) parts.push_back(c.ToString());
  return Join(parts, " AND ");
}

uint64_t Predicate::Hash() const {
  uint64_t h = 0xfeedface12345678ull;
  for (const auto& c : conjuncts_) h = HashCombine(h, c.Hash());
  return h;
}

bool ComparisonImplies(const Comparison& stronger, const Comparison& weaker) {
  if (!(stronger.column == weaker.column)) return false;
  if (stronger.literal.is_number() != weaker.literal.is_number()) return false;
  if (!stronger.literal.is_number()) {
    // String comparisons: only equality implication is decided.
    return stronger.op == CompareOp::kEq && weaker.op == CompareOp::kEq &&
           stronger.literal == weaker.literal;
  }
  const double a = stronger.literal.number();
  const double b = weaker.literal.number();
  switch (weaker.op) {
    case CompareOp::kEq:
      return stronger.op == CompareOp::kEq && a == b;
    case CompareOp::kLt:
      // x (op) a implies x < b ?
      if (stronger.op == CompareOp::kLt) return a <= b;
      if (stronger.op == CompareOp::kLe) return a < b;
      if (stronger.op == CompareOp::kEq) return a < b;
      return false;
    case CompareOp::kLe:
      if (stronger.op == CompareOp::kLt) return a <= b;  // x<a => x<=b if a<=b
      if (stronger.op == CompareOp::kLe) return a <= b;
      if (stronger.op == CompareOp::kEq) return a <= b;
      return false;
    case CompareOp::kGt:
      if (stronger.op == CompareOp::kGt) return a >= b;
      if (stronger.op == CompareOp::kGe) return a > b;
      if (stronger.op == CompareOp::kEq) return a > b;
      return false;
    case CompareOp::kGe:
      if (stronger.op == CompareOp::kGt) return a >= b;
      if (stronger.op == CompareOp::kGe) return a >= b;
      if (stronger.op == CompareOp::kEq) return a >= b;
      return false;
  }
  return false;
}

bool PredicateImplies(const Predicate& stronger, const Predicate& weaker) {
  for (const auto& w : weaker.conjuncts()) {
    bool implied = false;
    for (const auto& s : stronger.conjuncts()) {
      if (ComparisonImplies(s, w)) {
        implied = true;
        break;
      }
    }
    if (!implied) return false;
  }
  return true;
}

void JoinCondition::Canonicalize() {
  if (right < left) std::swap(left, right);
}

std::string JoinCondition::ToString() const {
  return left.ToString() + " = " + right.ToString();
}

uint64_t JoinCondition::Hash() const {
  return HashCombine(left.Hash(), right.Hash());
}

bool JoinCondition::operator<(const JoinCondition& o) const {
  if (!(left == o.left)) return left < o.left;
  return right < o.right;
}

JoinPredicate::JoinPredicate(std::vector<JoinCondition> conditions)
    : conditions_(std::move(conditions)) {
  for (auto& c : conditions_) c.Canonicalize();
  std::sort(conditions_.begin(), conditions_.end());
  conditions_.erase(std::unique(conditions_.begin(), conditions_.end()),
                    conditions_.end());
}

std::string JoinPredicate::ToString() const {
  std::vector<std::string> parts;
  for (const auto& c : conditions_) parts.push_back(c.ToString());
  return Join(parts, " AND ");
}

uint64_t JoinPredicate::Hash() const {
  uint64_t h = 0xdeadbeefcafef00dull;
  for (const auto& c : conditions_) h = HashCombine(h, c.Hash());
  return h;
}

std::string SortOrderToString(const SortOrder& order) {
  std::vector<std::string> parts;
  for (const auto& c : order) parts.push_back(c.ToString());
  return Join(parts, ", ");
}

}  // namespace mqo
