// Selection and join predicates.
//
// Selections are conjunctions of simple comparisons `col <op> literal`; joins
// carry conjunctions of column equalities `left_col = right_col`. This is the
// predicate language exercised by the TPC-D workload in the paper (select
// push-down, range-constant variation between repeated queries, and equijoin
// graphs), and it is rich enough for select-subsumption reasoning.

#ifndef MQO_ALGEBRA_PREDICATE_H_
#define MQO_ALGEBRA_PREDICATE_H_

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "algebra/column_ref.h"

namespace mqo {

/// Comparison operator in a selection predicate.
enum class CompareOp { kEq, kLt, kLe, kGt, kGe };

const char* CompareOpToString(CompareOp op);

/// A literal: numeric (doubles cover ints and dates-as-day-offsets) or string.
struct Literal {
  std::variant<double, std::string> value;

  Literal() : value(0.0) {}
  /* implicit */ Literal(double v) : value(v) {}
  /* implicit */ Literal(int v) : value(static_cast<double>(v)) {}
  /* implicit */ Literal(std::string v) : value(std::move(v)) {}
  /* implicit */ Literal(const char* v) : value(std::string(v)) {}

  bool is_number() const { return std::holds_alternative<double>(value); }
  double number() const { return std::get<double>(value); }
  const std::string& str() const { return std::get<std::string>(value); }

  std::string ToString() const;
  uint64_t Hash() const;
  bool operator==(const Literal& o) const { return value == o.value; }
  bool operator<(const Literal& o) const;
};

/// One comparison `column <op> literal`.
struct Comparison {
  ColumnRef column;
  CompareOp op = CompareOp::kEq;
  Literal literal;

  std::string ToString() const;
  uint64_t Hash() const;
  bool operator==(const Comparison& o) const {
    return column == o.column && op == o.op && literal == o.literal;
  }
  bool operator<(const Comparison& o) const;
};

/// A conjunction of comparisons, kept sorted for canonical hashing.
class Predicate {
 public:
  Predicate() = default;
  explicit Predicate(std::vector<Comparison> conjuncts);

  /// Adds a conjunct, re-canonicalizing.
  void AddConjunct(Comparison c);

  const std::vector<Comparison>& conjuncts() const { return conjuncts_; }
  bool Empty() const { return conjuncts_.empty(); }

  /// "a.x < 5 AND a.y = 'FOO'".
  std::string ToString() const;
  uint64_t Hash() const;
  bool operator==(const Predicate& o) const { return conjuncts_ == o.conjuncts_; }

 private:
  std::vector<Comparison> conjuncts_;  // sorted canonically
};

/// True iff `stronger` logically implies `weaker` for every tuple, decided
/// conservatively for single-column comparisons (used by select subsumption:
/// sigma_strong(E) == sigma_strong(sigma_weak(E)) when strong => weak).
bool ComparisonImplies(const Comparison& stronger, const Comparison& weaker);

/// True iff predicate `stronger` implies predicate `weaker` (every conjunct of
/// `weaker` is implied by some conjunct of `stronger`).
bool PredicateImplies(const Predicate& stronger, const Predicate& weaker);

/// One equijoin condition `left = right`.
struct JoinCondition {
  ColumnRef left;
  ColumnRef right;

  /// Canonical form orders (left, right) lexicographically so that the
  /// condition hashes identically regardless of join input order.
  void Canonicalize();

  std::string ToString() const;
  uint64_t Hash() const;
  bool operator==(const JoinCondition& o) const {
    return left == o.left && right == o.right;
  }
  bool operator<(const JoinCondition& o) const;
};

/// A conjunction of equijoin conditions, kept sorted for canonical hashing.
class JoinPredicate {
 public:
  JoinPredicate() = default;
  explicit JoinPredicate(std::vector<JoinCondition> conditions);

  const std::vector<JoinCondition>& conditions() const { return conditions_; }
  bool Empty() const { return conditions_.empty(); }

  std::string ToString() const;
  uint64_t Hash() const;
  bool operator==(const JoinPredicate& o) const {
    return conditions_ == o.conditions_;
  }

 private:
  std::vector<JoinCondition> conditions_;  // each canonicalized, then sorted
};

}  // namespace mqo

#endif  // MQO_ALGEBRA_PREDICATE_H_
