// Qualified column references.
//
// Every column in the algebra is identified by (qualifier, name), where the
// qualifier is the scan alias that introduced it (e.g. "orders.o_orderdate",
// or "n1.n_name" for an aliased scan of nation). Aggregate outputs use the
// empty qualifier and a deterministic synthesized name such as
// "sum(lineitem.l_extendedprice)".

#ifndef MQO_ALGEBRA_COLUMN_REF_H_
#define MQO_ALGEBRA_COLUMN_REF_H_

#include <set>
#include <string>
#include <vector>

#include "common/hash.h"

namespace mqo {

/// A reference to a column of some (aliased) relation or derived result.
struct ColumnRef {
  std::string qualifier;  ///< Scan alias, or "" for synthesized columns.
  std::string name;       ///< Column name within the qualifier.

  ColumnRef() = default;
  ColumnRef(std::string q, std::string n)
      : qualifier(std::move(q)), name(std::move(n)) {}

  /// "qualifier.name", or just "name" when unqualified.
  std::string ToString() const {
    if (qualifier.empty()) return name;
    return qualifier + "." + name;
  }

  bool operator==(const ColumnRef& o) const {
    return qualifier == o.qualifier && name == o.name;
  }
  bool operator!=(const ColumnRef& o) const { return !(*this == o); }
  bool operator<(const ColumnRef& o) const {
    if (qualifier != o.qualifier) return qualifier < o.qualifier;
    return name < o.name;
  }

  uint64_t Hash() const {
    return HashCombine(HashString(qualifier), HashString(name));
  }
};

/// A set of columns: what an operator's consumers read of its output, or
/// what a reader needs of a materialized segment.
using ColumnNeed = std::set<ColumnRef>;

/// A sort order: a sequence of columns, most-significant first. An empty
/// vector means "no required order". Order X satisfies requirement Y iff Y is
/// a prefix of X.
using SortOrder = std::vector<ColumnRef>;

/// True iff `actual` satisfies the `required` order (prefix rule).
inline bool OrderSatisfies(const SortOrder& actual, const SortOrder& required) {
  if (required.size() > actual.size()) return false;
  for (size_t i = 0; i < required.size(); ++i) {
    if (!(actual[i] == required[i])) return false;
  }
  return true;
}

/// Renders "a.x, b.y".
std::string SortOrderToString(const SortOrder& order);

}  // namespace mqo

#endif  // MQO_ALGEBRA_COLUMN_REF_H_
