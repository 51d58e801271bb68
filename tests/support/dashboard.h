// The SQL dashboard burst the optimizer suites share: four TPC-D-shaped
// templates over seeded date windows, parsed into one batch.

#ifndef MQO_TESTS_SUPPORT_DASHBOARD_H_
#define MQO_TESTS_SUPPORT_DASHBOARD_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "parser/parser.h"

namespace mqo {

/// Template t of a dashboard burst over the date window [day, day + width):
/// two templates share a windowed orders ⋈ lineitem core, two a windowed
/// lineitem scan.
inline std::string DashboardSql(int t, int day, int width) {
  const std::string lo = std::to_string(day);
  const std::string hi = std::to_string(day + width);
  switch (t) {
    case 0:
      return "SELECT o_custkey, sum(l_extendedprice) FROM orders, lineitem "
             "WHERE o_orderkey = l_orderkey AND o_orderdate >= " + lo +
             " AND o_orderdate < " + hi + " GROUP BY o_custkey";
    case 1:
      return "SELECT l_orderkey, sum(l_extendedprice) "
             "FROM orders, lineitem, customer "
             "WHERE o_orderkey = l_orderkey AND o_custkey = c_custkey "
             "AND o_orderdate >= " + lo + " AND o_orderdate < " + hi +
             " GROUP BY l_orderkey";
    case 2:
      return "SELECT sum(l_extendedprice) FROM lineitem "
             "WHERE l_shipdate >= " + lo + " AND l_shipdate < " + hi +
             " AND l_quantity < 24";
    default:
      return "SELECT s_nationkey, sum(l_extendedprice) FROM lineitem, supplier "
             "WHERE l_suppkey = s_suppkey AND l_shipdate >= " + lo +
             " AND l_shipdate < " + hi + " GROUP BY s_nationkey";
  }
}

/// A `num_queries` burst cycling the four templates over `num_windows` date
/// windows (90-day windows for the orders templates, 365-day ones for the
/// lineitem templates). Fills `queries`; returns false if a query fails to
/// parse (the status goes to `error`).
inline bool MakeDashboardBatch(const Catalog& catalog, int num_queries,
                               int num_windows,
                               std::vector<LogicalExprPtr>* queries,
                               std::string* error) {
  for (int i = 0; i < num_queries; ++i) {
    const int t = i % 4;
    const int day = 100 + 211 * ((i / 4) % num_windows);
    auto parsed = ParseQuery(DashboardSql(t, day, t < 2 ? 90 : 365), catalog);
    if (!parsed.ok()) {
      *error = parsed.status().ToString();
      return false;
    }
    queries->push_back(parsed.ValueOrDie());
  }
  return true;
}

}  // namespace mqo

#endif  // MQO_TESTS_SUPPORT_DASHBOARD_H_
