// Catalog: tables, columns, per-column statistics, and indexes.
//
// The optimizer works purely on estimated statistics (as in the paper, where
// reported costs are optimizer estimates); the catalog therefore stores
// analytic statistics rather than data: row counts, column widths, distinct
// value counts, and numeric min/max ranges for selectivity estimation.

#ifndef MQO_CATALOG_CATALOG_H_
#define MQO_CATALOG_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace mqo {

/// Logical column type. Dates are stored as integer day offsets.
enum class ColumnType { kInt, kDouble, kString, kDate };

/// Schema + statistics for one column of a base table.
struct ColumnDef {
  std::string name;        ///< Unqualified name, e.g. "o_orderdate".
  ColumnType type = ColumnType::kInt;
  int width_bytes = 4;     ///< Average stored width, used for row-size estimates.
  double distinct_values = 1.0;  ///< Estimated number of distinct values.
  double min_value = 0.0;  ///< Lower bound for numeric/date range selectivity.
  double max_value = 0.0;  ///< Upper bound for numeric/date range selectivity.
};

/// A (possibly clustered) index over a prefix of columns of a table.
///
/// A clustered index implies the relation is stored sorted on the key, so a
/// full scan produces that sort order and range/point predicates on the
/// leading column can use indexed selection.
struct IndexDef {
  std::vector<std::string> key_columns;
  bool clustered = false;
};

/// A base table: named columns with statistics, a row count, and indexes.
class Table {
 public:
  Table(std::string name, double row_count)
      : name_(std::move(name)), row_count_(row_count) {}

  const std::string& name() const { return name_; }
  double row_count() const { return row_count_; }

  /// Appends a column. Column names must be unique within the table.
  void AddColumn(ColumnDef col);

  /// Adds an index. At most one clustered index is allowed.
  void AddIndex(IndexDef index);

  const std::vector<ColumnDef>& columns() const { return columns_; }
  const std::vector<IndexDef>& indexes() const { return indexes_; }

  /// Looks up a column by unqualified name.
  Result<ColumnDef> GetColumn(const std::string& name) const;

  bool HasColumn(const std::string& name) const;

  /// Sum of column widths: the average stored row width in bytes.
  int RowWidthBytes() const;

  /// The clustered index, or nullptr if the table is a heap.
  const IndexDef* clustered_index() const;

 private:
  std::string name_;
  double row_count_;
  std::vector<ColumnDef> columns_;
  std::vector<IndexDef> indexes_;
};

/// A named collection of tables.
class Catalog {
 public:
  /// Registers a table. Fails with AlreadyExists on duplicate names.
  Status AddTable(Table table);

  /// Looks a table up by name.
  Result<const Table*> GetTable(const std::string& name) const;

  bool HasTable(const std::string& name) const { return tables_.count(name) > 0; }

  std::vector<std::string> TableNames() const;

 private:
  std::map<std::string, Table> tables_;
};

/// Converts "YYYY-MM-DD" to days since 1992-01-01 (the TPC-D epoch used by
/// the date statistics in this catalog).
int DateToDays(const std::string& iso_date);

}  // namespace mqo

#endif  // MQO_CATALOG_CATALOG_H_
