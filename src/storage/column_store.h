// Native columnar base-table storage.
//
// A ColumnStore is the canonical representation of a table's data inside
// DataSet: one typed ColumnVector per column, keyed by the *unqualified*
// column name (scans apply their alias when reading — see table_reader.h).
// Data generation writes these columns directly; the row format only appears
// at the boundary (FromRows for hand-built test tables).

#ifndef MQO_STORAGE_COLUMN_STORE_H_
#define MQO_STORAGE_COLUMN_STORE_H_

#include <string>
#include <vector>

#include "storage/column.h"

namespace mqo {

/// Typed columns of one base table, uniformly `num_rows()` long.
class ColumnStore {
 public:
  /// Appends a column. Every column after the first must match the store's
  /// row count.
  Status AddColumn(std::string name, ColumnVector column);

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return names_.size(); }
  const std::string& name(size_t i) const { return names_[i]; }
  const ColumnVector& column(size_t i) const { return columns_[i]; }

  /// Index of the column called `name`, or -1.
  int ColumnIndex(const std::string& name) const;

  /// (Re)compresses every column in place: string columns to the dictionary
  /// form, int64 columns (when `numeric_compression`) to the FOR form when
  /// it shrinks them, and every numeric column gets a fresh per-zone min/max
  /// map. Idempotent; called at build time and after every append.
  void Compress(bool numeric_compression);

  /// Appends a row table to the store (schema matched by unqualified column
  /// name, same order), then re-runs Compress so encodings and zone maps are
  /// maintained across appends.
  Status AppendRows(const NamedRows& rows, bool numeric_compression);

  /// Boundary conversion: builds a store from a row table, using the
  /// unqualified part of each column name. Fails on mixed-type columns.
  /// Compresses with NumericCompressionDefault() (numeric compression on).
  static Result<ColumnStore> FromRows(const NamedRows& rows);

 private:
  std::vector<std::string> names_;
  std::vector<ColumnVector> columns_;
  size_t num_rows_ = 0;
};

}  // namespace mqo

#endif  // MQO_STORAGE_COLUMN_STORE_H_
