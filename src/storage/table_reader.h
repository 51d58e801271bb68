// Unified table-reader interface over native columnar storage.
//
// Both execution engines read base tables through a TableReader, each in its
// natural shape:
//
//   - the vectorized engine calls Columnar(alias): a zero-copy ColumnBatch
//     view (COW column payloads shared with the store) with names qualified
//     under the scan alias, which scan pipelines slice into morsels. The view
//     carries the store's physical encodings verbatim — string dictionaries,
//     frame-of-reference int64 blocks, and persisted per-zone min/max maps
//     all ride along on the shared payload handle, so scan pipelines can
//     filter in the code domain and skip zones without touching the store;
//   - the row interpreter drives a Cursor — the row-at-a-time adapter that
//     materializes one boundary row per step (decoding cells through
//     GetValue, which makes it the differential oracle for every encoded
//     form) — or takes the whole table via Rows(alias).
//
// The reader does not own the store; it must not outlive it.

#ifndef MQO_STORAGE_TABLE_READER_H_
#define MQO_STORAGE_TABLE_READER_H_

#include "storage/column_batch.h"
#include "storage/column_store.h"

namespace mqo {

/// Read access to one ColumnStore, serving both engines.
class TableReader {
 public:
  explicit TableReader(const ColumnStore* store) : store_(store) {}

  /// Zero-copy columnar view with names qualified under `alias`.
  ColumnBatch Columnar(const std::string& alias) const;

  /// Row-at-a-time adapter for the row interpreter: call Next() until it
  /// returns false; Get(c) reads column `c` of the current row.
  class Cursor {
   public:
    explicit Cursor(const ColumnStore* store) : store_(store) {}

    /// Advances to the next row; false once the table is exhausted.
    bool Next() { return ++row_ < static_cast<int64_t>(store_->num_rows()); }

    /// Cell of the current row as a boundary Value.
    Value Get(size_t col) const {
      return store_->column(col).GetValue(static_cast<size_t>(row_));
    }

   private:
    const ColumnStore* store_;
    int64_t row_ = -1;  // before the first row
  };

  Cursor cursor() const { return Cursor(store_); }

  /// Boundary materialization: the whole table as qualified NamedRows,
  /// produced through the cursor.
  NamedRows Rows(const std::string& alias) const;

 private:
  const ColumnStore* store_;
};

}  // namespace mqo

#endif  // MQO_STORAGE_TABLE_READER_H_
