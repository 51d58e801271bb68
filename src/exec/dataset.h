// Synthetic datasets for semantic validation of the LQDAG.
//
// The optimizer never executes queries (neither does the paper's), but the
// transformation rules make semantic-equality claims — every operator in an
// equivalence class must produce the same result set. This module generates
// small deterministic datasets from a catalog's statistics so the evaluator
// (evaluator.h) can check those claims on real rows.
//
// Base tables are stored natively columnar (storage/column_store.h): data
// generation writes typed int64/double/string vectors directly, the
// vectorized engine reads them zero-copy through TableReader::Columnar, and
// the row interpreter reads through the TableReader cursor. NamedRows
// (storage/named_rows.h) is only the boundary format.

#ifndef MQO_EXEC_DATASET_H_
#define MQO_EXEC_DATASET_H_

#include <map>
#include <string>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "storage/column_store.h"
#include "storage/named_rows.h"

namespace mqo {

/// Generated base-table data, keyed by table name (unqualified — scans apply
/// their alias when reading).
class DataSet {
 public:
  void AddTable(std::string name, ColumnStore store) {
    tables_[std::move(name)] = std::move(store);
  }
  /// Boundary convenience for hand-built row tables (tests, ad-hoc data).
  Status AddTableRows(std::string name, const NamedRows& rows);

  Result<const ColumnStore*> GetTable(const std::string& name) const;

 private:
  std::map<std::string, ColumnStore> tables_;
};

/// Options for data generation.
struct DataGenOptions {
  int max_rows_per_table = 60;  ///< Rows generated per table (at most).
  /// Integer/date domains are clamped to [min, min + domain_cap) so that
  /// key/foreign-key columns of different (small) tables actually overlap
  /// and joins are non-empty.
  int domain_cap = 200;
  /// RNG seed for the seedless GenerateData overload: the same (catalog,
  /// options) always yields the same database, so differential and benchmark
  /// runs are reproducible across execution backends.
  uint64_t seed = 0x5eedull;
  /// Frame-of-reference compression of generated int64 columns (zone maps
  /// are always built). The values generated are identical either way —
  /// this only picks the physical form, so tests can ablate encoded vs plain
  /// on one bit-identical database.
  bool numeric_compression = true;
};

/// Generates deterministic data for every table in `catalog`, written
/// directly into typed columns (no row detour).
DataSet GenerateData(const Catalog& catalog, const DataGenOptions& options,
                     Rng* rng);

/// Same, seeding the generator from `options.seed`.
DataSet GenerateData(const Catalog& catalog, const DataGenOptions& options);

}  // namespace mqo

#endif  // MQO_EXEC_DATASET_H_
