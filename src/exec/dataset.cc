#include "exec/dataset.h"

#include <algorithm>

namespace mqo {

Status DataSet::AddTableRows(std::string name, const NamedRows& rows) {
  MQO_ASSIGN_OR_RETURN(ColumnStore store, ColumnStore::FromRows(rows));
  AddTable(std::move(name), std::move(store));
  return Status::OK();
}

Result<const ColumnStore*> DataSet::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no generated data for table '" + name + "'");
  }
  return &it->second;
}

DataSet GenerateData(const Catalog& catalog, const DataGenOptions& options,
                     Rng* rng) {
  DataSet out;
  for (const auto& name : catalog.TableNames()) {
    const Table* table = catalog.GetTable(name).ValueOrDie();
    const int n = static_cast<int>(
        std::min<double>(options.max_rows_per_table, table->row_count()));
    const size_t num_cols = table->columns().size();
    // One typed vector per column, written directly; the RNG is still
    // consumed row-major so generated databases are bit-identical to the
    // historical row-at-a-time generator.
    std::vector<ColumnVector> cols;
    std::vector<int> spans;
    std::vector<int> bases;
    cols.reserve(num_cols);
    spans.reserve(num_cols);
    bases.reserve(num_cols);
    for (const auto& col : table->columns()) {
      const double distinct = std::max(1.0, col.distinct_values);
      spans.push_back(
          static_cast<int>(std::min<double>(distinct, options.domain_cap)));
      bases.push_back(static_cast<int>(col.min_value));
      VecType type = VecType::kInt64;
      if (col.type == ColumnType::kDouble) type = VecType::kDouble;
      if (col.type == ColumnType::kString) type = VecType::kString;
      ColumnVector vec(type);
      vec.Reserve(n);
      cols.push_back(std::move(vec));
    }
    for (int i = 0; i < n; ++i) {
      for (size_t c = 0; c < num_cols; ++c) {
        switch (cols[c].type()) {
          case VecType::kInt64:  // kInt and kDate columns
            cols[c].ints().push_back(bases[c] + rng->NextInt(spans[c]));
            break;
          case VecType::kDouble:
            // Integer-quantized doubles: exact arithmetic under any order.
            cols[c].doubles().push_back(
                static_cast<double>(rng->NextInt(spans[c])));
            break;
          case VecType::kString:
            cols[c].strings().push_back("s" +
                                        std::to_string(rng->NextInt(spans[c])));
            break;
        }
      }
    }
    ColumnStore store;
    for (size_t c = 0; c < num_cols; ++c) {
      // Generated columns are uniformly n rows; AddColumn cannot fail.
      (void)store.AddColumn(table->columns()[c].name, std::move(cols[c]));
    }
    // Compress after generation: the RNG stream above stays bit-identical,
    // and downstream kernels get string dictionaries, FOR codes (when they
    // shrink the column), and per-zone min/max maps.
    store.Compress(options.numeric_compression);
    out.AddTable(name, std::move(store));
  }
  return out;
}

DataSet GenerateData(const Catalog& catalog, const DataGenOptions& options) {
  Rng rng(options.seed);
  return GenerateData(catalog, options, &rng);
}

}  // namespace mqo
