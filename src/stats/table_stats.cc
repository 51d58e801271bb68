#include "stats/table_stats.h"

#include <algorithm>

#include "storage/pipeline.h"

namespace mqo {

namespace {

/// Per-worker, per-column accumulator of the analyze pipeline.
struct ColumnAccumulator {
  bool any = false;
  double min_value = 0.0;
  double max_value = 0.0;
  KmvSketch sketch;
  std::vector<double> sample;  ///< Stride-sampled numeric values.
  double string_bytes = 0.0;   ///< Character storage of string cells.
};

struct AnalyzeState {
  std::vector<ColumnAccumulator> columns;
};

}  // namespace

const ColumnStatsData* TableStatsData::Find(const std::string& name) const {
  for (const auto& c : columns) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

TableStatsData AnalyzeTable(const ColumnStore& store,
                            const AnalyzeOptions& options) {
  TableStatsData out;
  const size_t num_rows = store.num_rows();
  const size_t num_cols = store.num_columns();
  out.row_count = static_cast<double>(num_rows);
  // Deterministic stride sampling: row i is sampled iff i % stride == 0, so
  // the sampled set is a property of the table, not of morsel scheduling.
  const size_t stride =
      num_rows <= options.sample_target
          ? 1
          : (num_rows + options.sample_target - 1) / options.sample_target;

  PipelineOptions pipeline;
  pipeline.num_threads = options.num_threads;
  std::vector<AnalyzeState> states = RunPipeline<AnalyzeState>(
      num_rows, pipeline,
      [&](AnalyzeState& state, size_t, const Morsel& morsel) {
        if (state.columns.empty()) {
          state.columns.resize(num_cols);
          for (auto& acc : state.columns) acc.sketch = KmvSketch(options.sketch_k);
        }
        for (size_t c = 0; c < num_cols; ++c) {
          const ColumnVector& col = store.column(c);
          ColumnAccumulator& acc = state.columns[c];
          for (uint32_t i = morsel.begin; i < morsel.end; ++i) {
            acc.sketch.Add(col.HashCell(i));
            if (col.is_numeric()) {
              const double v = col.Number(i);
              if (!acc.any || v < acc.min_value) acc.min_value = v;
              if (!acc.any || v > acc.max_value) acc.max_value = v;
              acc.any = true;
              if (i % stride == 0) acc.sample.push_back(v);
            } else {
              acc.any = true;
              acc.string_bytes += static_cast<double>(col.StringAt(i).size());
            }
          }
        }
      });

  out.columns.resize(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    ColumnStatsData& cs = out.columns[c];
    cs.name = store.name(c);
    cs.numeric = store.column(c).is_numeric();
    KmvSketch merged(options.sketch_k);
    std::vector<double> sample;
    double string_bytes = 0.0;
    bool any = false;
    for (const auto& state : states) {
      if (state.columns.empty()) continue;  // worker claimed no morsel
      const ColumnAccumulator& acc = state.columns[c];
      merged.Merge(acc.sketch);
      if (acc.any) {
        if (!any || acc.min_value < cs.min_value) cs.min_value = acc.min_value;
        if (!any || acc.max_value > cs.max_value) cs.max_value = acc.max_value;
        any = true;
      }
      sample.insert(sample.end(), acc.sample.begin(), acc.sample.end());
      string_bytes += acc.string_bytes;
    }
    cs.distinct = num_rows == 0
                      ? 0.0
                      : std::min(merged.Estimate(), out.row_count);
    cs.sketch = std::make_shared<const KmvSketch>(std::move(merged));
    if (cs.numeric) {
      cs.avg_width_bytes = 8.0;
      std::sort(sample.begin(), sample.end());
      // The sketch saw every row; it anchors the bucket distinct counts the
      // (possibly sampled) histogram would otherwise understate.
      cs.histogram = EquiDepthHistogram::Build(
          sample, options.histogram_buckets, out.row_count, cs.distinct);
    } else {
      cs.avg_width_bytes =
          num_rows == 0 ? 8.0 : string_bytes / static_cast<double>(num_rows);
    }
  }
  return out;
}

std::shared_ptr<const TableStatsData> TableStatsRegistry::Get(
    const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(table);
  if (it != cache_.end()) return it->second;
  if (data_ == nullptr) return nullptr;
  auto store = data_->GetTable(table);
  if (!store.ok()) return nullptr;
  // First touch analyzes under the lock: concurrent optimizations wait here
  // instead of analyzing the same table twice.
  auto [ins, _] = cache_.emplace(
      table, std::make_shared<const TableStatsData>(
                 AnalyzeTable(*store.ValueOrDie(), options_)));
  return ins->second;
}

void TableStatsRegistry::Put(std::string table, TableStatsData stats) {
  std::lock_guard<std::mutex> lock(mu_);
  cache_[std::move(table)] =
      std::make_shared<const TableStatsData>(std::move(stats));
}

}  // namespace mqo
