#include "cost/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mqo {

namespace {

constexpr double kDefaultRangeSelectivity = 1.0 / 3.0;
constexpr double kDefaultEqSelectivity = 0.1;

double Clamp01(double x) { return std::max(0.0, std::min(1.0, x)); }

/// Mutable column-stat lookup in an output under construction.
ColumnStat* FindMutable(std::vector<ColumnStat>* columns, const ColumnRef& c) {
  for (auto& cs : *columns) {
    if (cs.column == c) return &cs;
  }
  return nullptr;
}

}  // namespace

const char* StatsModeToString(StatsMode mode) {
  switch (mode) {
    case StatsMode::kCatalogGuess:
      return "catalog-guess";
    case StatsMode::kCollected:
      return "collected";
  }
  return "?";
}

const ColumnStat* RelStats::Find(const ColumnRef& c) const {
  for (const auto& cs : columns) {
    if (cs.column == c) return &cs;
  }
  return nullptr;
}

double StatsEstimator::Selectivity(const Comparison& cmp,
                                   const RelStats& input) const {
  const ColumnStat* cs = input.Find(cmp.column);
  if (cs == nullptr) {
    return cmp.op == CompareOp::kEq ? kDefaultEqSelectivity
                                    : kDefaultRangeSelectivity;
  }
  // Collected statistics: interpolate the column's equi-depth histogram
  // instead of applying System-R constants.
  if (cs->histogram != nullptr && cs->numeric && cmp.literal.is_number()) {
    const double v = cmp.literal.number();
    switch (cmp.op) {
      case CompareOp::kEq:
        return Clamp01(cs->histogram->FractionEq(v));
      case CompareOp::kLt:
        return Clamp01(cs->histogram->FractionLt(v));
      case CompareOp::kLe:
        return Clamp01(cs->histogram->FractionLe(v));
      case CompareOp::kGt:
        return Clamp01(1.0 - cs->histogram->FractionLe(v));
      case CompareOp::kGe:
        return Clamp01(1.0 - cs->histogram->FractionLt(v));
    }
  }
  if (cmp.op == CompareOp::kEq) {
    return Clamp01(1.0 / std::max(1.0, cs->distinct));
  }
  // Range predicate. Use min/max interpolation when available.
  if (!cs->numeric || !cmp.literal.is_number() || cs->max_value <= cs->min_value) {
    return kDefaultRangeSelectivity;
  }
  const double lo = cs->min_value;
  const double hi = cs->max_value;
  const double v = cmp.literal.number();
  const double span = hi - lo;
  switch (cmp.op) {
    case CompareOp::kLt:
    case CompareOp::kLe:
      return Clamp01((v - lo) / span);
    case CompareOp::kGt:
    case CompareOp::kGe:
      return Clamp01((hi - v) / span);
    case CompareOp::kEq:
      break;
  }
  return kDefaultRangeSelectivity;
}

double StatsEstimator::Selectivity(const Predicate& pred,
                                   const RelStats& input) const {
  double sel = 1.0;
  for (const auto& c : pred.conjuncts()) sel *= Selectivity(c, input);
  return sel;
}

const RelStats& StatsEstimator::ClassStats(EqId eq) {
  eq = memo_->Find(eq);
  auto it = cache_.find(eq);
  if (it != cache_.end()) return it->second;
  RelStats stats = Compute(eq);
  auto [ins, _] = cache_.emplace(eq, std::move(stats));
  return ins->second;
}

RelStats StatsEstimator::Compute(EqId eq) {
  auto ops = memo_->ClassOps(eq);
  assert(!ops.empty());
  RelStats out = ComputeForOp(memo_->op(ops.front()));
  ApplyFeedback(eq, &out);
  return out;
}

void StatsEstimator::ApplyFeedback(EqId eq, RelStats* out) {
  if (options_.feedback == nullptr || options_.feedback->empty()) return;
  const uint64_t fp = ClassFingerprint(*memo_, eq, &fingerprints_);
  const double* observed = options_.feedback->Find(fp);
  if (observed == nullptr) return;
  // Observed cardinality wins over any estimate; dependent statistics
  // (distincts, and hence histogram totals) cap at the observed rows.
  out->rows = std::max(1.0, *observed);
  for (auto& cs : out->columns) cs.distinct = std::min(cs.distinct, out->rows);
}

bool StatsEstimator::ScanFromCollected(const MemoOp& op, const Table& table,
                                       RelStats* out) {
  std::shared_ptr<const TableStatsData> ts =
      options_.table_stats->Get(op.table);
  if (ts == nullptr) return false;
  out->rows = ts->row_count;
  out->row_width_bytes = 0.0;
  for (const auto& col : table.columns()) {
    ColumnStat cs;
    cs.column = ColumnRef(op.alias, col.name);
    cs.numeric = col.type != ColumnType::kString;
    const ColumnStatsData* cd = ts->Find(col.name);
    if (cd != nullptr) {
      cs.distinct = std::max(1.0, cd->distinct);
      cs.min_value = cd->min_value;
      cs.max_value = cd->max_value;
      cs.width_bytes =
          std::max(1, static_cast<int>(std::lround(cd->avg_width_bytes)));
      cs.histogram = cd->histogram;
      cs.sketch = cd->sketch;
    } else {
      // Column absent from the data (never generated): catalog fallback.
      cs.distinct = col.distinct_values;
      cs.min_value = col.min_value;
      cs.max_value = col.max_value;
      cs.width_bytes = col.width_bytes;
    }
    out->row_width_bytes += cs.width_bytes;
    out->columns.push_back(std::move(cs));
  }
  return true;
}

RelStats StatsEstimator::ComputeForOp(const MemoOp& op) {
  RelStats out;
  switch (op.kind) {
    case LogicalOp::kScan: {
      auto table_res = memo_->catalog()->GetTable(op.table);
      assert(table_res.ok());
      const Table* t = table_res.ValueOrDie();
      if (options_.mode == StatsMode::kCollected &&
          ScanFromCollected(op, *t, &out)) {
        break;
      }
      out.rows = t->row_count();
      out.row_width_bytes = t->RowWidthBytes();
      for (const auto& col : t->columns()) {
        ColumnStat cs;
        cs.column = ColumnRef(op.alias, col.name);
        // Catalog distinct counts may exceed the row count to model sparse
        // key domains (join selectivity 1/max(V) then yields selective joins).
        cs.distinct = col.distinct_values;
        cs.min_value = col.min_value;
        cs.max_value = col.max_value;
        cs.numeric = col.type != ColumnType::kString;
        cs.width_bytes = col.width_bytes;
        out.columns.push_back(cs);
      }
      break;
    }
    case LogicalOp::kSelect: {
      const RelStats& in = ClassStats(op.children[0]);
      out = in;
      const double sel = Selectivity(op.predicate, in);
      out.rows = std::max(1.0, in.rows * sel);
      for (auto& cs : out.columns) {
        // Per-column adjustments for predicates on that column.
        for (const auto& cmp : op.predicate.conjuncts()) {
          if (!(cmp.column == cs.column)) continue;
          if (cmp.op == CompareOp::kEq) {
            cs.distinct = 1.0;
            if (cmp.literal.is_number()) {
              cs.min_value = cs.max_value = cmp.literal.number();
            }
            cs.histogram.reset();  // a point has no distribution left
          } else if (cs.numeric && cmp.literal.is_number()) {
            const double v = cmp.literal.number();
            switch (cmp.op) {
              case CompareOp::kLt:
              case CompareOp::kLe:
                cs.max_value = std::min(cs.max_value, v);
                break;
              case CompareOp::kGt:
              case CompareOp::kGe:
                cs.min_value = std::max(cs.min_value, v);
                break;
              default:
                break;
            }
            const double c_sel = Selectivity(cmp, in);
            cs.distinct = std::max(1.0, cs.distinct * c_sel);
            if (cs.histogram != nullptr) {
              // The filtered relation's distribution is the input's clipped
              // to the surviving range; upstream estimates keep compounding
              // on real bucket shapes.
              cs.histogram = cs.histogram->Clip(cs.min_value, cs.max_value);
            }
          }
        }
        cs.distinct = std::min(cs.distinct, out.rows);
      }
      break;
    }
    case LogicalOp::kJoin: {
      const RelStats& l = ClassStats(op.children[0]);
      const RelStats& r = ClassStats(op.children[1]);
      double rows = l.rows * r.rows;
      for (const auto& cond : op.join_predicate.conditions()) {
        const ColumnStat* a = l.Find(cond.left);
        if (a == nullptr) a = r.Find(cond.left);
        const ColumnStat* b = r.Find(cond.right);
        if (b == nullptr) b = l.Find(cond.right);
        // Unknown key columns: assume them unique in their input — derive
        // the fallback distinct count from the input cardinality instead of
        // a magic constant.
        const double da = a != nullptr ? a->distinct : std::max(1.0, l.rows);
        const double db = b != nullptr ? b->distinct : std::max(1.0, r.rows);
        if (a != nullptr && b != nullptr && a->histogram != nullptr &&
            b->histogram != nullptr) {
          // Histogram overlap: only key values inside the common range can
          // match; each side contributes its row fraction within the
          // overlap, and the matching density is one over the larger
          // distinct count observed there.
          const double lo =
              std::max(a->histogram->min_value(), b->histogram->min_value());
          const double hi =
              std::min(a->histogram->max_value(), b->histogram->max_value());
          if (hi < lo) {
            rows = 0.0;  // disjoint key ranges: the join is empty
          } else {
            const double fa = a->histogram->FractionBetween(lo, hi);
            const double fb = b->histogram->FractionBetween(lo, hi);
            const double dov = std::max(
                1.0, std::max(a->histogram->DistinctBetween(lo, hi),
                              b->histogram->DistinctBetween(lo, hi)));
            rows *= Clamp01(fa) * Clamp01(fb) / dov;
          }
        } else {
          rows /= std::max(1.0, std::max(da, db));
        }
      }
      out.rows = std::max(1.0, rows);
      out.row_width_bytes = l.row_width_bytes + r.row_width_bytes;
      out.columns = l.columns;
      out.columns.insert(out.columns.end(), r.columns.begin(), r.columns.end());
      // Collected mode: join keys of the output live in the overlap range.
      for (const auto& cond : op.join_predicate.conditions()) {
        ColumnStat* oa = FindMutable(&out.columns, cond.left);
        ColumnStat* ob = FindMutable(&out.columns, cond.right);
        if (oa == nullptr || ob == nullptr) continue;
        if (oa->histogram == nullptr || ob->histogram == nullptr) continue;
        const double lo =
            std::max(oa->histogram->min_value(), ob->histogram->min_value());
        const double hi =
            std::min(oa->histogram->max_value(), ob->histogram->max_value());
        for (ColumnStat* cs : {oa, ob}) {
          cs->min_value = std::max(cs->min_value, lo);
          cs->max_value = std::min(cs->max_value, hi);
          cs->histogram = cs->histogram->Clip(lo, hi);
          if (cs->histogram != nullptr) {
            cs->distinct = std::min(cs->distinct, cs->histogram->TotalDistinct());
          }
        }
      }
      for (auto& cs : out.columns) cs.distinct = std::min(cs.distinct, out.rows);
      break;
    }
    case LogicalOp::kProject: {
      const RelStats& in = ClassStats(op.children[0]);
      out.rows = in.rows;
      for (const auto& col : op.project_columns) {
        const ColumnStat* cs = in.Find(col);
        if (cs != nullptr) {
          out.columns.push_back(*cs);
          out.row_width_bytes += cs->width_bytes;
        } else {
          ColumnStat fallback;
          fallback.column = col;
          fallback.distinct = in.rows;
          fallback.width_bytes = 8;
          out.columns.push_back(fallback);
          out.row_width_bytes += 8;
        }
      }
      out.row_width_bytes = std::max(out.row_width_bytes, 4.0);
      break;
    }
    case LogicalOp::kAggregate: {
      const RelStats& in = ClassStats(op.children[0]);
      double groups = 1.0;
      for (const auto& g : op.group_by) {
        const ColumnStat* cs = in.Find(g);
        groups *= cs != nullptr ? std::max(1.0, cs->distinct) : 10.0;
      }
      out.rows = op.group_by.empty() ? 1.0 : std::max(1.0, std::min(groups, in.rows));
      for (const auto& g : op.group_by) {
        const ColumnStat* cs = in.Find(g);
        ColumnStat gs;
        if (cs != nullptr) {
          gs = *cs;
        } else {
          gs.column = g;
          gs.distinct = out.rows;
          gs.width_bytes = 8;
        }
        gs.distinct = std::min(gs.distinct, out.rows);
        out.columns.push_back(gs);
        out.row_width_bytes += gs.width_bytes;
      }
      for (size_t i = 0; i < op.aggregates.size(); ++i) {
        ColumnStat as;
        if (i < op.output_renames.size() && !op.output_renames[i].empty()) {
          as.column = ColumnRef("", op.output_renames[i]);
        } else {
          as.column = op.aggregates[i].OutputColumn();
        }
        as.distinct = out.rows;
        as.numeric = true;
        as.width_bytes = 8;
        // Aggregate value ranges: propagate the argument's range for MIN/MAX;
        // leave 0 bounds otherwise (rarely used above aggregates).
        const ColumnStat* arg = ClassStats(op.children[0]).Find(op.aggregates[i].arg);
        if (arg != nullptr &&
            (op.aggregates[i].func == AggFunc::kMin ||
             op.aggregates[i].func == AggFunc::kMax)) {
          as.min_value = arg->min_value;
          as.max_value = arg->max_value;
        }
        out.columns.push_back(as);
        out.row_width_bytes += 8;
      }
      out.row_width_bytes = std::max(out.row_width_bytes, 4.0);
      break;
    }
    case LogicalOp::kBatch: {
      out.rows = 0.0;
      out.row_width_bytes = 0.0;
      break;
    }
  }
  return out;
}

}  // namespace mqo
