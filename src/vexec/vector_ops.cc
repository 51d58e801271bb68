#include "vexec/vector_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "storage/table_reader.h"

namespace mqo {

namespace {

/// The inclusive int64 interval satisfying `x op lit`, or empty. Only
/// meaningful for |lit| < 9.0e18 (every such literal converts to int64
/// exactly enough that floor/ceil arithmetic stays in range); the caller
/// falls back to the double loop outside that. All arithmetic happens in
/// int64 space — above 2^53 a `lit - 1.0` in double rounds to the wrong
/// neighbor.
struct IntPassRange {
  int64_t lo;
  int64_t hi;
  bool empty;
};

IntPassRange IntPassRangeFor(CompareOp op, double lit) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const bool integral = std::floor(lit) == lit;
  IntPassRange r{kMin, kMax, false};
  switch (op) {
    case CompareOp::kEq:
      if (!integral) {
        r.empty = true;
      } else {
        r.lo = r.hi = static_cast<int64_t>(lit);
      }
      break;
    case CompareOp::kLt:
      r.hi = integral ? static_cast<int64_t>(lit) - 1
                      : static_cast<int64_t>(std::floor(lit));
      break;
    case CompareOp::kLe:
      r.hi = static_cast<int64_t>(std::floor(lit));
      break;
    case CompareOp::kGt:
      r.lo = integral ? static_cast<int64_t>(lit) + 1
                      : static_cast<int64_t>(std::ceil(lit));
      break;
    case CompareOp::kGe:
      r.lo = static_cast<int64_t>(std::ceil(lit));
      break;
  }
  return r;
}

/// Appends to `out` the candidate rows of `col` passing `cmp`. `in_sel ==
/// nullptr` means every row of [begin, end) is a candidate (a morsel; the
/// serial path passes the whole batch). Typed loops are hoisted per (column
/// type, literal type, op); a numeric/string type mismatch passes no rows,
/// exactly like CompareValues.
void CompareColumn(const ColumnVector& col, const Comparison& cmp,
                   const SelVector* in_sel, uint32_t begin, uint32_t end,
                   SelVector* out, int64_t* compressed_cmp_rows) {
  // Branch-free compaction: the candidate index is stored unconditionally
  // and the write cursor advances by the predicate's 0/1, so the loop body
  // is a flat load-compare-store sequence over contiguous arrays with no
  // data-dependent branch for the auto-vectorizer to trip on.
  auto scan = [&](auto&& pass) {
    const size_t base = out->size();
    if (in_sel != nullptr) {
      const uint32_t* src = in_sel->data();
      const size_t n = in_sel->size();
      out->resize(base + n);
      uint32_t* dst = out->data() + base;
      size_t k = 0;
      for (size_t j = 0; j < n; ++j) {
        const uint32_t i = src[j];
        dst[k] = i;
        k += pass(i) ? 1 : 0;
      }
      out->resize(base + k);
    } else {
      out->resize(base + (end - begin));
      uint32_t* dst = out->data() + base;
      size_t k = 0;
      for (uint32_t i = begin; i < end; ++i) {
        dst[k] = i;
        k += pass(i) ? 1 : 0;
      }
      out->resize(base + k);
    }
  };
  if (col.is_numeric() != cmp.literal.is_number()) return;  // nothing passes
  if (!col.is_numeric()) {
    const std::string& lit = cmp.literal.str();
    if (col.dict_encoded()) {
      // Sorted dictionary: the literal resolves to one code bound, and every
      // per-row test is an int32 compare against that bound.
      const auto& entries = col.dict()->entries;
      const int32_t* codes = col.codes().data();
      const int32_t lb = static_cast<int32_t>(
          std::lower_bound(entries.begin(), entries.end(), lit) -
          entries.begin());
      const bool present =
          lb < static_cast<int32_t>(entries.size()) && entries[lb] == lit;
      // Upper bound: first code strictly greater than the literal.
      const int32_t ub = present ? lb + 1 : lb;
      switch (cmp.op) {
        case CompareOp::kEq:
          if (!present) return;
          scan([&](uint32_t i) { return codes[i] == lb; });
          return;
        case CompareOp::kLt:
          scan([&](uint32_t i) { return codes[i] < lb; });
          return;
        case CompareOp::kLe:
          scan([&](uint32_t i) { return codes[i] < ub; });
          return;
        case CompareOp::kGt:
          scan([&](uint32_t i) { return codes[i] >= ub; });
          return;
        case CompareOp::kGe:
          scan([&](uint32_t i) { return codes[i] >= lb; });
          return;
      }
      return;
    }
    const auto& strs = col.strings();
    switch (cmp.op) {
      case CompareOp::kEq:
        scan([&](uint32_t i) { return strs[i] == lit; });
        return;
      case CompareOp::kLt:
        scan([&](uint32_t i) { return strs[i] < lit; });
        return;
      case CompareOp::kLe:
        scan([&](uint32_t i) { return strs[i] <= lit; });
        return;
      case CompareOp::kGt:
        scan([&](uint32_t i) { return strs[i] > lit; });
        return;
      case CompareOp::kGe:
        scan([&](uint32_t i) { return strs[i] >= lit; });
        return;
    }
    return;
  }
  const double lit = cmp.literal.number();
  if (col.for_encoded() && std::abs(lit) < 9.0e18) {
    // Compressed-domain path: rewrite `x op lit` as an inclusive int64 pass
    // interval, then translate it per block against the block reference so
    // packed deltas are tested without decoding. Whole blocks resolve from
    // their (reference, max_delta) header alone.
    const ForColumn& fc = *col.for_column();
    const IntPassRange r = IntPassRangeFor(cmp.op, lit);
    if (r.empty) return;
    if (in_sel != nullptr) {
      // Sparse candidates (a later conjunct): per-row decode is cheaper
      // than unpacking blocks mostly filtered away already.
      scan([&](uint32_t i) {
        const int64_t v = fc.ValueAt(i);
        return v >= r.lo && v <= r.hi;
      });
      return;
    }
    uint64_t deltas[kForBlockRows];
    for (size_t b = begin / kForBlockRows; b * kForBlockRows < end; ++b) {
      const uint32_t rb =
          std::max<uint32_t>(begin, static_cast<uint32_t>(b * kForBlockRows));
      const uint32_t re = std::min<uint32_t>(
          end, static_cast<uint32_t>((b + 1) * kForBlockRows));
      const ForBlock& blk = fc.blocks()[b];
      const int64_t block_max = static_cast<int64_t>(
          static_cast<uint64_t>(blk.reference) + blk.max_delta);
      if (r.lo > block_max || r.hi < blk.reference) continue;  // none pass
      const size_t base = out->size();
      if (r.lo <= blk.reference && r.hi >= block_max) {  // all pass
        out->resize(base + (re - rb));
        uint32_t* dst = out->data() + base;
        for (uint32_t i = rb; i < re; ++i) *dst++ = i;
        continue;
      }
      // Mixed block: compare raw deltas against the literal rewritten into
      // the delta domain — one wraparound-safe unsigned range test per row.
      const uint64_t dlo = r.lo <= blk.reference
                               ? 0
                               : static_cast<uint64_t>(r.lo) -
                                     static_cast<uint64_t>(blk.reference);
      const uint64_t dhi = r.hi >= block_max
                               ? blk.max_delta
                               : static_cast<uint64_t>(r.hi) -
                                     static_cast<uint64_t>(blk.reference);
      const uint64_t dspan = dhi - dlo;
      fc.UnpackDeltas(b, deltas);
      const uint32_t block_begin = static_cast<uint32_t>(b * kForBlockRows);
      out->resize(base + (re - rb));
      uint32_t* dst = out->data() + base;
      size_t k = 0;
      for (uint32_t i = rb; i < re; ++i) {
        dst[k] = i;
        k += (deltas[i - block_begin] - dlo) <= dspan ? 1 : 0;
      }
      out->resize(base + k);
      if (compressed_cmp_rows != nullptr) *compressed_cmp_rows += re - rb;
    }
    return;
  }
  if (col.type() == VecType::kInt64 && !col.for_encoded() &&
      std::floor(lit) == lit && std::abs(lit) < 9.0e18) {
    // Integer fast path: int64 column against an integral literal.
    const int64_t ilit = static_cast<int64_t>(lit);
    const auto& ints = col.ints();
    switch (cmp.op) {
      case CompareOp::kEq:
        scan([&](uint32_t i) { return ints[i] == ilit; });
        return;
      case CompareOp::kLt:
        scan([&](uint32_t i) { return ints[i] < ilit; });
        return;
      case CompareOp::kLe:
        scan([&](uint32_t i) { return ints[i] <= ilit; });
        return;
      case CompareOp::kGt:
        scan([&](uint32_t i) { return ints[i] > ilit; });
        return;
      case CompareOp::kGe:
        scan([&](uint32_t i) { return ints[i] >= ilit; });
        return;
    }
    return;
  }
  switch (cmp.op) {
    case CompareOp::kEq:
      scan([&](uint32_t i) { return col.Number(i) == lit; });
      return;
    case CompareOp::kLt:
      scan([&](uint32_t i) { return col.Number(i) < lit; });
      return;
    case CompareOp::kLe:
      scan([&](uint32_t i) { return col.Number(i) <= lit; });
      return;
    case CompareOp::kGt:
      scan([&](uint32_t i) { return col.Number(i) > lit; });
      return;
    case CompareOp::kGe:
      scan([&](uint32_t i) { return col.Number(i) >= lit; });
      return;
  }
}

}  // namespace

void FilterRangeInto(const ColumnBatch& in,
                     const std::vector<Comparison>& conjuncts,
                     const std::vector<int>& col_idx, uint32_t begin,
                     uint32_t end, SelVector* sel,
                     int64_t* compressed_cmp_rows) {
  SelVector next;
  for (size_t c = 0; c < conjuncts.size(); ++c) {
    next.clear();
    CompareColumn(in.columns[col_idx[c]], conjuncts[c], c == 0 ? nullptr : sel,
                  begin, end, &next, compressed_cmp_rows);
    std::swap(*sel, next);
    if (sel->empty()) return;
  }
}

bool ZoneExcludes(double zmin, double zmax, CompareOp op, double lit) {
  switch (op) {
    case CompareOp::kEq:
      return lit < zmin || lit > zmax;
    case CompareOp::kLt:
      return zmin >= lit;
    case CompareOp::kLe:
      return zmin > lit;
    case CompareOp::kGt:
      return zmax <= lit;
    case CompareOp::kGe:
      return zmax < lit;
  }
  return false;
}

Result<ColumnBatch> ScanBatch(const DataSet& data, const std::string& table,
                              const std::string& alias) {
  MQO_ASSIGN_OR_RETURN(const ColumnStore* base, data.GetTable(table));
  return TableReader(base).Columnar(alias);
}

Result<std::shared_ptr<const JoinHashTable>> BaseJoinIndex(
    const DataSet& data, const std::string& table,
    const std::vector<std::string>& key_columns,
    const PipelineOptions& options, MetricsRegistry* metrics) {
  if (auto found = data.FindIndex(table, key_columns)) {
    return std::static_pointer_cast<const JoinHashTable>(found);
  }
  MQO_ASSIGN_OR_RETURN(const ColumnStore* base, data.GetTable(table));
  std::vector<int> keys;
  for (const std::string& name : key_columns) {
    const int c = base->ColumnIndex(name);
    if (c < 0) {
      return Status::NotFound("no column '" + name + "' in table '" + table +
                              "'");
    }
    keys.push_back(c);
  }
  auto built = std::make_shared<const JoinHashTable>(JoinHashTable::Build(
      TableReader(base).Columnar(table), std::move(keys), options, metrics));
  return std::static_pointer_cast<const JoinHashTable>(
      data.InsertIndex(table, key_columns, std::move(built)));
}

}  // namespace mqo
