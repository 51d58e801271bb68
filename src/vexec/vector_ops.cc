#include "vexec/vector_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/hash.h"
#include "storage/table_reader.h"
#include "vexec/join_table.h"

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

/// Assembles the joined batch from matching (left row, right row) pairs,
/// one column per worker when `num_threads > 1`.
ColumnBatch GatherJoin(const ColumnBatch& left, const ColumnBatch& right,
                       std::vector<ColumnRef> out_names,
                       const SelVector& left_idx, const SelVector& right_idx,
                       int num_threads = 1) {
  ColumnBatch out;
  out.names = std::move(out_names);
  const size_t left_cols = left.columns.size();
  out.columns.resize(left_cols + right.columns.size());
  ParallelFor(out.columns.size(), num_threads, [&](size_t c) {
    out.columns[c] = c < left_cols
                         ? left.columns[c].Gather(left_idx)
                         : right.columns[c - left_cols].Gather(right_idx);
  });
  out.num_rows = left_idx.size();
  return out;
}

/// Sort and merge keys, decoded once into one flat row-major array of
/// `width` doubles per row. A numeric cell is widened to double as
/// ColumnVector::Number does; a string cell becomes its rank in a sorted
/// dictionary (exact in a double). Comparing two rows' keys with `<` and
/// `==` therefore gives the same answer as CellLess and CellsEqual on the
/// cells they came from, NaN included.
struct FlatKeys {
  FlatKeys(size_t num_rows, size_t key_width)
      : rows(num_rows), width(key_width), v(num_rows * key_width) {}

  const double* row(size_t r) const { return v.data() + r * width; }

  size_t rows;
  size_t width;
  std::vector<double> v;
};

/// Lexicographic order on two rows of flat keys.
bool FlatLess(const double* a, const double* b, size_t width) {
  for (size_t c = 0; c < width; ++c) {
    if (a[c] < b[c]) return true;
    if (b[c] < a[c]) return false;
  }
  return false;
}

/// Writes numeric column `col`'s cells, widened to double, to key slot
/// `c` of every row. FOR-encoded columns decode block at a time.
void DecodeNumbers(const ColumnVector& col, size_t c, FlatKeys* keys) {
  const size_t w = keys->width;
  const size_t n = keys->rows;
  double* out = keys->v.data() + c;
  if (col.type() == VecType::kDouble) {
    const double* v = col.doubles().data();
    for (size_t r = 0; r < n; ++r) out[r * w] = v[r];
  } else if (col.for_encoded()) {
    const ForColumn& fc = *col.for_column();
    int64_t buf[kForBlockRows];
    for (size_t rb = 0; rb < n; rb += kForBlockRows) {
      const size_t re = std::min(n, rb + kForBlockRows);
      fc.Unpack(rb, re, buf);
      for (size_t r = rb; r < re; ++r) {
        out[r * w] = static_cast<double>(buf[r - rb]);
      }
    }
  } else {
    const int64_t* v = col.ints().data();
    for (size_t r = 0; r < n; ++r) out[r * w] = static_cast<double>(v[r]);
  }
}

/// `col` in dictionary form (a raw string column is encoded in a copy).
ColumnVector DictForm(const ColumnVector& col) {
  ColumnVector encoded = col;
  encoded.DictEncode();
  return encoded;
}

/// Writes the ranks of dictionary-encoded `col`'s cells to key slot `c` of
/// every row: `rank[code]`, or the code itself when `rank` is null.
void WriteRanks(const ColumnVector& col, const std::vector<int32_t>* rank,
                size_t c, FlatKeys* keys) {
  const size_t w = keys->width;
  const size_t n = keys->rows;
  double* out = keys->v.data() + c;
  const int32_t* codes = col.codes().data();
  if (rank == nullptr) {
    for (size_t r = 0; r < n; ++r) out[r * w] = codes[r];
  } else {
    for (size_t r = 0; r < n; ++r) out[r * w] = (*rank)[codes[r]];
  }
}

/// Ranks both sorted-unique dictionaries' entries in their merged order:
/// equal strings get equal ranks (a two-pointer merge).
void MergeRanks(const std::vector<std::string>& a,
                const std::vector<std::string>& b, std::vector<int32_t>* a_rank,
                std::vector<int32_t>* b_rank) {
  a_rank->resize(a.size());
  b_rank->resize(b.size());
  size_t i = 0;
  size_t j = 0;
  int32_t rank = 0;
  while (i < a.size() || j < b.size()) {
    const bool take_a = j == b.size() || (i < a.size() && !(b[j] < a[i]));
    const bool take_b = i == a.size() || (j < b.size() && !(a[i] < b[j]));
    if (take_a) (*a_rank)[i++] = rank;
    if (take_b) (*b_rank)[j++] = rank;
    ++rank;
  }
}

/// Decodes the key columns `cols` of `in` (most significant first) into
/// flat keys, strings ranked in their own dictionary.
FlatKeys SortKeys(const ColumnBatch& in, const std::vector<int>& cols) {
  FlatKeys keys(in.num_rows, cols.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    const ColumnVector& col = in.columns[cols[c]];
    if (col.is_numeric()) {
      DecodeNumbers(col, c, &keys);
    } else {
      WriteRanks(DictForm(col), nullptr, c, &keys);
    }
  }
  return keys;
}

/// Decodes both join sides' key columns into `lkeys` and `rkeys` (sized to
/// the sides), one shared rank space per string key. Returns false when
/// some key pairs a number with a string: such cells never compare equal,
/// so no row pair matches.
bool JoinKeys(const ColumnBatch& left, const std::vector<int>& lcols,
              const ColumnBatch& right, const std::vector<int>& rcols,
              FlatKeys* lkeys, FlatKeys* rkeys) {
  for (size_t c = 0; c < lcols.size(); ++c) {
    if (left.columns[lcols[c]].is_numeric() !=
        right.columns[rcols[c]].is_numeric()) {
      return false;
    }
  }
  for (size_t c = 0; c < lcols.size(); ++c) {
    const ColumnVector& lcol = left.columns[lcols[c]];
    const ColumnVector& rcol = right.columns[rcols[c]];
    if (lcol.is_numeric()) {
      DecodeNumbers(lcol, c, lkeys);
      DecodeNumbers(rcol, c, rkeys);
      continue;
    }
    const ColumnVector lenc = DictForm(lcol);
    const ColumnVector renc = DictForm(rcol);
    if (lenc.dict() == renc.dict()) {
      WriteRanks(lenc, nullptr, c, lkeys);
      WriteRanks(renc, nullptr, c, rkeys);
      continue;
    }
    std::vector<int32_t> lrank;
    std::vector<int32_t> rrank;
    MergeRanks(lenc.dict()->entries, renc.dict()->entries, &lrank, &rrank);
    WriteRanks(lenc, &lrank, c, lkeys);
    WriteRanks(renc, &rrank, c, rkeys);
  }
  return true;
}

/// Row order that stably sorts `keys` (width >= 1). Sorts (first key, row)
/// entries, so the common comparison reads its operands inline; only a tie
/// on the first key consults the row's remaining keys.
SelVector StableOrder(const FlatKeys& keys) {
  struct Entry {
    double first;
    uint32_t row;
  };
  std::vector<Entry> entries(keys.rows);
  for (uint32_t r = 0; r < keys.rows; ++r) entries[r] = {*keys.row(r), r};
  const size_t rest = keys.width - 1;
  std::stable_sort(entries.begin(), entries.end(),
                   [&](const Entry& a, const Entry& b) {
                     if (a.first < b.first) return true;
                     if (b.first < a.first) return false;
                     return FlatLess(keys.row(a.row) + 1, keys.row(b.row) + 1,
                                     rest);
                   });
  SelVector order(keys.rows);
  for (size_t i = 0; i < order.size(); ++i) order[i] = entries[i].row;
  return order;
}

/// The merge join's matching (left row, right row) pairs, left-sorted-major.
void MergePairs(const ColumnBatch& left, const std::vector<int>& lcols,
                const ColumnBatch& right, const std::vector<int>& rcols,
                SelVector* left_idx, SelVector* right_idx) {
  FlatKeys lkeys(left.num_rows, lcols.size());
  FlatKeys rkeys(right.num_rows, rcols.size());
  if (!JoinKeys(left, lcols, right, rcols, &lkeys, &rkeys)) return;
  const SelVector lorder = StableOrder(lkeys);
  const SelVector rorder = StableOrder(rkeys);
  const size_t w = lkeys.width;
  // Keys of the i-th row in sorted order.
  auto lk = [&](size_t i) { return lkeys.row(lorder[i]); };
  auto rk = [&](size_t i) { return rkeys.row(rorder[i]); };
  size_t li = 0;
  size_t ri = 0;
  while (li < lorder.size() && ri < rorder.size()) {
    if (FlatLess(lk(li), rk(ri), w)) {
      ++li;
      continue;
    }
    if (FlatLess(rk(ri), lk(li), w)) {
      ++ri;
      continue;
    }
    // Equal keys: find both runs and emit their cross product.
    size_t le = li + 1;
    while (le < lorder.size() && !FlatLess(lk(li), lk(le), w)) {
      ++le;
    }
    size_t re = ri + 1;
    while (re < rorder.size() && !FlatLess(rk(ri), rk(re), w)) {
      ++re;
    }
    for (size_t a = li; a < le; ++a) {
      for (size_t b = ri; b < re; ++b) {
        // Re-verify with ==: run membership was derived from !< both ways,
        // which NaN keys satisfy against anything, while the row engine's
        // ValueEq matches NaN to nothing.
        if (!std::equal(lk(a), lk(a) + w, rk(b))) continue;
        left_idx->push_back(lorder[a]);
        right_idx->push_back(rorder[b]);
      }
    }
    li = le;
    ri = re;
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

Result<ColumnBatch> FilterBatch(const ColumnBatch& in,
                                const Predicate& predicate, int num_threads,
                                size_t morsel_rows) {
  std::vector<int> idx;
  for (const auto& cmp : predicate.conjuncts()) {
    const int i = in.ColumnIndex(cmp.column);
    if (i < 0) {
      return Status::Internal("predicate column missing: " +
                              cmp.column.ToString());
    }
    idx.push_back(i);
  }
  if (predicate.Empty()) return in;
  const auto& conjuncts = predicate.conjuncts();
  const std::vector<Morsel> morsels = MakeMorsels(
      in.num_rows, ResolveMorselRows(in.num_rows, num_threads, morsel_rows));
  if (num_threads <= 1 || morsels.size() < 2) {
    SelVector sel;
    FilterRangeInto(in, conjuncts, idx, 0, static_cast<uint32_t>(in.num_rows),
                    &sel);
    return in.Gather(sel);
  }
  // Morsel-parallel scan: each worker refines its own selection vector; the
  // per-morsel slots are concatenated in morsel order, so the final selection
  // is ascending and identical to the serial result.
  std::vector<SelVector> parts(morsels.size());
  ParallelOverMorsels(morsels, num_threads,
                      [&](size_t m, const Morsel& morsel) {
                        FilterRangeInto(in, conjuncts, idx, morsel.begin,
                                        morsel.end, &parts[m]);
                      });
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  SelVector sel;
  sel.reserve(total);
  for (const auto& part : parts) sel.insert(sel.end(), part.begin(), part.end());
  return in.Gather(sel);
}

Result<ColumnBatch> HashJoinBatch(const ColumnBatch& left,
                                  const ColumnBatch& right,
                                  const JoinPredicate& predicate,
                                  int num_threads, size_t morsel_rows) {
  MQO_ASSIGN_OR_RETURN(JoinSpec spec,
                       ResolveJoinSpec(left.names, right.names, predicate));
  const PipelineOptions pipeline{num_threads, morsel_rows};
  std::vector<int> probe_keys;
  std::vector<int> build_keys;
  for (const auto& c : spec.conds) {
    probe_keys.push_back(c.left);
    build_keys.push_back(c.right);
  }
  // Parallel build over the right side. An empty condition list degrades
  // to one all-rows bucket, i.e. the cross product.
  const JoinHashTable table =
      JoinHashTable::Build(right, std::move(build_keys), pipeline);
  // Morsel-parallel probe: per-morsel pair slots concatenated in morsel
  // order reproduce the serial left-major match order exactly.
  const std::vector<Morsel> morsels = MakeMorsels(
      left.num_rows,
      ResolveMorselRows(left.num_rows, num_threads, morsel_rows));
  struct Pairs {
    SelVector left_idx;
    SelVector right_idx;
  };
  std::vector<Pairs> parts(morsels.size());
  ParallelOverMorsels(morsels, num_threads, [&](size_t m, const Morsel& morsel) {
    Pairs& pairs = parts[m];
    table.ProbeRange(table.Prepare(left, probe_keys), left, probe_keys,
                     morsel.begin, morsel.end, &pairs.left_idx,
                     &pairs.right_idx);
  });
  size_t total = 0;
  for (const auto& pairs : parts) total += pairs.left_idx.size();
  SelVector left_idx;
  SelVector right_idx;
  left_idx.reserve(total);
  right_idx.reserve(total);
  for (const auto& pairs : parts) {
    left_idx.insert(left_idx.end(), pairs.left_idx.begin(),
                    pairs.left_idx.end());
    right_idx.insert(right_idx.end(), pairs.right_idx.begin(),
                     pairs.right_idx.end());
  }
  return GatherJoin(left, right, std::move(spec.out_names), left_idx,
                    right_idx, num_threads);
}

Result<ColumnBatch> MergeJoinBatch(const ColumnBatch& left,
                                   const ColumnBatch& right,
                                   const JoinPredicate& predicate) {
  MQO_ASSIGN_OR_RETURN(JoinSpec spec,
                       ResolveJoinSpec(left.names, right.names, predicate));
  const std::vector<JoinSpec::Cond>& conds = spec.conds;
  if (conds.empty()) return HashJoinBatch(left, right, predicate);
  std::vector<int> lcols;
  std::vector<int> rcols;
  for (const auto& c : conds) {
    lcols.push_back(c.left);
    rcols.push_back(c.right);
  }
  // The decoded keys die inside MergePairs, before the gather allocates.
  SelVector left_idx;
  SelVector right_idx;
  MergePairs(left, lcols, right, rcols, &left_idx, &right_idx);
  return GatherJoin(left, right, std::move(spec.out_names), left_idx,
                    right_idx);
}

Result<ColumnBatch> SortBatch(const ColumnBatch& in, const SortOrder& order) {
  std::vector<int> cols;
  for (const auto& col : order) {
    const int idx = in.ColumnIndex(col);
    if (idx >= 0) cols.push_back(idx);
  }
  if (cols.empty()) return in;
  return in.Gather(StableOrder(SortKeys(in, cols)));
}

Result<ColumnBatch> AggregateBatch(const ColumnBatch& in,
                                   const std::vector<ColumnRef>& group_by,
                                   const std::vector<AggExpr>& aggs,
                                   const std::vector<std::string>& renames) {
  std::vector<int> group_idx;
  for (const auto& g : group_by) {
    const int i = in.ColumnIndex(g);
    if (i < 0) {
      return Status::Internal("group column missing: " + g.ToString());
    }
    group_idx.push_back(i);
  }
  std::vector<int> arg_idx;
  for (const auto& agg : aggs) {
    if (agg.arg.name.empty()) {
      arg_idx.push_back(-1);  // COUNT(*)
      continue;
    }
    const int i = in.ColumnIndex(agg.arg);
    if (i < 0) {
      return Status::Internal("aggregate argument missing: " +
                              agg.arg.ToString());
    }
    arg_idx.push_back(i);
  }

  // Hash grouping: every row is assigned a dense group id; the first row of
  // each group is its representative for key extraction.
  std::unordered_map<uint64_t, SelVector> buckets;
  std::vector<uint32_t> group_rep;
  std::vector<uint32_t> group_of(in.num_rows, 0);
  for (uint32_t r = 0; r < in.num_rows; ++r) {
    uint64_t h = 0x2545f4914f6cdd1dull;
    for (int c : group_idx) h = HashCombine(h, in.columns[c].HashCell(r));
    SelVector& bucket = buckets[h];
    uint32_t gid = static_cast<uint32_t>(group_rep.size());
    for (uint32_t cand : bucket) {
      bool same = true;
      for (int c : group_idx) {
        if (!ColumnVector::CellsEqual(in.columns[c], r, in.columns[c],
                                      group_rep[cand])) {
          same = false;
          break;
        }
      }
      if (same) {
        gid = cand;
        break;
      }
    }
    if (gid == group_rep.size()) {
      group_rep.push_back(r);
      bucket.push_back(gid);
    }
    group_of[r] = gid;
  }

  // Columnar fold states, matching row_ops' AggState semantics: count counts
  // rows, sum folds numeric arguments, min/max track extreme argument rows.
  const size_t num_groups = group_rep.size();
  const size_t num_aggs = aggs.size();
  std::vector<double> sum(num_groups * num_aggs, 0.0);
  std::vector<double> count(num_groups * num_aggs, 0.0);
  std::vector<uint32_t> min_row(num_groups * num_aggs, 0);
  std::vector<uint32_t> max_row(num_groups * num_aggs, 0);
  std::vector<char> any(num_groups * num_aggs, 0);
  for (size_t a = 0; a < num_aggs; ++a) {
    const int c = arg_idx[a];
    if (c < 0) {
      for (uint32_t r = 0; r < in.num_rows; ++r) {
        count[group_of[r] * num_aggs + a] += 1.0;
      }
      continue;
    }
    const ColumnVector& col = in.columns[c];
    const bool numeric = col.is_numeric();
    for (uint32_t r = 0; r < in.num_rows; ++r) {
      const size_t s = group_of[r] * num_aggs + a;
      count[s] += 1.0;
      if (numeric) sum[s] += col.Number(r);
      if (!any[s] || ColumnVector::CellLess(col, r, col, min_row[s])) {
        min_row[s] = r;
      }
      if (!any[s] || ColumnVector::CellLess(col, max_row[s], col, r)) {
        max_row[s] = r;
      }
      any[s] = 1;
    }
  }

  ColumnBatch out;
  out.names = group_by;
  for (size_t a = 0; a < num_aggs; ++a) {
    if (a < renames.size() && !renames[a].empty()) {
      out.names.emplace_back("", renames[a]);
    } else {
      out.names.push_back(aggs[a].OutputColumn());
    }
  }
  if (num_groups == 0 && group_by.empty()) {
    // Scalar aggregate over empty input: one row of fold identities (all of
    // AggState's Finish values degenerate to 0.0 on an empty fold).
    for (size_t a = 0; a < num_aggs; ++a) {
      ColumnBuilder builder;
      MQO_RETURN_NOT_OK(builder.Append(Value(0.0)));
      MQO_ASSIGN_OR_RETURN(ColumnVector col, std::move(builder).Finish());
      out.columns.push_back(std::move(col));
    }
    out.num_rows = 1;
    return out;
  }
  SelVector reps(group_rep.begin(), group_rep.end());
  for (int c : group_idx) out.columns.push_back(in.columns[c].Gather(reps));
  for (size_t a = 0; a < num_aggs; ++a) {
    ColumnBuilder builder;
    for (size_t g = 0; g < num_groups; ++g) {
      const size_t s = g * num_aggs + a;
      Value v(0.0);
      switch (aggs[a].func) {
        case AggFunc::kSum:
          v = Value(sum[s]);
          break;
        case AggFunc::kCount:
          v = Value(count[s]);
          break;
        case AggFunc::kAvg:
          v = Value(count[s] > 0 ? sum[s] / count[s] : 0.0);
          break;
        case AggFunc::kMin:
          v = any[s] ? in.columns[arg_idx[a]].GetValue(min_row[s]) : Value(0.0);
          break;
        case AggFunc::kMax:
          v = any[s] ? in.columns[arg_idx[a]].GetValue(max_row[s]) : Value(0.0);
          break;
      }
      MQO_RETURN_NOT_OK(builder.Append(v));
    }
    MQO_ASSIGN_OR_RETURN(ColumnVector col, std::move(builder).Finish());
    out.columns.push_back(std::move(col));
  }
  out.num_rows = num_groups;
  return out;
}

}  // namespace mqo
