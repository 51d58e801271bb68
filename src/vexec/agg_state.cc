#include "vexec/agg_state.h"

#include <algorithm>
#include <numeric>

#include "common/hash.h"
#include "vexec/join_table.h"

namespace mqo {

namespace {

constexpr uint64_t kGroupHashSeed = 0x2545f4914f6cdd1dull;

/// ValueLess of a cell against a materialized Value (numbers before
/// strings).
bool CellValueLess(const ColumnVector& col, size_t i, const Value& v) {
  const bool cell_num = col.is_numeric();
  if (cell_num != v.is_number()) return cell_num;
  if (cell_num) return col.Number(i) < v.number();
  return col.StringAt(i) < v.str();
}

bool ValueLessCell(const Value& v, const ColumnVector& col, size_t i) {
  const bool v_num = v.is_number();
  if (v_num != col.is_numeric()) return v_num;
  if (v_num) return v.number() < col.Number(i);
  return v.str() < col.StringAt(i);
}

bool CellEqualsValue(const ColumnVector& col, size_t i, const Value& v) {
  if (col.is_numeric() != v.is_number()) return false;
  if (v.is_number()) return col.Number(i) == v.number();
  return col.StringAt(i) == v.str();
}

bool ValuesEqual(const Value& a, const Value& b) {
  return !ValueLess(a, b) && !ValueLess(b, a);
}

}  // namespace

template <typename Same>
size_t AggAccumulator::FindSlot(uint64_t hash, Same same) {
  const size_t groups = group_hash_.size();
  if (2 * (groups + 1) > slots_.size()) {
    slots_.assign(std::max<size_t>(16, 2 * slots_.size()), 0);
    const size_t mask = slots_.size() - 1;
    for (size_t g = 0; g < groups; ++g) {
      size_t s = Fmix64(group_hash_[g]) & mask;
      while (slots_[s] != 0) s = (s + 1) & mask;
      slots_[s] = static_cast<uint32_t>(g + 1);
    }
  }
  const size_t mask = slots_.size() - 1;
  size_t s = Fmix64(hash) & mask;
  for (; slots_[s] != 0; s = (s + 1) & mask) {
    const size_t gid = slots_[s] - 1;
    if (group_hash_[gid] == hash && same(gid)) break;
  }
  return s;
}

size_t AggAccumulator::AddGroup(size_t slot, uint64_t hash, uint64_t pos) {
  const size_t gid = group_hash_.size();
  slots_[slot] = static_cast<uint32_t>(gid + 1);
  group_hash_.push_back(hash);
  first_seen_.push_back(pos);
  return gid;
}

size_t AggAccumulator::GroupOf(const ColumnBatch& batch,
                               const std::vector<int>& group_idx, uint32_t row,
                               uint64_t hash, uint64_t pos, size_t num_aggs) {
  const size_t slot = FindSlot(hash, [&](size_t gid) {
    const Value* keys = keys_.data() + gid * width_;
    for (size_t c = 0; c < width_; ++c) {
      if (!CellEqualsValue(batch.columns[group_idx[c]], row, keys[c])) {
        return false;
      }
    }
    return true;
  });
  if (slots_[slot] != 0) return slots_[slot] - 1;
  const size_t gid = AddGroup(slot, hash, pos);
  for (int c : group_idx) keys_.push_back(batch.columns[c].GetValue(row));
  cells_.resize(cells_.size() + num_aggs);
  return gid;
}

void AggAccumulator::Consume(const ColumnBatch& batch,
                             const std::vector<int>& group_idx,
                             const std::vector<int>& arg_idx,
                             const std::vector<AggExpr>& aggs,
                             uint64_t order_base) {
  const size_t num_aggs = aggs.size();
  const uint32_t n = static_cast<uint32_t>(batch.num_rows);
  width_ = group_idx.size();
  // Phase 1: every row's group id. Dictionary fast path: a single
  // dictionary-encoded group column maps each row to its group through a
  // code-indexed table — no per-row hashing or key comparison once a code
  // has been seen. Otherwise the key hashes come column at a time.
  std::vector<uint32_t> gids(n);
  const ColumnVector* gcol =
      group_idx.size() == 1 ? &batch.columns[group_idx[0]] : nullptr;
  if (gcol != nullptr && gcol->dict_encoded()) {
    if (fast_dict_ != gcol->dict()) {
      fast_dict_ = gcol->dict();
      code_to_gid_.assign(fast_dict_->entries.size(), -1);
    }
    const int32_t* codes = gcol->codes().data();
    dict_hit_rows_ += n;
    for (uint32_t r = 0; r < n; ++r) {
      int32_t& cached = code_to_gid_[codes[r]];
      if (cached < 0) {
        const uint64_t h =
            HashCombine(kGroupHashSeed, fast_dict_->hashes[codes[r]]);
        cached = static_cast<int32_t>(
            GroupOf(batch, group_idx, r, h, order_base + r, num_aggs));
      }
      gids[r] = static_cast<uint32_t>(cached);
    }
  } else {
    std::vector<uint64_t> hashes(n);
    HashKeyRange(batch, group_idx, 0, n, kGroupHashSeed, hashes.data());
    for (uint32_t r = 0; r < n; ++r) {
      gids[r] = static_cast<uint32_t>(GroupOf(batch, group_idx, r, hashes[r],
                                              order_base + r, num_aggs));
    }
  }
  for (uint32_t r = 0; r < n; ++r) {
    uint64_t& first = first_seen_[gids[r]];
    first = std::min(first, order_base + r);
  }
  // Phase 2: fold one aggregate at a time, rows in order. `update` sees the
  // cell before this row marks it non-empty.
  for (size_t a = 0; a < num_aggs; ++a) {
    Cell* cells = cells_.data() + a;
    const int c = arg_idx[a];
    if (c < 0) {  // COUNT(*): rows only
      for (uint32_t r = 0; r < n; ++r) cells[gids[r] * num_aggs].count += 1.0;
      continue;
    }
    auto fold = [&](auto&& update) {
      for (uint32_t r = 0; r < n; ++r) {
        Cell& cell = cells[gids[r] * num_aggs];
        cell.count += 1.0;
        update(cell, r);
        cell.any = true;
      }
    };
    const ColumnVector& col = batch.columns[c];
    switch (aggs[a].func) {
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (col.type() == VecType::kDouble) {
          const double* v = col.doubles().data();
          fold([&](Cell& cell, uint32_t r) { cell.sum += v[r]; });
        } else if (col.type() == VecType::kInt64 && !col.for_encoded()) {
          const int64_t* v = col.ints().data();
          fold([&](Cell& cell, uint32_t r) {
            cell.sum += static_cast<double>(v[r]);
          });
        } else if (col.is_numeric()) {
          fold([&](Cell& cell, uint32_t r) { cell.sum += col.Number(r); });
        } else {
          fold([](Cell&, uint32_t) {});
        }
        break;
      case AggFunc::kCount:
        fold([](Cell&, uint32_t) {});
        break;
      case AggFunc::kMin:
        // Strictly-less replaces, so equal values keep the earliest
        // position — the serial fold's tie-break.
        fold([&](Cell& cell, uint32_t r) {
          if (!cell.any || CellValueLess(col, r, cell.min_value)) {
            cell.min_value = col.GetValue(r);
            cell.min_pos = order_base + r;
          }
        });
        break;
      case AggFunc::kMax:
        fold([&](Cell& cell, uint32_t r) {
          if (!cell.any || ValueLessCell(cell.max_value, col, r)) {
            cell.max_value = col.GetValue(r);
            cell.max_pos = order_base + r;
          }
        });
        break;
    }
  }
}

void AggAccumulator::MergeFrom(const AggAccumulator& other,
                               const std::vector<AggExpr>& aggs) {
  const size_t num_aggs = aggs.size();
  if (!other.group_hash_.empty()) width_ = other.width_;
  for (size_t og = 0; og < other.group_hash_.size(); ++og) {
    // Locate (or adopt) the group in this accumulator.
    const Value* their_keys = other.keys_.data() + og * width_;
    const size_t slot = FindSlot(other.group_hash_[og], [&](size_t gid) {
      const Value* mine = keys_.data() + gid * width_;
      for (size_t c = 0; c < width_; ++c) {
        if (!ValuesEqual(mine[c], their_keys[c])) return false;
      }
      return true;
    });
    if (slots_[slot] == 0) {
      AddGroup(slot, other.group_hash_[og], other.first_seen_[og]);
      keys_.insert(keys_.end(), their_keys, their_keys + width_);
      cells_.insert(cells_.end(), other.cells_.begin() + og * num_aggs,
                    other.cells_.begin() + (og + 1) * num_aggs);
      continue;
    }
    const size_t gid = slots_[slot] - 1;
    if (other.first_seen_[og] < first_seen_[gid]) {
      // The earliest occurrence names the group (equal keys can differ in
      // the sign of zero), as in the serial fold.
      first_seen_[gid] = other.first_seen_[og];
      std::copy(their_keys, their_keys + width_,
                keys_.begin() + gid * width_);
    }
    for (size_t a = 0; a < num_aggs; ++a) {
      Cell& mine = cells_[gid * num_aggs + a];
      const Cell& theirs = other.cells_[og * num_aggs + a];
      mine.count += theirs.count;
      mine.sum += theirs.sum;
      if (!theirs.any) continue;
      if (!mine.any) {
        mine.min_value = theirs.min_value;
        mine.min_pos = theirs.min_pos;
        mine.max_value = theirs.max_value;
        mine.max_pos = theirs.max_pos;
        mine.any = true;
        continue;
      }
      // Equal values resolve to the earliest pipeline position, so the
      // merged extreme is independent of the worker partition.
      if (ValueLess(theirs.min_value, mine.min_value) ||
          (!ValueLess(mine.min_value, theirs.min_value) &&
           theirs.min_pos < mine.min_pos)) {
        mine.min_value = theirs.min_value;
        mine.min_pos = theirs.min_pos;
      }
      if (ValueLess(mine.max_value, theirs.max_value) ||
          (!ValueLess(theirs.max_value, mine.max_value) &&
           theirs.max_pos < mine.max_pos)) {
        mine.max_value = theirs.max_value;
        mine.max_pos = theirs.max_pos;
      }
    }
  }
}

Result<ColumnBatch> AggAccumulator::Finish(
    const std::vector<ColumnRef>& group_by, const std::vector<AggExpr>& aggs,
    const std::vector<std::string>& renames) const {
  const size_t num_aggs = aggs.size();
  ColumnBatch out;
  out.names = group_by;
  for (size_t a = 0; a < num_aggs; ++a) {
    if (a < renames.size() && !renames[a].empty()) {
      out.names.emplace_back("", renames[a]);
    } else {
      out.names.push_back(aggs[a].OutputColumn());
    }
  }
  const size_t num_groups = group_hash_.size();
  if (num_groups == 0 && group_by.empty()) {
    // Scalar aggregate over empty input: one row of fold identities.
    for (size_t a = 0; a < num_aggs; ++a) {
      ColumnBuilder builder;
      MQO_RETURN_NOT_OK(builder.Append(Value(0.0)));
      MQO_ASSIGN_OR_RETURN(ColumnVector col, std::move(builder).Finish());
      out.columns.push_back(std::move(col));
    }
    out.num_rows = 1;
    return out;
  }
  // Emit groups by first occurrence in pipeline order: deterministic for
  // every thread count, and equal to the serial first-appearance order.
  std::vector<size_t> order(num_groups);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return first_seen_[a] < first_seen_[b];
  });
  for (size_t c = 0; c < group_by.size(); ++c) {
    ColumnBuilder builder;
    for (size_t g : order) {
      MQO_RETURN_NOT_OK(builder.Append(keys_[g * width_ + c]));
    }
    MQO_ASSIGN_OR_RETURN(ColumnVector col, std::move(builder).Finish());
    out.columns.push_back(std::move(col));
  }
  for (size_t a = 0; a < num_aggs; ++a) {
    ColumnBuilder builder;
    for (size_t g : order) {
      const Cell& cell = cells_[g * num_aggs + a];
      Value v(0.0);
      switch (aggs[a].func) {
        case AggFunc::kSum:
          v = Value(cell.sum);
          break;
        case AggFunc::kCount:
          v = Value(cell.count);
          break;
        case AggFunc::kAvg:
          v = Value(cell.count > 0 ? cell.sum / cell.count : 0.0);
          break;
        case AggFunc::kMin:
          v = cell.any ? cell.min_value : Value(0.0);
          break;
        case AggFunc::kMax:
          v = cell.any ? cell.max_value : Value(0.0);
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
