#include "storage/column.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "common/hash.h"

namespace mqo {

std::shared_ptr<const ColumnDict> ColumnDict::FromSortedUnique(
    std::vector<std::string> sorted_unique) {
  auto dict = std::make_shared<ColumnDict>();
  dict->entries = std::move(sorted_unique);
  dict->hashes.resize(dict->entries.size());
  for (size_t c = 0; c < dict->entries.size(); ++c) {
    dict->hashes[c] = HashString(dict->entries[c]);
    dict->bytes += sizeof(std::string) + dict->entries[c].size();
  }
  dict->bytes += dict->hashes.size() * sizeof(uint64_t);
  return dict;
}

int32_t ColumnDict::Lookup(const std::string& s) const {
  auto it = std::lower_bound(entries.begin(), entries.end(), s);
  if (it == entries.end() || *it != s) return -1;
  return static_cast<int32_t>(it - entries.begin());
}

size_t ColumnVector::size() const {
  switch (type_) {
    case VecType::kInt64:
      return data_->fr ? data_->fr->size() : data_->ints.size();
    case VecType::kDouble:
      return data_->doubles.size();
    case VecType::kString:
      return data_->dict ? data_->codes.size() : data_->strs.size();
  }
  return 0;
}

Value ColumnVector::GetValue(size_t i) const {
  if (type_ == VecType::kString) return Value(StringAt(i));
  return Value(Number(i));
}

bool ColumnVector::DictEncode() {
  if (type_ != VecType::kString) return false;
  if (data_->dict != nullptr) return true;
  const std::vector<std::string>& strs = data_->strs;
  std::vector<std::string> sorted = strs;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  auto dict = ColumnDict::FromSortedUnique(std::move(sorted));
  // Map each row through a hash index over the dictionary: O(n) overall
  // instead of a per-row binary search.
  std::unordered_map<std::string_view, int32_t> index;
  index.reserve(dict->entries.size() * 2);
  for (size_t c = 0; c < dict->entries.size(); ++c) {
    index.emplace(dict->entries[c], static_cast<int32_t>(c));
  }
  std::vector<int32_t> codes(strs.size());
  for (size_t i = 0; i < strs.size(); ++i) {
    codes[i] = index.find(strs[i])->second;
  }
  Payload* p = Mutable();
  p->codes = std::move(codes);
  p->dict = std::move(dict);
  p->strs.clear();
  p->strs.shrink_to_fit();
  return true;
}

void ColumnVector::DecodeInPlace() {
  if (for_encoded()) {
    // Read through the handle before Mutable() possibly detaches it.
    const std::shared_ptr<const ForColumn> fr = data_->fr;
    Payload* p = Mutable();
    p->ints.resize(fr->size());
    fr->Unpack(0, fr->size(), p->ints.data());
    p->fr.reset();
    return;
  }
  if (!dict_encoded()) return;
  const std::shared_ptr<const ColumnDict> dict = data_->dict;
  const std::vector<int32_t> codes = data_->codes;
  Payload* p = Mutable();
  p->strs.resize(codes.size());
  for (size_t i = 0; i < codes.size(); ++i) {
    p->strs[i] = dict->entries[codes[i]];
  }
  p->codes.clear();
  p->codes.shrink_to_fit();
  p->dict.reset();
}

bool ColumnVector::ForEncode() {
  if (type_ != VecType::kInt64) return false;
  if (data_->fr != nullptr) return true;
  if (data_->ints.empty()) return false;
  std::shared_ptr<const ForColumn> fr = ForColumn::Encode(data_->ints);
  // Decision rule: adopt the encoding only when its physical bytes beat the
  // plain vector. Full-range random data fails this and stays plain.
  if (fr == nullptr || fr->ByteSize() >= data_->ints.size() * sizeof(int64_t)) {
    return false;
  }
  Payload* p = Mutable();
  p->fr = std::move(fr);
  p->ints.clear();
  p->ints.shrink_to_fit();
  return true;
}

void ColumnVector::BuildZoneMap() {
  if (!is_numeric() || size() == 0) return;
  std::shared_ptr<const ZoneMap> zones;
  if (type_ == VecType::kInt64) {
    zones = data_->fr ? ZoneMap::FromFor(*data_->fr)
                      : ZoneMap::FromInts(data_->ints.data(),
                                          data_->ints.size());
  } else {
    zones = ZoneMap::FromDoubles(data_->doubles.data(), data_->doubles.size());
  }
  Mutable()->zones = std::move(zones);
}

ColumnVector ColumnVector::FromFor(std::shared_ptr<const ForColumn> fr) {
  ColumnVector out(VecType::kInt64);
  out.Mutable()->fr = std::move(fr);
  return out;
}

ColumnVector ColumnVector::FromDict(std::shared_ptr<const ColumnDict> dict,
                                    std::vector<int32_t> codes) {
  ColumnVector out(VecType::kString);
  Payload* p = out.Mutable();
  p->dict = std::move(dict);
  p->codes = std::move(codes);
  return out;
}

ColumnVector ColumnVector::Gather(const SelVector& sel) const {
  ColumnVector out(type_);
  const size_t n = sel.size();
  const uint32_t* s = sel.data();
  switch (type_) {
    case VecType::kInt64: {
      auto& ints = out.Mutable()->ints;
      ints.resize(n);
      int64_t* dst = ints.data();
      if (data_->fr) {
        // One ValueAt per selected row. Join and chunk gathers are dense
        // and repeat rows, so this loop is hot, not sparse. The output is
        // a fresh plain vector.
        const ForColumn& fr = *data_->fr;
        for (size_t k = 0; k < n; ++k) dst[k] = fr.ValueAt(s[k]);
      } else {
        const int64_t* src = data_->ints.data();
        for (size_t k = 0; k < n; ++k) dst[k] = src[s[k]];
      }
      break;
    }
    case VecType::kDouble: {
      auto& doubles = out.Mutable()->doubles;
      doubles.resize(n);
      const double* src = data_->doubles.data();
      double* dst = doubles.data();
      for (size_t k = 0; k < n; ++k) dst[k] = src[s[k]];
      break;
    }
    case VecType::kString: {
      if (data_->dict) {
        Payload* p = out.Mutable();
        p->dict = data_->dict;
        p->codes.resize(n);
        const int32_t* src = data_->codes.data();
        int32_t* dst = p->codes.data();
        for (size_t k = 0; k < n; ++k) dst[k] = src[s[k]];
      } else {
        auto& strs = out.Mutable()->strs;
        strs.reserve(n);
        for (size_t k = 0; k < n; ++k) strs.push_back(data_->strs[s[k]]);
      }
      break;
    }
  }
  return out;
}

void ColumnVector::AppendFrom(const ColumnVector& other, size_t i) {
  // Read through other's payload handle before Mutable() possibly detaches
  // ours, so self-appends stay correct.
  const std::shared_ptr<Payload> src = other.data_;
  switch (type_) {
    case VecType::kInt64: {
      if (for_encoded()) DecodeInPlace();
      Payload* p = Mutable();
      p->zones.reset();
      p->ints.push_back(src->fr ? src->fr->ValueAt(i) : src->ints[i]);
      break;
    }
    case VecType::kDouble: {
      Payload* p = Mutable();
      p->zones.reset();
      p->doubles.push_back(src->doubles[i]);
      break;
    }
    case VecType::kString: {
      if (data_->dict && src->dict == data_->dict) {
        Mutable()->codes.push_back(src->codes[i]);
        break;
      }
      if (dict_encoded()) DecodeInPlace();
      Mutable()->strs.push_back(src->dict ? src->dict->entries[src->codes[i]]
                                          : src->strs[i]);
      break;
    }
  }
}

void ColumnVector::AppendAll(const ColumnVector& other) {
  // Read through other's payload handle before Mutable() possibly detaches
  // ours, so self-appends stay correct.
  const std::shared_ptr<Payload> src = other.data_;
  switch (type_) {
    case VecType::kInt64: {
      if (src->fr) {
        if (size() == 0) {
          // Adopt the source encoding (and its zone map, which still
          // describes exactly these rows): concatenating one encoded chunk
          // into an empty sink moves only shared handles.
          Payload* p = Mutable();
          p->ints.clear();
          p->fr = src->fr;
          p->zones = src->zones;
          break;
        }
        if (for_encoded()) DecodeInPlace();
        Payload* p = Mutable();
        p->zones.reset();
        const size_t old = p->ints.size();
        p->ints.resize(old + src->fr->size());
        src->fr->Unpack(0, src->fr->size(), p->ints.data() + old);
        break;
      }
      if (for_encoded()) DecodeInPlace();
      Payload* p = Mutable();
      p->zones.reset();
      p->ints.insert(p->ints.end(), src->ints.begin(), src->ints.end());
      break;
    }
    case VecType::kDouble: {
      Payload* p = Mutable();
      p->zones.reset();
      p->doubles.insert(p->doubles.end(), src->doubles.begin(),
                        src->doubles.end());
      break;
    }
    case VecType::kString: {
      if (src->dict) {
        if (size() == 0) {
          // Adopt the source dictionary: concatenating same-dictionary
          // chunks (the common pipeline-sink case) then moves only codes.
          Payload* p = Mutable();
          p->strs.clear();
          p->dict = src->dict;
          p->codes = src->codes;
          break;
        }
        if (data_->dict == src->dict) {
          auto& codes = Mutable()->codes;
          codes.insert(codes.end(), src->codes.begin(), src->codes.end());
          break;
        }
      }
      // Mismatched physical forms: fall back to raw strings.
      if (dict_encoded()) DecodeInPlace();
      auto& strs = Mutable()->strs;
      if (src->dict) {
        strs.reserve(strs.size() + src->codes.size());
        for (int32_t c : src->codes) strs.push_back(src->dict->entries[c]);
      } else {
        strs.insert(strs.end(), src->strs.begin(), src->strs.end());
      }
      break;
    }
  }
}

size_t ColumnVector::ByteSize() const {
  const size_t zone_bytes = data_->zones ? data_->zones->ByteSize() : 0;
  switch (type_) {
    case VecType::kInt64:
      return zone_bytes + (data_->fr ? data_->fr->ByteSize()
                                     : data_->ints.size() * sizeof(int64_t));
    case VecType::kDouble:
      return zone_bytes + data_->doubles.size() * sizeof(double);
    case VecType::kString: {
      size_t bytes = 0;
      if (data_->dict) {
        return data_->codes.size() * sizeof(int32_t) + data_->dict->bytes;
      }
      for (const auto& s : data_->strs) bytes += sizeof(std::string) + s.size();
      return bytes;
    }
  }
  return 0;
}

void ColumnVector::Reserve(size_t n) {
  switch (type_) {
    case VecType::kInt64:
      Mutable()->ints.reserve(n);
      break;
    case VecType::kDouble:
      Mutable()->doubles.reserve(n);
      break;
    case VecType::kString:
      if (data_->dict) {
        Mutable()->codes.reserve(n);
      } else {
        Mutable()->strs.reserve(n);
      }
      break;
  }
}

uint64_t ColumnVector::HashCell(size_t i) const {
  // Numbers hash by their double value so int64 and double columns with equal
  // cells land in the same hash-join bucket; -0.0 is canonicalized to 0.0
  // because CellsEqual compares with == but HashDouble hashes bit patterns.
  // Dictionary-encoded strings hash via the precomputed per-entry hashes,
  // which are HashString of the entry — equal strings hash equally across
  // raw and encoded columns and across different dictionaries.
  if (type_ == VecType::kString) {
    if (data_->dict) return data_->dict->hashes[data_->codes[i]];
    return HashString(data_->strs[i]);
  }
  const double d = Number(i);
  return HashDouble(d == 0.0 ? 0.0 : d);
}

bool ColumnVector::CellsEqual(const ColumnVector& a, size_t i,
                              const ColumnVector& b, size_t j) {
  const bool a_num = a.is_numeric();
  if (a_num != b.is_numeric()) return false;
  if (a_num) return a.Number(i) == b.Number(j);
  if (a.data_->dict != nullptr && a.data_->dict == b.data_->dict) {
    return a.data_->codes[i] == b.data_->codes[j];
  }
  return a.StringAt(i) == b.StringAt(j);
}

Status ColumnBuilder::Append(const Value& v) {
  if (v.is_number()) {
    if (seen_string_) {
      return Status::Unimplemented("mixed string/number column");
    }
    seen_number_ = true;
    const double d = v.number();
    if (all_integral_ &&
        !(std::floor(d) == d && std::abs(d) < 9.0e18)) {
      all_integral_ = false;
    }
    nums_.push_back(d);
    return Status::OK();
  }
  if (seen_number_) {
    return Status::Unimplemented("mixed string/number column");
  }
  seen_string_ = true;
  strs_.push_back(v.str());
  return Status::OK();
}

Result<ColumnVector> ColumnBuilder::Finish() && {
  if (seen_string_) {
    ColumnVector out(VecType::kString);
    out.strings() = std::move(strs_);
    return out;
  }
  if (all_integral_) {
    ColumnVector out(VecType::kInt64);
    auto& ints = out.ints();
    ints.reserve(nums_.size());
    for (double d : nums_) ints.push_back(static_cast<int64_t>(d));
    return out;
  }
  ColumnVector out(VecType::kDouble);
  out.doubles() = std::move(nums_);
  return out;
}

}  // namespace mqo
