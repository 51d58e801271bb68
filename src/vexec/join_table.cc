#include "vexec/join_table.h"

#include <algorithm>
#include <limits>

#include "common/hash.h"

namespace mqo {

namespace {

constexpr uint64_t kJoinHashSeed = 0x9ae16a3b2f90404full;

/// Smallest power of two >= n (n >= 1).
size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// log2 of a power of two.
int Log2(size_t pow2) {
  int bits = 0;
  while ((size_t{1} << bits) < pow2) ++bits;
  return bits;
}

/// Key hashes for rows [begin, end), written to `out[r - begin]`. The
/// per-column type dispatch is hoisted out of the row loop, so each column
/// contributes one flat pass over its contiguous payload.
void HashKeyRange(const ColumnBatch& batch, const std::vector<int>& cols,
                  uint32_t begin, uint32_t end, uint64_t* out) {
  const uint32_t n = end - begin;
  for (uint32_t j = 0; j < n; ++j) out[j] = kJoinHashSeed;
  for (int c : cols) {
    const ColumnVector& col = batch.columns[c];
    switch (col.type()) {
      case VecType::kInt64: {
        if (col.for_encoded()) {
          // Unpack-and-mix kernel: decode one block of packed deltas into a
          // stack buffer, then mix with a flat loop over contiguous values —
          // the same SIMD-friendly shape as the plain path, and bit-identical
          // hashes (build sides can be zero-copy encoded scan views).
          const ForColumn& fc = *col.for_column();
          int64_t buf[kForBlockRows];
          uint32_t r = begin;
          while (r < end) {
            const uint32_t re = std::min<uint32_t>(
                end, static_cast<uint32_t>(
                         (r / kForBlockRows + 1) * kForBlockRows));
            fc.Unpack(r, re, buf);
            uint64_t* o = out + (r - begin);
            for (uint32_t j = 0; j < re - r; ++j) {
              const double d = static_cast<double>(buf[j]);
              o[j] = HashCombine(o[j], HashDouble(d == 0.0 ? 0.0 : d));
            }
            r = re;
          }
          break;
        }
        const int64_t* v = col.ints().data() + begin;
        for (uint32_t j = 0; j < n; ++j) {
          const double d = static_cast<double>(v[j]);
          out[j] = HashCombine(out[j], HashDouble(d == 0.0 ? 0.0 : d));
        }
        break;
      }
      case VecType::kDouble: {
        const double* v = col.doubles().data() + begin;
        for (uint32_t j = 0; j < n; ++j) {
          out[j] = HashCombine(out[j], HashDouble(v[j] == 0.0 ? 0.0 : v[j]));
        }
        break;
      }
      case VecType::kString: {
        if (col.dict_encoded()) {
          const int32_t* codes = col.codes().data() + begin;
          const uint64_t* hashes = col.dict()->hashes.data();
          for (uint32_t j = 0; j < n; ++j) {
            out[j] = HashCombine(out[j], hashes[codes[j]]);
          }
        } else {
          for (uint32_t j = 0; j < n; ++j) {
            out[j] = HashCombine(out[j], col.HashCell(begin + j));
          }
        }
        break;
      }
    }
  }
}

/// Key hashes for the selected rows, written to `out[j]` for `sel[j]`. Same
/// hoisted-dispatch shape as HashKeyRange, indirected through the selection
/// vector.
void HashKeySel(const ColumnBatch& batch, const std::vector<int>& cols,
                const uint32_t* sel, size_t n, uint64_t* out) {
  for (size_t j = 0; j < n; ++j) out[j] = kJoinHashSeed;
  for (int c : cols) {
    const ColumnVector& col = batch.columns[c];
    switch (col.type()) {
      case VecType::kInt64: {
        if (col.for_encoded()) {
          // Selected rows are sparse; per-row decode beats block unpacking.
          const ForColumn& fc = *col.for_column();
          for (size_t j = 0; j < n; ++j) {
            const double d = static_cast<double>(fc.ValueAt(sel[j]));
            out[j] = HashCombine(out[j], HashDouble(d == 0.0 ? 0.0 : d));
          }
          break;
        }
        const int64_t* v = col.ints().data();
        for (size_t j = 0; j < n; ++j) {
          const double d = static_cast<double>(v[sel[j]]);
          out[j] = HashCombine(out[j], HashDouble(d == 0.0 ? 0.0 : d));
        }
        break;
      }
      case VecType::kDouble: {
        const double* v = col.doubles().data();
        for (size_t j = 0; j < n; ++j) {
          const double d = v[sel[j]];
          out[j] = HashCombine(out[j], HashDouble(d == 0.0 ? 0.0 : d));
        }
        break;
      }
      case VecType::kString: {
        if (col.dict_encoded()) {
          const int32_t* codes = col.codes().data();
          const uint64_t* hashes = col.dict()->hashes.data();
          for (size_t j = 0; j < n; ++j) {
            out[j] = HashCombine(out[j], hashes[codes[sel[j]]]);
          }
        } else {
          for (size_t j = 0; j < n; ++j) {
            out[j] = HashCombine(out[j], col.HashCell(sel[j]));
          }
        }
        break;
      }
    }
  }
}

}  // namespace

size_t BloomRefineSel(const ColumnBatch& batch, const std::vector<int>& keys,
                      const JoinBloomFilter& bloom, bool use_range,
                      SelVector* sel) {
  const size_t n = sel->size();
  if (n == 0) return 0;
  uint32_t* s = sel->data();
  std::vector<uint64_t> hashes(n);
  HashKeySel(batch, keys, s, n, hashes.data());
  const double lo = bloom.min_key();
  const double hi = bloom.max_key();
  const ColumnVector* range_col =
      use_range ? &batch.columns[keys[0]] : nullptr;
  size_t k = 0;
  for (size_t j = 0; j < n; ++j) {
    const uint32_t i = s[j];
    bool keep = bloom.MayContain(hashes[j]);
    if (keep && range_col != nullptr) {
      const double v = range_col->Number(i);
      keep = v >= lo && v <= hi;
    }
    s[k] = i;
    k += keep ? 1 : 0;
  }
  sel->resize(k);
  return n - k;
}

void NumericMinMax(const ColumnVector& col, uint32_t begin, uint32_t end,
                   double* lo, double* hi) {
  // Accumulators first in std::min/max: a NaN cell never replaces them.
  double mn = std::numeric_limits<double>::infinity();
  double mx = -mn;
  if (col.for_encoded()) {
    // Block metadata answers fully covered blocks; only the (at most two)
    // partial edge blocks decode per row.
    const ForColumn& fc = *col.for_column();
    for (size_t b = begin / kForBlockRows; b * kForBlockRows < end; ++b) {
      const uint32_t rb =
          std::max<uint32_t>(begin, static_cast<uint32_t>(b * kForBlockRows));
      const uint32_t re = std::min<uint32_t>(
          end, static_cast<uint32_t>((b + 1) * kForBlockRows));
      const ForBlock& blk = fc.blocks()[b];
      if (rb == b * kForBlockRows && re - rb == fc.BlockRows(b)) {
        mn = std::min(mn, static_cast<double>(blk.reference));
        mx = std::max(mx, static_cast<double>(static_cast<int64_t>(
                              static_cast<uint64_t>(blk.reference) +
                              blk.max_delta)));
        continue;
      }
      for (uint32_t r = rb; r < re; ++r) {
        const double d = static_cast<double>(fc.ValueAt(r));
        mn = std::min(mn, d);
        mx = std::max(mx, d);
      }
    }
  } else if (col.type() == VecType::kInt64) {
    const int64_t* v = col.ints().data();
    for (uint32_t r = begin; r < end; ++r) {
      const double d = static_cast<double>(v[r]);
      mn = std::min(mn, d);
      mx = std::max(mx, d);
    }
  } else {
    const double* v = col.doubles().data();
    for (uint32_t r = begin; r < end; ++r) {
      mn = std::min(mn, v[r]);
      mx = std::max(mx, v[r]);
    }
  }
  *lo = mn;
  *hi = mx;
}

std::shared_ptr<JoinBloomFilter> JoinBloomFilter::Build(
    const std::vector<uint64_t>& hashes) {
  auto filter = std::make_shared<JoinBloomFilter>();
  const size_t bits = NextPow2(std::max<size_t>(512, hashes.size() * 12));
  filter->bits_.assign(bits / 64, 0);
  filter->bit_mask_ = bits - 1;
  for (uint64_t h : hashes) {
    uint64_t i1 = 0;
    uint64_t i2 = 0;
    filter->BitsOf(h, &i1, &i2);
    filter->bits_[i1 >> 6] |= uint64_t{1} << (i1 & 63);
    filter->bits_[i2 >> 6] |= uint64_t{1} << (i2 & 63);
  }
  return filter;
}

Result<JoinSpec> ResolveJoinSpec(const std::vector<ColumnRef>& left,
                                 const std::vector<ColumnRef>& right,
                                 const JoinPredicate& predicate) {
  JoinSpec spec;
  spec.out_names.insert(spec.out_names.end(), left.begin(), left.end());
  spec.out_names.insert(spec.out_names.end(), right.begin(), right.end());
  std::vector<ColumnRef> sorted = spec.out_names;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return Status::Unimplemented("join with overlapping aliases");
  }
  for (const auto& cond : predicate.conditions()) {
    int li = ColumnIndexIn(left, cond.left);
    int ri = ColumnIndexIn(right, cond.right);
    if (li < 0 || ri < 0) {
      li = ColumnIndexIn(left, cond.right);
      ri = ColumnIndexIn(right, cond.left);
    }
    if (li < 0 || ri < 0) {
      return Status::Internal("join condition unresolvable: " + cond.ToString());
    }
    spec.conds.push_back({li, ri});
  }
  return spec;
}

JoinHashTable JoinHashTable::Build(ColumnBatch build,
                                   std::vector<int> key_cols,
                                   const PipelineOptions& options) {
  JoinHashTable table;
  table.build_ = std::move(build);
  table.key_cols_ = std::move(key_cols);
  const size_t num_rows = table.build_.num_rows;
  const int threads = options.num_threads;
  // At least two buckets keeps the shift below 64; at most one per row.
  const size_t buckets = NextPow2(std::max<size_t>(num_rows, 2));
  const int bucket_bits = Log2(buckets);
  table.bucket_shift_ = 64 - bucket_bits;

  // Phase 1: per-row key hashes and bucket ids, morsel-parallel (each
  // worker owns its morsel's slots of the shared arrays).
  std::vector<uint64_t> hashes(num_rows);
  std::vector<uint32_t> bucket_of(num_rows);
  ParallelOverMorsels(
      MakeMorsels(num_rows,
                  ResolveMorselRows(num_rows, threads, options.morsel_rows)),
      threads,
      [&](size_t, const Morsel& morsel) {
        HashKeyRange(table.build_, table.key_cols_, morsel.begin, morsel.end,
                     hashes.data() + morsel.begin);
        for (uint32_t r = morsel.begin; r < morsel.end; ++r) {
          bucket_of[r] = static_cast<uint32_t>(table.BucketOf(hashes[r]));
        }
      });

  // Publish the Bloom filter (sideways information passing): probe-side
  // pipelines can reject rows whose key hash is absent before the probe op
  // runs. For a single numeric key, also publish the key range so probes
  // can skip whole morsels on a zone min/max check.
  if (!table.key_cols_.empty()) {
    auto bloom = JoinBloomFilter::Build(hashes);
    if (table.key_cols_.size() == 1) {
      const ColumnVector& key = table.build_.columns[table.key_cols_[0]];
      if (key.is_numeric() && num_rows > 0) {
        double lo = 0.0;
        double hi = 0.0;
        NumericMinMax(key, 0, static_cast<uint32_t>(num_rows), &lo, &hi);
        bloom->SetRange(lo, hi);
      }
    }
    table.bloom_ = std::move(bloom);
  }

  // Phases 2 and 3: count, prefix-sum, scatter. A partition is a
  // contiguous range of buckets (the top bits of the bucket id), so the
  // workers count into and scatter to disjoint slots. Each scans the rows
  // in ascending order, so every bucket lists its rows in ascending order
  // whatever the partition count. One partition per worker: each costs a
  // full (cheap) scan of the bucket ids, so more would be a net loss.
  const size_t parts =
      threads > 1 ? std::min(NextPow2(std::min<size_t>(
                                 static_cast<size_t>(threads), 64)),
                             buckets)
                  : 1;
  const int part_shift = bucket_bits - Log2(parts);
  std::vector<uint32_t>& offsets = table.offsets_;
  offsets.assign(buckets + 1, 0);
  ParallelFor(parts, threads, [&](size_t p) {
    for (uint32_t r = 0; r < num_rows; ++r) {
      const uint32_t b = bucket_of[r];
      if ((b >> part_shift) == p) ++offsets[b + 1];
    }
  });
  for (size_t b = 0; b < buckets; ++b) offsets[b + 1] += offsets[b];
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  table.rows_.resize(num_rows);
  table.hashes_.resize(num_rows);
  ParallelFor(parts, threads, [&](size_t p) {
    for (uint32_t r = 0; r < num_rows; ++r) {
      const uint32_t b = bucket_of[r];
      if ((b >> part_shift) != p) continue;
      const uint32_t slot = cursor[b]++;
      table.rows_[slot] = r;
      table.hashes_[slot] = hashes[r];
    }
  });
  return table;
}

JoinHashTable::PreparedProbe JoinHashTable::Prepare(
    const ColumnBatch& probe, const std::vector<int>& probe_keys) const {
  PreparedProbe prepared;
  prepared.keys.resize(probe_keys.size());
  for (size_t c = 0; c < probe_keys.size(); ++c) {
    const ColumnVector& pcol = probe.columns[probe_keys[c]];
    const ColumnVector& bcol = build_.columns[key_cols_[c]];
    if (!pcol.dict_encoded() || !bcol.dict_encoded()) {
      continue;  // kGeneric
    }
    ++prepared.dict_keys;
    if (pcol.dict() == bcol.dict()) {
      prepared.keys[c].mode = PreparedProbe::Mode::kSameDict;
      continue;
    }
    // Different dictionaries: fetch or build the probe→build code remap.
    std::shared_ptr<const std::vector<int32_t>> remap;
    const auto cache_key = std::make_pair(c, pcol.dict());
    {
      std::lock_guard<std::mutex> lock(remap_->mu);
      auto it = remap_->cache.find(cache_key);
      if (it != remap_->cache.end()) remap = it->second;
    }
    if (remap == nullptr) {
      const auto& pe = pcol.dict()->entries;
      const auto& be = bcol.dict()->entries;
      auto built = std::make_shared<std::vector<int32_t>>(pe.size(), -1);
      // Two-pointer merge: both dictionaries are sorted-unique.
      size_t b = 0;
      for (size_t p = 0; p < pe.size(); ++p) {
        while (b < be.size() && be[b] < pe[p]) ++b;
        if (b < be.size() && be[b] == pe[p]) {
          (*built)[p] = static_cast<int32_t>(b);
        }
      }
      remap_->builds.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(remap_->mu);
      auto inserted = remap_->cache.emplace(cache_key, std::move(built));
      remap = inserted.first->second;  // A racing builder wins consistently.
    }
    prepared.keys[c].mode = PreparedProbe::Mode::kRemap;
    prepared.keys[c].remap = remap.get();
    prepared.pinned.push_back(std::move(remap));
  }
  return prepared;
}

void JoinHashTable::ProbeRange(const PreparedProbe& prepared,
                               const ColumnBatch& probe,
                               const std::vector<int>& probe_keys,
                               uint32_t begin, uint32_t end,
                               SelVector* left_rows,
                               SelVector* right_rows) const {
  if (begin >= end) return;
  const size_t n = end - begin;
  std::vector<uint64_t> hashes(n);
  HashKeyRange(probe, probe_keys, begin, end, hashes.data());
  // Dictionary keys compare as build-dictionary codes: codes[c * n + j] is
  // probe row begin + j's code for key c, or -1 when its value is absent
  // from the build dictionary (and so equals no build code).
  const size_t num_keys = probe_keys.size();
  std::vector<int32_t> codes(prepared.dict_keys > 0 ? num_keys * n : 0);
  for (size_t c = 0; c < num_keys; ++c) {
    const PreparedProbe::Key& key = prepared.keys[c];
    if (key.mode == PreparedProbe::Mode::kGeneric) continue;
    const int32_t* pcodes = probe.columns[probe_keys[c]].codes().data() + begin;
    int32_t* out = codes.data() + c * n;
    if (key.mode == PreparedProbe::Mode::kSameDict) {
      std::copy(pcodes, pcodes + n, out);
    } else {
      const int32_t* remap = key.remap->data();
      for (size_t j = 0; j < n; ++j) out[j] = remap[pcodes[j]];
    }
  }
  auto keys_equal = [&](size_t j, uint32_t r) {
    for (size_t c = 0; c < num_keys; ++c) {
      const ColumnVector& bcol = build_.columns[key_cols_[c]];
      if (prepared.keys[c].mode == PreparedProbe::Mode::kGeneric) {
        if (!ColumnVector::CellsEqual(probe.columns[probe_keys[c]],
                                      begin + j, bcol, r)) {
          return false;
        }
      } else if (bcol.codes()[r] != codes[c * n + j]) {
        return false;
      }
    }
    return true;
  };
  for (size_t j = 0; j < n; ++j) {
    const uint64_t h = hashes[j];
    const size_t b = BucketOf(h);
    for (uint32_t e = offsets_[b]; e < offsets_[b + 1]; ++e) {
      if (hashes_[e] != h) continue;
      const uint32_t r = rows_[e];
      if (!keys_equal(j, r)) continue;
      left_rows->push_back(static_cast<uint32_t>(begin + j));
      right_rows->push_back(r);
    }
  }
}

}  // namespace mqo
