// Unit tests of the native columnar storage layer: ColumnStore invariants,
// the unified TableReader (zero-copy columnar views, the row-cursor
// adapter), morsel partitioning and the deterministic parallel filter path,
// the copy-on-write column payloads, the shared materialization store, and
// the BatchFromRows/BatchToRows boundary round-trips on edge cases.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

#include "catalog/tpcd.h"
#include "exec/dataset.h"
#include "exec/row_ops.h"
#include "storage/mat_store.h"
#include "storage/pipeline.h"
#include "storage/segment_cache.h"
#include "storage/spill.h"
#include "storage/table_reader.h"
#include "support/pipelines.h"

namespace mqo {
namespace {

ColumnVector IntColumn(std::initializer_list<int64_t> values) {
  ColumnVector col(VecType::kInt64);
  col.ints() = values;
  return col;
}

ColumnVector StringColumn(std::initializer_list<const char*> values) {
  ColumnVector col(VecType::kString);
  for (const char* v : values) col.strings().emplace_back(v);
  return col;
}

Comparison Cmp(const char* q, const char* n, CompareOp op, Literal lit) {
  Comparison c;
  c.column = ColumnRef(q, n);
  c.op = op;
  c.literal = std::move(lit);
  return c;
}

// ---- ColumnStore ------------------------------------------------------------

TEST(ColumnStoreTest, AddColumnEnforcesUniformRowCount) {
  ColumnStore store;
  ASSERT_TRUE(store.AddColumn("k", IntColumn({1, 2, 3})).ok());
  ASSERT_TRUE(store.AddColumn("tag", StringColumn({"a", "b", "c"})).ok());
  EXPECT_EQ(store.num_rows(), 3u);
  EXPECT_EQ(store.num_columns(), 2u);
  EXPECT_EQ(store.ColumnIndex("tag"), 1);
  EXPECT_EQ(store.ColumnIndex("missing"), -1);
  auto bad = store.AddColumn("short", IntColumn({7}));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
}

TEST(ColumnStoreTest, FromRowsPreservesValuesAndUnqualifiedNames) {
  NamedRows rows;
  rows.columns = {ColumnRef("t", "k"), ColumnRef("t", "s")};
  rows.rows = {{Value(4.0), Value("x")}, {Value(5.0), Value("y")}};
  auto store = ColumnStore::FromRows(rows);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.ValueOrDie().name(0), "k");
  EXPECT_EQ(store.ValueOrDie().column(0).ints()[1], 5);
  // Ingest dictionary-encodes string columns; StringAt reads both forms.
  EXPECT_TRUE(store.ValueOrDie().column(1).dict_encoded());
  EXPECT_EQ(store.ValueOrDie().column(1).StringAt(0), "x");
}

// ---- TableReader ------------------------------------------------------------

TEST(TableReaderTest, ColumnarViewIsZeroCopyAndQualified) {
  ColumnStore store;
  ASSERT_TRUE(store.AddColumn("k", IntColumn({1, 2, 3})).ok());
  ASSERT_TRUE(store.AddColumn("tag", StringColumn({"a", "b", "c"})).ok());
  TableReader reader(&store);
  ColumnBatch view = reader.Columnar("alias");
  EXPECT_EQ(view.num_rows, 3u);
  ASSERT_EQ(view.names.size(), 2u);
  EXPECT_EQ(view.names[0], ColumnRef("alias", "k"));
  // The view shares the store's COW payloads: no cells were copied.
  EXPECT_TRUE(view.columns[0].SharesPayloadWith(store.column(0)));
  EXPECT_TRUE(view.columns[1].SharesPayloadWith(store.column(1)));
}

TEST(TableReaderTest, CursorAndRowsMaterializeEveryCell) {
  ColumnStore store;
  ASSERT_TRUE(store.AddColumn("k", IntColumn({10, 20})).ok());
  ASSERT_TRUE(store.AddColumn("s", StringColumn({"a", "b"})).ok());
  TableReader reader(&store);
  NamedRows rows = reader.Rows("t");
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(rows.columns[1], ColumnRef("t", "s"));
  EXPECT_EQ(rows.rows[1][0].number(), 20.0);
  EXPECT_EQ(rows.rows[0][1].str(), "a");
  // The cursor drives the same cells row-at-a-time.
  auto cur = reader.cursor();
  int count = 0;
  while (cur.Next()) {
    EXPECT_TRUE(ValueEq(cur.Get(0), rows.rows[count][0]));
    EXPECT_TRUE(ValueEq(cur.Get(1), rows.rows[count][1]));
    ++count;
  }
  EXPECT_EQ(count, 2);
}

TEST(TableReaderTest, EmptyTableYieldsEmptyViewAndCursor) {
  ColumnStore store;
  ASSERT_TRUE(store.AddColumn("k", IntColumn({})).ok());
  TableReader reader(&store);
  EXPECT_EQ(reader.Columnar("t").num_rows, 0u);
  EXPECT_FALSE(reader.cursor().Next());
  EXPECT_TRUE(reader.Rows("t").rows.empty());
}

// ---- Dictionary-encoded string columns --------------------------------------

TEST(ColumnDictTest, EncodeDecodeRoundTripAndSortedCodes) {
  ColumnVector col = StringColumn({"pear", "apple", "pear", "fig", "apple"});
  ASSERT_TRUE(col.DictEncode());
  ASSERT_TRUE(col.dict_encoded());
  // The dictionary is sorted-unique, so code order is lexicographic order.
  EXPECT_EQ(col.dict()->entries,
            (std::vector<std::string>{"apple", "fig", "pear"}));
  EXPECT_EQ(col.codes(), (std::vector<int32_t>{2, 0, 2, 1, 0}));
  EXPECT_EQ(col.StringAt(3), "fig");
  EXPECT_EQ(col.dict()->Lookup("pear"), 2);
  EXPECT_EQ(col.dict()->Lookup("absent"), -1);
  col.DecodeInPlace();
  EXPECT_FALSE(col.dict_encoded());
  EXPECT_EQ(col.strings(), (std::vector<std::string>{"pear", "apple", "pear",
                                                     "fig", "apple"}));
}

TEST(ColumnDictTest, EncodingDetachesSharedPayload) {
  ColumnVector raw = StringColumn({"b", "a", "b"});
  ColumnVector enc = raw;  // shares the payload until DictEncode mutates
  ASSERT_TRUE(enc.DictEncode());
  EXPECT_FALSE(raw.dict_encoded());
  EXPECT_EQ(raw.strings()[0], "b");
  EXPECT_TRUE(enc.dict_encoded());
}

TEST(ColumnDictTest, CellOpsAgreeAcrossPhysicalForms) {
  ColumnVector raw = StringColumn({"b", "a", "c", "a"});
  ColumnVector enc = raw;
  ASSERT_TRUE(enc.DictEncode());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(enc.HashCell(i), raw.HashCell(i));
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(ColumnVector::CellsEqual(enc, i, raw, j),
                ColumnVector::CellsEqual(raw, i, raw, j));
      EXPECT_EQ(ColumnVector::CellsEqual(enc, i, enc, j),
                ColumnVector::CellsEqual(raw, i, raw, j));
    }
  }
}

/// ByteSize of a dictionary column, summed entry by entry.
size_t PerEntryDictBytes(const ColumnVector& col) {
  size_t bytes = col.codes().size() * sizeof(int32_t);
  for (const auto& s : col.dict()->entries) {
    bytes += sizeof(std::string) + s.size();
  }
  return bytes + col.dict()->hashes.size() * sizeof(uint64_t);
}

TEST(ColumnDictTest, ByteSizeEqualsPerEntrySumThroughSpill) {
  ColumnVector col =
      StringColumn({"pear", "apple", "", "fig", "apple", "a longer entry"});
  ASSERT_TRUE(col.DictEncode());
  EXPECT_EQ(col.ByteSize(), PerEntryDictBytes(col));
  // A gather shares the dictionary: its bytes count in full, codes shrink.
  ColumnVector picked = col.Gather({0, 3});
  EXPECT_EQ(picked.ByteSize(), PerEntryDictBytes(picked));

  SpillDir dir;
  auto path = dir.NextPath();
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  ColumnBatch b;
  b.names = {ColumnRef("q", "s")};
  b.columns = {col};
  b.num_rows = col.size();
  ASSERT_TRUE(WriteSegmentFile(path.ValueOrDie(), b).ok());
  auto back = ReadSegmentFile(path.ValueOrDie());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const ColumnVector& reloaded = back.ValueOrDie().columns[0];
  ASSERT_TRUE(reloaded.dict_encoded());
  EXPECT_EQ(reloaded.ByteSize(), PerEntryDictBytes(reloaded));
  EXPECT_EQ(reloaded.ByteSize(), col.ByteSize());
}

TEST(ColumnDictTest, GatherMovesCodesAndSharesDictionary) {
  ColumnVector col = StringColumn({"a", "b", "c", "b"});
  ASSERT_TRUE(col.DictEncode());
  ColumnVector picked = col.Gather({1, 3});
  ASSERT_TRUE(picked.dict_encoded());
  EXPECT_EQ(picked.dict(), col.dict());
  EXPECT_EQ(picked.codes(), (std::vector<int32_t>{1, 1}));
}

TEST(ColumnDictTest, AppendAllAdoptsAndMergesDictionaries) {
  ColumnVector a = StringColumn({"x", "y", "x"});
  ASSERT_TRUE(a.DictEncode());
  ColumnVector sink(VecType::kString);
  sink.AppendAll(a);  // an empty target adopts the source dictionary
  ASSERT_TRUE(sink.dict_encoded());
  EXPECT_EQ(sink.dict(), a.dict());
  sink.AppendAll(a);  // same dictionary: appends codes only
  ASSERT_TRUE(sink.dict_encoded());
  EXPECT_EQ(sink.size(), 6u);
  ColumnVector b = StringColumn({"z", "x"});
  ASSERT_TRUE(b.DictEncode());
  sink.AppendAll(b);  // mismatched dictionaries: falls back to raw strings
  EXPECT_FALSE(sink.dict_encoded());
  ASSERT_EQ(sink.size(), 8u);
  EXPECT_EQ(sink.StringAt(0), "x");
  EXPECT_EQ(sink.StringAt(5), "x");
  EXPECT_EQ(sink.StringAt(6), "z");
  EXPECT_EQ(sink.StringAt(7), "x");
}

// ---- FOR codec and zone maps ------------------------------------------------

/// A clustered int64 column: values walk upward slowly, so every FOR block
/// has a small span and the encoding always wins.
std::vector<int64_t> ClusteredInts(size_t n, int64_t start = -500) {
  std::vector<int64_t> v(n);
  int64_t x = start;
  for (size_t i = 0; i < n; ++i) {
    x += int64_t(i % 7);
    v[i] = x;
  }
  return v;
}

ColumnVector IntColumnOf(const std::vector<int64_t>& values) {
  ColumnVector col(VecType::kInt64);
  col.ints() = values;
  return col;
}

TEST(ForCodecTest, BitWidthFor) {
  EXPECT_EQ(BitWidthFor(0), 0u);
  EXPECT_EQ(BitWidthFor(1), 1u);
  EXPECT_EQ(BitWidthFor(2), 2u);
  EXPECT_EQ(BitWidthFor(255), 8u);
  EXPECT_EQ(BitWidthFor(256), 9u);
  EXPECT_EQ(BitWidthFor(~0ull), 64u);
}

TEST(ForCodecTest, RoundTripsAcrossSizesAndBlockBoundaries) {
  // Sizes straddle the 1024-row block granule: empty, single, one short
  // block, exactly one block, one block plus one row, many blocks.
  for (size_t n : {size_t(0), size_t(1), size_t(1023), size_t(1024),
                   size_t(1025), size_t(5000)}) {
    const std::vector<int64_t> values = ClusteredInts(n);
    auto fc = ForColumn::Encode(values);
    if (n == 0) {
      EXPECT_EQ(fc, nullptr);
      continue;
    }
    ASSERT_NE(fc, nullptr) << n;
    ASSERT_EQ(fc->size(), n);
    EXPECT_EQ(fc->blocks().size(), (n + kForBlockRows - 1) / kForBlockRows);
    // ValueAt and Unpack agree with the source at every row.
    std::vector<int64_t> decoded(n);
    fc->Unpack(0, n, decoded.data());
    EXPECT_EQ(decoded, values) << n;
    for (size_t i = 0; i < n; i += (n < 64 ? 1 : 97)) {
      EXPECT_EQ(fc->ValueAt(i), values[i]) << n << ":" << i;
    }
    // Partial-range unpack (straddling a block boundary when possible).
    if (n > 10) {
      const size_t begin = n / 2 - 5, end = n / 2 + 5;
      std::vector<int64_t> part(end - begin);
      fc->Unpack(begin, end, part.data());
      for (size_t i = 0; i < part.size(); ++i) {
        EXPECT_EQ(part[i], values[begin + i]);
      }
    }
  }
}

TEST(ForCodecTest, HandlesExtremesNegativesAndZeroWidthBlocks) {
  // A block whose span exceeds INT64_MAX (min ... max straddling zero) must
  // pack 64-bit deltas without overflow; constant blocks pack zero bits.
  std::vector<int64_t> values(kForBlockRows * 2, 42);
  values[0] = std::numeric_limits<int64_t>::min();
  values[1] = std::numeric_limits<int64_t>::max();
  values[2] = -1;
  auto fc = ForColumn::Encode(values);
  ASSERT_NE(fc, nullptr);
  ASSERT_EQ(fc->blocks().size(), 2u);
  EXPECT_EQ(fc->blocks()[0].bit_width, 64u);
  EXPECT_EQ(fc->blocks()[1].bit_width, 0u);  // constant: headers only
  std::vector<int64_t> decoded(values.size());
  fc->Unpack(0, values.size(), decoded.data());
  EXPECT_EQ(decoded, values);
  // Block headers expose the exact min/max.
  EXPECT_EQ(fc->blocks()[0].reference, std::numeric_limits<int64_t>::min());
  EXPECT_EQ(int64_t(uint64_t(fc->blocks()[0].reference) +
                    fc->blocks()[0].max_delta),
            std::numeric_limits<int64_t>::max());
}

TEST(ForCodecTest, UnpackDeltasMatchesValuesMinusReference) {
  const std::vector<int64_t> values = ClusteredInts(kForBlockRows + 100);
  auto fc = ForColumn::Encode(values);
  ASSERT_NE(fc, nullptr);
  for (size_t b = 0; b < fc->blocks().size(); ++b) {
    std::vector<uint64_t> deltas(fc->BlockRows(b));
    fc->UnpackDeltas(b, deltas.data());
    for (size_t i = 0; i < deltas.size(); ++i) {
      const size_t row = b * kForBlockRows + i;
      EXPECT_EQ(deltas[i],
                uint64_t(values[row]) - uint64_t(fc->blocks()[b].reference));
    }
  }
}

TEST(ForCodecTest, FromPartsRevalidatesCorruptMetadata) {
  const std::vector<int64_t> values = ClusteredInts(2500);
  auto fc = ForColumn::Encode(values);
  ASSERT_NE(fc, nullptr);
  // The honest parts round-trip.
  auto good = ForColumn::FromParts(fc->size(), fc->blocks(), fc->packed());
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  std::vector<int64_t> decoded(values.size());
  good.ValueOrDie()->Unpack(0, values.size(), decoded.data());
  EXPECT_EQ(decoded, values);

  // Wrong block count for the row count.
  auto blocks = fc->blocks();
  blocks.pop_back();
  auto r1 = ForColumn::FromParts(fc->size(), blocks, fc->packed());
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.status().ToString().find("block count"), std::string::npos);

  // A bit width that disagrees with max_delta (would mis-stride decode).
  blocks = fc->blocks();
  blocks[0].bit_width = 64;
  auto r2 = ForColumn::FromParts(fc->size(), blocks, fc->packed());
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().ToString().find("bit width"), std::string::npos);

  // Truncated packed words.
  auto packed = fc->packed();
  packed.pop_back();
  auto r3 = ForColumn::FromParts(fc->size(), fc->blocks(), packed);
  ASSERT_FALSE(r3.ok());
  EXPECT_NE(r3.status().ToString().find("packed size"), std::string::npos);
}

TEST(ForColumnVectorTest, ForEncodeAdoptsOnlyWhenSmaller) {
  // Clustered data compresses: the column adopts the encoding, reports the
  // encoded physical bytes, and decodes back to the same values.
  const std::vector<int64_t> clustered = ClusteredInts(4096);
  ColumnVector col = IntColumnOf(clustered);
  const size_t plain_bytes = col.ByteSize();
  ASSERT_TRUE(col.ForEncode());
  ASSERT_TRUE(col.for_encoded());
  EXPECT_EQ(col.size(), clustered.size());
  EXPECT_LT(col.ByteSize(), plain_bytes);
  for (size_t i = 0; i < clustered.size(); i += 131) {
    EXPECT_EQ(col.Int64At(i), clustered[i]);
  }

  // Incompressible data (64-bit-span alternation) stays plain.
  std::vector<int64_t> wide(2048);
  for (size_t i = 0; i < wide.size(); ++i) {
    wide[i] = (i % 2 == 0) ? std::numeric_limits<int64_t>::min() + int64_t(i)
                           : std::numeric_limits<int64_t>::max() - int64_t(i);
  }
  ColumnVector hard = IntColumnOf(wide);
  EXPECT_FALSE(hard.ForEncode());
  EXPECT_FALSE(hard.for_encoded());

  // Non-int64 columns decline.
  ColumnVector str = StringColumn({"a", "b"});
  EXPECT_FALSE(str.ForEncode());
}

TEST(ForColumnVectorTest, CellOpsAgreeAcrossPhysicalForms) {
  const std::vector<int64_t> values = ClusteredInts(2050);
  ColumnVector raw = IntColumnOf(values);
  ColumnVector enc = IntColumnOf(values);
  ASSERT_TRUE(enc.ForEncode());
  const size_t probes[] = {0, 1, 1023, 1024, 1025, 2049};
  for (size_t i : probes) {
    EXPECT_EQ(enc.HashCell(i), raw.HashCell(i)) << i;
    for (size_t j : probes) {
      EXPECT_EQ(ColumnVector::CellsEqual(enc, i, raw, j),
                ColumnVector::CellsEqual(raw, i, raw, j));
      EXPECT_EQ(ColumnVector::CellsEqual(enc, i, enc, j),
                ColumnVector::CellsEqual(raw, i, raw, j));
    }
  }
}

TEST(ForColumnVectorTest, GatherAndAppendDecodeCorrectly) {
  const std::vector<int64_t> values = ClusteredInts(3000);
  ColumnVector enc = IntColumnOf(values);
  ASSERT_TRUE(enc.ForEncode());

  ColumnVector picked = enc.Gather({0, 1024, 2999, 7});
  ASSERT_EQ(picked.size(), 4u);
  EXPECT_EQ(picked.ints(),
            (std::vector<int64_t>{values[0], values[1024], values[2999],
                                  values[7]}));

  // AppendAll into an empty sink adopts the encoded payload zero-copy.
  ColumnVector sink(VecType::kInt64);
  sink.AppendAll(enc);
  ASSERT_TRUE(sink.for_encoded());
  EXPECT_EQ(sink.for_column(), enc.for_column());
  // A second append decodes and concatenates.
  sink.AppendAll(enc);
  EXPECT_FALSE(sink.for_encoded());
  ASSERT_EQ(sink.size(), 2 * values.size());
  EXPECT_EQ(sink.Int64At(0), values[0]);
  EXPECT_EQ(sink.Int64At(values.size()), values[0]);
  EXPECT_EQ(sink.Int64At(2 * values.size() - 1), values.back());

  // AppendFrom picks single rows out of an encoded source, decoded.
  ColumnVector sel_sink(VecType::kInt64);
  for (size_t i : {size_t(5), size_t(1500), size_t(2998)}) {
    sel_sink.AppendFrom(enc, i);
  }
  EXPECT_EQ(sel_sink.ints(),
            (std::vector<int64_t>{values[5], values[1500], values[2998]}));
}

TEST(ForColumnVectorTest, DecodeInPlaceIsCowSafe) {
  ColumnVector enc = IntColumnOf(ClusteredInts(2000));
  ASSERT_TRUE(enc.ForEncode());
  ColumnVector shared = enc;  // COW: same payload
  ASSERT_TRUE(shared.SharesPayloadWith(enc));
  shared.DecodeInPlace();
  // The decoded copy detached; the original still reads the encoded form.
  EXPECT_FALSE(shared.for_encoded());
  EXPECT_TRUE(enc.for_encoded());
  EXPECT_EQ(shared.size(), enc.size());
  EXPECT_EQ(shared.ints()[1999], enc.Int64At(1999));
}

TEST(ZoneMapTest, BuildsExactMinMaxPerGranule) {
  const std::vector<int64_t> values = ClusteredInts(2500);
  ColumnVector col = IntColumnOf(values);
  col.BuildZoneMap();
  auto zm = col.zone_map();
  ASSERT_NE(zm, nullptr);
  EXPECT_EQ(zm->num_rows, values.size());
  ASSERT_EQ(zm->zones.size(), 3u);
  for (size_t z = 0; z < zm->zones.size(); ++z) {
    const size_t begin = z * kForBlockRows;
    const size_t end = std::min(values.size(), begin + kForBlockRows);
    double mn = double(values[begin]), mx = double(values[begin]);
    for (size_t i = begin; i < end; ++i) {
      mn = std::min(mn, double(values[i]));
      mx = std::max(mx, double(values[i]));
    }
    EXPECT_EQ(zm->zones[z].min, mn) << z;
    EXPECT_EQ(zm->zones[z].max, mx) << z;
    EXPECT_TRUE(zm->zones[z].null_free);
  }

  // The FOR fast path (zones from block headers) builds the same map.
  ColumnVector enc = IntColumnOf(values);
  ASSERT_TRUE(enc.ForEncode());
  enc.BuildZoneMap();
  ASSERT_NE(enc.zone_map(), nullptr);
  ASSERT_EQ(enc.zone_map()->zones.size(), zm->zones.size());
  for (size_t z = 0; z < zm->zones.size(); ++z) {
    EXPECT_EQ(enc.zone_map()->zones[z].min, zm->zones[z].min);
    EXPECT_EQ(enc.zone_map()->zones[z].max, zm->zones[z].max);
  }
}

TEST(ZoneMapTest, MutationDropsStaleZones) {
  ColumnVector col = IntColumnOf(ClusteredInts(100));
  col.BuildZoneMap();
  ASSERT_NE(col.zone_map(), nullptr);
  col.ints().push_back(9999);  // mutating accessor invalidates the map
  EXPECT_EQ(col.zone_map(), nullptr);
}

TEST(ColumnStoreTest, CompressAndAppendRowsMaintainEncodingsAndZones) {
  ColumnStore store;
  std::vector<int64_t> ints = ClusteredInts(1500);
  ASSERT_TRUE(store.AddColumn("k", IntColumnOf(ints)).ok());
  store.Compress(/*numeric_compression=*/true);
  ASSERT_TRUE(store.column(0).for_encoded());
  ASSERT_NE(store.column(0).zone_map(), nullptr);
  EXPECT_EQ(store.column(0).zone_map()->num_rows, 1500u);

  NamedRows more;
  more.columns = {ColumnRef("", "k")};
  for (int i = 0; i < 10; ++i) {
    more.rows.push_back({Value(double(7 + i))});
  }
  ASSERT_TRUE(store.AppendRows(more, /*numeric_compression=*/true).ok());
  EXPECT_EQ(store.num_rows(), 1510u);
  // Re-compressed after the append: encoding and zones cover all rows.
  ASSERT_TRUE(store.column(0).for_encoded());
  ASSERT_NE(store.column(0).zone_map(), nullptr);
  EXPECT_EQ(store.column(0).zone_map()->num_rows, 1510u);
  EXPECT_EQ(store.column(0).Int64At(1500), 7);
  EXPECT_EQ(store.column(0).Int64At(1509), 16);

  // Schema mismatches are rejected before any mutation.
  NamedRows bad;
  bad.columns = {ColumnRef("", "wrong")};
  bad.rows = {{Value(1.0)}};
  EXPECT_FALSE(store.AppendRows(bad, true).ok());
  EXPECT_EQ(store.num_rows(), 1510u);
}

// ---- Copy-on-write columns --------------------------------------------------

TEST(ColumnVectorTest, CopyIsSharedUntilMutation) {
  ColumnVector a = IntColumn({1, 2, 3});
  ColumnVector b = a;
  EXPECT_TRUE(b.SharesPayloadWith(a));
  b.ints().push_back(4);  // detaches a private payload
  EXPECT_FALSE(b.SharesPayloadWith(a));
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(a.ints()[2], 3);
}

// ---- Morsels ----------------------------------------------------------------

TEST(MorselTest, PartitionCoversRowSpaceInOrder) {
  const auto morsels = MakeMorsels(10, 4);
  ASSERT_EQ(morsels.size(), 3u);
  EXPECT_EQ(morsels[0].begin, 0u);
  EXPECT_EQ(morsels[0].end, 4u);
  EXPECT_EQ(morsels[2].begin, 8u);
  EXPECT_EQ(morsels[2].end, 10u);
  EXPECT_TRUE(MakeMorsels(0, 4).empty());
  // morsel_rows == 0 degrades to a single all-rows morsel.
  ASSERT_EQ(MakeMorsels(7, 0).size(), 1u);
  EXPECT_EQ(MakeMorsels(7, 0)[0].size(), 7u);
}

TEST(MorselFilterTest, ParallelSelectionMatchesSerialExactly) {
  // A generated TPC-D table big enough for many 64-row morsels, filtered by
  // a scan pipeline's fused source filters.
  Catalog catalog = MakeTpcdCatalog(1);
  DataGenOptions gen;
  gen.max_rows_per_table = 3000;
  gen.domain_cap = 500;
  gen.seed = 13;
  DataSet data = GenerateData(catalog, gen);
  TableReader reader(data.GetTable("lineitem").ValueOrDie());
  const ColumnBatch view = reader.Columnar("l");
  const Predicate pred({Cmp("l", "l_quantity", CompareOp::kLe, 25),
                        Cmp("l", "l_orderkey", CompareOp::kGt, 50)});
  ExecOptions exec;
  exec.morsel_rows = 64;
  auto serial = RunFilterPipeline(view, pred, exec);
  ASSERT_TRUE(serial.ok());
  ASSERT_GT(serial.ValueOrDie().num_rows, 0u);
  for (int threads : {2, 4, 8}) {
    exec.num_threads = threads;
    auto parallel = RunFilterPipeline(view, pred, exec);
    ASSERT_TRUE(parallel.ok());
    const NamedRows a = BatchToRows(serial.ValueOrDie());
    const NamedRows b = BatchToRows(parallel.ValueOrDie());
    ASSERT_EQ(a.rows.size(), b.rows.size()) << threads << " threads";
    for (size_t r = 0; r < a.rows.size(); ++r) {
      for (size_t c = 0; c < a.columns.size(); ++c) {
        ASSERT_TRUE(ValueEq(a.rows[r][c], b.rows[r][c]))
            << threads << " threads, row " << r;
      }
    }
  }
}

// ---- Generated data is natively columnar ------------------------------------

TEST(DataSetStorageTest, GenerateDataTypesColumnsFromCatalog) {
  Catalog catalog = MakeTpcdCatalog(1);
  DataGenOptions gen;
  gen.max_rows_per_table = 10;
  gen.seed = 3;
  DataSet data = GenerateData(catalog, gen);
  const ColumnStore* lineitem = data.GetTable("lineitem").ValueOrDie();
  EXPECT_EQ(lineitem->num_rows(), 10u);
  const int key = lineitem->ColumnIndex("l_orderkey");
  const int comment = lineitem->ColumnIndex("l_comment");
  ASSERT_GE(key, 0);
  ASSERT_GE(comment, 0);
  EXPECT_EQ(lineitem->column(key).type(), VecType::kInt64);
  EXPECT_EQ(lineitem->column(comment).type(), VecType::kString);
}

// ---- MatStore ---------------------------------------------------------------

TEST(MatStoreTest, PutPinAndZeroCopyRead) {
  MatStore store;
  ColumnBatch segment;
  segment.names = {ColumnRef("t", "k")};
  segment.columns = {IntColumn({1, 2})};
  segment.num_rows = 2;
  SegmentRef ref = store.Put(segment);
  ASSERT_TRUE(ref);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(ref.rows(), 2);
  EXPECT_EQ(ref.names(), segment.names);
  // Reading the segment back shares payloads — materialize-once/read-many
  // without per-read copies.
  auto first = store.Pin(ref);
  auto second = store.Pin(ref);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_TRUE(first.ValueOrDie().batch().columns[0].SharesPayloadWith(
      second.ValueOrDie().batch().columns[0]));
  EXPECT_EQ(store.stats().gets, 2);
  EXPECT_EQ(store.stats().hits, 2);
}

// A segment lives while any handle or pin does; the last one to drop frees
// its payload and its accounting.
TEST(MatStoreTest, LastHandleFreesSegmentAndAccounting) {
  MatStore store;
  ColumnBatch a;
  a.names = {ColumnRef("t", "k")};
  a.columns = {IntColumn({1, 2, 3})};
  a.num_rows = 3;
  SegmentRef one = store.Put(a);
  SegmentRef two = store.Put(a);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.bytes_used(), 2 * a.ByteSize());
  SegmentRef copy = one;
  one = SegmentRef{};
  EXPECT_EQ(store.size(), 2u);  // the copy still holds it
  copy = SegmentRef{};
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.bytes_used(), a.ByteSize());
  {
    auto pinned = store.Pin(two);
    ASSERT_TRUE(pinned.ok());
    two = SegmentRef{};
    EXPECT_EQ(store.size(), 1u);  // the pin keeps it alive
    EXPECT_EQ(pinned.ValueOrDie().batch().columns[0].ints()[2], 3);
  }
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.bytes_used(), 0u);
}

TEST(MatStoreTest, ByteAccountingTracksPutsAndHandles) {
  MatStore store;
  EXPECT_EQ(store.bytes_used(), 0u);

  ColumnBatch a;
  a.names = {ColumnRef("t", "k"), ColumnRef("t", "s")};
  a.columns = {IntColumn({1, 2, 3}), StringColumn({"ab", "c", ""})};
  a.num_rows = 3;
  const size_t a_bytes = a.ByteSize();
  // 3 int64 cells plus string payloads (object overhead + characters).
  EXPECT_EQ(a_bytes, 3 * sizeof(int64_t) + 3 * sizeof(std::string) + 3);
  SegmentRef ra = store.Put(a);
  EXPECT_EQ(store.bytes_used(), a_bytes);
  EXPECT_EQ(ra.bytes(), a_bytes);

  ColumnBatch b;
  b.names = {ColumnRef("u", "k")};
  b.columns = {IntColumn({4})};
  b.num_rows = 1;
  SegmentRef rb = store.Put(b);
  EXPECT_EQ(store.bytes_used(), a_bytes + sizeof(int64_t));

  // Dropping a segment releases its accounting.
  ra = SegmentRef{};
  EXPECT_EQ(store.bytes_used(), sizeof(int64_t));
  EXPECT_EQ(rb.bytes(), sizeof(int64_t));
}

// ---- Memory governance: budget, eviction, spill -----------------------------

/// A segment with one int64 column of `n` cells (payload = n * 8 bytes).
ColumnBatch IntSegment(int64_t first, size_t n) {
  ColumnBatch b;
  b.names = {ColumnRef("t", "k")};
  ColumnVector col(VecType::kInt64);
  for (size_t i = 0; i < n; ++i) col.ints().push_back(first + int64_t(i));
  b.columns = {std::move(col)};
  b.num_rows = n;
  return b;
}

TEST(MatStoreBudgetTest, ZeroBudgetDisablesGovernance) {
  MatStoreOptions options;
  options.budget_bytes = 0;  // 0 = unlimited, nothing ever spills
  MatStore store(options);
  std::vector<SegmentRef> refs;
  for (int eq = 0; eq < 8; ++eq) refs.push_back(store.Put(IntSegment(eq, 64)));
  EXPECT_EQ(store.bytes_used(), 8 * 64 * sizeof(int64_t));
  EXPECT_EQ(store.bytes_spilled(), 0u);
  EXPECT_EQ(store.stats().evictions, 0);
  for (const SegmentRef& ref : refs) EXPECT_TRUE(store.IsResident(ref));
}

TEST(MatStoreBudgetTest, EvictsSpillsAndReloadsByteIdentical) {
  const size_t seg_bytes = 32 * sizeof(int64_t);
  MatStoreOptions options;
  options.budget_bytes = 2 * seg_bytes;
  MatStore store(options);

  // A mixed-type segment so the spill format covers every column type.
  ColumnBatch mixed;
  mixed.names = {ColumnRef("t", "k"), ColumnRef("t", "v"),
                 ColumnRef("t", "tag")};
  mixed.columns = {IntColumn({1, -2, 3}), ColumnVector(VecType::kDouble),
                   StringColumn({"ab", "", "xyz"})};
  mixed.columns[1].doubles() = {0.5, -0.0, 1e18};
  mixed.num_rows = 3;
  const size_t mixed_bytes = mixed.ByteSize();

  SegmentRef one = store.Put(IntSegment(100, 32));
  SegmentRef two = store.Put(IntSegment(200, 32));
  SegmentRef three = store.Put(mixed);
  // Budget holds two int segments; putting the third evicted the oldest.
  EXPECT_FALSE(store.IsResident(one));
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.bytes_spilled(), seg_bytes);
  EXPECT_EQ(one.bytes(), seg_bytes);
  EXPECT_GE(store.stats().spill_writes, 1);

  {
    // Reload is transparent and byte-identical.
    auto pinned = store.Pin(one);
    ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
    EXPECT_TRUE(pinned.ValueOrDie().reloaded());
    const ColumnBatch& reloaded = pinned.ValueOrDie().batch();
    EXPECT_TRUE(store.IsResident(one));
    EXPECT_EQ(reloaded.ByteSize(), seg_bytes);
    ASSERT_EQ(reloaded.num_rows, 32u);
    EXPECT_EQ(reloaded.columns[0].type(), VecType::kInt64);
    for (size_t i = 0; i < 32; ++i) {
      EXPECT_EQ(reloaded.columns[0].ints()[i], 100 + int64_t(i));
    }
  }
  EXPECT_EQ(store.stats().reloads, 1);
  EXPECT_EQ(store.stats().bytes_reloaded, seg_bytes);

  // Force the mixed segment through the same round trip.
  std::vector<SegmentRef> filler;
  while (store.IsResident(three)) {
    filler.push_back(store.Put(IntSegment(900, 32)));
    ASSERT_TRUE(store.Pin(one).ok());  // keep one hot so three ages out
  }
  auto mixed_pin = store.Pin(three);
  ASSERT_TRUE(mixed_pin.ok()) << mixed_pin.status().ToString();
  const ColumnBatch& mixed_back = mixed_pin.ValueOrDie().batch();
  EXPECT_EQ(mixed_back.ByteSize(), mixed_bytes);
  ASSERT_EQ(mixed_back.columns.size(), 3u);
  EXPECT_EQ(mixed_back.names[2], ColumnRef("t", "tag"));
  EXPECT_EQ(mixed_back.columns[1].type(), VecType::kDouble);
  EXPECT_EQ(mixed_back.columns[1].doubles()[2], 1e18);
  EXPECT_EQ(mixed_back.columns[2].strings()[0], "ab");
  EXPECT_EQ(mixed_back.columns[2].strings()[1], "");
}

TEST(MatStoreBudgetTest, SegmentLargerThanBudgetSpillsButStaysReadable) {
  MatStoreOptions options;
  options.budget_bytes = 16;  // smaller than any segment below
  MatStore store(options);
  SegmentRef giant = store.Put(IntSegment(0, 100));
  // The store can never hold it: it went straight to disk.
  EXPECT_FALSE(store.IsResident(giant));
  EXPECT_EQ(store.bytes_used(), 0u);
  {
    auto back = store.Pin(giant);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_EQ(back.ValueOrDie().batch().num_rows, 100u);
    EXPECT_EQ(back.ValueOrDie().batch().columns[0].ints()[99], 99);
  }
  // The reload may sit over budget until the next enforcement point.
  EXPECT_TRUE(store.IsResident(giant));
  SegmentRef small = store.Put(IntSegment(5, 2));
  EXPECT_FALSE(store.IsResident(giant));  // enforced again: back to disk
}

TEST(MatStoreBudgetTest, EvictionOrderIsDeterministicCostWeightedLru) {
  const size_t seg_bytes = 32 * sizeof(int64_t);
  for (int round = 0; round < 3; ++round) {  // determinism across repeats
    MatStoreOptions options;
    options.budget_bytes = 2 * seg_bytes;
    MatStore store(options);
    SegmentRef one = store.Put(IntSegment(0, 32));
    SegmentRef two = store.Put(IntSegment(0, 32));
    // Equal weights: LRU decides — one is oldest and goes first.
    SegmentRef three = store.Put(IntSegment(0, 32));
    EXPECT_FALSE(store.IsResident(one));
    EXPECT_TRUE(store.IsResident(two));
    EXPECT_TRUE(store.IsResident(three));
    // Remaining expected reads outweigh recency: two is older AND has reads
    // ahead of it, so the newer-but-worthless three is evicted instead.
    store.AddExpectedReads(two, 5.0);
    SegmentRef four = store.Put(IntSegment(0, 32));
    EXPECT_TRUE(store.IsResident(two));
    EXPECT_FALSE(store.IsResident(three));
    // Every pin consumes one expected read and refreshes recency: after
    // five pins two is worth no more than the others but is the most
    // recently used, so four goes next.
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(store.Pin(two).ok());
    SegmentRef five = store.Put(IntSegment(0, 32));
    EXPECT_TRUE(store.IsResident(two));
    EXPECT_FALSE(store.IsResident(four));
    // With its weight spent, two is now the least recently used of equals.
    SegmentRef six = store.Put(IntSegment(0, 32));
    EXPECT_FALSE(store.IsResident(two));
  }
}

TEST(MatStoreBudgetTest, PinnedSegmentSurvivesEvictionPressure) {
  const size_t seg_bytes = 32 * sizeof(int64_t);
  MatStoreOptions options;
  options.budget_bytes = seg_bytes;  // room for exactly one segment
  MatStore store(options);
  SegmentRef one = store.Put(IntSegment(10, 32));
  auto pinned = store.Pin(one);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  // Budget pressure cannot touch the pinned segment; the newcomers spill.
  SegmentRef two = store.Put(IntSegment(20, 32));
  SegmentRef three = store.Put(IntSegment(30, 32));
  EXPECT_TRUE(store.IsResident(one));
  EXPECT_FALSE(store.IsResident(two));
  EXPECT_FALSE(store.IsResident(three));
  EXPECT_EQ(pinned.ValueOrDie().batch().columns[0].ints()[0], 10);
  // Releasing the pin makes it evictable again.
  pinned.ValueOrDie().Release();
  SegmentRef four = store.Put(IntSegment(40, 32));
  EXPECT_FALSE(store.IsResident(one));
  EXPECT_EQ(store.size(), 4u);
}

TEST(MatStoreBudgetTest, PinRehydratesAndCowCopyOutlivesEviction) {
  const size_t seg_bytes = 32 * sizeof(int64_t);
  MatStoreOptions options;
  options.budget_bytes = seg_bytes;
  MatStore store(options);
  SegmentRef one = store.Put(IntSegment(10, 32));
  SegmentRef two = store.Put(IntSegment(20, 32));  // spills one
  ASSERT_FALSE(store.IsResident(one));
  ColumnBatch copy;
  {
    auto pinned = store.Pin(one);  // rehydrates from disk
    ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
    copy = pinned.ValueOrDie().batch();  // COW: shares payloads
    EXPECT_TRUE(copy.columns[0].SharesPayloadWith(
        pinned.ValueOrDie().batch().columns[0]));
  }
  // Pin released; evict one again. The caller's COW copy keeps the payload.
  SegmentRef three = store.Put(IntSegment(30, 32));
  ASSERT_FALSE(store.IsResident(one));
  EXPECT_EQ(copy.columns[0].ints()[31], 41);
  // ... and outlives the segment itself.
  one = SegmentRef{};
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(copy.columns[0].ints()[0], 10);
}

TEST(SpillFileTest, RoundTripIsExactIncludingEmptyBatch) {
  SpillDir dir;
  auto path = dir.NextPath();
  ASSERT_TRUE(path.ok()) << path.status().ToString();

  ColumnBatch b;
  b.names = {ColumnRef("q", "k"), ColumnRef("", "synth")};
  b.columns = {IntColumn({5, 6}), StringColumn({"a", "bb"})};
  b.num_rows = 2;
  ASSERT_TRUE(WriteSegmentFile(path.ValueOrDie(), b).ok());
  auto back = ReadSegmentFile(path.ValueOrDie());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.ValueOrDie().num_rows, 2u);
  EXPECT_EQ(back.ValueOrDie().names, b.names);
  EXPECT_EQ(back.ValueOrDie().ByteSize(), b.ByteSize());
  EXPECT_EQ(back.ValueOrDie().columns[0].ints(), b.columns[0].ints());
  EXPECT_EQ(back.ValueOrDie().columns[1].strings(), b.columns[1].strings());

  // Zero-row, zero-column edge: still a valid file.
  auto empty_path = dir.NextPath();
  ASSERT_TRUE(empty_path.ok());
  ASSERT_TRUE(WriteSegmentFile(empty_path.ValueOrDie(), ColumnBatch{}).ok());
  auto empty = ReadSegmentFile(empty_path.ValueOrDie());
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.ValueOrDie().num_rows, 0u);
  EXPECT_TRUE(empty.ValueOrDie().columns.empty());
}

namespace {

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  char buf[4096];
  size_t n = 0;
  while (f != nullptr && (n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  if (f != nullptr) std::fclose(f);
  return out;
}

void WriteHeaderBytes(const std::string& path, uint32_t magic,
                      uint32_t version) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(&magic, 1, sizeof(magic), f), sizeof(magic));
  ASSERT_EQ(std::fwrite(&version, 1, sizeof(version), f), sizeof(version));
  std::fclose(f);
}

}  // namespace

TEST(SpillFileTest, DictionaryColumnsRoundTripByteStable) {
  SpillDir dir;
  ColumnBatch b;
  b.names = {ColumnRef("t", "tag"), ColumnRef("t", "uniq")};
  ColumnVector dup = StringColumn({"red", "blue", "red", "blue", "red"});
  ASSERT_TRUE(dup.DictEncode());
  ColumnVector uniq = StringColumn({"a", "b", "c", "d", "e"});  // all-distinct
  ASSERT_TRUE(uniq.DictEncode());
  b.columns = {dup, uniq};
  b.num_rows = 5;

  auto p1 = dir.NextPath();
  auto p2 = dir.NextPath();
  ASSERT_TRUE(p1.ok() && p2.ok());
  ASSERT_TRUE(WriteSegmentFile(p1.ValueOrDie(), b).ok());
  auto back = ReadSegmentFile(p1.ValueOrDie());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const ColumnBatch& r = back.ValueOrDie();
  ASSERT_EQ(r.columns.size(), 2u);
  ASSERT_TRUE(r.columns[0].dict_encoded());
  ASSERT_TRUE(r.columns[1].dict_encoded());
  EXPECT_EQ(r.columns[0].dict()->entries, dup.dict()->entries);
  EXPECT_EQ(r.columns[0].codes(), dup.codes());
  EXPECT_EQ(r.columns[1].dict()->entries, uniq.dict()->entries);
  EXPECT_EQ(r.columns[1].codes(), uniq.codes());
  EXPECT_EQ(r.ByteSize(), b.ByteSize());
  // Re-writing the reloaded batch reproduces the file byte for byte.
  ASSERT_TRUE(WriteSegmentFile(p2.ValueOrDie(), r).ok());
  EXPECT_EQ(ReadFileBytes(p1.ValueOrDie()), ReadFileBytes(p2.ValueOrDie()));
}

TEST(SpillFileTest, EmptyDictionaryRoundTrip) {
  SpillDir dir;
  ColumnBatch b;
  b.names = {ColumnRef("t", "s")};
  b.columns = {ColumnVector::FromDict(
      ColumnDict::FromSortedUnique(std::vector<std::string>{}),
      std::vector<int32_t>{})};
  b.num_rows = 0;
  auto path = dir.NextPath();
  ASSERT_TRUE(path.ok());
  ASSERT_TRUE(WriteSegmentFile(path.ValueOrDie(), b).ok());
  auto back = ReadSegmentFile(path.ValueOrDie());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_TRUE(back.ValueOrDie().columns[0].dict_encoded());
  EXPECT_TRUE(back.ValueOrDie().columns[0].dict()->entries.empty());
  EXPECT_TRUE(back.ValueOrDie().columns[0].codes().empty());
}

TEST(SpillFileTest, ForColumnsAndZoneMapsRoundTripByteStable) {
  SpillDir dir;
  ColumnBatch b;
  b.names = {ColumnRef("t", "k"), ColumnRef("t", "d")};
  std::vector<int64_t> ints = ClusteredInts(3000);
  ColumnVector enc = IntColumnOf(ints);
  ASSERT_TRUE(enc.ForEncode());
  enc.BuildZoneMap();
  ColumnVector dbl(VecType::kDouble);
  for (size_t i = 0; i < ints.size(); ++i) dbl.doubles().push_back(i * 0.5);
  dbl.BuildZoneMap();
  b.columns = {enc, dbl};
  b.num_rows = ints.size();

  auto p1 = dir.NextPath();
  auto p2 = dir.NextPath();
  ASSERT_TRUE(p1.ok() && p2.ok());
  ASSERT_TRUE(WriteSegmentFile(p1.ValueOrDie(), b).ok());
  auto back = ReadSegmentFile(p1.ValueOrDie());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const ColumnBatch& r = back.ValueOrDie();
  ASSERT_EQ(r.columns.size(), 2u);
  // The FOR form survives the round trip — rehydration does not decode.
  ASSERT_TRUE(r.columns[0].for_encoded());
  ASSERT_EQ(r.columns[0].size(), ints.size());
  for (size_t i = 0; i < ints.size(); i += 211) {
    EXPECT_EQ(r.columns[0].Int64At(i), ints[i]);
  }
  // Zone maps survive for both columns, entry for entry.
  for (size_t c = 0; c < 2; ++c) {
    auto zm = r.columns[c].zone_map();
    auto want = b.columns[c].zone_map();
    ASSERT_NE(zm, nullptr) << c;
    ASSERT_EQ(zm->num_rows, want->num_rows);
    ASSERT_EQ(zm->zones.size(), want->zones.size());
    for (size_t z = 0; z < zm->zones.size(); ++z) {
      EXPECT_EQ(zm->zones[z].min, want->zones[z].min);
      EXPECT_EQ(zm->zones[z].max, want->zones[z].max);
      EXPECT_EQ(zm->zones[z].null_free, want->zones[z].null_free);
    }
  }
  // Physical accounting is preserved (encoded bytes, not decoded bytes).
  EXPECT_EQ(r.ByteSize(), b.ByteSize());
  // Re-writing the reloaded batch reproduces the file byte for byte.
  ASSERT_TRUE(WriteSegmentFile(p2.ValueOrDie(), r).ok());
  EXPECT_EQ(ReadFileBytes(p1.ValueOrDie()), ReadFileBytes(p2.ValueOrDie()));
}

TEST(SpillFileTest, EveryTruncationOfForFileFailsLoudly) {
  SpillDir dir;
  ColumnBatch b;
  b.names = {ColumnRef("t", "k")};
  ColumnVector enc = IntColumnOf(ClusteredInts(2048));
  ASSERT_TRUE(enc.ForEncode());
  enc.BuildZoneMap();
  b.columns = {enc};
  b.num_rows = 2048;
  auto p1 = dir.NextPath();
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(WriteSegmentFile(p1.ValueOrDie(), b).ok());
  const std::string full = ReadFileBytes(p1.ValueOrDie());
  ASSERT_GT(full.size(), 64u);
  // Every proper prefix — cutting mid-header, mid-packed-words, or mid-zone
  // section — must be rejected, never read out of bounds or half-succeed.
  auto pt = dir.NextPath();
  ASSERT_TRUE(pt.ok());
  for (size_t len = 0; len < full.size(); len += 7) {
    std::FILE* f = std::fopen(pt.ValueOrDie().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (len > 0) {
      ASSERT_EQ(std::fwrite(full.data(), 1, len, f), len);
    }
    std::fclose(f);
    EXPECT_FALSE(ReadSegmentFile(pt.ValueOrDie()).ok()) << "prefix " << len;
  }
}

TEST(MatStoreTest, AccountsEncodedBytesAndRehydratesEncodedForms) {
  // Budget, eviction, and spill accounting all see the encoded physical
  // size, so compression directly buys materialization headroom.
  ColumnBatch seg;
  seg.names = {ColumnRef("t", "k")};
  std::vector<int64_t> ints = ClusteredInts(4096);
  ColumnVector enc = IntColumnOf(ints);
  const size_t plain_bytes = enc.ByteSize();
  ASSERT_TRUE(enc.ForEncode());
  enc.BuildZoneMap();
  seg.columns = {enc};
  seg.num_rows = ints.size();
  ASSERT_LT(seg.ByteSize(), plain_bytes);

  MatStoreOptions options;
  options.budget_bytes = seg.ByteSize();  // fits exactly one encoded segment
  MatStore store(options);
  SegmentRef one = store.Put(seg);
  EXPECT_EQ(store.bytes_used(), seg.ByteSize());
  ASSERT_TRUE(store.IsResident(one));
  SegmentRef two = store.Put(seg);  // evicts one to disk
  ASSERT_FALSE(store.IsResident(one));
  auto pinned = store.Pin(one);  // rehydrates: still encoded, zones intact
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  const ColumnVector& back = pinned.ValueOrDie().batch().columns[0];
  ASSERT_TRUE(back.for_encoded());
  ASSERT_NE(back.zone_map(), nullptr);
  EXPECT_EQ(back.Int64At(4095), ints[4095]);
}

TEST(SpillFileTest, RejectsForeignMagicVersionAndTruncation) {
  SpillDir dir;
  auto p1 = dir.NextPath();
  auto p2 = dir.NextPath();
  auto p3 = dir.NextPath();
  ASSERT_TRUE(p1.ok() && p2.ok() && p3.ok());

  // Wrong magic: not one of our files at all.
  WriteHeaderBytes(p1.ValueOrDie(), 0x12345678u, kSpillFormatVersion);
  auto r1 = ReadSegmentFile(p1.ValueOrDie());
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.status().ToString().find("not a spill file"),
            std::string::npos);

  // Right magic, old format version: rejected explicitly, never misread.
  WriteHeaderBytes(p2.ValueOrDie(), kSpillMagic, 1);
  auto r2 = ReadSegmentFile(p2.ValueOrDie());
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().ToString().find("unsupported spill format version 1"),
            std::string::npos);

  // Truncated mid-header.
  {
    std::FILE* f = std::fopen(p3.ValueOrDie().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(&kSpillMagic, 1, 2, f), 2u);
    std::fclose(f);
  }
  auto r3 = ReadSegmentFile(p3.ValueOrDie());
  ASSERT_FALSE(r3.ok());
  EXPECT_NE(r3.status().ToString().find("corrupt or truncated"),
            std::string::npos);
}

TEST(SpillFileTest, StoreDestructionRemovesSpillDirectory) {
  std::string dir = ::testing::TempDir() + "mqo_spill_cleanup_test";
  {
    MatStoreOptions options;
    options.budget_bytes = 8;
    options.spill_dir = dir;
    MatStore store(options);
    SegmentRef spilled = store.Put(IntSegment(0, 16));
    EXPECT_FALSE(store.IsResident(spilled));
    // The directory exists while the store holds spilled segments.
    EXPECT_EQ(::access(dir.c_str(), F_OK), 0);
    spilled = SegmentRef{};  // handles never outlive their store
  }
  // Destruction removed the spill files and the (now empty) directory.
  EXPECT_NE(::access(dir.c_str(), F_OK), 0);
}

// ---- The shared pipeline driver ---------------------------------------------

TEST(PipelineDriverTest, EveryMorselFoldsIntoExactlyOneWorkerState) {
  PipelineOptions options;
  options.num_threads = 4;
  options.morsel_rows = 16;
  const size_t num_rows = 1000;
  // Each worker state records the morsels it claimed; across all states the
  // morsel indices must partition the morsel space and cover the row space.
  using State = std::vector<std::pair<size_t, Morsel>>;
  std::vector<State> states = RunPipeline<State>(
      num_rows, options,
      [](State& state, size_t m, const Morsel& morsel) {
        state.emplace_back(m, morsel);
      });
  ASSERT_GT(states.size(), 1u);
  std::vector<int> seen(MakeMorsels(num_rows, options.morsel_rows).size(), 0);
  size_t covered = 0;
  for (const State& state : states) {
    for (const auto& entry : state) {
      ++seen[entry.first];
      covered += entry.second.size();
    }
  }
  for (int s : seen) EXPECT_EQ(s, 1);
  EXPECT_EQ(covered, num_rows);
}

TEST(PipelineDriverTest, EmptySourceYieldsOneIdleState) {
  PipelineOptions options;
  options.num_threads = 8;
  std::vector<int> states = RunPipeline<int>(
      0, options, [](int& state, size_t, const Morsel&) { state = 1; });
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(states[0], 0);
}

TEST(ParallelForTest, CoversEveryTaskExactlyOnce) {
  std::vector<int> visits(257, 0);
  ParallelFor(visits.size(), 8, [&](size_t i) { ++visits[i]; });
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(WorkerPoolTest, ThreadsPersistAcrossRuns) {
  // Two parallel runs back to back: the second reuses the pool the first
  // spawned (the pool only ever grows, up to the largest request).
  ParallelFor(64, 4, [](size_t) {});
  const size_t after_first = WorkerPoolSize();
  EXPECT_GE(after_first, 3u);
  std::vector<int> visits(64, 0);
  ParallelFor(visits.size(), 4, [&](size_t i) { ++visits[i]; });
  for (int v : visits) EXPECT_EQ(v, 1);
  EXPECT_EQ(WorkerPoolSize(), after_first);
}

TEST(WorkerPoolTest, NestedParallelismRunsInlineAndStaysCorrect) {
  // A body that itself calls ParallelFor must not deadlock on the pool:
  // nested calls degrade to inline execution on the pool worker.
  std::vector<std::array<int, 16>> visits(8);
  for (auto& inner : visits) inner.fill(0);
  ParallelFor(visits.size(), 4, [&](size_t outer) {
    ParallelFor(visits[outer].size(), 4,
                [&](size_t inner) { ++visits[outer][inner]; });
  });
  for (const auto& inner : visits) {
    for (int v : inner) EXPECT_EQ(v, 1);
  }
}

// ---- Row/column boundary round-trips ----------------------------------------

void ExpectRoundTrip(const NamedRows& rows) {
  auto batch = BatchFromRows(rows);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  NamedRows back = BatchToRows(batch.ValueOrDie());
  ASSERT_EQ(back.columns.size(), rows.columns.size());
  ASSERT_EQ(back.rows.size(), rows.rows.size());
  for (size_t c = 0; c < rows.columns.size(); ++c) {
    EXPECT_EQ(back.columns[c], rows.columns[c]);
  }
  for (size_t r = 0; r < rows.rows.size(); ++r) {
    for (size_t c = 0; c < rows.columns.size(); ++c) {
      EXPECT_TRUE(ValueEq(back.rows[r][c], rows.rows[r][c]))
          << "row " << r << " col " << c;
    }
  }
}

TEST(RoundTripTest, EmptyTable) {
  NamedRows rows;
  rows.columns = {ColumnRef("t", "a"), ColumnRef("t", "b")};
  ExpectRoundTrip(rows);
}

TEST(RoundTripTest, NoColumns) { ExpectRoundTrip(NamedRows{}); }

TEST(RoundTripTest, SingleColumn) {
  NamedRows rows;
  rows.columns = {ColumnRef("t", "only")};
  rows.rows = {{Value(1.0)}, {Value(-3.0)}, {Value(1e15)}};
  ExpectRoundTrip(rows);
}

TEST(RoundTripTest, MixedNumericAndStringColumns) {
  NamedRows rows;
  rows.columns = {ColumnRef("t", "i"), ColumnRef("t", "d"),
                  ColumnRef("t", "s"), ColumnRef("", "synth")};
  rows.rows = {{Value(1.0), Value(0.5), Value("x"), Value(0.0)},
               {Value(2.0), Value(-0.25), Value(""), Value(7.0)}};
  ExpectRoundTrip(rows);
}

TEST(RoundTripTest, DuplicateColumnNamesKeepPositions) {
  // Duplicate names can appear transiently (e.g. self-join schemas before
  // rejection); conversion must stay positional and lossless.
  NamedRows rows;
  rows.columns = {ColumnRef("t", "k"), ColumnRef("t", "k")};
  rows.rows = {{Value(1.0), Value(2.0)}, {Value(3.0), Value(4.0)}};
  ExpectRoundTrip(rows);
}

TEST(RoundTripTest, DataSetAddTableRowsBoundary) {
  NamedRows rows;
  rows.columns = {ColumnRef("t", "k"), ColumnRef("t", "tag")};
  rows.rows = {{Value(1.0), Value("a")}, {Value(2.0), Value("b")}};
  DataSet data;
  ASSERT_TRUE(data.AddTableRows("t", rows).ok());
  auto store = data.GetTable("t");
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.ValueOrDie()->num_rows(), 2u);
  // And back out through the row engine's scan path.
  auto scanned = ScanRows(data, "t", "t");
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned.ValueOrDie().rows.size(), 2u);
  EXPECT_TRUE(ValueEq(scanned.ValueOrDie().rows[1][1], Value("b")));
}

// ---- Concurrency: MatStore races + the cross-batch segment cache ------------

/// A two-row segment whose cells encode `v`, so any reader can verify it got
/// the payload its key promises.
ColumnBatch MarkerBatch(int64_t v) {
  ColumnBatch batch;
  batch.names = {ColumnRef("t", "k")};
  batch.columns = {IntColumn({v, v + 1})};
  batch.num_rows = 2;
  return batch;
}

/// The first cell of `ref`'s segment, read through a pin.
int64_t FirstCell(MatStore* store, const SegmentRef& ref) {
  auto pinned = store->Pin(ref);
  EXPECT_TRUE(pinned.ok()) << pinned.status().ToString();
  return pinned.ok() ? pinned.ValueOrDie().batch().columns[0].ints()[0] : -1;
}

// Concurrent Put/Pin/handle drops over a contended set of shared slots,
// under a budget small enough that every operation also races eviction and
// spill. Every successful pin must see the payload its slot encodes, and
// once every handle is gone the store's accounting must be back at zero.
// (TSan CI runs this with race detection on.)
TEST(MatStoreConcurrencyTest, ContendedPutPinReleaseUnderEvictionPressure) {
  for (int threads : {1, 2, 8}) {
    MatStoreOptions options;
    options.budget_bytes = 128;  // a fraction of one segment: constant churn
    MatStore store(options);
    std::mutex slots_mu;
    std::array<SegmentRef, 8> slots;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (int i = 0; i < 60; ++i) {
          const size_t slot = static_cast<size_t>((t * 60 + i) % 8);
          const int64_t marker = static_cast<int64_t>(slot) * 1000;
          SegmentRef mine = store.Put(MarkerBatch(marker),
                                      static_cast<double>(slot + 1));
          SegmentRef replaced;
          SegmentRef read;
          {
            std::lock_guard<std::mutex> lock(slots_mu);
            replaced = std::exchange(slots[slot], mine);
            read = slots[(slot + 3) % 8];
          }
          replaced = SegmentRef{};  // may free the old segment, unlocked
          if (read) {
            store.AddExpectedReads(read, 1.0);
            auto pin = store.Pin(read);
            ASSERT_TRUE(pin.ok()) << pin.status().ToString();
            const ColumnBatch& batch = pin.ValueOrDie().batch();
            ASSERT_EQ(batch.num_rows, 2u);
            EXPECT_EQ(batch.columns[0].ints()[0],
                      static_cast<int64_t>((slot + 3) % 8) * 1000);
          }
          EXPECT_EQ(FirstCell(&store, mine), marker);
          if ((i + t) % 5 == 0) {
            std::lock_guard<std::mutex> lock(slots_mu);
            replaced = std::move(slots[slot]);
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    EXPECT_TRUE(store.last_error().ok()) << store.last_error().ToString();
    // Whatever survived is still readable and correct.
    for (size_t slot = 0; slot < slots.size(); ++slot) {
      if (slots[slot]) {
        EXPECT_EQ(FirstCell(&store, slots[slot]),
                  static_cast<int64_t>(slot) * 1000);
      }
    }
    slots = {};
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.bytes_used(), 0u);
    EXPECT_EQ(store.bytes_spilled(), 0u);
  }
}

/// Puts a marker segment into `cache`'s store.
SegmentRef PutMarker(SharedSegmentCache* cache, int64_t v) {
  return cache->store()->Put(MarkerBatch(v));
}

TEST(SegmentCacheTest, LookupInsertStalenessAndCounters) {
  SharedSegmentCache cache(MatStoreOptions{});
  EXPECT_FALSE(cache.Lookup(1, "k", nullptr));
  cache.Insert(1, "k", PutMarker(&cache, 10), {"t"},
               cache.TableVersionSnapshot());
  SegmentRef hit = cache.Lookup(1, "k", nullptr);
  ASSERT_TRUE(hit);
  EXPECT_EQ(FirstCell(cache.store(), hit), 10);
  // Invalidating an unrelated table leaves the segment serveable.
  cache.InvalidateTable("u");
  EXPECT_TRUE(cache.Lookup(1, "k", nullptr));
  // Invalidating a dependency drops it: stale means miss, never wrong data.
  cache.InvalidateTable("t");
  EXPECT_FALSE(cache.Lookup(1, "k", nullptr));
  // A segment computed *after* the bump captured the new version — fresh.
  cache.Insert(1, "k", PutMarker(&cache, 20), {"t"},
               cache.TableVersionSnapshot());
  hit = cache.Lookup(1, "k", nullptr);
  ASSERT_TRUE(hit);
  EXPECT_EQ(FirstCell(cache.store(), hit), 20);

  const SegmentCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 5);
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.inserts, 2);
  EXPECT_EQ(stats.invalidated_segments, 1);
  // Lookups do no store traffic: only the two reads above pinned.
  EXPECT_EQ(cache.store_stats().gets, 2);
}

// The fingerprint is a 64-bit hash: an entry serves only a lookup that
// presents the same structural key.
TEST(SegmentCacheTest, FingerprintMatchWithAnotherKeyIsMiss) {
  SharedSegmentCache cache(MatStoreOptions{});
  cache.Insert(7, "A", PutMarker(&cache, 70), {"t"},
               cache.TableVersionSnapshot());
  EXPECT_FALSE(cache.Lookup(7, "B", nullptr));
  SegmentRef hit = cache.Lookup(7, "A", nullptr);
  ASSERT_TRUE(hit);
  EXPECT_EQ(FirstCell(cache.store(), hit), 70);
  // A colliding class never displaces the entry either.
  cache.Insert(7, "B", PutMarker(&cache, 71), {"t"},
               cache.TableVersionSnapshot());
  EXPECT_EQ(cache.stats().insert_races_lost, 1);
  EXPECT_EQ(FirstCell(cache.store(), cache.Lookup(7, "A", nullptr)), 70);
  const SegmentCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.narrow_misses, 0);
}

/// A one-row segment holding `cols` of alias `t`.
SegmentRef PutColumns(SharedSegmentCache* cache,
                      const std::vector<std::string>& cols) {
  ColumnBatch batch;
  for (const auto& c : cols) {
    batch.names.emplace_back("t", c);
    batch.columns.push_back(IntColumn({1}));
  }
  batch.num_rows = 1;
  return cache->store()->Put(std::move(batch));
}

// An entry serves the needs it covers. A wider need misses and learns the
// cached columns; the segment computed for the union replaces the entry,
// and a narrower one never does.
TEST(SegmentCacheTest, NarrowEntryServesCoveredNeedsAndOnlyWidens) {
  SharedSegmentCache cache(MatStoreOptions{});
  const TableVersions versions = cache.TableVersionSnapshot();
  cache.Insert(5, "k", PutColumns(&cache, {"a", "c"}), {"t"}, versions);
  ColumnNeed covered = {ColumnRef("t", "a")};
  EXPECT_TRUE(cache.Lookup(5, "k", &covered));
  EXPECT_EQ(covered, (ColumnNeed{ColumnRef("t", "a")}));
  ColumnNeed wider = {ColumnRef("t", "a"), ColumnRef("t", "b")};
  EXPECT_FALSE(cache.Lookup(5, "k", &wider));
  EXPECT_EQ(wider, (ColumnNeed{ColumnRef("t", "a"), ColumnRef("t", "b"),
                               ColumnRef("t", "c")}));
  cache.Insert(5, "k", PutColumns(&cache, {"a", "b", "c"}), {"t"}, versions);
  cache.Insert(5, "k", PutColumns(&cache, {"b"}), {"t"}, versions);
  ColumnNeed again = {ColumnRef("t", "a"), ColumnRef("t", "b")};
  SegmentRef hit = cache.Lookup(5, "k", &again);
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit.names().size(), 3u);
  const SegmentCacheStats stats = cache.stats();
  EXPECT_EQ(stats.narrow_misses, 1);
  EXPECT_EQ(stats.inserts, 2);
  EXPECT_EQ(stats.widenings, 1);
  EXPECT_EQ(stats.insert_races_lost, 1);
  // The replaced and the losing segments died with their last handles.
  hit = SegmentRef{};
  EXPECT_EQ(cache.store()->size(), 1u);
}

// A run that read `t` before InvalidateTable("t") publishes with its
// run-start snapshot: the segment may hold old rows, so it is never served.
TEST(SegmentCacheTest, InsertStampedBeforeInvalidationIsMiss) {
  SharedSegmentCache cache(MatStoreOptions{});
  const TableVersions read_versions = cache.TableVersionSnapshot();
  cache.InvalidateTable("t");
  cache.Insert(3, "k", PutMarker(&cache, 30), {"t"}, read_versions);
  EXPECT_FALSE(cache.Lookup(3, "k", nullptr));
  EXPECT_EQ(cache.stats().inserts, 0);
  // The unindexed segment died with its last handle.
  EXPECT_EQ(cache.bytes_used(), 0u);
  // A run that started after the invalidation publishes a fresh segment.
  cache.Insert(3, "k", PutMarker(&cache, 31), {"t"},
               cache.TableVersionSnapshot());
  SegmentRef hit = cache.Lookup(3, "k", nullptr);
  ASSERT_TRUE(hit);
  EXPECT_EQ(FirstCell(cache.store(), hit), 31);
}

TEST(SegmentCacheTest, FirstInsertWinsAndCopiesAreIsolated) {
  SharedSegmentCache cache(MatStoreOptions{});
  const TableVersions versions = cache.TableVersionSnapshot();
  cache.Insert(9, "k", PutMarker(&cache, 1), {"t"}, versions);
  cache.Insert(9, "k", PutMarker(&cache, 2), {"t"}, versions);  // lost race
  EXPECT_EQ(cache.stats().insert_races_lost, 1);
  EXPECT_EQ(cache.store()->size(), 1u);  // the loser's segment is gone
  SegmentRef hit = cache.Lookup(9, "k", nullptr);
  ASSERT_TRUE(hit);
  // The pinned batch is a COW handle: writing through a copy of it must
  // not corrupt what the cache serves next.
  ColumnBatch out;
  {
    auto pinned = cache.store()->Pin(hit);
    ASSERT_TRUE(pinned.ok());
    out = pinned.ValueOrDie().batch();
  }
  EXPECT_EQ(out.columns[0].ints()[0], 1);
  out.columns[0].ints()[0] = 777;
  EXPECT_EQ(FirstCell(cache.store(), cache.Lookup(9, "k", nullptr)), 1);
}

// A run holding a cached handle keeps reading it across invalidation: the
// index entry goes, the segment does not. Dropping the last handle then
// frees its bytes and its spill file.
TEST(SegmentCacheTest, HandleHeldAcrossInvalidationStaysReadable) {
  const std::string dir = ::testing::TempDir() + "mqo_cache_handle_test";
  {
    MatStoreOptions options;
    options.budget_bytes = 1;  // every unpinned segment lives on disk
    options.spill_dir = dir;
    SharedSegmentCache cache(options);
    cache.Insert(4, "k", PutMarker(&cache, 40), {"t"},
                 cache.TableVersionSnapshot());
    SegmentRef held = cache.Lookup(4, "k", nullptr);
    ASSERT_TRUE(held);
    EXPECT_FALSE(cache.store()->IsResident(held));
    EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                            std::filesystem::directory_iterator()),
              1);

    cache.InvalidateTable("t");
    EXPECT_FALSE(cache.Lookup(4, "k", nullptr));
    EXPECT_EQ(cache.size(), 0u);
    {
      auto pinned = cache.store()->Pin(held);  // reloads the spill file
      ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
      const ColumnBatch& batch = pinned.ValueOrDie().batch();
      EXPECT_EQ(batch.num_rows, 2u);
      EXPECT_EQ(batch.columns[0].ints()[0], 40);
      EXPECT_EQ(batch.columns[0].ints()[1], 41);
    }
    EXPECT_EQ(cache.store()->size(), 1u);

    held = SegmentRef{};
    EXPECT_EQ(cache.store()->size(), 0u);
    EXPECT_EQ(cache.bytes_used(), 0u);
    EXPECT_EQ(cache.store()->bytes_spilled(), 0u);
    EXPECT_TRUE(std::filesystem::is_empty(dir));
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

// Concurrent Insert/Lookup/InvalidateTable over a shared fingerprint space:
// every hit must serve exactly the payload its fingerprint encodes, no
// matter which thread's insert won or what was invalidated in between.
TEST(SegmentCacheConcurrencyTest, RacingInsertLookupInvalidate) {
  for (int threads : {1, 2, 8}) {
    MatStoreOptions options;
    options.budget_bytes = 128;  // lookups race eviction and reload too
    SharedSegmentCache cache(options);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&cache, t] {
        for (int i = 0; i < 60; ++i) {
          const uint64_t fp = static_cast<uint64_t>((t + i) % 6);
          const std::string table = "t" + std::to_string(fp % 2);
          cache.Insert(fp, "k",
                       PutMarker(&cache, static_cast<int64_t>(fp) * 10),
                       {table}, cache.TableVersionSnapshot());
          if (SegmentRef hit = cache.Lookup(fp, "k", nullptr)) {
            EXPECT_EQ(FirstCell(cache.store(), hit),
                      static_cast<int64_t>(fp) * 10);
          }
          if ((i + t) % 13 == 0) cache.InvalidateTable(table);
        }
      });
    }
    for (std::thread& w : workers) w.join();
    // Every lookup resolved to a hit or a miss (stale misses are a subset
    // of misses), regardless of interleaving.
    const SegmentCacheStats stats = cache.stats();
    EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
    EXPECT_LE(stats.stale_misses, stats.misses);
    // The store holds exactly the indexed segments; Clear frees them all.
    EXPECT_EQ(cache.store()->size(), cache.size());
    cache.Clear();
    EXPECT_EQ(cache.store()->size(), 0u);
    EXPECT_EQ(cache.bytes_used(), 0u);
  }
}

}  // namespace
}  // namespace mqo
