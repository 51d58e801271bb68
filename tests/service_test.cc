// Concurrent MQO service tests: the differential invariant (concurrent
// client batches through one MqoSession are bag-equal to the same batches
// run serially without the session), cross-batch semantic cache hits and
// their zero-cost optimizer treatment, invalidation (a mutated base table
// must never be served from a stale cached segment), and per-batch trace
// scoping.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/tpcd.h"
#include "exec/dataset.h"
#include "mqo/facade.h"
#include "mqo/service.h"
#include "storage/segment_cache.h"
#include "workload/tpcd_queries.h"

namespace mqo {
namespace {

/// Two overlapping query templates: every batch is one TPC-D query in both
/// selection-constant variants, so re-running a template re-requests the
/// same structural fingerprints. Q5 and Q9 both materialize at this scale
/// under catalog and collected statistics alike, so every template re-run
/// has a cached segment to hit.
std::vector<LogicalExprPtr> Template(int t) {
  std::vector<LogicalExprPtr> batch;
  if (t % 2 == 0) {
    batch.push_back(MakeQ5(0));
    batch.push_back(MakeQ5(1));
  } else {
    batch.push_back(MakeQ9(0));
    batch.push_back(MakeQ9(1));
  }
  return batch;
}

/// The template client `client` submits as its `batch_index`-th request:
/// rotates per client, so templates recur both within a client's sequence
/// and across concurrent clients.
std::vector<LogicalExprPtr> GenerateBatch(int client, int batch_index) {
  return Template(client + batch_index);
}

bool SameResults(const std::vector<NamedRows>& a,
                 const std::vector<NamedRows>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].columns == b[i].columns)) return false;
    if (!(a[i].rows == b[i].rows)) return false;
  }
  return true;
}

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : catalog_(MakeTpcdCatalog(1)) {
    DataGenOptions gen;
    gen.max_rows_per_table = 60;
    data_ = GenerateData(catalog_, gen);
  }

  Catalog catalog_;
  DataSet data_;
};

// The service-level differential invariant: for both engines, every client
// count and both statistics modes, the results a concurrent session serves
// are exactly the ones a standalone serial run of the same batch produces
// (results are canonicalized, so equality is semantic bag-equality).
TEST_F(ServiceTest, ConcurrentSessionMatchesSerialExecution) {
  for (ExecBackend backend : {ExecBackend::kRow, ExecBackend::kVector}) {
    for (StatsMode stats : {StatsMode::kCatalogGuess, StatsMode::kCollected}) {
      MqoOptions options;
      options.backend = backend;
      options.stats_mode = stats;

      // Serial reference: each template standalone, no session, no cache.
      std::vector<std::vector<NamedRows>> expected;
      for (int t = 0; t < 2; ++t) {
        auto ref =
            OptimizeAndExecuteBatch(catalog_, Template(t), data_, options);
        ASSERT_TRUE(ref.ok()) << ref.status().ToString();
        expected.push_back(std::move(ref.ValueOrDie().results));
      }

      for (int clients : {1, 2, 8}) {
        MqoSession session(&catalog_, &data_, options);
        ServiceTrafficOptions traffic;
        traffic.num_clients = clients;
        traffic.batches_per_client = 3;
        traffic.keep_results = true;
        ServiceReport report =
            RunServiceTraffic(&session, GenerateBatch, traffic);
        EXPECT_EQ(report.failed, 0);
        ASSERT_EQ(report.batches.size(),
                  static_cast<size_t>(clients) * 3);
        for (const ServiceBatchResult& b : report.batches) {
          ASSERT_TRUE(b.ok) << b.error;
          const auto& want = expected[(b.client + b.batch_index) % 2];
          EXPECT_TRUE(SameResults(b.results, want))
              << "backend=" << static_cast<int>(backend)
              << " stats=" << static_cast<int>(stats)
              << " clients=" << clients << " client=" << b.client
              << " batch=" << b.batch_index;
        }
        // With 3 batches per client over 2 templates, every client re-runs
        // its first template after materializing it — a deterministic
        // cross-batch hit regardless of how the clients interleaved.
        EXPECT_GT(report.cross_batch_hits, 0);
      }
    }
  }
}

// Re-running an identical batch through a session serves segments from the
// cross-batch cache (zero-cost candidates for the optimizer) and produces
// identical results.
TEST_F(ServiceTest, CrossBatchHitsServeIdenticalResults) {
  MqoOptions options;
  options.backend = ExecBackend::kVector;
  MqoSession session(&catalog_, &data_, options);
  auto first = session.Run(Template(0));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.ValueOrDie().cross_batch_hits, 0);
  ASSERT_NE(session.segment_cache(), nullptr);
  EXPECT_GT(session.segment_cache()->stats().inserts, 0);

  auto second = session.Run(Template(0));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(second.ValueOrDie().cross_batch_hits, 0);
  EXPECT_GT(session.segment_cache()->stats().hits, 0);
  EXPECT_TRUE(SameResults(first.ValueOrDie().results,
                          second.ValueOrDie().results));

  // One store per session: every class a run computes is put exactly
  // once, into the session store; a hit puts nothing, and the runs own no
  // store of their own.
  const int64_t computed =
      first.ValueOrDie().optimization.result.num_materialized +
      second.ValueOrDie().optimization.result.num_materialized -
      second.ValueOrDie().cross_batch_hits;
  EXPECT_EQ(session.segment_cache()->store_stats().puts, computed);
  EXPECT_EQ(first.ValueOrDie().store_stats.puts, 0);
  EXPECT_EQ(second.ValueOrDie().store_stats.puts, 0);
}

// Regression for a fingerprint collision: selection constants that print
// alike (both display as 97.000) must still name different classes. The
// second batch differs from the first only in those constants, so a hit on
// the first batch's supplier ⋈ nation segment would serve the rows with
// s_acctbal = 97 that the second batch's predicate admits but the first's
// did not. The session's result must match a standalone row-engine run.
TEST_F(ServiceTest, DisplayEqualConstantsDoNotShareCachedSegments) {
  DataGenOptions gen;
  gen.max_rows_per_table = 2000;
  const DataSet data = GenerateData(catalog_, gen);
  auto batch = [](const std::string& c) {
    const std::string from =
        " FROM supplier, nation WHERE s_nationkey = n_nationkey "
        "AND s_acctbal < " + c;
    return std::vector<std::string>{
        "SELECT n_name, sum(s_acctbal)" + from + " GROUP BY n_name",
        "SELECT n_regionkey, sum(s_acctbal)" + from + " GROUP BY n_regionkey"};
  };
  MqoOptions row;
  row.backend = ExecBackend::kRow;
  auto low =
      OptimizeAndExecuteSqlBatch(catalog_, batch("96.99955"), data, row);
  auto high =
      OptimizeAndExecuteSqlBatch(catalog_, batch("97.00045"), data, row);
  ASSERT_TRUE(low.ok()) << low.status().ToString();
  ASSERT_TRUE(high.ok()) << high.status().ToString();
  // The data must tell the constants apart, or the test shows nothing.
  ASSERT_FALSE(
      SameResults(low.ValueOrDie().results, high.ValueOrDie().results));

  // Catalog statistics make the optimizer materialize the shared join
  // whatever MQO_STATS_MODE says.
  MqoOptions options;
  options.stats_mode = StatsMode::kCatalogGuess;
  MqoSession session(&catalog_, &data, options);
  auto first = session.Run(batch("96.99955"));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_GT(session.segment_cache()->stats().inserts, 0);
  auto second = session.Run(batch("97.00045"));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(
      SameResults(first.ValueOrDie().results, low.ValueOrDie().results));
  EXPECT_TRUE(
      SameResults(second.ValueOrDie().results, high.ValueOrDie().results));
}

// A cached segment holds only the columns its first readers read. A later
// reader that needs a column the entry lacks must miss (never read a
// missing column), get correct rows, and leave the entry widened to both
// needs, so a third run hits.
TEST_F(ServiceTest, NarrowedCacheEntryServesOnlyCoveredReaders) {
  auto batch = [](const std::string& group) {
    const std::string from =
        " FROM supplier, nation WHERE s_nationkey = n_nationkey "
        "AND s_acctbal < 97";
    return std::vector<std::string>{
        "SELECT " + group + ", sum(s_acctbal)" + from + " GROUP BY " + group,
        "SELECT n_regionkey, sum(s_acctbal)" + from + " GROUP BY n_regionkey"};
  };
  // Catalog statistics make the optimizer materialize the shared join
  // whatever MQO_STATS_MODE says.
  MqoOptions options;
  options.backend = ExecBackend::kVector;
  options.stats_mode = StatsMode::kCatalogGuess;
  MqoOptions row = options;
  row.backend = ExecBackend::kRow;
  DataGenOptions gen;
  gen.max_rows_per_table = 2000;
  const DataSet data = GenerateData(catalog_, gen);
  MqoSession session(&catalog_, &data, options);
  const SharedSegmentCache& cache = *session.segment_cache();

  auto narrow = session.Run(batch("n_name"));
  ASSERT_TRUE(narrow.ok()) << narrow.status().ToString();
  ASSERT_GT(cache.stats().inserts, 0);
  EXPECT_EQ(cache.stats().narrow_misses, 0);

  // s_name is no column of the cached join segment.
  auto expected =
      OptimizeAndExecuteSqlBatch(catalog_, batch("s_name"), data, row);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto wider = session.Run(batch("s_name"));
  ASSERT_TRUE(wider.ok()) << wider.status().ToString();
  EXPECT_TRUE(
      SameResults(wider.ValueOrDie().results, expected.ValueOrDie().results));
  const SegmentCacheStats after_wider = cache.stats();
  EXPECT_GT(after_wider.narrow_misses, 0);
  EXPECT_EQ(after_wider.widenings, after_wider.narrow_misses);

  // The widened entry serves the wider reader, and still the first one.
  auto again = session.Run(batch("s_name"));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.ValueOrDie().cross_batch_hits,
            again.ValueOrDie().optimization.result.num_materialized);
  EXPECT_TRUE(
      SameResults(again.ValueOrDie().results, expected.ValueOrDie().results));
  auto first_again = session.Run(batch("n_name"));
  ASSERT_TRUE(first_again.ok()) << first_again.status().ToString();
  EXPECT_TRUE(SameResults(first_again.ValueOrDie().results,
                          narrow.ValueOrDie().results));
  EXPECT_EQ(cache.stats().narrow_misses, after_wider.narrow_misses);
  EXPECT_EQ(cache.stats().widenings, after_wider.widenings);
}

// Sessions can opt out of the shared cache entirely.
TEST_F(ServiceTest, SharedCacheCanBeDisabled) {
  MqoOptions options;
  options.shared_segment_cache = false;
  MqoSession session(&catalog_, &data_, options);
  EXPECT_EQ(session.segment_cache(), nullptr);
  auto first = session.Run(Template(0));
  auto second = session.Run(Template(0));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.ValueOrDie().cross_batch_hits, 0);
  EXPECT_TRUE(SameResults(first.ValueOrDie().results,
                          second.ValueOrDie().results));
}

// Regression for the invalidation contract: after a base table changes,
// cached segments computed from it must be misses, and the session must
// serve results computed from the new data — bag-equal to a fresh serial
// run against the mutated dataset.
TEST_F(ServiceTest, InvalidateTableDropsStaleSegments) {
  MqoOptions options;
  options.backend = ExecBackend::kVector;
  // Pin catalog statistics so the materialization choice is independent of
  // the MQO_STATS_MODE CI matrix: Q9 then caches its lineitem⋈orders join.
  options.stats_mode = StatsMode::kCatalogGuess;
  MqoSession session(&catalog_, &data_, options);
  auto warm = session.Run(Template(1));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_NE(session.segment_cache(), nullptr);
  ASSERT_GT(session.segment_cache()->stats().inserts, 0);

  // Simulate an append/update: regenerate lineitem from a different seed and
  // swap it into the dataset the session executes against.
  DataGenOptions gen;
  gen.max_rows_per_table = 60;
  gen.seed = 0xa11ce;
  DataSet alt = GenerateData(catalog_, gen);
  data_.AddTable("lineitem",
                 ColumnStore(*alt.GetTable("lineitem").ValueOrDie()));
  session.InvalidateTable("lineitem");
  EXPECT_GT(session.segment_cache()->stats().invalidated_segments, 0);

  // The re-run must not serve any segment computed from the old lineitem:
  // the dropped entry is a miss, the segment recomputes, and the results
  // are bag-equal to a fresh serial run against the mutated data.
  auto after = session.Run(Template(1));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.ValueOrDie().cross_batch_hits, 0);
  auto fresh = OptimizeAndExecuteBatch(catalog_, Template(1), data_, options);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_TRUE(SameResults(after.ValueOrDie().results,
                          fresh.ValueOrDie().results));

  // Negative control: without InvalidateTable the stale segment WOULD have
  // been served — the invalidation path is what keeps the re-run honest.
  MqoSession control(&catalog_, &data_, options);
  ASSERT_TRUE(control.Run(Template(1)).ok());
  auto control_rerun = control.Run(Template(1));
  ASSERT_TRUE(control_rerun.ok());
  EXPECT_GT(control_rerun.ValueOrDie().cross_batch_hits, 0);
}

// Observed cardinalities describe the data they were measured on: after a
// table changes, the next run must not estimate from the old row counts.
TEST_F(ServiceTest, InvalidateTableDropsStaleFeedback) {
  MqoOptions options;
  options.stats_mode = StatsMode::kCollected;
  MqoSession session(&catalog_, &data_, options);
  auto warm = session.Run(Template(1));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_FALSE(session.feedback().empty());

  session.InvalidateTable("lineitem");
  EXPECT_TRUE(session.feedback().empty());

  // The next run measures afresh.
  auto again = session.Run(Template(1));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE(session.feedback().empty());
  EXPECT_TRUE(SameResults(warm.ValueOrDie().results,
                          again.ValueOrDie().results));
}

// InvalidateTable may run while batches are in flight: an optimization that
// already fetched a table's collected statistics keeps reading them after
// the registry drops them, and segments published by runs that started
// before a version bump are stale on arrival. The data is left unchanged,
// so every batch must still match its serial reference (run under TSan in
// CI, which also flags a registry read racing the drop).
TEST_F(ServiceTest, InvalidateTableWhileRunsAreInFlight) {
  MqoOptions options;
  options.stats_mode = StatsMode::kCollected;
  std::vector<std::vector<NamedRows>> expected;
  for (int t = 0; t < 2; ++t) {
    auto ref = OptimizeAndExecuteBatch(catalog_, Template(t), data_, options);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    expected.push_back(std::move(ref.ValueOrDie().results));
  }

  MqoSession session(&catalog_, &data_, options);
  std::atomic<bool> done{false};
  int rounds = 0;
  std::thread invalidator([&] {
    while (!done.load()) {
      for (const std::string& table : catalog_.TableNames()) {
        session.InvalidateTable(table);
      }
      ++rounds;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  ServiceTrafficOptions traffic;
  traffic.num_clients = 4;
  traffic.batches_per_client = 4;
  traffic.keep_results = true;
  ServiceReport report = RunServiceTraffic(&session, GenerateBatch, traffic);
  done.store(true);
  invalidator.join();

  EXPECT_GT(rounds, 0);
  EXPECT_EQ(report.failed, 0);
  for (const ServiceBatchResult& b : report.batches) {
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_TRUE(SameResults(b.results,
                            expected[(b.client + b.batch_index) % 2]))
        << "client=" << b.client << " batch=" << b.batch_index;
  }
}

// The coarse hook drops everything: collected stats, feedback and segments.
TEST_F(ServiceTest, InvalidateStatsClearsSegmentCache) {
  MqoOptions options;
  options.stats_mode = StatsMode::kCollected;
  MqoSession session(&catalog_, &data_, options);
  auto warm = session.Run(Template(0));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_NE(session.segment_cache(), nullptr);
  EXPECT_GT(session.segment_cache()->size(), 0u);
  EXPECT_FALSE(session.feedback().empty());

  session.InvalidateStats();
  EXPECT_EQ(session.segment_cache()->size(), 0u);
  EXPECT_TRUE(session.feedback().empty());
  EXPECT_EQ(session.table_stats().num_analyzed(), 0u);

  auto again = session.Run(Template(0));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.ValueOrDie().cross_batch_hits, 0);
  EXPECT_TRUE(SameResults(warm.ValueOrDie().results,
                          again.ValueOrDie().results));
}

// Session runs are issued unique batch ids, and a traced run exports its
// events under that id as the Chrome pid — concurrent batches land in
// distinct process lanes.
TEST_F(ServiceTest, BatchIdsScopeTraceExports) {
  MqoOptions options;
  options.obs.trace = true;
  MqoSession session(&catalog_, &data_, options);
  auto first = session.Run(Template(0));
  auto second = session.Run(Template(1));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.ValueOrDie().batch_id, 1u);
  EXPECT_EQ(second.ValueOrDie().batch_id, 2u);
  EXPECT_NE(first.ValueOrDie().trace_json.find("\"pid\":1"),
            std::string::npos);
  EXPECT_NE(second.ValueOrDie().trace_json.find("\"pid\":2"),
            std::string::npos);
  EXPECT_EQ(second.ValueOrDie().trace_json.find("\"pid\":1"),
            std::string::npos);
}

// Session-lifetime metrics: per-run wall times accumulate in the
// "session.run_ms" histogram, so service percentiles come from obs data.
TEST_F(ServiceTest, SessionMetricsRecordRunLatencies) {
  MqoOptions options;
  options.obs.metrics = true;
  MqoSession session(&catalog_, &data_, options);
  ASSERT_NE(session.session_obs(), nullptr);
  ASSERT_TRUE(session.Run(Template(0)).ok());
  ASSERT_TRUE(session.Run(Template(1)).ok());
  MetricsRegistry* metrics = session.session_obs()->metrics();
  auto snapshot = metrics->Snapshot();
  auto it = snapshot.find("session.run_ms");
  ASSERT_NE(it, snapshot.end());
  EXPECT_EQ(it->second.count, 2);
  EXPECT_GT(metrics->QuantileMs("session.run_ms", 0.5), 0.0);
  EXPECT_GE(metrics->QuantileMs("session.run_ms", 0.95),
            metrics->QuantileMs("session.run_ms", 0.5));
}

// A spill directory that cannot be created (its parent is a regular file)
// makes every eviction of a 1-byte session store fail. Failed spills must
// degrade to an over-budget store, never to wrong rows, lost inserts or
// bytes that outlive the segments: once the runs end and the cache is
// cleared, the session store holds nothing.
TEST_F(ServiceTest, FailedSpillLeavesNoResidueAfterClear) {
  MqoOptions options;
  options.backend = ExecBackend::kVector;
  options.stats_mode = StatsMode::kCatalogGuess;
  std::vector<std::vector<NamedRows>> expected;
  for (int t = 0; t < 2; ++t) {
    auto ref = OptimizeAndExecuteBatch(catalog_, Template(t), data_, options);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    expected.push_back(std::move(ref.ValueOrDie().results));
  }

  const std::string blocker = ::testing::TempDir() + "mqo_spill_blocker";
  { std::ofstream(blocker) << "a regular file, not a directory"; }
  MqoOptions tight = options;
  tight.shared_cache_budget_bytes = 1;
  tight.exec.mat_spill_dir = blocker + "/spill";
  {
    MqoSession session(&catalog_, &data_, tight);
    for (int i = 0; i < 4; ++i) {
      auto run = session.Run(Template(i));
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_TRUE(SameResults(run.ValueOrDie().results, expected[i % 2]))
          << "batch " << i;
    }
    SharedSegmentCache* cache = session.segment_cache();
    ASSERT_NE(cache, nullptr);
    EXPECT_GT(cache->stats().inserts, 0);
    EXPECT_GT(cache->stats().hits, 0);
    EXPECT_EQ(cache->stats().insert_races_lost, 0);
    cache->Clear();
    EXPECT_EQ(cache->bytes_used(), 0u);
  }
  std::remove(blocker.c_str());
}

// A spill file that can no longer be read back costs work, never rows: the
// run that hits the cached segment recomputes it, and the next lookup
// drops the lost entry and caches a fresh segment.
TEST_F(ServiceTest, UnreadableSpillFileDegradesToRecompute) {
  MqoOptions options;
  options.backend = ExecBackend::kVector;
  options.stats_mode = StatsMode::kCatalogGuess;
  auto ref = OptimizeAndExecuteBatch(catalog_, Template(1), data_, options);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  const std::string dir = ::testing::TempDir() + "mqo_unreadable_spill";
  MqoOptions tight = options;
  tight.shared_cache_budget_bytes = 1;  // every unpinned segment spills
  tight.exec.mat_spill_dir = dir;
  {
    MqoSession session(&catalog_, &data_, tight);
    // Template 0's segments push template 1's out to disk.
    for (int t : {1, 0}) {
      auto warm = session.Run(Template(t));
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    }
    ASSERT_GT(session.segment_cache()->size(), 0u);
    for (const auto& file : std::filesystem::directory_iterator(dir)) {
      std::ofstream(file.path(), std::ios::trunc);  // truncate in place
    }
    for (int i = 0; i < 3; ++i) {
      auto run = session.Run(Template(1));
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_TRUE(SameResults(run.ValueOrDie().results,
                              ref.ValueOrDie().results))
          << "run " << i;
    }
    EXPECT_FALSE(session.segment_cache()->store()->last_error().ok());
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

/// perfbench's service_mix templates over orders dates [day, day + width):
/// revenue per customer, and the same windowed core joined to customer.
/// Both share the filtered orders scan, which the optimizer materializes.
std::string WindowSql(int t, int day, int width) {
  const std::string lo = std::to_string(day);
  const std::string hi = std::to_string(day + width);
  if (t == 0) {
    return "SELECT o_custkey, sum(l_extendedprice) FROM orders, lineitem "
           "WHERE o_orderkey = l_orderkey AND o_orderdate >= " + lo +
           " AND o_orderdate < " + hi + " GROUP BY o_custkey";
  }
  return "SELECT l_orderkey, sum(l_extendedprice) "
         "FROM orders, lineitem, customer "
         "WHERE o_orderkey = l_orderkey AND o_custkey = c_custkey "
         "AND o_orderdate >= " + lo + " AND o_orderdate < " + hi +
         " GROUP BY l_orderkey";
}

/// A hot pair over one fixed window plus a fresh pair over window `g`.
std::vector<std::string> HotFreshBatch(int g) {
  return {WindowSql(0, 400, 89), WindowSql(1, 400, 89),
          WindowSql(0, 1000 + 11 * g, 90), WindowSql(1, 1000 + 11 * g, 90)};
}

// Regression for hot-segment thrash: a serial session whose store holds the
// hot segment plus one fresh segment. Every batch hits the hot segment and
// inserts a fresh one; the fresh Put must push out the previous batch's
// fresh segment, never the hot segment this batch is about to read. So
// after warm-up the hot segment is never reloaded.
TEST(ServiceThrashTest, HotSegmentIsNotReloadedUnderTightBudget) {
  const Catalog catalog = MakeTpcdCatalog(1);
  DataGenOptions gen;
  gen.max_rows_per_table = 3000;
  gen.domain_cap = 2557;
  gen.seed = 11;
  const DataSet data = GenerateData(catalog, gen);
  MqoOptions options;
  options.backend = ExecBackend::kVector;
  options.stats_mode = StatsMode::kCatalogGuess;
  options.exec.num_threads = 1;
  constexpr int kBatches = 10;
  constexpr int kWarmup = 2;

  // Size the budget from an unlimited session. The hot segment is the one
  // the most batches materialize (the plan settles after a batch of
  // feedback); a fresh segment is materialized by one batch only.
  std::vector<std::vector<NamedRows>> expected;
  std::map<uint64_t, std::pair<int, size_t>> segments;  // fp -> (runs, bytes)
  {
    MqoSession probe(&catalog, &data, options);
    for (int g = 0; g < kBatches; ++g) {
      auto run = probe.Run(HotFreshBatch(g));
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      for (const ExplainEntry& e : run.ValueOrDie().explain) {
        auto& [runs, bytes] = segments[e.est.fingerprint];
        ++runs;
        bytes = static_cast<size_t>(e.run.bytes);
      }
      expected.push_back(std::move(run.ValueOrDie().results));
    }
  }
  int hot_runs = 0;
  size_t hot_bytes = 0, fresh_min = SIZE_MAX, fresh_max = 0;
  for (const auto& [fp, seg] : segments) {
    if (seg.first > hot_runs) {
      hot_runs = seg.first;
      hot_bytes = seg.second;
    }
    if (seg.first == 1) {
      fresh_min = std::min(fresh_min, seg.second);
      fresh_max = std::max(fresh_max, seg.second);
    }
  }
  ASSERT_GE(hot_runs, kBatches - kWarmup);
  ASSERT_GT(fresh_max, 0u);
  // Room for the hot segment and any one fresh segment, never two fresh.
  ASSERT_LT(fresh_max, 2 * fresh_min);

  MqoOptions tight = options;
  tight.shared_cache_budget_bytes = hot_bytes + fresh_max;
  MqoSession session(&catalog, &data, tight);
  int64_t warm_reloads = 0;
  for (int g = 0; g < kBatches; ++g) {
    auto run = session.Run(HotFreshBatch(g));
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(SameResults(run.ValueOrDie().results, expected[g]))
        << "batch " << g;
    if (g > 0) {
      EXPECT_EQ(run.ValueOrDie().cross_batch_hits, 1);
    }
    if (g == kWarmup) {
      warm_reloads = session.segment_cache()->store_stats().reloads;
    }
  }
  const MatStoreStats stats = session.segment_cache()->store_stats();
  EXPECT_GT(stats.evictions, 0);  // the budget did bind
  EXPECT_EQ(stats.reloads - warm_reloads, 0);
}

}  // namespace
}  // namespace mqo
