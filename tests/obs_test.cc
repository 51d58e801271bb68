// Unit tests for the observability subsystem: the shared JSON writer
// round-trips through the validating reader, the metrics registry aggregates
// across shards and allocates nothing when disabled, traces export as valid
// Chrome trace_event JSON with properly nested spans.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <thread>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "support/trace_check.h"

// Global allocation counter for the disabled-fast-path tests: the metrics
// and tracing entry points must not touch the heap when observability is
// off. Counting operator new in this binary is enough — the hot paths under
// test are header-visible or in the same link unit.
static std::atomic<size_t> g_allocs{0};

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mqo {
namespace {

// ---------------------------------------------------------------------------
// JSON writer <-> reader round-trip (the single shared escaping code path).

TEST(JsonTest, EscapeSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line\nbreak\tand\rmore"),
            "line\\nbreak\\tand\\rmore");
  EXPECT_EQ(JsonEscape(std::string("nul\x01") + "x"), "nul\\u0001x");
}

TEST(JsonTest, NumberFormatting) {
  EXPECT_EQ(JsonNumber(42), "42");
  EXPECT_EQ(JsonNumber(-3), "-3");
  EXPECT_EQ(JsonNumber(0.5), "0.5");
  // Non-finite values have no JSON representation.
  EXPECT_EQ(JsonNumber(1.0 / 0.0), "null");
  EXPECT_EQ(JsonNumber(0.0 / 0.0), "null");
}

TEST(JsonTest, WriterRoundTripsThroughParser) {
  JsonWriter w;
  w.BeginObject();
  w.Field("name", "sp\"an\n");
  w.Field("count", 3.0);
  w.Key("flags");
  w.BeginArray();
  w.Bool(true);
  w.Null();
  w.Number(-1.25);
  w.EndArray();
  w.Key("nested");
  w.BeginObject();
  w.Field("deep", 7.0);
  w.EndObject();
  w.EndObject();

  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(w.str(), &root, &error)) << error;
  ASSERT_EQ(root.type, JsonValue::Type::kObject);
  ASSERT_NE(root.Find("name"), nullptr);
  EXPECT_EQ(root.Find("name")->str, "sp\"an\n");
  EXPECT_DOUBLE_EQ(root.Find("count")->num, 3.0);
  const JsonValue* flags = root.Find("flags");
  ASSERT_NE(flags, nullptr);
  ASSERT_EQ(flags->items.size(), 3u);
  EXPECT_TRUE(flags->items[0].b);
  EXPECT_EQ(flags->items[1].type, JsonValue::Type::kNull);
  EXPECT_DOUBLE_EQ(flags->items[2].num, -1.25);
  ASSERT_NE(root.Find("nested"), nullptr);
  EXPECT_DOUBLE_EQ(root.Find("nested")->Find("deep")->num, 7.0);
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(ParseJson("{\"a\": }", &v, &error));
  EXPECT_FALSE(ParseJson("[1, 2", &v, &error));
  EXPECT_FALSE(ParseJson("{} trailing", &v, &error));
  EXPECT_FALSE(ParseJson("", &v, &error));
}

// ---------------------------------------------------------------------------
// Metrics.

TEST(MetricsTest, CountersGaugesTimingsAggregate) {
  MetricsRegistry m(/*enabled=*/true);
  m.AddCounter("c.requests");
  m.AddCounter("c.requests", 2.0);
  m.SetGauge("g.level", 4.0);
  m.SetGauge("g.level", 9.0);
  m.ObserveMs("t.op_ms", 2.0);
  m.ObserveMs("t.op_ms", 6.0);

  auto snapshot = m.Snapshot();
  ASSERT_EQ(snapshot.count("c.requests"), 1u);
  EXPECT_DOUBLE_EQ(snapshot["c.requests"].value, 3.0);
  EXPECT_DOUBLE_EQ(snapshot["g.level"].value, 9.0);  // last write wins
  EXPECT_EQ(snapshot["t.op_ms"].count, 2);
  EXPECT_DOUBLE_EQ(snapshot["t.op_ms"].sum_ms, 8.0);
  EXPECT_DOUBLE_EQ(snapshot["t.op_ms"].min_ms, 2.0);
  EXPECT_DOUBLE_EQ(snapshot["t.op_ms"].max_ms, 6.0);
}

TEST(MetricsTest, ConcurrentWritersMergeExactly) {
  MetricsRegistry m(/*enabled=*/true);
  constexpr int kThreads = 8;
  constexpr int kIters = 1000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&m] {
      for (int i = 0; i < kIters; ++i) m.AddCounter("shared", 1.0);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_DOUBLE_EQ(m.Snapshot()["shared"].value, kThreads * kIters);
}

TEST(MetricsTest, DisabledHotPathAllocatesNothing) {
  MetricsRegistry m(/*enabled=*/false);
  MetricsRegistry* null_registry = nullptr;
  const size_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    m.AddCounter("some.counter.with.a.long.name.beyond.sso", 1.0);
    m.SetGauge("some.gauge.with.a.long.name.beyond.sso", 2.0);
    m.ObserveMs("some.timing.with.a.long.name.beyond.sso", 3.0);
    ScopedTimer timer(&m, "some.scoped.timer.with.a.long.name");
    ScopedTimer null_timer(null_registry, "null.registry.timer");
    // The compression-aware execution counters the vectorized engine emits
    // per pipeline run: these names are flushed from worker-local state, so
    // the disabled path must stay allocation-free for each of them too.
    m.AddCounter("vexec.bloom_rows_pruned", 7.0);
    m.AddCounter("vexec.bloom_morsels_pruned", 1.0);
    m.AddCounter("vexec.dict_hits", 64.0);
    m.AddCounter("vexec.dict_remap", 1.0);
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), before);
  EXPECT_TRUE(m.Snapshot().empty());
}

TEST(MetricsTest, JsonExportParses) {
  MetricsRegistry m(/*enabled=*/true);
  m.AddCounter("a.counter", 5.0);
  m.SetGauge("a.gauge", 1.5);
  m.ObserveMs("a.timing", 2.25);
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(m.ToJson(), &root, &error)) << error;
  ASSERT_NE(root.Find("counters"), nullptr);
  EXPECT_DOUBLE_EQ(root.Find("counters")->Find("a.counter")->num, 5.0);
  EXPECT_DOUBLE_EQ(root.Find("gauges")->Find("a.gauge")->num, 1.5);
  EXPECT_EQ(root.Find("timings")->Find("a.timing")->Find("count")->num, 1.0);
}

// ---------------------------------------------------------------------------
// Tracer.

TEST(TraceTest, DisabledSpansAreInert) {
  Tracer disabled(/*enabled=*/false);
  const size_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) {
    // SSO-short names, as at real call sites: the std::string parameters are
    // built in the caller's frame, so only names under the SSO limit make
    // "inert" mean "allocation-free".
    TraceSpan span(&disabled, "span", "cat");
    EXPECT_FALSE(span.active());
    span.AddNum("ignored", 1.0);
    TraceSpan null_span(nullptr, "nullspan", "cat");
    EXPECT_FALSE(null_span.active());
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), before);
  EXPECT_TRUE(disabled.Events().empty());
}

TEST(TraceTest, SpansAndInstantsExportAndValidate) {
  Tracer tracer(/*enabled=*/true);
  {
    TraceSpan outer(&tracer, "outer", "test");
    outer.AddNum("depth", 0);
    {
      TraceSpan inner(&tracer, "inner", "test");
      inner.AddStr("label", "E7");
      tracer.Instant("marker", "test", {TNum("value", 42)});
    }
  }
  auto events = tracer.Events();
  ASSERT_EQ(events.size(), 3u);

  const std::string json = tracer.ToChromeJson();
  TraceCheckResult check = ValidateChromeTrace(json);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.num_events, 3);
  EXPECT_EQ(check.num_spans, 2);
  EXPECT_EQ(check.num_instants, 1);

  // The inner span must lie within the outer one in the export.
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &root, &error)) << error;
  const JsonValue* list = root.Find("traceEvents");
  ASSERT_NE(list, nullptr);
  double outer_ts = -1, outer_end = -1, inner_ts = -1, inner_end = -1;
  for (const JsonValue& e : list->items) {
    const std::string& name = e.Find("name")->str;
    if (name == "outer") {
      outer_ts = e.Find("ts")->num;
      outer_end = outer_ts + e.Find("dur")->num;
    } else if (name == "inner") {
      inner_ts = e.Find("ts")->num;
      inner_end = inner_ts + e.Find("dur")->num;
    }
  }
  EXPECT_LE(outer_ts, inner_ts);
  EXPECT_LE(inner_end, outer_end);
}

TEST(TraceTest, ValidatorRejectsPartialOverlap) {
  Tracer tracer(/*enabled=*/true);
  const int64_t base = tracer.origin_ns();
  // Two spans on the same thread overlapping partially: [0ms,10ms) and
  // [5ms,15ms). Chrome traces require stack-like nesting per tid.
  tracer.Emit("a", "test", base, 10'000'000);
  tracer.Emit("b", "test", base + 5'000'000, 10'000'000);
  TraceCheckResult check = ValidateChromeTrace(tracer.ToChromeJson());
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("straddles"), std::string::npos) << check.error;
}

TEST(TraceTest, ValidatorRejectsNonTraceJson) {
  EXPECT_FALSE(ValidateChromeTrace("[]").ok);
  EXPECT_FALSE(ValidateChromeTrace("{\"traceEvents\": 3}").ok);
  EXPECT_FALSE(ValidateChromeTrace("not json at all").ok);
  EXPECT_TRUE(ValidateChromeTrace("{\"traceEvents\": []}").ok);
}

// ---------------------------------------------------------------------------
// ObsContext.

TEST(ObsContextTest, NullSafeAccessors) {
  EXPECT_EQ(TracerOf(nullptr), nullptr);
  EXPECT_EQ(MetricsOf(nullptr), nullptr);
  ObsOptions options;
  options.metrics = true;
  options.trace = true;
  ObsContext ctx(options);
  EXPECT_TRUE(ctx.any_enabled());
  ASSERT_NE(TracerOf(&ctx), nullptr);
  ASSERT_NE(MetricsOf(&ctx), nullptr);
  EXPECT_TRUE(TracerOf(&ctx)->enabled());
  EXPECT_TRUE(MetricsOf(&ctx)->enabled());
}

// ---- Timing histograms ------------------------------------------------------

TEST(MetricsHistogramTest, BucketEdgesAreLogSpacedDoublings) {
  EXPECT_DOUBLE_EQ(TimingBucketUpperMs(0), 0.001);      // 1 µs
  EXPECT_DOUBLE_EQ(TimingBucketUpperMs(10), 1.024);     // ~1 ms
  EXPECT_DOUBLE_EQ(TimingBucketUpperMs(20), 1048.576);  // ~17 min ceiling
  EXPECT_TRUE(std::isinf(TimingBucketUpperMs(kTimingBuckets - 1)));
}

TEST(MetricsHistogramTest, ObservationsLandInBucketsAndAnswerQuantiles) {
  MetricsRegistry metrics;
  metrics.ObserveMs("op.ms", 0.5);
  metrics.ObserveMs("op.ms", 2.0);
  metrics.ObserveMs("op.ms", 8.0);
  metrics.ObserveMs("op.ms", 8.0);
  auto snapshot = metrics.Snapshot();
  const MetricValue& v = snapshot.at("op.ms");
  EXPECT_EQ(v.count, 4);
  int64_t bucketed = 0;
  for (int64_t c : v.buckets) bucketed += c;
  EXPECT_EQ(bucketed, 4);  // every sample lands in exactly one bucket
  // The p50 rank falls in the 2 ms sample's bucket (upper edge 2^11 µs);
  // upper tail quantiles clamp to the observed max rather than the
  // open-ended bucket edge.
  EXPECT_DOUBLE_EQ(metrics.QuantileMs("op.ms", 0.5), 2.048);
  EXPECT_DOUBLE_EQ(metrics.QuantileMs("op.ms", 0.95), 8.0);
  EXPECT_DOUBLE_EQ(metrics.QuantileMs("op.ms", 1.0), 8.0);
  // Low quantiles clamp up to the observed min's bucket.
  EXPECT_DOUBLE_EQ(metrics.QuantileMs("op.ms", 0.01), 0.512);
  // Unknown names and non-timing metrics answer 0.
  metrics.AddCounter("plain.counter");
  EXPECT_EQ(metrics.QuantileMs("nope", 0.5), 0.0);
  EXPECT_EQ(metrics.QuantileMs("plain.counter", 0.5), 0.0);
}

TEST(MetricsHistogramTest, BucketsMergeAcrossThreadsAndExportToJson) {
  MetricsRegistry metrics;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&metrics] {
      for (int i = 0; i < 10; ++i) metrics.ObserveMs("op.ms", 3.0);
    });
  }
  for (std::thread& w : workers) w.join();
  auto snapshot = metrics.Snapshot();
  const MetricValue& v = snapshot.at("op.ms");
  EXPECT_EQ(v.count, 40);
  int64_t bucketed = 0;
  for (int64_t c : v.buckets) bucketed += c;
  EXPECT_EQ(bucketed, 40);  // shard merge preserves every sample
  const std::string json = metrics.ToJson();
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  EXPECT_DOUBLE_EQ(metrics.QuantileMs("op.ms", 0.5), 3.0);  // clamped to max
}

TEST(MetricsHistogramTest, DisabledRegistryAnswersZero) {
  MetricsRegistry metrics(false);
  metrics.ObserveMs("op.ms", 5.0);
  EXPECT_EQ(metrics.QuantileMs("op.ms", 0.5), 0.0);
  EXPECT_TRUE(metrics.Snapshot().empty());
}

}  // namespace
}  // namespace mqo
