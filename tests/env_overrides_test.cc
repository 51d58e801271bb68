// Hermetic tests of the MQO_* environment overrides: ParseEnvOverrides runs
// against a fake lookup (the process environment is never read or changed),
// and ResolveMqoOptions must let every explicit value win while the parsed
// overrides fill only the knobs left unset.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>

#include "mqo/env_overrides.h"
#include "mqo/facade.h"

namespace mqo {
namespace {

using Vars = std::map<std::string, std::string>;

EnvOverrides Parse(const Vars& vars) {
  return ParseEnvOverrides([&vars](const char* name) -> const char* {
    auto it = vars.find(name);
    return it == vars.end() ? nullptr : it->second.c_str();
  });
}

void ExpectSameOverrides(const EnvOverrides& want, const EnvOverrides& got,
                         const std::string& context) {
  EXPECT_EQ(want.mat_budget_bytes, got.mat_budget_bytes) << context;
  EXPECT_EQ(want.spill_dir, got.spill_dir) << context;
  EXPECT_EQ(want.stats_mode, got.stats_mode) << context;
  EXPECT_EQ(want.opt_threads, got.opt_threads) << context;
  EXPECT_EQ(want.metrics, got.metrics) << context;
  EXPECT_EQ(want.trace, got.trace) << context;
  EXPECT_EQ(want.trace_file, got.trace_file) << context;
}

/// One variable set to one value: what the parse must yield (as an edit of
/// the all-unset defaults) and whether it must warn.
struct ParseCase {
  const char* variable;
  const char* value;
  std::function<void(EnvOverrides*)> expect;
  bool warns;
};

const std::function<void(EnvOverrides*)> kNoChange = [](EnvOverrides*) {};

std::function<void(EnvOverrides*)> Budget(size_t bytes) {
  return [bytes](EnvOverrides* e) { e->mat_budget_bytes = bytes; };
}
std::function<void(EnvOverrides*)> Threads(int n) {
  return [n](EnvOverrides* e) { e->opt_threads = n; };
}
std::function<void(EnvOverrides*)> Metrics(bool on) {
  return [on](EnvOverrides* e) { e->metrics = on; };
}
std::function<void(EnvOverrides*)> Trace(bool on) {
  return [on](EnvOverrides* e) { e->trace = on; };
}

TEST(EnvOverridesTest, EachVariableParsesOrWarnsAndIsIgnored) {
  const ParseCase cases[] = {
      // Store budget: a plain decimal byte count, nothing else.
      {"MQO_MAT_BUDGET_BYTES", "1", Budget(1), false},
      {"MQO_MAT_BUDGET_BYTES", "65536", Budget(65536), false},
      {"MQO_MAT_BUDGET_BYTES", "0", kNoChange, false},
      {"MQO_MAT_BUDGET_BYTES", "", kNoChange, false},
      {"MQO_MAT_BUDGET_BYTES", "64k", kNoChange, true},
      {"MQO_MAT_BUDGET_BYTES", "-1", kNoChange, true},
      {"MQO_MAT_BUDGET_BYTES", "abc", kNoChange, true},
      {"MQO_MAT_BUDGET_BYTES", " 1", kNoChange, true},
      {"MQO_MAT_BUDGET_BYTES", "99999999999999999999999", kNoChange, true},
      // Spill directory: any non-empty path.
      {"MQO_SPILL_DIR", "/var/tmp/mqo-spill",
       [](EnvOverrides* e) { e->spill_dir = "/var/tmp/mqo-spill"; }, false},
      {"MQO_SPILL_DIR", "", kNoChange, false},
      // Statistics mode: exactly "collected" or "catalog".
      {"MQO_STATS_MODE", "collected",
       [](EnvOverrides* e) { e->stats_mode = StatsMode::kCollected; }, false},
      {"MQO_STATS_MODE", "catalog", kNoChange, false},
      {"MQO_STATS_MODE", "", kNoChange, false},
      {"MQO_STATS_MODE", "colected", kNoChange, true},
      {"MQO_STATS_MODE", "Collected", kNoChange, true},
      // Optimizer threads: a positive integer that fits an int.
      {"MQO_OPT_THREADS", "4", Threads(4), false},
      {"MQO_OPT_THREADS", "1", Threads(1), false},
      {"MQO_OPT_THREADS", "0", kNoChange, true},
      {"MQO_OPT_THREADS", "-2", kNoChange, true},
      {"MQO_OPT_THREADS", "garbage", kNoChange, true},
      {"MQO_OPT_THREADS", "3x", kNoChange, true},
      {"MQO_OPT_THREADS", "99999999999", kNoChange, true},
      // Booleans: truthy and falsy spellings in any case.
      {"MQO_METRICS", "1", Metrics(true), false},
      {"MQO_METRICS", "true", Metrics(true), false},
      {"MQO_METRICS", "ON", Metrics(true), false},
      {"MQO_METRICS", "yes", Metrics(true), false},
      {"MQO_METRICS", "0", kNoChange, false},
      {"MQO_METRICS", "false", kNoChange, false},
      {"MQO_METRICS", "off", kNoChange, false},
      {"MQO_METRICS", "No", kNoChange, false},
      {"MQO_METRICS", "maybe", kNoChange, true},
      {"MQO_METRICS", "2", kNoChange, true},
      {"MQO_TRACE", "1", Trace(true), false},
      {"MQO_TRACE", "True", Trace(true), false},
      {"MQO_TRACE", "0", kNoChange, false},
      {"MQO_TRACE", "off", kNoChange, false},
      {"MQO_TRACE", "", kNoChange, false},
      {"MQO_TRACE", "enabled", kNoChange, true},
      // A trace file implies tracing.
      {"MQO_TRACE_FILE", "trace.json",
       [](EnvOverrides* e) {
         e->trace_file = "trace.json";
         e->trace = true;
       },
       false},
      {"MQO_TRACE_FILE", "", kNoChange, false},
  };
  for (const ParseCase& c : cases) {
    const std::string context =
        std::string(c.variable) + "='" + c.value + "'";
    EnvOverrides want;
    c.expect(&want);
    const EnvOverrides got = Parse({{c.variable, c.value}});
    ExpectSameOverrides(want, got, context);
    ASSERT_EQ(got.warnings.size(), c.warns ? 1u : 0u) << context;
    if (c.warns) {
      EXPECT_NE(got.warnings[0].find(context), std::string::npos)
          << got.warnings[0];
    }
  }
}

TEST(EnvOverridesTest, UnsetEnvironmentIsAllDefaults) {
  const EnvOverrides got = Parse({});
  ExpectSameOverrides(EnvOverrides{}, got, "empty environment");
  EXPECT_TRUE(got.warnings.empty());
}

TEST(EnvOverridesTest, TraceFileImpliesTraceEvenWhenTraceIsOff) {
  const EnvOverrides got =
      Parse({{"MQO_TRACE", "0"}, {"MQO_TRACE_FILE", "t.json"}});
  EXPECT_TRUE(got.trace);
  EXPECT_EQ(got.trace_file, "t.json");
}

TEST(EnvOverridesTest, EachMalformedVariableWarnsOnce) {
  const EnvOverrides got = Parse({{"MQO_MAT_BUDGET_BYTES", "64k"},
                                  {"MQO_OPT_THREADS", "many"},
                                  {"MQO_STATS_MODE", "guess"},
                                  {"MQO_SPILL_DIR", "/var/tmp/s"}});
  EXPECT_EQ(got.warnings.size(), 3u);
  EXPECT_EQ(got.mat_budget_bytes, 0u);
  EXPECT_EQ(got.opt_threads, 1);
  EXPECT_EQ(got.stats_mode, StatsMode::kCatalogGuess);
  EXPECT_EQ(got.spill_dir, "/var/tmp/s");  // well-formed ones still apply
}

EnvOverrides EverythingSet() {
  return Parse({{"MQO_MAT_BUDGET_BYTES", "1"},
                {"MQO_SPILL_DIR", "/var/tmp/env-spill"},
                {"MQO_STATS_MODE", "collected"},
                {"MQO_OPT_THREADS", "4"},
                {"MQO_METRICS", "1"},
                {"MQO_TRACE", "1"},
                {"MQO_TRACE_FILE", "env.json"}});
}

TEST(ResolveMqoOptionsTest, EnvironmentFillsUnsetKnobs) {
  const ResolvedMqoOptions r = ResolveMqoOptions(MqoOptions{}, EverythingSet());
  const MqoOptions& o = r.options;
  EXPECT_EQ(o.exec.mat_budget_bytes, 1u);
  EXPECT_EQ(o.exec.mat_spill_dir, "/var/tmp/env-spill");
  EXPECT_EQ(o.shared_cache_budget_bytes, 1u);  // falls back to the store's
  ASSERT_TRUE(o.stats_mode.has_value());
  EXPECT_EQ(*o.stats_mode, StatsMode::kCollected);
  EXPECT_TRUE(o.obs.metrics);
  EXPECT_TRUE(o.obs.trace);
  EXPECT_EQ(o.obs.trace_path, "env.json");
  EXPECT_EQ(r.optimizer_threads, 4);
  EXPECT_EQ(o.exec.num_threads, 1);  // MQO_OPT_THREADS is optimizer-only
}

TEST(ResolveMqoOptionsTest, ExplicitValuesWin) {
  MqoOptions options;
  options.exec.mat_budget_bytes = 7;
  options.exec.mat_spill_dir = "/var/tmp/mine";
  options.exec.num_threads = 8;
  options.shared_cache_budget_bytes = 5;
  options.stats_mode = StatsMode::kCatalogGuess;
  options.obs.trace_path = "mine.json";
  const ResolvedMqoOptions r = ResolveMqoOptions(options, EverythingSet());
  const MqoOptions& o = r.options;
  EXPECT_EQ(o.exec.mat_budget_bytes, 7u);
  EXPECT_EQ(o.exec.mat_spill_dir, "/var/tmp/mine");
  EXPECT_EQ(o.shared_cache_budget_bytes, 5u);
  EXPECT_EQ(*o.stats_mode, StatsMode::kCatalogGuess);
  EXPECT_EQ(o.obs.trace_path, "mine.json");
  EXPECT_EQ(r.optimizer_threads, 8);  // exec.num_threads > 1 governs both
}

TEST(ResolveMqoOptionsTest, DefaultsWithoutOverrides) {
  const ResolvedMqoOptions r = ResolveMqoOptions(MqoOptions{}, EnvOverrides{});
  EXPECT_EQ(r.options.exec.mat_budget_bytes, 0u);
  EXPECT_TRUE(r.options.exec.mat_spill_dir.empty());
  EXPECT_EQ(*r.options.stats_mode, StatsMode::kCatalogGuess);
  EXPECT_FALSE(r.options.obs.metrics);
  EXPECT_FALSE(r.options.obs.trace);
  EXPECT_EQ(r.optimizer_threads, 1);
}

TEST(ResolveMqoOptionsTest, ExplicitTracePathImpliesTracing) {
  MqoOptions options;
  options.obs.trace_path = "somewhere.json";
  const ResolvedMqoOptions r = ResolveMqoOptions(options, EnvOverrides{});
  EXPECT_TRUE(r.options.obs.trace);
}

}  // namespace
}  // namespace mqo
