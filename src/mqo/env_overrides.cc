#include "mqo/env_overrides.h"

#include <cctype>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>

namespace mqo {

namespace {

/// Decimal digits only, at most `max` (no sign, space or unit suffix).
bool ParseCount(const std::string& s, unsigned long long max,
                unsigned long long* out) {
  unsigned long long v = 0;
  for (char c : s) {
    const unsigned digit = static_cast<unsigned>(c - '0');
    if (digit > 9 || v > (max - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

bool ParseBool(std::string s, bool* out) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  const bool on = s == "1" || s == "true" || s == "on" || s == "yes";
  if (!on && s != "0" && s != "false" && s != "off" && s != "no") return false;
  *out = on;
  return true;
}

}  // namespace

EnvOverrides ParseEnvOverrides(const EnvLookup& lookup) {
  EnvOverrides env;
  // Hands a set, non-empty value to `parse`; a value it rejects leaves the
  // default and records one warning.
  auto read = [&](const char* name, const char* want, auto parse) {
    const char* raw = lookup(name);
    if (raw == nullptr || raw[0] == '\0' || parse(std::string(raw))) return;
    env.warnings.push_back(std::string(name) + "='" + raw +
                           "' not recognized (want " + want + "); ignored");
  };
  unsigned long long n = 0;
  read("MQO_MAT_BUDGET_BYTES", "a byte count", [&](const std::string& v) {
    if (!ParseCount(v, SIZE_MAX, &n)) return false;
    env.mat_budget_bytes = static_cast<size_t>(n);
    return true;
  });
  if (const char* dir = lookup("MQO_SPILL_DIR")) env.spill_dir = dir;
  read("MQO_STATS_MODE", "'collected' or 'catalog'", [&](const std::string& v) {
    if (v != "collected" && v != "catalog") return false;
    env.stats_mode =
        v == "collected" ? StatsMode::kCollected : StatsMode::kCatalogGuess;
    return true;
  });
  read("MQO_OPT_THREADS", "a positive integer", [&](const std::string& v) {
    if (!ParseCount(v, INT_MAX, &n) || n == 0) return false;
    env.opt_threads = static_cast<int>(n);
    return true;
  });
  read("MQO_METRICS", "a boolean", [&](const std::string& v) {
    return ParseBool(v, &env.metrics);
  });
  read("MQO_TRACE", "a boolean", [&](const std::string& v) {
    return ParseBool(v, &env.trace);
  });
  if (const char* file = lookup("MQO_TRACE_FILE")) env.trace_file = file;
  if (!env.trace_file.empty()) env.trace = true;
  return env;
}

EnvOverrides ParseEnvOverrides() {
  EnvOverrides env =
      ParseEnvOverrides([](const char* name) { return std::getenv(name); });
  if (env.warnings.empty()) return env;
  static std::mutex mu;
  static std::set<std::string> printed;
  std::lock_guard<std::mutex> lock(mu);
  for (const std::string& w : env.warnings) {
    if (printed.insert(w).second) std::fprintf(stderr, "%s\n", w.c_str());
  }
  return env;
}

}  // namespace mqo
