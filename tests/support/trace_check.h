// Validating reader for exported traces, used by the tests.
//
// ParseJson is a small recursive-descent JSON reader (DOM into JsonValue) —
// just enough to round-trip what obs/json.h writes. ValidateChromeTrace
// checks the three properties the CI trace job cares about: the file is
// syntactically valid JSON, it has the {"traceEvents": [...]} shape with
// well-formed events, and on every thread the 'X' spans nest properly (no
// two spans on one tid partially overlap).

#ifndef MQO_TESTS_SUPPORT_TRACE_CHECK_H_
#define MQO_TESTS_SUPPORT_TRACE_CHECK_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mqo {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JsonValue> items;                  ///< kArray
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Parse `text` into `out`. Returns false (with a message in `error`) on
/// malformed input or trailing garbage.
bool ParseJson(const std::string& text, JsonValue* out, std::string* error);

struct TraceCheckResult {
  bool ok = false;
  std::string error;      ///< first violation found, empty when ok
  int num_events = 0;
  int num_spans = 0;      ///< 'X' events
  int num_instants = 0;   ///< 'i' events
};

/// Validate a Chrome trace_event JSON document (as produced by
/// Tracer::ToChromeJson, or any conforming emitter).
TraceCheckResult ValidateChromeTrace(const std::string& json);

}  // namespace mqo

#endif  // MQO_TESTS_SUPPORT_TRACE_CHECK_H_
