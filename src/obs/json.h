// The one JSON emission implementation of the repo.
//
// Bench output (bench_util/bench_json.h), Chrome trace export (obs/trace.h)
// and metric dumps (obs/metrics.h) all serialize JSON; this header is the
// single place escaping and number formatting live, so the three emitters
// cannot drift apart. JsonWriter is a streaming writer with automatic comma
// placement; the free helpers serve emitters that assemble their own layout
// (the bench writer keeps its one-record-per-line format).
//
// No external JSON dependency — the engine only ever *writes* JSON on
// reporting paths (the validating reader for tests lives in
// tests/support/trace_check.h).

#ifndef MQO_OBS_JSON_H_
#define MQO_OBS_JSON_H_

#include <string>
#include <vector>

namespace mqo {

/// JSON string escaping (quotes, backslashes, control characters).
std::string JsonEscape(const std::string& s);

/// JSON number formatting: integers print without a fraction, other values
/// with %.6g, non-finite values as null (JSON has no inf/nan).
std::string JsonNumber(double v);

/// Streaming JSON writer: Begin/End pairs for containers, Key + a value call
/// for object members, value calls alone for array elements. Commas are
/// inserted automatically; the caller owns structural correctness (every
/// Begin matched by an End, every object value preceded by a Key).
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  JsonWriter& Key(const std::string& key);

  JsonWriter& String(const std::string& value);
  JsonWriter& Number(double value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  /// Key + value in one call, for flat object members.
  JsonWriter& Field(const std::string& key, const std::string& value);
  JsonWriter& Field(const std::string& key, double value);
  JsonWriter& Field(const std::string& key, int64_t value);

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  /// Comma bookkeeping before an element/value begins.
  void BeforeValue();

  struct Level {
    char kind;  ///< '{' or '['
    bool first = true;
  };
  std::string out_;
  std::vector<Level> levels_;
  bool after_key_ = false;
};

}  // namespace mqo

#endif  // MQO_OBS_JSON_H_
