// Structured trace events with spans, exportable as Chrome trace_event JSON.
//
// The tracer records two event phases:
//   'X' — complete events (a span: start timestamp + duration), and
//   'i' — instants (a point-in-time marker, e.g. a segment eviction).
// Events carry a small bag of named args (numbers or strings) that become the
// "args" object in the Chrome export — load the file at chrome://tracing or
// https://ui.perfetto.dev to browse a batch run visually.
//
// When the tracer is null or disabled every entry point is a cheap early
// return, so instrumentation can stay unconditionally in the code.

#ifndef MQO_OBS_TRACE_H_
#define MQO_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/clock.h"

namespace mqo {

/// One named argument on a trace event.
struct TraceArg {
  std::string key;
  bool is_number = true;
  double num = 0;
  std::string str;
};

inline TraceArg TNum(std::string key, double value) {
  TraceArg a;
  a.key = std::move(key);
  a.is_number = true;
  a.num = value;
  return a;
}

inline TraceArg TStr(std::string key, std::string value) {
  TraceArg a;
  a.key = std::move(key);
  a.is_number = false;
  a.str = std::move(value);
  return a;
}

struct TraceEvent {
  std::string name;
  std::string cat;
  char phase = 'X';     ///< 'X' complete (span) or 'i' instant
  int64_t ts_ns = 0;    ///< MonotonicNanos at event start
  int64_t dur_ns = 0;   ///< span duration; 0 for instants
  int tid = 0;          ///< dense per-tracer thread index
  std::vector<TraceArg> args;
};

class Tracer {
 public:
  /// `scope_id` tags every exported event's Chrome "pid" (0 = the default
  /// pid 1): a session issues one id per batch run, so concurrent batches'
  /// traces merge into one Chrome file with each batch in its own process
  /// lane — valid and attributable even when runs interleave.
  explicit Tracer(bool enabled = true, uint64_t scope_id = 0)
      : enabled_(enabled), scope_id_(scope_id), origin_ns_(MonotonicNanos()) {}

  bool enabled() const { return enabled_; }
  uint64_t scope_id() const { return scope_id_; }
  int64_t origin_ns() const { return origin_ns_; }

  /// Record an instant event at the current time.
  void Instant(std::string name, std::string cat,
               std::vector<TraceArg> args = {});

  /// Record a complete (span) event with explicit bounds.
  void Emit(std::string name, std::string cat, int64_t ts_ns, int64_t dur_ns,
            std::vector<TraceArg> args = {});

  /// Record a span that started at `start_ns` and ends now. The manual-span
  /// companion to TraceSpan, for loops where RAII scoping is awkward
  /// (per-greedy-round spans).
  void CompleteSince(int64_t start_ns, std::string name, std::string cat,
                     std::vector<TraceArg> args = {});

  /// Snapshot of all events recorded so far (for tests).
  std::vector<TraceEvent> Events() const;

  /// Chrome trace_event JSON: {"traceEvents": [...]} with timestamps rebased
  /// to tracer construction and converted to microseconds.
  std::string ToChromeJson() const;

  /// Write ToChromeJson() to `path`; returns false on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

  /// Compact text report: spans aggregated by (cat, name) with count and
  /// total/max duration, then instants by (cat, name) with count.
  std::string TextReport() const;

 private:
  int TidFor();

  const bool enabled_;
  const uint64_t scope_id_ = 0;
  const int64_t origin_ns_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::unordered_map<std::thread::id, int> tids_;
};

/// RAII span: opens at construction, records an 'X' event at End()/destruction.
/// All calls are inert when the tracer is null or disabled.
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, std::string name, std::string cat)
      : tracer_(tracer && tracer->enabled() ? tracer : nullptr) {
    if (tracer_) {
      name_ = std::move(name);
      cat_ = std::move(cat);
      start_ns_ = MonotonicNanos();
    }
  }

  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool active() const { return tracer_ != nullptr; }

  void AddNum(std::string key, double value) {
    if (tracer_) args_.push_back(TNum(std::move(key), value));
  }

  void AddStr(std::string key, std::string value) {
    if (tracer_) args_.push_back(TStr(std::move(key), std::move(value)));
  }

  void End() {
    if (!tracer_) return;
    tracer_->Emit(std::move(name_), std::move(cat_), start_ns_,
                  MonotonicNanos() - start_ns_, std::move(args_));
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_;
  std::string name_;
  std::string cat_;
  int64_t start_ns_ = 0;
  std::vector<TraceArg> args_;
};

}  // namespace mqo

#endif  // MQO_OBS_TRACE_H_
