#include "obs/trace.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "obs/json.h"

namespace mqo {

int Tracer::TidFor() {
  auto id = std::this_thread::get_id();
  auto it = tids_.find(id);
  if (it == tids_.end()) {
    it = tids_.emplace(id, static_cast<int>(tids_.size())).first;
  }
  return it->second;
}

void Tracer::Instant(std::string name, std::string cat,
                     std::vector<TraceArg> args) {
  if (!enabled_) return;
  TraceEvent e;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.phase = 'i';
  e.ts_ns = MonotonicNanos();
  e.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  e.tid = TidFor();
  events_.push_back(std::move(e));
}

void Tracer::Emit(std::string name, std::string cat, int64_t ts_ns,
                  int64_t dur_ns, std::vector<TraceArg> args) {
  if (!enabled_) return;
  TraceEvent e;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.phase = 'X';
  e.ts_ns = ts_ns;
  e.dur_ns = std::max<int64_t>(dur_ns, 0);
  e.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  e.tid = TidFor();
  events_.push_back(std::move(e));
}

void Tracer::CompleteSince(int64_t start_ns, std::string name, std::string cat,
                           std::vector<TraceArg> args) {
  Emit(std::move(name), std::move(cat), start_ns, MonotonicNanos() - start_ns,
       std::move(args));
}

std::vector<TraceEvent> Tracer::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::string Tracer::ToChromeJson() const {
  std::vector<TraceEvent> events = Events();
  // Chrome sorts by timestamp itself, but a sorted file diffs better (the
  // tests' nesting validator expects no particular order anyway).
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  for (const TraceEvent& e : events) {
    w.BeginObject();
    w.Field("name", e.name);
    w.Field("cat", e.cat);
    w.Field("ph", std::string(1, e.phase));
    // Batch scope id as the Chrome process id: concurrent session batches
    // export into distinct lanes instead of interleaving under one pid.
    w.Field("pid", static_cast<int64_t>(scope_id_ == 0 ? 1 : scope_id_));
    w.Field("tid", static_cast<int64_t>(e.tid));
    w.Field("ts", NanosToMillis(e.ts_ns - origin_ns_) * 1e3);  // microseconds
    if (e.phase == 'X') w.Field("dur", NanosToMillis(e.dur_ns) * 1e3);
    if (e.phase == 'i') w.Field("s", std::string("t"));
    if (!e.args.empty()) {
      w.Key("args").BeginObject();
      for (const TraceArg& a : e.args) {
        if (a.is_number) {
          w.Field(a.key, a.num);
        } else {
          w.Field(a.key, a.str);
        }
      }
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << ToChromeJson() << "\n";
  return static_cast<bool>(out);
}

std::string Tracer::TextReport() const {
  struct Agg {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t max_ns = 0;
  };
  std::map<std::pair<std::string, std::string>, Agg> spans;
  std::map<std::pair<std::string, std::string>, int64_t> instants;
  for (const TraceEvent& e : Events()) {
    auto key = std::make_pair(e.cat, e.name);
    if (e.phase == 'X') {
      Agg& a = spans[key];
      ++a.count;
      a.total_ns += e.dur_ns;
      a.max_ns = std::max(a.max_ns, e.dur_ns);
    } else {
      ++instants[key];
    }
  }
  std::ostringstream os;
  os << "== trace ==\n";
  for (const auto& [key, a] : spans) {
    os << "  span    " << key.first << "/" << key.second << "  n=" << a.count
       << " total=" << JsonNumber(NanosToMillis(a.total_ns)) << "ms"
       << " max=" << JsonNumber(NanosToMillis(a.max_ns)) << "ms\n";
  }
  for (const auto& [key, n] : instants) {
    os << "  instant " << key.first << "/" << key.second << "  n=" << n << "\n";
  }
  return os.str();
}

}  // namespace mqo
