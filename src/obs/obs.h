// ObsContext: the handle instrumented code receives.
//
// One ObsContext bundles a MetricsRegistry and a Tracer for a batch run. It
// is threaded through the engine as a raw pointer with nullptr meaning
// "observability off" — instrumented code calls TracerOf(obs)/MetricsOf(obs)
// and the RAII helpers (TraceSpan, ScopedTimer) degrade to no-ops on null, so
// no call site needs an if around its instrumentation.

#ifndef MQO_OBS_OBS_H_
#define MQO_OBS_OBS_H_

#include <memory>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mqo {

struct ObsOptions {
  bool metrics = false;
  bool trace = false;
  /// When non-empty (and trace is on), the facade writes the Chrome trace
  /// JSON here after the batch completes.
  std::string trace_path;
  /// Trace scope: tags every exported event's Chrome "pid" (0 = default
  /// pid 1). A session sets this to its per-run batch id, so concurrent
  /// batches' traces stay attributable — each run exports into its own
  /// process lane.
  uint64_t scope_id = 0;
};

class ObsContext {
 public:
  explicit ObsContext(const ObsOptions& options)
      : options_(options),
        metrics_(options.metrics),
        tracer_(options.trace, options.scope_id) {}

  const ObsOptions& options() const { return options_; }
  bool any_enabled() const { return options_.metrics || options_.trace; }

  MetricsRegistry* metrics() { return &metrics_; }
  Tracer* tracer() { return &tracer_; }

 private:
  ObsOptions options_;
  MetricsRegistry metrics_;
  Tracer tracer_;
};

/// Null-safe accessors for instrumented code holding an `ObsContext*`.
inline Tracer* TracerOf(ObsContext* obs) {
  return obs ? obs->tracer() : nullptr;
}

inline MetricsRegistry* MetricsOf(ObsContext* obs) {
  return obs ? obs->metrics() : nullptr;
}

}  // namespace mqo

#endif  // MQO_OBS_OBS_H_
