// Wall-clock timer for optimization-time measurements (Figures 4c / 5c).

#ifndef MQO_COMMON_TIMER_H_
#define MQO_COMMON_TIMER_H_

#include "obs/clock.h"

namespace mqo {

/// Measures elapsed wall-clock time from construction or the last Reset().
/// Built on the engine's single monotonic clock (obs/clock.h), so bench
/// timings and trace span durations are directly comparable.
class WallTimer {
 public:
  WallTimer() : start_ns_(MonotonicNanos()) {}

  void Reset() { start_ns_ = MonotonicNanos(); }

  double ElapsedMillis() const {
    return NanosToMillis(MonotonicNanos() - start_ns_);
  }

 private:
  int64_t start_ns_;
};

}  // namespace mqo

#endif  // MQO_COMMON_TIMER_H_
