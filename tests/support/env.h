// The MQO_* environment overrides for tests that build optimizers or
// executors directly. The library reads the environment only at its facade
// entry points (mqo/env_overrides.h); these helpers hand the same values to
// the layers below it, so a CI leg's variable — MQO_OPT_THREADS under TSan,
// MQO_MAT_BUDGET_BYTES / MQO_SPILL_DIR in the budget-spill leg,
// MQO_STATS_MODE in the stats-collected leg — reaches those tests too.

#ifndef MQO_TESTS_SUPPORT_ENV_H_
#define MQO_TESTS_SUPPORT_ENV_H_

#include "mqo/env_overrides.h"
#include "mqo/facade.h"

namespace mqo {

/// The process environment, parsed once per test binary.
inline const EnvOverrides& TestEnv() {
  static const EnvOverrides env = ParseEnvOverrides();
  return env;
}

/// `exec` with the store budget and spill directory it leaves unset filled
/// from the environment, exactly as the facade fills them.
inline ExecOptions WithEnvStore(const ExecOptions& exec = {}) {
  MqoOptions options;
  options.exec = exec;
  return ResolveMqoOptions(options, TestEnv()).options.exec;
}

/// Default optimizer options with the MQO_OPT_THREADS worker count.
inline BatchOptimizerOptions EnvOptimizerOptions() {
  BatchOptimizerOptions options;
  options.num_threads = TestEnv().opt_threads;
  return options;
}

}  // namespace mqo

#endif  // MQO_TESTS_SUPPORT_ENV_H_
