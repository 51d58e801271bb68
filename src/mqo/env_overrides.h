// The MQO_* environment overrides, parsed in one place.
//
// Only the facade entry points read the environment: each parses it once
// with ParseEnvOverrides, and ResolveMqoOptions (mqo/facade.h) fills the
// MqoOptions knobs the caller left unset. The layers below take plain
// option values. README.md ("Environment overrides") lists the variables.
// Booleans accept 1/true/on/yes and 0/false/off/no in any case; an empty
// variable counts as unset; a malformed value is ignored with a warning.

#ifndef MQO_MQO_ENV_OVERRIDES_H_
#define MQO_MQO_ENV_OVERRIDES_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "cost/stats.h"

namespace mqo {

/// The parsed overrides; every default is what an unset variable means.
struct EnvOverrides {
  size_t mat_budget_bytes = 0;                      ///< MQO_MAT_BUDGET_BYTES
  std::string spill_dir;                            ///< MQO_SPILL_DIR
  StatsMode stats_mode = StatsMode::kCatalogGuess;  ///< MQO_STATS_MODE
  int opt_threads = 1;                              ///< MQO_OPT_THREADS
  bool metrics = false;                             ///< MQO_METRICS
  bool trace = false;  ///< MQO_TRACE, or implied by MQO_TRACE_FILE
  std::string trace_file;                           ///< MQO_TRACE_FILE
  /// One message per malformed (and so ignored) variable.
  std::vector<std::string> warnings;
};

/// Returns the named variable's value, or null when it is unset.
using EnvLookup = std::function<const char*(const char* name)>;

/// Parses every MQO_* variable through `lookup`.
EnvOverrides ParseEnvOverrides(const EnvLookup& lookup);

/// Parses the process environment, printing each distinct warning to
/// stderr once per process.
EnvOverrides ParseEnvOverrides();

}  // namespace mqo

#endif  // MQO_MQO_ENV_OVERRIDES_H_
