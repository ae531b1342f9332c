#include "common/env.h"

#include <cstdlib>
#include <cstring>

namespace ppr {

const EnvConfig& ProcessEnv() {
  // The only getenv site in the tree (enforced by tools/pprlint): the
  // magic static runs the lambda exactly once under the compiler's
  // init guard, so concurrent first callers block until the snapshot is
  // complete and no thread ever observes a partial EnvConfig. getenv
  // itself is safe here because nothing in this process calls setenv.
  static const EnvConfig config = [] {
    EnvConfig c;
    // NOLINTBEGIN(concurrency-mt-unsafe) -- single sanctioned snapshot;
    // see the comment above.
    if (const char* env = std::getenv("PPR_TRACE");
        env != nullptr && env[0] != '\0') {
      c.trace_enabled = true;
      c.trace_path = env;
    }
    if (const char* env = std::getenv("PPR_VERIFY_PLANS");
        env != nullptr && std::strcmp(env, "0") != 0) {
      c.verify_plans = true;
    }
    if (const char* env = std::getenv("PPR_VERIFY_SEMANTICS");
        env != nullptr && std::strcmp(env, "0") != 0) {
      c.verify_semantics = true;
    }
    if (const char* env = std::getenv("PPR_THREADS");
        env != nullptr && env[0] != '\0') {
      const int n = std::atoi(env);
      if (n > 0) c.default_threads = n;
    }
    if (const char* env = std::getenv("PPR_QUERY_LOG");
        env != nullptr && env[0] != '\0') {
      c.query_log_path = env;
    }
    if (const char* env = std::getenv("PPR_STATS_PORT");
        env != nullptr && env[0] != '\0') {
      const int port = std::atoi(env);
      if (port >= 0 && port <= 65535) c.stats_port = port;
    }
    if (const char* env = std::getenv("PPR_FLIGHT_DIR");
        env != nullptr && env[0] != '\0') {
      c.flight_dir = env;
    }
    if (const char* env = std::getenv("PPR_FLIGHT_LATENCY_MULT");
        env != nullptr && env[0] != '\0') {
      const double mult = std::atof(env);
      if (mult > 1.0) c.flight_latency_mult = mult;
    }
    if (const char* env = std::getenv("PPR_FLIGHT_SPANS");
        env != nullptr && env[0] != '\0') {
      const int n = std::atoi(env);
      if (n > 0) c.flight_spans = n;
    }
    // NOLINTEND(concurrency-mt-unsafe)
    return c;
  }();
  return config;
}

}  // namespace ppr
