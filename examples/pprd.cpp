// pprd — the resident query daemon: a QueryService behind the TCP front
// end of service/server.h, serving the paper's 3-COLOR catalog.
//
// Run it, then point tools at it:
//
//   ./pprd --port=7471 --workers=4 --quota-tokens=100 --quota-refill=50
//   ./service_load --connect-port=7471   (bench/service_load.cc)
//
// The daemon prints exactly one line
//
//   pprd listening on <host>:<port>
//
// once it accepts connections (CI parses it to discover the ephemeral
// port), then serves until SIGINT/SIGTERM, at which point it drains
// gracefully: stops accepting, finishes every admitted request, flushes
// telemetry artifacts, and prints the final service counters.
//
// Flags (all optional):
//   --host=127.0.0.1       listen address
//   --port=0               listen port (0 = ephemeral, printed at start)
//   --workers=0            execution workers (0 = PPR_THREADS / hardware)
//   --queue-depth=64       admission queue capacity
//   --max-tuples=N         server-side tuple budget ceiling per request
//   --quota-tokens=0       per-client token-bucket burst (0 = off)
//   --quota-refill=0.0     tokens per second per client
//   --max-bound=0.0        inflight predicted-tuple-bound headroom (0 = off)
//   --deadline-ms=0        default per-request deadline (0 = none)
//   --cache-capacity=1024  plan-cache entries
//   --colors=3             k of the k-COLOR catalog the daemon serves
//
// Observability: the PPR_* env vars work as everywhere else —
// PPR_STATS_PORT serves /metrics (pprstat serve renders it),
// PPR_QUERY_LOG exports the per-request JSONL, PPR_FLIGHT_DIR arms the
// flight recorder (shed/deadline anomalies dump evidence), and
// PPR_VERIFY_PLANS / PPR_VERIFY_SEMANTICS verify every plan the daemon
// compiles (a rejected plan is answered as an error).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "encode/kcolor.h"
#include "relational/database.h"
#include "service/server.h"
#include "service/service.h"

namespace {

using namespace ppr;

int64_t FlagValue(int argc, char** argv, const char* name, int64_t fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atoll(argv[i] + prefix.size());
    }
  }
  return fallback;
}

double FlagDouble(int argc, char** argv, const char* name, double fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atof(argv[i] + prefix.size());
    }
  }
  return fallback;
}

std::string FlagString(int argc, char** argv, const char* name,
                       const std::string& fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  // Block the shutdown signals before any thread exists, so every thread
  // inherits the mask and sigwait below is the one delivery point.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  Database db;
  AddColoringRelations(static_cast<int>(FlagValue(argc, argv, "colors", 3)),
                       &db);

  ServiceConfig config;
  config.num_workers = static_cast<int>(FlagValue(argc, argv, "workers", 0));
  config.queue_depth =
      static_cast<size_t>(FlagValue(argc, argv, "queue-depth", 64));
  const int64_t max_tuples = FlagValue(argc, argv, "max-tuples", 0);
  if (max_tuples > 0) config.max_tuple_budget = max_tuples;
  config.admission.quota_tokens = FlagValue(argc, argv, "quota-tokens", 0);
  config.admission.quota_refill_per_sec =
      FlagDouble(argc, argv, "quota-refill", 0.0);
  config.admission.max_inflight_tuple_bound =
      FlagDouble(argc, argv, "max-bound", 0.0);
  config.default_deadline_ms =
      static_cast<uint32_t>(FlagValue(argc, argv, "deadline-ms", 0));
  config.cache_capacity =
      static_cast<size_t>(FlagValue(argc, argv, "cache-capacity", 1024));

  QueryService service(db, config);

  ServerConfig server_config;
  server_config.host = FlagString(argc, argv, "host", "127.0.0.1");
  server_config.port = static_cast<int>(FlagValue(argc, argv, "port", 0));
  ServiceServer server(&service, server_config);
  if (Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "pprd: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("pprd listening on %s:%d\n", server_config.host.c_str(),
              server.port());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&signals, &sig);
  std::printf("pprd: received %s, draining\n",
              sig == SIGTERM ? "SIGTERM" : "SIGINT");
  std::fflush(stdout);
  server.Stop();

  const ServiceCounters counters = service.counters();
  std::printf(
      "pprd: served %lld requests (%lld ok, %lld invalid, %lld rejected, "
      "%lld shed, %lld deadline-expired, %lld budget-exhausted, %lld "
      "errors); %lld connections, %lld write errors\n",
      static_cast<long long>(counters.requests),
      static_cast<long long>(counters.ok),
      static_cast<long long>(counters.invalid),
      static_cast<long long>(counters.rejected_bound),
      static_cast<long long>(counters.shed_total() + counters.shed_draining),
      static_cast<long long>(counters.deadline_expired),
      static_cast<long long>(counters.budget_exhausted),
      static_cast<long long>(counters.errors),
      static_cast<long long>(server.connections_accepted()),
      static_cast<long long>(server.write_errors()));
  return 0;
}
