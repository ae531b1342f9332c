// Closed-loop load client for a running pprd: N client threads, each on
// its own TCP connection, drive a Zipf-skewed mix over isomorphic
// 3-COLOR query families (benchlib/batch_workload.h) through the full
// daemon path — parse, plan cache, admission, bounded queue, workers,
// framed replies. CI's service smoke runs it against a live daemon.
//
// Prints one table row (requests, seconds, QPS, p50/p99, OK answers,
// shed rate, transport errors) and exits nonzero when any request got
// no reply or was never sent. Served answers are checked byte for byte
// against the BatchExecutor elsewhere: by service_test and by
// perfbench's serve check.
//
// Flags:
//   --connect-port=N (required) --connect-host=127.0.0.1
//   --clients=8 --requests=400 --families=12 --copies=8
//   --vertices=12 --density=1.3 --budget=2000000 --zipf=1.1 --seed=7
//   --csv

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "benchlib/batch_workload.h"
#include "benchlib/harness.h"
#include "common/rng.h"
#include "encode/kcolor.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "service/client.h"
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

bool HasFlag(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

/// The query mix: the query texts plus the family structure over them
/// (families[f] = indices of family f's isomorphic copies).
struct Workload {
  std::vector<std::string> texts;
  std::vector<std::vector<size_t>> families;
};

Workload BuildWorkload(int num_families, int copies, int vertices,
                       double density, uint64_t seed) {
  Workload out;
  out.families.resize(static_cast<size_t>(num_families));
  for (int f = 0; f < num_families; ++f) {
    std::vector<ConjunctiveQuery> copies_of_f;
    if (f % 2 == 0) {
      // Boolean-emulation families straight from the batch generator.
      ColorBatchSpec spec;
      spec.num_bases = 1;
      spec.copies_per_base = copies;
      spec.num_vertices = vertices;
      spec.density = density;
      spec.seed = seed + 31 * static_cast<uint64_t>(f);
      copies_of_f = IsomorphicColorBatch(spec);
    } else {
      // Non-Boolean families: wider answers exercise the row batching.
      Rng rng(seed + 31 * static_cast<uint64_t>(f));
      const Graph g = RandomGraphWithDensity(vertices, density, rng);
      const ConjunctiveQuery base = KColorQueryNonBoolean(g, 0.2, rng);
      copies_of_f = PermutedCopies(base, copies, seed + 7 * f);
    }
    for (const ConjunctiveQuery& query : copies_of_f) {
      out.families[static_cast<size_t>(f)].push_back(out.texts.size());
      out.texts.push_back(QueryToText(query));
    }
  }
  return out;
}

/// What the closed loop produced, folded across all client threads after
/// they join.
struct LoadResult {
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t shed = 0;              // kOverloaded + kShuttingDown
  int64_t transport_errors = 0;  // protocol or socket failures
  double seconds = 0.0;
  Log2Histogram latency;

  double qps() const { return seconds > 0.0 ? sent / seconds : 0.0; }
  double shed_rate() const {
    return sent > 0 ? static_cast<double>(shed) / static_cast<double>(sent)
                    : 0.0;
  }
};

struct LoadConfig {
  std::string host;
  int port = 0;
  int clients = 8;
  int64_t requests = 400;
  double zipf = 1.1;
  Counter budget = 2'000'000;
  uint64_t seed = 7;
};

LoadResult RunLoad(const Workload& workload, const LoadConfig& config) {
  // Zipf CDF over families: family rank k gets weight (k+1)^-s.
  std::vector<double> cdf(workload.families.size());
  double total = 0.0;
  for (size_t k = 0; k < cdf.size(); ++k) {
    total += std::pow(static_cast<double>(k + 1), -config.zipf);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;

  std::atomic<int64_t> next{0};
  std::vector<LoadResult> per_thread(static_cast<size_t>(config.clients));
  const auto started = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(config.clients));
  for (int t = 0; t < config.clients; ++t) {
    threads.emplace_back([&, t] {
      LoadResult& mine = per_thread[static_cast<size_t>(t)];
      Rng rng(config.seed ^ (0x9e3779b97f4a7c15ULL * (t + 1)));
      Result<ServiceClient> client =
          ServiceClient::Connect(config.host, config.port);
      if (!client.ok()) {
        // A closed-loop client that cannot connect surfaces as transport
        // errors for everything it would have sent.
        while (next.fetch_add(1) < config.requests) ++mine.transport_errors;
        return;
      }
      while (true) {
        const int64_t i = next.fetch_add(1);
        if (i >= config.requests) return;
        const double u = rng.NextDouble();
        size_t family = 0;
        while (family + 1 < cdf.size() && u > cdf[family]) ++family;
        const std::vector<size_t>& members = workload.families[family];
        const size_t flat =
            members[rng.NextBounded(static_cast<uint64_t>(members.size()))];

        ServiceRequest request;
        request.request_id =
            (static_cast<uint64_t>(t) << 32) | static_cast<uint64_t>(i);
        request.client_id = static_cast<uint64_t>(t);
        request.strategy = -1;  // server default
        request.seed = 0;
        request.tuple_budget = static_cast<uint64_t>(config.budget);
        request.query_text = workload.texts[flat];

        const auto before = std::chrono::steady_clock::now();
        Result<ServiceReply> reply = client->Call(request);
        const auto after = std::chrono::steady_clock::now();
        ++mine.sent;
        if (!reply.ok()) {
          ++mine.transport_errors;
          // One reconnect attempt: a daemon mid-drain closes sockets.
          client = ServiceClient::Connect(config.host, config.port);
          if (!client.ok()) {
            while (next.fetch_add(1) < config.requests) {
              ++mine.sent;
              ++mine.transport_errors;
            }
            return;
          }
          continue;
        }
        mine.latency.Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(after -
                                                                 before)
                .count()));
        if (reply->ok()) {
          ++mine.ok;
        } else if (reply->status == ServiceStatus::kOverloaded ||
                   reply->status == ServiceStatus::kShuttingDown) {
          ++mine.shed;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  LoadResult out;
  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - started)
                    .count();
  for (const LoadResult& mine : per_thread) {
    out.sent += mine.sent;
    out.ok += mine.ok;
    out.shed += mine.shed;
    out.transport_errors += mine.transport_errors;
    out.latency.Merge(mine.latency);
  }
  return out;
}

std::string FormatMs(double ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms", ns / 1e6);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  LoadConfig config;
  config.port = static_cast<int>(FlagValue(argc, argv, "connect-port", 0));
  if (config.port <= 0) {
    std::fprintf(stderr,
                 "usage: %s --connect-port=N [--connect-host=H] "
                 "[--clients=N] [--requests=N] [--families=N] [--copies=N] "
                 "[--vertices=N] [--density=D] [--budget=N] [--zipf=S] "
                 "[--seed=N] [--csv]\n",
                 argv[0]);
    return 2;
  }
  config.host = FlagString(argc, argv, "connect-host", "127.0.0.1");
  config.clients = static_cast<int>(FlagValue(argc, argv, "clients", 8));
  config.requests = FlagValue(argc, argv, "requests", 400);
  config.zipf = FlagDouble(argc, argv, "zipf", 1.1);
  config.budget = FlagValue(argc, argv, "budget", 2'000'000);
  config.seed = static_cast<uint64_t>(FlagValue(argc, argv, "seed", 7));
  const int families = static_cast<int>(FlagValue(argc, argv, "families", 12));
  const int copies = static_cast<int>(FlagValue(argc, argv, "copies", 8));
  const int vertices = static_cast<int>(FlagValue(argc, argv, "vertices", 12));
  const double density = FlagDouble(argc, argv, "density", 1.3);

  const Workload workload =
      BuildWorkload(families, copies, vertices, density, config.seed);
  std::printf("service load: %zu queries (%d families x %d copies), "
              "%d clients, zipf %.2f\n\n",
              workload.texts.size(), families, copies, config.clients,
              config.zipf);

  const LoadResult r = RunLoad(workload, config);
  SeriesTable table("phase", {"requests", "seconds", "qps", "p50", "p99",
                              "ok", "shed_rate", "errors"});
  char qps[32];
  std::snprintf(qps, sizeof(qps), "%.1f", r.qps());
  char shed[32];
  std::snprintf(shed, sizeof(shed), "%.4f", r.shed_rate());
  table.AddRow("external",
               {std::to_string(r.sent), FormatSeconds(r.seconds), qps,
                FormatMs(r.latency.Quantile(0.5)),
                FormatMs(r.latency.Quantile(0.99)), std::to_string(r.ok),
                shed, std::to_string(r.transport_errors)});
  if (HasFlag(argc, argv, "csv")) {
    table.PrintCsv();
  } else {
    table.Print();
  }

  int failures = 0;
  if (r.transport_errors > 0) {
    std::fprintf(stderr, "FAIL: %lld protocol/transport errors\n",
                 static_cast<long long>(r.transport_errors));
    ++failures;
  }
  if (r.sent != config.requests) {
    std::fprintf(stderr, "FAIL: sent %lld of %lld requests\n",
                 static_cast<long long>(r.sent),
                 static_cast<long long>(config.requests));
    ++failures;
  }
  if (failures > 0) {
    std::fprintf(stderr, "%d failure(s)\n", failures);
    return 1;
  }
  return 0;
}
