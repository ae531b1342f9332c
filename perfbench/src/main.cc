// Benchmark driver: one workload per invocation.
//
//   perfbench --workload serve_hot|serve_cold|sweep_heavy --seed N
//             --seconds S --trace 0|1 --state-dir DIR
//
// The process pins itself to one CPU before it starts any thread, runs
// the workload, and prints a JSON result line last. It exits 1 when an
// operation failed or a check did not hold, 2 on bad arguments.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_hot|serve_cold|sweep_heavy "
               "--seed N --seconds S --trace 0|1 --state-dir DIR\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.start_ns = perfbench::NowNs();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--state-dir") {
      options.state_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0.0 || options.state_dir.empty() ||
      (options.workload != "serve_hot" && options.workload != "serve_cold" &&
       options.workload != "sweep_heavy")) {
    Usage();
    return 2;
  }
  std::error_code error;
  std::filesystem::create_directories(options.state_dir, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s: %s\n", options.state_dir.c_str(),
                 error.message().c_str());
    return 2;
  }

  // One fixed CPU for the load generator, the daemon and the kernels:
  // threads that wake each other across vCPUs pick up hypervisor steal.
  // With one CPU, one malloc arena: glibc sizes its arena pool by the
  // online CPUs, and which daemon and client threads got a fresh arena
  // made serve_cold's peak RSS jump between 39 and 53 MiB from run to
  // run (37.7-37.9 MiB with one arena).
  mallopt(M_ARENA_MAX, 1);
  options.cpu = perfbench::PinToOneCpu();
  if (options.cpu < 0) {
    std::fprintf(stderr, "cannot pin the process to one CPU\n");
    return 1;
  }

  const perfbench::RunResult result =
      options.workload == "sweep_heavy"
          ? perfbench::RunSweep(options)
          : perfbench::RunServe(options, options.workload == "serve_cold");
  result.Print();
  return result.correct && result.failed == 0 ? 0 : 1;
}
