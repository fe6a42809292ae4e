// perfbench_driver: runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload <lifecycle|fleet|align|recovery>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--work-dir <dir>] [--trace-dir <dir>]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when any check fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/bench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<lifecycle|fleet|align|recovery> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--trace-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = argv[++i];
    } else if (arg == "--trace-dir") {
      options.trace_dir = argv[++i];
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!perfbench::IsWorkload(options.workload)) {
    return Usage("unknown or missing --workload");
  }
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");
  return perfbench::RunDriver(options);
}
