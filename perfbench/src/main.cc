// The repository benchmark program. One closed-loop client in one process
// runs a named workload against the engine's public API, checks every
// answer, and prints a human-readable report followed by one JSON result
// line (the last line of stdout):
//
//   perfbench --workload whatif_query|edit_feed|outofcore_scan
//             --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--source-id ID] [--results FILE]
//
// --trace 0 reports the end-to-end metrics; --trace 1 profiles every other
// loop cycle and reports the per-layer metrics. Exit code 0 means a result
// was printed (its "correct" field says whether every answer matched);
// anything else means no result.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "report.h"
#include "workload.h"

namespace perfbench {
namespace {

// Queries run at min(4, affinity-visible cores) evaluation threads.
constexpr int kMaxEvalThreads = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".";
  std::string source_id = "unknown";
  std::string results;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--source-id") {
      args->source_id = value;
    } else if (flag == "--results") {
      args->results = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR] [--source-id ID] [--results FILE]\n",
                 argv[0]);
    return 2;
  }
  RunConfig config;
  config.seed = args.seed;
  config.seconds = args.seconds;
  config.trace = args.trace == 1;
  config.eval_threads =
      std::min(kMaxEvalThreads, olap::ThreadPool::AffinityVisibleCores());
  config.work_dir = args.work_dir;

  RunResult run;
  bool ran = false;
  if (args.workload == "whatif_query") {
    ran = RunWhatIfQuery(config, &run);
  } else if (args.workload == "edit_feed") {
    ran = RunEditFeed(config, &run);
  } else if (args.workload == "outofcore_scan") {
    ran = RunOutOfCoreScan(config, &run);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (!ran) return 1;

  std::string why;
  std::vector<Metric> end_to_end, workload_only;
  if (!EndToEndMetrics(run, PeakRssMb(), &end_to_end, &why) ||
      !WorkloadOnlyMetrics(run, &workload_only, &why)) {
    std::fprintf(stderr, "cannot report: %s\n", why.c_str());
    return 1;
  }
  // BENCHMARK.json's per_layer list: the layer metrics plus the
  // workload-specific ones, so traced runs carry those too.
  const std::vector<Metric> layers = PerLayerMetrics(run);
  std::vector<Metric> per_layer = layers;
  per_layer.insert(per_layer.end(), workload_only.begin(), workload_only.end());

  Provenance provenance;
  provenance.workload = args.workload;
  provenance.seed = args.seed;
  provenance.seconds = args.seconds;
  provenance.trace = config.trace;
  provenance.eval_threads = config.eval_threads;
  provenance.source_id = args.source_id;
  provenance.calibration = Calibrate();

  if (!args.results.empty()) {
    FILE* f = std::fopen(args.results.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.results.c_str());
      return 1;
    }
    const std::string detail =
        DetailJson(provenance, run, end_to_end, workload_only, layers);
    std::fputs(detail.c_str(), f);
    std::fclose(f);
  }
  std::fputs(
      TextReport(provenance, run, end_to_end, workload_only, layers).c_str(),
      stdout);
  std::puts(ResultJson(run, config.trace ? per_layer : end_to_end).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
