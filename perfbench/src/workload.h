#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check.h"
#include "layers.h"
#include "stats.h"

namespace perfbench {

// Set-up repetitions per run; setup_s is their median. The workforce cube
// takes about a second to set up; the product cube a few milliseconds, so
// it repeats more to keep the median steady.
constexpr int kWorkforceSetupReps = 3;
constexpr int kProductSetupReps = 9;

// What one run of a workload is asked to do.
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int eval_threads = 1;
  std::string work_dir;  // Scratch space inside the checkout.
};

// Everything a workload measured; the report turns it into metrics.
struct RunResult {
  OpTally ops;
  std::vector<double> setup_s;  // One per set-up repetition.
  // Execute wall latency of every query, and of the untraced / traced
  // subsets (the traced run alternates cycles between the two).
  std::vector<double> query_ms;
  std::vector<double> untraced_query_ms;
  std::vector<double> traced_query_ms;
  // Execute wall latency by query class.
  std::map<std::string, std::vector<double>> class_ms;
  double loop_s = 0.0;  // Wall time of the measured closed loop.
  std::vector<double> edit_ms;  // Edit rounds (edit_feed only).
  // SimulatedDisk virtual seconds summed over the loop's queries; reported
  // on its own, never added to a wall time.
  double io_virtual_s = 0.0;
  LayerBook layers;

  void RecordQuery(const std::string& query_class, double ms, bool traced) {
    query_ms.push_back(ms);
    (traced ? traced_query_ms : untraced_query_ms).push_back(ms);
    class_ms[query_class].push_back(ms);
  }

  // Provenance of the data the run measured.
  int64_t cube_cells = 0;
  int64_t cube_chunks = 0;
  int64_t file_bytes = 0;
  int64_t disk_lru_chunks = 0;
  int agg_views = 0;
};

// The closed loop keeps issuing operations until `seconds` have passed and
// at least this many queries were timed, so p90 always has ten samples
// beyond it; it gives up extending at kLoopCeilingS.
constexpr int64_t kMinLoopQueries = 120;
constexpr double kLoopCeilingS = 120.0;

inline bool LoopDone(Clock::time_point start, double seconds,
                     int64_t queries) {
  const double elapsed = MsSince(start) / 1e3;
  if (elapsed >= kLoopCeilingS) return true;
  return elapsed >= seconds && queries >= kMinLoopQueries;
}

// Each returns false (after printing why to stderr) when set-up itself
// failed, in which case no result may be reported.
bool RunWhatIfQuery(const RunConfig& config, RunResult* out);
bool RunEditFeed(const RunConfig& config, RunResult* out);
bool RunOutOfCoreScan(const RunConfig& config, RunResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
