#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// A machine label, not a metric: wall milliseconds of a fixed
// single-threaded integer loop and of streaming over 32 MB. It tells
// machines apart; it does not detect neighbour load on a shared host.
// Allocates, so take it after PeakRssMb().
struct Calibration {
  double alu_ms = 0.0;
  double memory_ms = 0.0;
};
Calibration Calibrate();

// Where and on what a run measured; printed with every result so numbers
// from different machines or builds are never compared unlabelled.
struct Provenance {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  int eval_threads = 1;
  std::string source_id;  // Git commit, or a digest of the source tree.
  Calibration calibration;  // Taken right after the workload.
};

// The gated end-to-end metrics (BENCHMARK.json "end_to_end"): every one is
// defined, and non-zero, on every workload. Fails (false, `why` set) when a
// percentile lacks the samples it needs.
bool EndToEndMetrics(const RunResult& run, double peak_rss_mb,
                     std::vector<Metric>* out, std::string* why);

// Metrics that apply to one workload only (edit latency, disk virtual time)
// plus failed_share: printed in the report and written to the results file,
// but not gated, because the gate compares every metric on every workload.
bool WorkloadOnlyMetrics(const RunResult& run, std::vector<Metric>* out,
                         std::string* why);

// The per-layer metrics (BENCHMARK.json "per_layer"), every one on every
// workload; 0 where the workload never reaches the layer.
std::vector<Metric> PerLayerMetrics(const RunResult& run);

// Peak resident set size of this process, in MB.
double PeakRssMb();

std::string ProvenanceJson(const Provenance& p, const RunResult& run);

// Human-readable report (every metric by name and unit, plus the span
// table in traced runs).
std::string TextReport(const Provenance& p, const RunResult& run,
                       const std::vector<Metric>& end_to_end,
                       const std::vector<Metric>& workload_only,
                       const std::vector<Metric>& per_layer);

// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const RunResult& run, const std::vector<Metric>& metrics);

// The full record of a run: provenance, every metric and the span table.
std::string DetailJson(const Provenance& p, const RunResult& run,
                       const std::vector<Metric>& end_to_end,
                       const std::vector<Metric>& workload_only,
                       const std::vector<Metric>& per_layer);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
