#ifndef OLAP_BENCH_BENCH_WORKLOADS_H_
#define OLAP_BENCH_BENCH_WORKLOADS_H_

// Shared workload setup and reporting helpers for bench_figures and
// bench_ablations. GetBenchWorkforce is a laptop-scaled version of the
// paper's Sec. 6 workforce-planning cube (the paper's absolute sizes —
// 20,250 employees, 100 measures, 121M input cells, 20.2 GB — are scaled
// down ~10x while preserving the ratios that drive the curves: ~1% changing
// employees, 1–11 moves each, 12 months, one perspective query focused on
// exactly the changing employees). See DESIGN.md §2.

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "engine/executor.h"
#include "workload/workforce.h"

namespace olap::bench {

struct BenchWorkforce {
  Database db;
  std::unique_ptr<Executor> exec;
  std::vector<MemberId> changing_employees;
  int dept_dim = 0;
};

inline const BenchWorkforce& GetBenchWorkforce() {
  static BenchWorkforce* instance = [] {
    auto* bw = new BenchWorkforce();
    WorkforceConfig config;
    config.num_departments = 51;
    config.num_employees = 2025;   // Paper: 20,250.
    config.num_changing = 250;     // Paper: 250 (kept absolute).
    config.num_measures = 10;      // Paper: 100.
    config.num_scenarios = 5;
    config.seed = 20080407;        // ICDE 2008.
    WorkforceCube wf = BuildWorkforceCube(config);
    bw->dept_dim = wf.dept_dim;
    bw->changing_employees = wf.changing_employees;
    Status s = RegisterWorkforce(&bw->db, "App.Db", std::move(wf));
    if (!s.ok()) {
      fprintf(stderr, "workforce setup failed: %s\n", s.ToString().c_str());
      abort();
    }
    bw->exec = std::make_unique<Executor>(&bw->db);
    return bw;
  }();
  return *instance;
}

// Month name for ordinal i under the workforce naming scheme: Jan..Dec for
// the first year, then "Jan2", "Feb2", ... (see workforce.cc).
inline std::string BenchMonthName(int i) {
  static const char* kMonths[12] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                                    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};
  std::string name = kMonths[i % 12];
  if (i >= 12) name += std::to_string(i / 12 + 1);
  return name;
}

// The perspective list "{(Jan), (Apr), ...}" for the first k of the given
// stride over `num_months` months.
inline std::string PerspectiveList(int k, int stride = 1,
                                   int num_months = 12) {
  std::string out = "{";
  for (int i = 0; i < k; ++i) {
    if (i) out += ", ";
    out += "(";
    out += BenchMonthName((i * stride) % num_months);
    out += ")";
  }
  out += "}";
  return out;
}

// The paper's disk (1.8 GHz Pentium box, 256 MB Essbase cache) stand-in.
inline DiskModel BenchDiskModel() {
  DiskModel m;
  m.seek_seconds_per_chunk = 2e-7;
  m.max_seek_seconds = 8e-3;
  m.transfer_seconds = 1e-5;
  return m;
}

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Median of a sample set (mean of the two middle values for even sizes).
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  return (*std::max_element(samples.begin(), samples.begin() + mid) + upper) /
         2.0;
}

// Median wall milliseconds of `reps` calls of `fn`.
template <typename Fn>
double MedianMs(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    ms.push_back(MsSince(start));
  }
  return Median(std::move(ms));
}

// Least-squares line y ~ intercept + slope * x with its R^2.
struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;
};
inline LineFit FitLine(const std::vector<double>& x,
                       const std::vector<double>& y) {
  LineFit fit;
  const size_t n = x.size();
  if (n < 2 || y.size() != n) return fit;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (size_t i = 0; i < n; ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  if (denom == 0.0) return fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double mean = sy / n;
  double ss_res = 0, ss_tot = 0;
  for (size_t i = 0; i < n; ++i) {
    const double r = y[i] - (fit.intercept + fit.slope * x[i]);
    ss_res += r * r;
    ss_tot += (y[i] - mean) * (y[i] - mean);
  }
  fit.r2 = ss_tot == 0.0 ? 1.0 : 1.0 - ss_res / ss_tot;
  return fit;
}

// The shared command line: [--smoke] [--check] [--out PATH]. Prints the
// usage line and returns false on anything else.
struct BenchArgs {
  bool smoke = false;  // Scaled-down workloads, fewer reps (CI-sized).
  bool check = false;  // Exit non-zero when a gate fails.
  std::string out_path;
};
inline bool ParseBenchArgs(int argc, char** argv, BenchArgs* args) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      args->smoke = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      args->check = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      args->out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--check] [--out PATH]\n",
                   argv[0]);
      return false;
    }
  }
  return true;
}

// printf-style append, for building the JSON reports.
__attribute__((format(printf, 2, 3))) inline void Appendf(std::string* out,
                                                          const char* fmt,
                                                          ...) {
  va_list ap, again;
  va_start(ap, fmt);
  va_copy(again, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  if (n > 0) {
    const size_t old = out->size();
    out->resize(old + n + 1);
    std::vsnprintf(out->data() + old, n + 1, fmt, again);
    out->resize(old + n);
  }
  va_end(again);
}

// Opens a JSON report with the bench name and the machine it ran on
// (hardware_concurrency is the raw report, affinity_cores what this
// process may use — the fields bench_kernels records).
inline std::string JsonHeader(const char* bench, bool smoke) {
  std::string json;
  Appendf(&json,
          "{\n  \"bench\": \"%s\",\n  \"smoke\": %s,\n"
          "  \"hardware_concurrency\": %u,\n  \"affinity_cores\": %d,\n",
          bench, smoke ? "true" : "false",
          std::max(1u, std::thread::hardware_concurrency()),
          ThreadPool::AffinityVisibleCores());
  return json;
}

// Prints the report and, when `path` is non-empty, writes it there.
inline bool EmitJson(const std::string& json, const std::string& path) {
  std::fputs(json.c_str(), stdout);
  if (path.empty()) return true;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  return true;
}

}  // namespace olap::bench

#endif  // OLAP_BENCH_BENCH_WORKLOADS_H_
