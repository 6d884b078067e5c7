#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// A tail percentile is reported only when at least this many samples lie
// beyond it; for the 90th percentile that needs 100 samples.
constexpr int64_t kMinSamplesBeyondTail = 10;

// Nearest-rank percentile: the smallest sample such that at least p% of the
// samples are <= it, i.e. sorted[ceil(p/100 * n) - 1]. `p` in (0, 100];
// `samples` non-empty (any order).
double NearestRankPercentile(std::vector<double> samples, double p);

// Fewest samples for which the p-th nearest-rank percentile has
// kMinSamplesBeyondTail samples strictly above its rank.
int64_t MinSamplesForPercentile(double p);

// The p-th percentile, or false (and `why` set) when `samples` is too small
// for kMinSamplesBeyondTail samples to lie beyond it.
bool TailPercentile(const std::vector<double>& samples, double p, double* out,
                    std::string* why);

double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
