#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

namespace {

// 1-based nearest rank of the p-th percentile among n samples.
int64_t NearestRank(int64_t n, double p) {
  const int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * n - 1e-9));
  return std::clamp<int64_t>(rank, 1, n);
}

}  // namespace

double NearestRankPercentile(std::vector<double> samples, double p) {
  const int64_t n = static_cast<int64_t>(samples.size());
  const int64_t rank = NearestRank(n, p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

int64_t MinSamplesForPercentile(double p) {
  int64_t n = 1;
  while (n - NearestRank(n, p) < kMinSamplesBeyondTail) ++n;
  return n;
}

bool TailPercentile(const std::vector<double>& samples, double p, double* out,
                    std::string* why) {
  const int64_t n = static_cast<int64_t>(samples.size());
  const int64_t need = MinSamplesForPercentile(p);
  if (n < need) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "p%g needs >= %lld samples, have %lld", p,
                  static_cast<long long>(need), static_cast<long long>(n));
    *why = buf;
    return false;
  }
  *out = NearestRankPercentile(samples, p);
  return true;
}

double Median(std::vector<double> samples) {
  return NearestRankPercentile(std::move(samples), 50.0);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

}  // namespace perfbench
