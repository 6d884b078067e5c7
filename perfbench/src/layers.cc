#include "layers.h"

#include <algorithm>
#include <cstdio>

#include "mdx/binder.h"
#include "mdx/parser.h"
#include "stats.h"

namespace perfbench {

void LayerBook::AddProfile(const olap::QueryProfile& profile) {
  ++profiles_;
  const std::vector<olap::SpanRecord>& spans = profile.trace.spans;
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const olap::SpanRecord& s : spans) {
    if (s.parent >= 0 && s.parent < static_cast<int>(spans.size())) {
      child_ms[s.parent] += s.duration_ms();
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = spans_[spans[i].name];
    ++t.count;
    t.total_ms += spans[i].duration_ms();
    t.self_ms += spans[i].duration_ms() - child_ms[i];
  }
  for (const auto& [name, value] : profile.metrics_delta.counters) {
    counters_[name] += value;
  }
  for (const auto& [name, h] : profile.metrics_delta.histograms) {
    histogram_nanos_[name] += h.sum_nanos;
  }
}

void LayerBook::AddSample(const std::string& key, double value) {
  samples_[key].push_back(value);
}

double LayerBook::SpanTotalMs(const std::string& name) const {
  auto it = spans_.find(name);
  if (it == spans_.end() || profiles_ == 0) return 0.0;
  return it->second.total_ms / static_cast<double>(profiles_);
}

double LayerBook::SpanSelfMs(const std::string& name) const {
  auto it = spans_.find(name);
  if (it == spans_.end() || profiles_ == 0) return 0.0;
  return it->second.self_ms / static_cast<double>(profiles_);
}

int64_t LayerBook::CounterSum(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double LayerBook::CounterPerQuery(const std::string& name) const {
  if (profiles_ == 0) return 0.0;
  return static_cast<double>(CounterSum(name)) /
         static_cast<double>(profiles_);
}

double LayerBook::HistogramMsPerQuery(const std::string& name) const {
  auto it = histogram_nanos_.find(name);
  if (it == histogram_nanos_.end() || profiles_ == 0) return 0.0;
  return static_cast<double>(it->second) / 1e6 /
         static_cast<double>(profiles_);
}

const std::vector<double>& LayerBook::Samples(const std::string& key) const {
  static const std::vector<double> kEmpty;
  auto it = samples_.find(key);
  return it == samples_.end() ? kEmpty : it->second;
}

double LayerBook::SampleMean(const std::string& key) const {
  return Mean(Samples(key));
}

double LayerBook::SampleMedian(const std::string& key) const {
  const std::vector<double>& s = Samples(key);
  return s.empty() ? 0.0 : Median(s);
}

double LayerBook::SampleMax(const std::string& key) const {
  const std::vector<double>& s = Samples(key);
  return s.empty() ? 0.0 : *std::max_element(s.begin(), s.end());
}

double LayerBook::SampleSum(const std::string& key) const {
  double sum = 0.0;
  for (double v : Samples(key)) sum += v;
  return sum;
}

std::string LayerBook::SpanTable() const {
  std::vector<std::pair<std::string, SpanTotals>> rows(spans_.begin(),
                                                       spans_.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_ms > b.second.total_ms;
  });
  const double n = profiles_ == 0 ? 1.0 : static_cast<double>(profiles_);
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "  %-34s %10s %12s %12s\n", "span",
                "count/q", "total_ms/q", "self_ms/q");
  out += line;
  for (const auto& [name, t] : rows) {
    std::snprintf(line, sizeof(line), "  %-34s %10.2f %12.4f %12.4f\n",
                  name.c_str(), static_cast<double>(t.count) / n,
                  t.total_ms / n, t.self_ms / n);
    out += line;
  }
  return out;
}

void SampleParseBind(const olap::Database& db, const std::string& cube_name,
                     const std::string& mdx, LayerBook* layers) {
  Clock::time_point t0 = Clock::now();
  olap::Result<olap::mdx::ParsedQuery> parsed = olap::mdx::Parse(mdx);
  layers->AddSample("mdx.parse_ms", MsSince(t0));
  olap::Result<const olap::Cube*> cube = db.FindCube(cube_name);
  if (!parsed.ok() || !cube.ok()) return;
  t0 = Clock::now();
  olap::Result<olap::mdx::BoundQuery> bound =
      olap::mdx::Bind(*parsed, (*cube)->schema(), &db, *cube);
  layers->AddSample("mdx.bind_ms", MsSince(t0));
}

}  // namespace perfbench
