#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/executor.h"

namespace perfbench {

// Per-layer accounting for a traced run. Two sources feed it:
//
//  * profiled queries (QueryOptions::collect_profile): the engine's own
//    span tree and metric deltas, the same data EXPLAIN ANALYZE renders.
//    Self time of a span is its duration minus its direct children's;
//    spans that pool workers record are roots of their own (the engine
//    does not link parents across threads), so their time is their own.
//  * samples the benchmark takes itself around public entry points
//    (mdx::Parse, Database::ApplyCellEdits, ...), keyed by metric name.
class LayerBook {
 public:
  struct SpanTotals {
    int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  // Folds one profiled query's spans and metric deltas.
  void AddProfile(const olap::QueryProfile& profile);
  // One directly measured sample of `key`.
  void AddSample(const std::string& key, double value);

  int64_t profiles() const { return profiles_; }
  const std::map<std::string, SpanTotals>& spans() const { return spans_; }

  // Per profiled query: total / self milliseconds of spans named `name`,
  // and the delta of counter `name`. 0 when no query was profiled.
  double SpanTotalMs(const std::string& name) const;
  double SpanSelfMs(const std::string& name) const;
  double CounterPerQuery(const std::string& name) const;
  // Run totals of a counter delta and of a histogram's summed seconds.
  int64_t CounterSum(const std::string& name) const;
  double HistogramMsPerQuery(const std::string& name) const;

  // Sample statistics for `key` (0 when no sample was taken).
  double SampleMean(const std::string& key) const;
  double SampleMedian(const std::string& key) const;
  double SampleMax(const std::string& key) const;
  double SampleSum(const std::string& key) const;
  const std::vector<double>& Samples(const std::string& key) const;

  // Span table: per profiled query, count, total and self ms by span
  // name, sorted by total time.
  std::string SpanTable() const;

 private:
  int64_t profiles_ = 0;
  std::map<std::string, SpanTotals> spans_;
  std::map<std::string, int64_t> counters_;
  std::map<std::string, int64_t> histogram_nanos_;
  std::map<std::string, std::vector<double>> samples_;
};

// Times mdx::Parse and mdx::Bind of `mdx` against `cube_name` on their own,
// as Execute calls them, into samples "mdx.parse_ms" and "mdx.bind_ms".
void SampleParseBind(const olap::Database& db, const std::string& cube_name,
                     const std::string& mdx, LayerBook* layers);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
