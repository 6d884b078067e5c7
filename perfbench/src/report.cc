#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "agg/kernels.h"
#include "common/thread_pool.h"
#include "stats.h"

namespace perfbench {

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// JSON number with every significant digit; non-finite values (never
// expected) become 0 so the line stays valid JSON.
std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string MetricsObject(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string MetricLines(const std::vector<Metric>& metrics) {
  std::string out;
  char line[160];
  for (const Metric& m : metrics) {
    std::snprintf(line, sizeof(line), "  %-30s %16.6f %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out += line;
  }
  return out;
}

}  // namespace

bool EndToEndMetrics(const RunResult& run, double peak_rss_mb,
                     std::vector<Metric>* out, std::string* why) {
  if (run.query_ms.empty() || run.setup_s.empty() || run.loop_s <= 0.0) {
    *why = "no queries were timed";
    return false;
  }
  double p90 = 0.0;
  if (!TailPercentile(run.query_ms, 90.0, &p90, why)) return false;
  *out = {
      {"setup_s", "s", Median(run.setup_s)},
      {"query_p50_ms", "ms", NearestRankPercentile(run.query_ms, 50.0)},
      {"query_p90_ms", "ms", p90},
      {"queries_per_s", "1/s",
       static_cast<double>(run.query_ms.size()) / run.loop_s},
      {"peak_rss_mb", "MB", peak_rss_mb},
  };
  return true;
}

bool WorkloadOnlyMetrics(const RunResult& run, std::vector<Metric>* out,
                         std::string* why) {
  double edit_p50 = 0.0, edit_p90 = 0.0;
  if (!run.edit_ms.empty()) {
    edit_p50 = NearestRankPercentile(run.edit_ms, 50.0);
    if (!TailPercentile(run.edit_ms, 90.0, &edit_p90, why)) return false;
  }
  const double io_virtual_ms =
      run.disk_lru_chunks > 0 && !run.query_ms.empty()
          ? run.io_virtual_s * 1e3 / static_cast<double>(run.query_ms.size())
          : 0.0;
  *out = {
      {"edit_p50_ms", "ms", edit_p50},
      {"edit_p90_ms", "ms", edit_p90},
      {"io_virtual_ms", "ms", io_virtual_ms},
  };
  return true;
}

std::vector<Metric> PerLayerMetrics(const RunResult& run) {
  const LayerBook& l = run.layers;
  const double execute_ms = l.SpanTotalMs("query.execute");
  const double unattributed_ms = l.SpanSelfMs("query.execute");
  const double trace_overhead_ms =
      run.traced_query_ms.empty() || run.untraced_query_ms.empty()
          ? 0.0
          : Median(run.traced_query_ms) - Median(run.untraced_query_ms);
  const double disk_hits = l.SampleSum("storage.disk_cache_hits");
  const double prefetch_hits = static_cast<double>(
      l.CounterSum("pipeline.prefetch.hits"));
  const double prefetch_misses = static_cast<double>(
      l.CounterSum("pipeline.prefetch.misses"));
  return {
      {"mdx.parse_ms", "ms", l.SampleMean("mdx.parse_ms")},
      {"mdx.bind_ms", "ms", l.SampleMean("mdx.bind_ms")},
      {"whatif.compose_ms", "ms", l.SpanTotalMs("scenario.compose")},
      {"whatif.pebble_plan_ms", "ms", l.SpanTotalMs("whatif.plan.pebble")},
      {"whatif.merge_scan_self_ms", "ms", l.SpanSelfMs("whatif.merge_scan")},
      {"whatif.relocate_ms", "ms", l.SpanTotalMs("op.relocate")},
      {"whatif.chunk_reads", "count", l.SampleMean("whatif.chunk_reads")},
      {"whatif.peak_merge_chunks", "count",
       l.SampleMax("whatif.peak_merge_chunks")},
      {"whatif.apply_delta_ms", "ms", l.SampleMean("whatif.apply_delta_ms")},
      {"whatif.delta_closure_share", "ratio",
       l.SampleMean("whatif.delta_closure_share")},
      {"whatif.refresh_fallbacks", "count",
       l.SampleSum("whatif.refresh_fallbacks")},
      {"engine.apply_cell_edits_ms", "ms",
       l.SampleMean("engine.apply_cell_edits_ms")},
      {"engine.execute_ms", "ms", execute_ms},
      {"engine.evaluate_ms", "ms", l.SpanTotalMs("query.evaluate")},
      {"engine.filter_ms", "ms", l.SpanTotalMs("query.filter")},
      {"engine.unattributed_ms", "ms", unattributed_ms},
      {"engine.unattributed_share", "ratio", Ratio(unattributed_ms, execute_ms)},
      {"engine.trace_overhead_ms", "ms", trace_overhead_ms},
      {"agg.batch_prepare_ms", "ms", l.SpanTotalMs("query.batch_prepare")},
      {"agg.rollup_ms", "ms",
       l.SpanTotalMs("agg.rollup") + l.SpanTotalMs("agg.rollup_outofcore")},
      {"agg.cells_scanned", "count", l.CounterPerQuery("agg.cells_scanned")},
      {"agg.view_served_share", "ratio",
       Ratio(static_cast<double>(l.CounterSum("agg.batch.view_served")),
             static_cast<double>(l.CounterSum("agg.batch.refs")))},
      {"agg.cache_hit_share", "ratio",
       Ratio(static_cast<double>(l.CounterSum("agg.cache.hits")),
             static_cast<double>(l.CounterSum("agg.cache.lookups")))},
      {"agg.views_kept", "count", l.SampleMean("agg.views_kept")},
      {"agg.views_dropped", "count", l.SampleMean("agg.views_dropped")},
      {"agg.build_aggregates_ms", "ms",
       l.SampleMedian("agg.build_aggregates_ms")},
      {"agg.sidecar_ms", "ms", l.SampleMedian("agg.sidecar_ms")},
      {"storage.stall_ms", "ms",
       l.HistogramMsPerQuery("pipeline.stall_seconds")},
      {"storage.fetch_batch_ms", "ms", l.SpanTotalMs("pipeline.fetch_batch")},
      {"storage.prefetch_hit_share", "ratio",
       Ratio(prefetch_hits, prefetch_hits + prefetch_misses)},
      {"storage.physical_reads", "count",
       l.SampleMean("storage.physical_reads")},
      {"storage.coalesced_reads", "count",
       l.SampleMean("storage.coalesced_reads")},
      {"storage.seek_chunks", "count", l.SampleMean("storage.seek_chunks")},
      {"storage.disk_cache_hit_share", "ratio",
       Ratio(disk_hits, disk_hits + l.SampleSum("storage.physical_reads"))},
      {"storage.save_ms", "ms", l.SampleMedian("storage.save_ms")},
      {"storage.open_ms", "ms", l.SampleMedian("storage.open_ms")},
      {"common.pool_tasks", "count", l.CounterPerQuery("threadpool.tasks")},
      {"common.pool_task_ms", "ms",
       l.HistogramMsPerQuery("threadpool.task_seconds")},
  };
}

Calibration Calibrate() {
  Calibration c;
  Clock::time_point t0 = Clock::now();
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 20000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  c.alu_ms = MsSince(t0);
  // Streaming writes and reads over 32 MB (beyond any cache).
  constexpr size_t kWords = size_t{1} << 22;
  std::vector<uint64_t> buffer(kWords);
  t0 = Clock::now();
  uint64_t sum = 0;
  for (int pass = 0; pass < 4; ++pass) {
    for (size_t i = 0; i < kWords; ++i) buffer[i] = i ^ x;
    for (size_t i = 0; i < kWords; ++i) sum += buffer[i];
  }
  c.memory_ms = MsSince(t0);
  volatile uint64_t sink = sum;
  (void)sink;
  return c;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB.
}

std::string ProvenanceJson(const Provenance& p, const RunResult& run) {
  std::string out = "{";
  out += "\"workload\": " + Quote(p.workload);
  out += ", \"seed\": " + std::to_string(p.seed);
  out += ", \"seconds\": " + Num(p.seconds);
  out += ", \"trace\": " + std::string(p.trace ? "true" : "false");
  out += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"affinity_cores\": " +
         std::to_string(olap::ThreadPool::AffinityVisibleCores());
  out += ", \"kernel_isa\": " +
         Quote(olap::kernels::IsaName(olap::kernels::ActiveIsa()));
  out += ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE);
  out += ", \"eval_threads\": " + std::to_string(p.eval_threads);
  out += ", \"source_id\": " + Quote(p.source_id);
  out += ", \"calibration_alu_ms\": " + Num(p.calibration.alu_ms);
  out += ", \"calibration_memory_ms\": " + Num(p.calibration.memory_ms);
  out += ", \"cube_cells\": " + std::to_string(run.cube_cells);
  out += ", \"cube_chunks\": " + std::to_string(run.cube_chunks);
  out += ", \"file_bytes\": " + std::to_string(run.file_bytes);
  out += ", \"disk_lru_chunks\": " + std::to_string(run.disk_lru_chunks);
  out += ", \"agg_views\": " + std::to_string(run.agg_views);
  out += ", \"setup_reps\": " + std::to_string(run.setup_s.size());
  out += ", \"queries\": " + std::to_string(run.query_ms.size());
  out += ", \"traced_queries\": " + std::to_string(run.traced_query_ms.size());
  out += ", \"edit_rounds\": " + std::to_string(run.edit_ms.size());
  out += ", \"loop_s\": " + Num(run.loop_s);
  return out + "}";
}

std::string TextReport(const Provenance& p, const RunResult& run,
                       const std::vector<Metric>& end_to_end,
                       const std::vector<Metric>& workload_only,
                       const std::vector<Metric>& per_layer) {
  std::string out = "perfbench " + p.workload + "\n";
  out += "provenance " + ProvenanceJson(p, run) + "\n";
  out += "end-to-end (closed loop, 1 client, wall time):\n";
  out += MetricLines(end_to_end);
  char line[160];
  std::snprintf(line, sizeof(line),
                "  %-30s %16.6f ratio (%lld failed of %lld attempted)\n",
                "failed_share", run.ops.failed_share(),
                static_cast<long long>(run.ops.failed),
                static_cast<long long>(run.ops.attempted));
  out += line;
  out += "query classes (count, median ms):\n";
  for (const auto& [name, samples] : run.class_ms) {
    std::snprintf(line, sizeof(line), "  %-30s %6zu %16.6f ms\n", name.c_str(),
                  samples.size(), Median(samples));
    out += line;
  }
  out += "workload-specific (0 where the workload has none; virtual time is "
         "never added to wall time):\n";
  out += MetricLines(workload_only);
  if (p.trace) {
    out += "per-layer (per traced query unless the name says otherwise):\n";
    out += MetricLines(per_layer);
    out += "spans per traced query (" +
           std::to_string(run.layers.profiles()) + " traced queries):\n";
    out += run.layers.SpanTable();
  }
  return out;
}

std::string ResultJson(const RunResult& run,
                       const std::vector<Metric>& metrics) {
  return "{\"correct\": " +
         std::string(run.ops.failed == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(run.ops.attempted) +
         ", \"failed\": " + std::to_string(run.ops.failed) +
         ", \"metrics\": " + MetricsObject(metrics) + "}";
}

std::string DetailJson(const Provenance& p, const RunResult& run,
                       const std::vector<Metric>& end_to_end,
                       const std::vector<Metric>& workload_only,
                       const std::vector<Metric>& per_layer) {
  std::string out = "{\n  \"provenance\": " + ProvenanceJson(p, run);
  out += ",\n  \"attempted\": " + std::to_string(run.ops.attempted);
  out += ",\n  \"failed\": " + std::to_string(run.ops.failed);
  out += ",\n  \"failed_share\": " + Num(run.ops.failed_share());
  out += ",\n  \"end_to_end\": " + MetricsObject(end_to_end);
  out += ",\n  \"workload_only\": " + MetricsObject(workload_only);
  if (p.trace) {
    out += ",\n  \"per_layer\": " + MetricsObject(per_layer);
    out += ",\n  \"spans_per_traced_query\": {";
    const double n = run.layers.profiles() == 0
                         ? 1.0
                         : static_cast<double>(run.layers.profiles());
    bool first = true;
    for (const auto& [name, t] : run.layers.spans()) {
      out += std::string(first ? "" : ", ") + "\n    " + Quote(name) +
             ": {\"count\": " + Num(static_cast<double>(t.count) / n) +
             ", \"total_ms\": " + Num(t.total_ms / n) +
             ", \"self_ms\": " + Num(t.self_ms / n) + "}";
      first = false;
    }
    out += "\n  }";
  }
  return out + "\n}\n";
}

}  // namespace perfbench
