// Incremental what-if maintenance benchmark: edit -> refresh latency of
// IncrementalScenario::ApplyDelta versus a from-scratch ComputeScenario on
// the same edited base, on the Fig. 12 product workload, at edit sizes
// from a single cell up to ~1% of the cube and 1/2/4/8 evaluation
// threads. Every refreshed output cube must be BIT-identical to the full
// recompute oracle (integer-valued data, so sums are exact), and
// identical across thread counts.
//
// Also exercises the Database edit feed on the workforce cube: a
// localized ApplyCellEdits against a persistent AggregateCache must keep
// (patch) the resident views rather than dropping them
// (cache.invalidate.views_kept > 0).
//
// Emits BENCH_incremental.json.
//
// Usage: bench_incremental [--smoke] [--check] [--out PATH]
//   --smoke  smaller cube / fewer repetitions (CI).
//   --check  exit non-zero unless: every run is bit-identical to the
//            recompute oracle and across thread counts, no single-cell
//            run fell back to a full recompute, the single-cell refresh
//            beats the full recompute by >= 5x (>= 3x under --smoke),
//            and the workforce edit kept at least one resident view.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "cube/cube.h"
#include "engine/database.h"
#include "whatif/delta.h"
#include "whatif/scenario_algebra.h"
#include "workload/product.h"
#include "workload/workforce.h"

namespace olap {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Order-independent-input, order-dependent-fold digest: chunks visited in
// id order, cells in offset order. Equal digests = bitwise equal cubes.
uint64_t DigestCube(const Cube& cube) {
  std::map<ChunkId, const Chunk*> chunks;
  cube.ForEachChunk([&](ChunkId id, const Chunk& c) { chunks[id] = &c; });
  uint64_t h = 14695981039346656037ull;
  for (const auto& [id, chunk] : chunks) {
    h = (h ^ static_cast<uint64_t>(id)) * 1099511628211ull;
    for (int64_t i = 0; i < chunk->size(); ++i) {
      const double raw = CellValue::ToStorage(chunk->Get(i));
      uint64_t bits;
      std::memcpy(&bits, &raw, sizeof(bits));
      h = (h ^ bits) * 1099511628211ull;
    }
  }
  return h;
}

// One seeded batch of `writes` integer-valued cell writes. The same
// (seed, writes) pair produces the same stream at every thread count.
std::vector<CellWrite> MakeWrites(const Cube& cube, uint64_t seed,
                                  int64_t writes) {
  Rng rng(seed);
  const std::vector<int>& extents = cube.layout().extents();
  std::vector<CellWrite> out;
  out.reserve(static_cast<size_t>(writes));
  for (int64_t w = 0; w < writes; ++w) {
    std::vector<int> coords(extents.size());
    for (size_t d = 0; d < extents.size(); ++d) {
      coords[d] = static_cast<int>(rng.NextBelow(extents[d]));
    }
    out.push_back({std::move(coords), CellValue(1.0 + rng.NextBelow(1000))});
  }
  return out;
}

struct RunResult {
  int64_t edit_cells = 0;
  int threads = 0;
  double refresh_ms = 0.0;  // Best ApplyDelta latency over the reps.
  double full_ms = 0.0;     // Best from-scratch recompute latency.
  int64_t chunks_affected = 0;
  int64_t chunks_patched = 0;
  bool fell_back = false;  // Any rep took the full-recompute fallback.
  uint64_t digest = 0;
  bool bit_identical = false;
  bool ok = true;
  double speedup() const {
    return refresh_ms > 0 ? full_ms / refresh_ms : 0.0;
  }
};

RunResult RunOne(const Cube& base, const ScenarioSpec& spec,
                 int64_t edit_cells, int threads, int reps, uint64_t seed) {
  RunResult r;
  r.edit_cells = edit_cells;
  r.threads = threads;

  ScenarioEvalOptions so;
  so.eval_threads = threads;
  Cube cube = base;
  Result<IncrementalScenario> inc =
      IncrementalScenario::Create(&cube, {spec}, so);
  if (!inc.ok()) {
    fprintf(stderr, "Create failed: %s\n", inc.status().ToString().c_str());
    r.ok = false;
    return r;
  }

  r.refresh_ms = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    // Each rep applies a fresh batch; the edits accumulate, exactly as an
    // interactive edit feed would.
    std::vector<CellWrite> writes =
        MakeWrites(cube, seed + static_cast<uint64_t>(rep), edit_cells);
    DeltaBatch batch(&cube);
    for (const CellWrite& w : writes) {
      Status s = batch.Set(w.coords, w.value);
      if (!s.ok()) {
        fprintf(stderr, "Set failed: %s\n", s.ToString().c_str());
        r.ok = false;
        return r;
      }
    }
    RefreshOptions ro;
    ro.eval_threads = threads;
    RefreshStats stats;
    const Clock::time_point t0 = Clock::now();
    Status s = inc->ApplyDelta(batch, ro, &stats);
    const double ms = MsSince(t0);
    if (!s.ok()) {
      fprintf(stderr, "ApplyDelta failed: %s\n", s.ToString().c_str());
      r.ok = false;
      return r;
    }
    r.refresh_ms = std::min(r.refresh_ms, ms);
    r.chunks_affected = stats.chunks_affected;
    r.chunks_patched = stats.chunks_patched;
    if (stats.full_recompute) r.fell_back = true;
  }

  // Oracle: from-scratch recompute over the identically edited base. The
  // cube held by the scenario has all the batches applied, so recompute
  // directly on it (timed — this is the latency the refresh replaces).
  const int full_reps = std::max(1, reps / 2);
  r.full_ms = 1e30;
  Result<PerspectiveCube> full = Status::Internal("unset");
  for (int rep = 0; rep < full_reps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    full = ComputeScenario(inc->cube().input(), spec, so);
    const double ms = MsSince(t0);
    if (!full.ok()) {
      fprintf(stderr, "ComputeScenario failed: %s\n",
              full.status().ToString().c_str());
      r.ok = false;
      return r;
    }
    r.full_ms = std::min(r.full_ms, ms);
  }
  r.digest = DigestCube(inc->cube().output());
  r.bit_identical = r.digest == DigestCube(full->output());
  return r;
}

struct WorkforceResult {
  int64_t cells_written = 0;
  int64_t views_kept = 0;
  int64_t views_dropped = 0;
  int64_t counter_kept_delta = 0;
  bool ok = true;
};

WorkforceResult RunWorkforceEditFeed(bool smoke) {
  WorkforceResult r;
  WorkforceConfig config;
  config.num_departments = smoke ? 16 : 51;
  config.num_employees = smoke ? 256 : 2025;
  config.num_changing = smoke ? 16 : 250;
  config.num_measures = smoke ? 3 : 10;
  config.num_scenarios = smoke ? 2 : 5;
  config.seed = 20080407;
  WorkforceCube wf = BuildWorkforceCube(config);
  Cube cube = wf.cube;  // Keep a handle for coordinates.

  Database db;
  Status s = RegisterWorkforce(&db, "App.Db", std::move(wf));
  if (!s.ok()) {
    fprintf(stderr, "RegisterWorkforce failed: %s\n", s.ToString().c_str());
    r.ok = false;
    return r;
  }
  s = db.BuildAggregates("App.Db", 8);
  if (!s.ok()) {
    fprintf(stderr, "BuildAggregates failed: %s\n", s.ToString().c_str());
    r.ok = false;
    return r;
  }

  Counter* kept = MetricsRegistry::Global().counter("cache.invalidate.views_kept");
  const int64_t kept_before = kept->value();

  // A localized edit: two cells in one chunk of the input grid.
  std::vector<int> coords(cube.num_dims(), 0);
  std::vector<CellWrite> writes;
  writes.push_back({coords, CellValue(42.0)});
  coords[cube.num_dims() - 1] =
      std::min(1, cube.layout().extents().back() - 1);
  writes.push_back({coords, CellValue(7.0)});

  Database::EditStats stats;
  s = db.ApplyCellEdits("App.Db", writes, &stats);
  if (!s.ok()) {
    fprintf(stderr, "ApplyCellEdits failed: %s\n", s.ToString().c_str());
    r.ok = false;
    return r;
  }
  r.cells_written = stats.cells_written;
  r.views_kept = stats.views_kept;
  r.views_dropped = stats.views_dropped;
  r.counter_kept_delta = kept->value() - kept_before;
  return r;
}

int Main(int argc, char** argv) {
  bool smoke = false, check = false;
  std::string out_path = "BENCH_incremental.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      fprintf(stderr, "usage: %s [--smoke] [--check] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  // Fig. 12 geometry: the probe product's two far-apart instances with a
  // forward perspective at the move moment — the refresh has to merge
  // across the relocation like the paper's query does.
  ProductCubeConfig config;
  // Smoke still needs enough filler products that a full recompute has real
  // work to do — below ~150 chunks its cost is all fixed overhead and the
  // refresh-vs-full ratio is noise, not signal.
  config.separation_chunks = smoke ? 150 : 300;
  config.chunk_products = 4;
  config.fill_data = true;
  ProductCube workload = BuildProductCube(config);
  const Cube& base = workload.cube;

  ScenarioSpec spec;
  spec.varying_dim = workload.product_dim;
  spec.ops = {ScenarioOp::Perspective(Perspectives({config.move_moment}),
                                      Semantics::kForward)};

  int64_t total_cells = 1;
  for (int e : base.layout().extents()) total_cells *= e;
  const std::vector<int64_t> edit_sizes = {
      1, std::max<int64_t>(2, total_cells / 1000),
      std::max<int64_t>(4, total_cells / 100)};
  const int reps = smoke ? 5 : 7;

  fprintf(stderr,
          "bench_incremental: %lld grid cells, %lld stored chunks, edit "
          "sizes {%lld, %lld, %lld}\n",
          static_cast<long long>(total_cells),
          static_cast<long long>(base.NumStoredChunks()),
          static_cast<long long>(edit_sizes[0]),
          static_cast<long long>(edit_sizes[1]),
          static_cast<long long>(edit_sizes[2]));

  std::vector<RunResult> runs;
  for (int64_t edit_cells : edit_sizes) {
    for (int threads : {1, 2, 4, 8}) {
      runs.push_back(RunOne(base, spec, edit_cells, threads, reps,
                            /*seed=*/edit_cells * 101 + 9));
      const RunResult& r = runs.back();
      fprintf(stderr,
              "  edits=%-6lld threads=%d refresh %.3f ms, full %.3f ms "
              "(%.1fx)%s%s\n",
              static_cast<long long>(r.edit_cells), r.threads, r.refresh_ms,
              r.full_ms, r.speedup(), r.fell_back ? " [fallback]" : "",
              r.bit_identical ? "" : " [MISMATCH]");
    }
  }

  const WorkforceResult wfr = RunWorkforceEditFeed(smoke);

  // ---- report ------------------------------------------------------------
  FILE* f = fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  fprintf(f, "{\n");
  fprintf(f, "  \"bench\": \"bench_incremental\",\n");
  fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  fprintf(f, "  \"hardware_cores\": %d,\n", ThreadPool::HardwareCores());
  fprintf(f, "  \"hardware_concurrency\": %u,\n",
          std::max(1u, std::thread::hardware_concurrency()));
  fprintf(f, "  \"affinity_cores\": %d,\n", ThreadPool::AffinityVisibleCores());
  fprintf(f, "  \"grid_cells\": %lld,\n", static_cast<long long>(total_cells));
  fprintf(f, "  \"stored_chunks\": %lld,\n",
          static_cast<long long>(base.NumStoredChunks()));
  fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    fprintf(f,
            "    {\"edit_cells\": %lld, \"threads\": %d, \"refresh_ms\": "
            "%.4f, \"full_ms\": %.4f, \"speedup\": %.2f,\n"
            "     \"chunks_affected\": %lld, \"chunks_patched\": %lld, "
            "\"fell_back\": %s, \"bit_identical\": %s}%s\n",
            static_cast<long long>(r.edit_cells), r.threads, r.refresh_ms,
            r.full_ms, r.speedup(), static_cast<long long>(r.chunks_affected),
            static_cast<long long>(r.chunks_patched),
            r.fell_back ? "true" : "false", r.bit_identical ? "true" : "false",
            i + 1 < runs.size() ? "," : "");
  }
  fprintf(f, "  ],\n");
  fprintf(f,
          "  \"workforce_edit_feed\": {\"cells_written\": %lld, "
          "\"views_kept\": %lld, \"views_dropped\": %lld, "
          "\"counter_kept_delta\": %lld}\n",
          static_cast<long long>(wfr.cells_written),
          static_cast<long long>(wfr.views_kept),
          static_cast<long long>(wfr.views_dropped),
          static_cast<long long>(wfr.counter_kept_delta));
  fprintf(f, "}\n");
  fclose(f);
  fprintf(stderr, "wrote %s\n", out_path.c_str());

  // ---- gates -------------------------------------------------------------
  int failures = 0;
  for (const RunResult& r : runs) {
    if (!r.ok || !r.bit_identical) {
      fprintf(stderr,
              "FAIL edits=%lld threads=%d: refresh differs from the "
              "recompute oracle\n",
              static_cast<long long>(r.edit_cells), r.threads);
      ++failures;
    }
  }
  // Same edit stream, different thread counts: identical grids.
  for (int64_t edit_cells : edit_sizes) {
    uint64_t first = 0;
    bool have = false;
    for (const RunResult& r : runs) {
      if (r.edit_cells != edit_cells || !r.ok) continue;
      if (!have) {
        first = r.digest;
        have = true;
      } else if (r.digest != first) {
        fprintf(stderr, "FAIL edits=%lld: digests differ across threads\n",
                static_cast<long long>(edit_cells));
        ++failures;
      }
    }
  }
  if (!wfr.ok || wfr.views_kept <= 0 || wfr.counter_kept_delta <= 0 ||
      wfr.views_dropped != 0) {
    fprintf(stderr,
            "FAIL workforce edit feed: views_kept=%lld dropped=%lld — a "
            "localized edit must patch resident views, not drop them\n",
            static_cast<long long>(wfr.views_kept),
            static_cast<long long>(wfr.views_dropped));
    ++failures;
  }
  if (check) {
    const double floor = smoke ? 3.0 : 5.0;
    for (const RunResult& r : runs) {
      if (r.edit_cells != 1 || !r.ok) continue;
      if (r.fell_back) {
        fprintf(stderr,
                "FAIL threads=%d: single-cell edit fell back to a full "
                "recompute\n",
                r.threads);
        ++failures;
      }
      if (r.speedup() < floor) {
        fprintf(stderr,
                "FAIL threads=%d: single-cell refresh %.3f ms vs full %.3f "
                "ms (%.2fx < %.1fx floor)\n",
                r.threads, r.refresh_ms, r.full_ms, r.speedup(), floor);
        ++failures;
      }
    }
  }
  if (failures > 0) {
    fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  fprintf(stderr, "all checks passed\n");
  return 0;
}

}  // namespace
}  // namespace olap

int main(int argc, char** argv) { return olap::Main(argc, argv); }
