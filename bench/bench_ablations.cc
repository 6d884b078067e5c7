// Ablations of the design choices DESIGN.md §4 calls out, one section each:
//
//   dimension_order — Lemma 5.1: merge memory for a chunk traversal that
//                     starts with the varying dimension vs. one that ends
//                     with it, next to the Zhao group-by bound (which pulls
//                     the other way, the tension Sec. 5.1 discusses);
//   pebbling        — the Sec. 5.2 greedy heuristic vs. ascending chunk-id
//                     order on the paper's Fig. 9 graph and on random
//                     Fig. 8-style graphs, plus the perspective-cube
//                     relocation scan in both read orders (peak co-resident
//                     merge chunks against the simulated seek cost);
//   mode            — visual vs. non-visual evaluation (Sec. 3.3) of one
//                     forward-perspective query;
//   mmst            — Zhao-style simultaneous aggregation: every group-by
//                     in one chunk pass vs. one pass per group-by, and the
//                     memory bound of the min-memory read order vs. its
//                     reverse;
//   views           — HRU greedy view selection (Sec. 8 future work): the
//                     lattice answer cost as views are added, and one
//                     department x quarter query with and without them;
//   compression     — a forward perspective cube saved raw and with the
//                     ⊥-run-length codec (Sec. 8 open problem).
//
// Every timing is the median of reps; the counters (chunks, pebbles, cells,
// bytes) are deterministic and reported exactly. There are no timing
// gates: the deterministic claims are checked by the unit tests
// (PebblingTest, PerspectiveCubeTest, MergeResidencyTest, LatticeTest,
// ViewSelectionTest, CompressionTest). Emits BENCH_ablations.json.
//
// Usage: bench_ablations [--smoke] [--check] [--out PATH]
//   --smoke  fewer repetitions (same fixtures, so the counters match a
//            full run).
//   --check  accepted for symmetry with the other benches; a failed
//            section exits non-zero either way.

#include <stdlib.h>  // mkdtemp

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "agg/chunk_aggregator.h"
#include "agg/lattice.h"
#include "agg/view_selection.h"
#include "bench_workloads.h"
#include "common/rng.h"
#include "storage/cube_io.h"
#include "whatif/pebbling.h"
#include "whatif/perspective_cube.h"
#include "workload/workforce.h"

namespace olap::bench {
namespace {

// The 400-employee workforce cube most sections run on.
WorkforceConfig SmallWorkforce(int num_changing, int num_measures,
                               int num_scenarios) {
  WorkforceConfig config;
  config.num_departments = 20;
  config.num_employees = 400;
  config.num_changing = num_changing;
  config.num_measures = num_measures;
  config.num_scenarios = num_scenarios;
  return config;
}

WorkforceCube SeededWorkforce(WorkforceConfig config, uint64_t seed) {
  config.seed = seed;
  return BuildWorkforceCube(config);
}

// ---- dimension order (Lemma 5.1) -----------------------------------------

bool DimensionOrder(int reps, std::string* json) {
  const WorkforceCube wf = SeededWorkforce(SmallWorkforce(60, 4, 2), 511);
  const int n = wf.cube.num_dims();
  // Varying dimension first (Lemma 5.1's O1), then varying dimension last
  // (an O2).
  std::vector<int> first(n);
  std::iota(first.begin(), first.end(), 0);
  std::swap(first[0], first[wf.dept_dim]);
  std::vector<int> last = first;
  std::swap(last[0], last[n - 1]);
  const Lattice lattice(wf.cube.layout());

  *json += "  \"dimension_order\": [\n";
  const std::pair<const char*, const std::vector<int>*> orders[] = {
      {"varying_first", &first}, {"varying_last", &last}};
  for (size_t i = 0; i < 2; ++i) {
    MergeResidency residency;
    const double ms = MedianMs(reps, [&] {
      residency = MergeResidencyForOrder(wf.cube, wf.dept_dim,
                                         wf.changing_employees,
                                         *orders[i].second);
    });
    const int64_t zhao = lattice.TotalMemoryCells(*orders[i].second);
    Appendf(json,
            "    {\"order\": \"%s\", \"peak_chunks_resident\": %d, "
            "\"chunk_buffer_steps\": %" PRId64
            ", \"zhao_total_memory_cells\": %" PRId64 ", \"plan_ms\": %.4f}%s\n",
            orders[i].first, residency.peak_chunks, residency.buffer_steps,
            zhao, ms, i == 0 ? "," : "");
  }
  *json += "  ],\n";
  return true;
}

// ---- pebbling (Sec. 5.2) -------------------------------------------------

// A random Fig. 8-style instance placement: `members` varying members, each
// with 2–4 instances placed in random chunks out of `chunks`; the first
// instance's chunk is the merge target.
MergeGraph RandomMergeGraph(uint64_t seed, int members, int chunks) {
  Rng rng(seed);
  MergeGraph g;
  for (int m = 0; m < members; ++m) {
    int instances = static_cast<int>(rng.NextInRange(2, 4));
    ChunkId target = static_cast<ChunkId>(rng.NextBelow(chunks));
    for (int i = 1; i < instances; ++i) {
      g.AddEdge(target, static_cast<ChunkId>(rng.NextBelow(chunks)));
    }
  }
  return g;
}

MergeGraph Fig9() {
  MergeGraph g;
  for (ChunkId c : {1, 3, 5, 6, 7, 9, 10}) g.AddNode(c);
  g.AddEdge(1, 5);
  g.AddEdge(1, 9);
  g.AddEdge(1, 10);
  g.AddEdge(3, 5);
  g.AddEdge(7, 10);
  g.AddEdge(6, 9);
  return g;
}

bool Pebbling(int reps, std::string* json) {
  *json += "  \"pebbling\": {\n    \"graphs\": [\n";
  const int kRandomMembers[] = {8, 32, 128, 512};
  for (int gi = 0; gi < 5; ++gi) {
    const int members = gi == 0 ? 0 : kRandomMembers[gi - 1];
    const MergeGraph g =
        gi == 0 ? Fig9()
                : RandomMergeGraph(/*seed=*/members * 7919, members,
                                   /*chunks=*/members * 3);
    PebbleResult heuristic;
    const double ms = MedianMs(reps, [&] { heuristic = HeuristicPebble(g); });
    // Naive order: nodes by ascending chunk id.
    std::vector<int> naive(g.num_nodes());
    std::iota(naive.begin(), naive.end(), 0);
    std::sort(naive.begin(), naive.end(),
              [&](int a, int b) { return g.chunk(a) < g.chunk(b); });
    const int peak_naive = PeakPebblesForOrder(g, naive);
    const std::string name =
        gi == 0 ? "fig9" : "random_" + std::to_string(members);
    Appendf(json,
            "      {\"graph\": \"%s\", \"members\": %d, \"nodes\": %d, "
            "\"edges\": %d, \"peak_heuristic\": %d, \"peak_naive_order\": %d, "
            "\"max_degree_plus_1\": %d, \"plan_us\": %.3f}%s\n",
            name.c_str(), members, g.num_nodes(), g.num_edges(),
            heuristic.peak_pebbles, peak_naive, g.max_degree() + 1, ms * 1e3,
            gi + 1 < 5 ? "," : "");
  }
  *json += "    ],\n    \"relocation_read_order\": [\n";

  // End to end: the perspective-cube relocation scan with ascending vs.
  // pebbling chunk-read order — the peak co-resident merge chunks (the
  // memory Sec. 5.2 minimises) against the simulated seek cost the
  // reordering introduces.
  const WorkforceCube wf = SeededWorkforce(SmallWorkforce(60, 4, 2), 611);
  DiskModel model;
  model.seek_seconds_per_chunk = 1e-6;
  model.max_seek_seconds = 5e-3;
  model.transfer_seconds = 1e-5;
  SimulatedDisk disk(model, /*cache_capacity_chunks=*/256);
  for (int pebbling = 0; pebbling <= 1; ++pebbling) {
    WhatIfSpec spec;
    spec.varying_dim = wf.dept_dim;
    spec.perspectives = Perspectives({0, 6});
    spec.semantics = Semantics::kForward;
    spec.pebbling_read_order = pebbling == 1;
    EvalStats stats;
    bool ok = true;
    const double ms = MedianMs(reps, [&] {
      disk.Reset();
      stats = EvalStats();
      ok = ComputePerspectiveCube(wf.cube, spec, EvalStrategy::kDirect, &disk,
                                  &stats)
               .ok() &&
           ok;
    });
    if (!ok) {
      std::fprintf(stderr, "relocation read-order section failed\n");
      return false;
    }
    const char* order = pebbling ? "pebbling" : "ascending";
    const double virtual_ms = disk.stats().virtual_seconds * 1e3;
    Appendf(json,
            "      {\"order\": \"%s\", \"peak_merge_chunks\": %d, "
            "\"chunk_reads\": %" PRId64
            ", \"wall_ms\": %.4f, \"virtual_ms\": %.4f}%s\n",
            order, stats.peak_merge_chunks, stats.chunk_reads, ms, virtual_ms,
            pebbling == 0 ? "," : "");
  }
  *json += "    ]\n  },\n";
  return true;
}

// ---- visual vs. non-visual mode (Sec. 3.3) -------------------------------

std::string ModeQuery(const std::string& mode) {
  // Leaf employee rows with quarter (derived) periods: in non-visual mode
  // the engine can confine the relocation to the queried employees and
  // read the quarter totals from the input cube; visual mode must relocate
  // the whole varying dimension and re-roll-up on the transformed cube.
  return "WITH PERSPECTIVE {(Jan), (Apr), (Jul), (Oct)} FOR Department "
         "DYNAMIC FORWARD " +
         mode + R"(
    select {CrossJoin({[Account].Levels(0).Members}, {([Current])})}
           on columns,
           {CrossJoin(
              { Union(
                  {Union({[EmployeesWithAtleastOneMove-Set1].Children},
                         {[EmployeesWithAtleastOneMove-Set2].Children})},
                  {[EmployeesWithAtleastOneMove-Set3].Children})},
              {Descendants([Period],1,self_and_after)})}
           on rows
    from [App].[Db])";
}

bool Mode(int reps, std::string* json) {
  const BenchWorkforce& bw = GetBenchWorkforce();
  SimulatedDisk disk(BenchDiskModel(), /*cache_capacity_chunks=*/4096);
  QueryOptions options;
  options.disk = &disk;
  *json += "  \"mode\": [\n";
  const char* kModes[] = {"NONVISUAL", "VISUAL"};
  for (int i = 0; i < 2; ++i) {
    const std::string query = ModeQuery(kModes[i]);
    Result<QueryResult> r = Status::Internal("not run");
    const double ms = MedianMs(reps, [&] {
      disk.Reset();
      r = bw.exec->Execute(query, options);
    });
    if (!r.ok()) {
      std::fprintf(stderr, "mode %s failed: %s\n", kModes[i],
                   r.status().ToString().c_str());
      return false;
    }
    const double virtual_ms = disk.stats().virtual_seconds * 1e3;
    Appendf(json,
            "    {\"mode\": \"%s\", \"cells_evaluated\": %" PRId64
            ", \"cells_moved\": %" PRId64
            ", \"wall_ms\": %.4f, \"virtual_ms\": %.4f}%s\n",
            kModes[i], r->cells_evaluated, r->whatif_stats.cells_moved, ms,
            virtual_ms, i == 0 ? "," : "");
  }
  *json += "  ],\n";
  return true;
}

// ---- simultaneous aggregation (Zhao substrate) ---------------------------

bool Mmst(int reps, std::string* json) {
  Schema schema;
  const std::vector<int> extents = {48, 24, 12, 6};
  for (size_t d = 0; d < extents.size(); ++d) {
    Dimension dim("D" + std::to_string(d));
    for (int i = 0; i < extents[d]; ++i) {
      char member[48];
      std::snprintf(member, sizeof(member), "m%zu_%d", d, i);
      if (!dim.AddChildOfRoot(member).ok()) return false;
    }
    schema.AddDimension(std::move(dim));
  }
  CubeOptions cube_options;
  cube_options.chunk_size = 4;
  Cube cube(std::move(schema), cube_options);
  Rng rng(77);
  std::vector<int> coords(4);
  for (int i = 0; i < 30000; ++i) {
    for (int d = 0; d < 4; ++d) {
      coords[d] = static_cast<int>(rng.NextBelow(extents[d]));
    }
    cube.SetCell(coords, CellValue(static_cast<double>(rng.NextBelow(100))));
  }

  std::vector<GroupByMask> masks;  // Every proper group-by of the lattice.
  for (GroupByMask m = 0; m < 15; ++m) masks.push_back(m);
  const Lattice lattice(cube.layout());
  const std::vector<int> min_order = lattice.MinMemoryOrder();
  std::vector<int> reverse_order = min_order;
  std::reverse(reverse_order.begin(), reverse_order.end());

  size_t views = 0;
  const double one_pass_ms = MedianMs(reps, [&] {
    ChunkAggregator agg(cube);
    views = agg.Compute(masks, min_order).size();
  });
  const double per_group_by_ms = MedianMs(reps, [&] {
    for (GroupByMask mask : masks) {
      ChunkAggregator agg(cube);
      views += agg.Compute({mask}, min_order).size();
    }
  });
  const int64_t min_cells = lattice.TotalMemoryCells(min_order);
  const int64_t reverse_cells = lattice.TotalMemoryCells(reverse_order);
  Appendf(json,
          "  \"mmst\": {\"group_bys\": %zu, \"one_pass\": {\"passes\": 1, "
          "\"ms\": %.4f}, \"pass_per_group_by\": {\"passes\": %zu, "
          "\"ms\": %.4f},\n",
          masks.size(), one_pass_ms, masks.size(), per_group_by_ms);
  Appendf(json,
          "    \"memory_cells_min_order\": %" PRId64
          ", \"memory_cells_reverse_order\": %" PRId64 "},\n",
          min_cells, reverse_cells);
  return views > 0;
}

// ---- greedy view selection (Sec. 8 future work) --------------------------

bool Views(int reps, std::string* json) {
  Database db;
  WorkforceCube wf = BuildWorkforceCube(SmallWorkforce(40, 8, 4));
  const Lattice lattice(wf.cube.layout());
  if (!RegisterWorkforce(&db, "App.Db", std::move(wf)).ok()) return false;
  *json += "  \"views\": {\n    \"greedy\": [\n";
  const int kViews[] = {0, 1, 2, 4, 8, 16};
  for (size_t i = 0; i < std::size(kViews); ++i) {
    SelectedViews selected;
    const double ms =
        MedianMs(reps, [&] { selected = SelectViewsGreedy(lattice, kViews[i]); });
    const double ratio =
        selected.initial_cost > 0
            ? static_cast<double>(selected.final_cost) / selected.initial_cost
            : 1.0;
    Appendf(json,
            "      {\"k\": %d, \"views\": %zu, \"initial_cost_cells\": %" PRId64
            ", \"final_cost_cells\": %" PRId64
            ", \"cost_ratio\": %.4f, \"plan_ms\": %.4f}%s\n",
            kViews[i], selected.views.size(), selected.initial_cost,
            selected.final_cost, ratio, ms,
            i + 1 < std::size(kViews) ? "," : "");
  }
  *json += "    ],\n    \"aggregate_query\": [\n";

  // End to end: the same department x quarter query without and with
  // greedy views materialized in the AggregateCache.
  Executor exec(&db);
  const char* query =
      "SELECT {([Current], [Local])} ON COLUMNS, "
      "{CrossJoin({[Department].Children}, {Descendants([Period],1)})} "
      "ON ROWS FROM App.Db";
  const int kMaxViews[] = {0, 8};
  for (int i = 0; i < 2; ++i) {
    if (kMaxViews[i] > 0 && !db.BuildAggregates("App.Db", kMaxViews[i]).ok()) {
      return false;
    }
    bool ok = true;
    const double ms =
        MedianMs(reps, [&] { ok = exec.Execute(query).ok() && ok; });
    if (!ok) return false;
    const AggregateCache* cache = db.aggregates("App.Db");
    const int views = cache != nullptr ? cache->num_views() : 0;
    const int64_t cells = cache != nullptr ? cache->TotalCells() : 0;
    Appendf(json,
            "      {\"max_views\": %d, \"views\": %d, \"view_cells\": %" PRId64
            ", \"query_ms\": %.4f}%s\n",
            kMaxViews[i], views, cells, ms, i == 0 ? "," : "");
  }
  *json += "    ]\n  },\n";
  return true;
}

// ---- perspective-cube compression (Sec. 8 open problem) ------------------

bool Compression(int reps, std::string* json) {
  const WorkforceCube wf = BuildWorkforceCube(SmallWorkforce(60, 6, 2));
  WhatIfSpec spec;
  spec.varying_dim = wf.dept_dim;
  spec.perspectives = Perspectives({0, 6});
  spec.semantics = Semantics::kForward;
  Result<PerspectiveCube> pc = ComputePerspectiveCube(wf.cube, spec);
  if (!pc.ok()) return false;
  const Cube& cube = pc->output();
  const int64_t cells = cube.CountNonNullCells();

  // A fresh directory per run, so concurrent runs never share a file.
  namespace fs = std::filesystem;
  std::string dir_template =
      (fs::temp_directory_path() / "olap_bench_ablations.XXXXXX").string();
  if (mkdtemp(dir_template.data()) == nullptr) {
    std::fprintf(stderr, "cannot create a temp directory\n");
    return false;
  }
  const std::string path = dir_template + "/perspective.olap";

  bool ok = true;
  *json += "  \"compression\": [\n";
  for (int compress = 0; compress <= 1 && ok; ++compress) {
    const double ms = MedianMs(reps, [&] {
      Result<Cube> loaded = Status::Internal("not saved");
      if (SaveCube(cube, path, compress == 1).ok()) loaded = LoadCube(path);
      ok = ok && loaded.ok() && loaded->CountNonNullCells() == cells;
    });
    Result<int64_t> bytes = FileSize(path);
    ok = ok && bytes.ok();
    if (!ok) break;
    const char* codec = compress ? "run_length" : "raw";
    Appendf(json,
            "    {\"codec\": \"%s\", \"file_bytes\": %" PRId64
            ", \"cells_stored\": %" PRId64 ", \"save_load_ms\": %.4f}%s\n",
            codec, *bytes, cells, ms, compress == 0 ? "," : "");
  }
  *json += "  ]\n";
  std::error_code ec;
  fs::remove_all(dir_template, ec);
  if (!ok) std::fprintf(stderr, "compression save/load round trip failed\n");
  return ok;
}

int Run(int argc, char** argv) {
  BenchArgs args;
  args.out_path = "BENCH_ablations.json";
  if (!ParseBenchArgs(argc, argv, &args)) return 2;
  const int reps = args.smoke ? 3 : 9;

  std::string json = JsonHeader("ablations", args.smoke);
  Appendf(&json, "  \"reps\": %d,\n", reps);
  const bool ok = DimensionOrder(reps, &json) && Pebbling(reps, &json) &&
                  Mode(reps, &json) && Mmst(reps, &json) &&
                  Views(reps, &json) && Compression(reps, &json);
  if (!ok) {
    std::fprintf(stderr, "ablations FAILED\n");
    return 1;
  }
  json += "}\n";
  if (!EmitJson(json, args.out_path)) return 1;
  std::printf("ablations OK\n");
  return 0;
}

}  // namespace
}  // namespace olap::bench

int main(int argc, char** argv) { return olap::bench::Run(argc, argv); }
