// edit_feed: writes beside reads on the workforce cube. Every round applies
// a seeded batch of cell writes through the Database edit feed (patching
// the resident aggregations), applies the same writes to a retained Fig. 13
// scenario through a DeltaBatch + IncrementalScenario::ApplyDelta, then
// issues one plain rollup read served from the resident views. The read
// never enters the what-if phase, so this is the control for whatif_query.

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/executor.h"
#include "whatif/delta.h"
#include "whatif/scenario_algebra.h"
#include "workforce_queries.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int kWritesPerRound = 16;

const char kRollupRead[] =
    "SELECT {CrossJoin({[Period].Members}, {[Account].Members})} ON COLUMNS, "
    "{[Department].Children} ON ROWS FROM [App].[Db]";

// A batch of integer-valued writes at uniformly drawn leaf coordinates.
// Integer data keeps every sum exact, so incremental and from-scratch
// results must agree bit for bit.
std::vector<olap::CellWrite> MakeWrites(const olap::Cube& cube,
                                        olap::Rng* rng) {
  const std::vector<int>& extents = cube.layout().extents();
  std::vector<olap::CellWrite> writes;
  writes.reserve(kWritesPerRound);
  for (int w = 0; w < kWritesPerRound; ++w) {
    std::vector<int> coords(extents.size());
    for (size_t d = 0; d < extents.size(); ++d) {
      coords[d] = static_cast<int>(rng->NextBelow(extents[d]));
    }
    writes.push_back(
        {std::move(coords), olap::CellValue(1000.0 + rng->NextBelow(1000))});
  }
  return writes;
}

// The retained scenario: Fig. 13's static perspectives {Jan, Apr, Jul, Oct}
// on Department.
olap::ScenarioSpec RetainedSpec(int dept_dim) {
  olap::ScenarioSpec spec;
  spec.varying_dim = dept_dim;
  spec.ops = {olap::ScenarioOp::Perspective(olap::Perspectives({0, 3, 6, 9}),
                                            olap::Semantics::kStatic)};
  return spec;
}

struct Fixture {
  olap::Database db;
  std::unique_ptr<olap::Executor> exec;
  olap::Cube scenario_base;  // The scenario's own copy of the cube.
  olap::ScenarioSpec spec;
  std::optional<olap::IncrementalScenario> scenario;
};

// Writes `writes` to the scenario's base through a DeltaBatch and refreshes
// the retained scenario.
olap::Status ApplyToScenario(Fixture* fx,
                             const std::vector<olap::CellWrite>& writes,
                             int threads, olap::RefreshStats* stats) {
  olap::DeltaBatch batch(&fx->scenario_base);
  for (const olap::CellWrite& w : writes) {
    OLAP_RETURN_IF_ERROR(batch.Set(w.coords, w.value));
  }
  if (!fx->scenario.has_value()) return olap::Status();
  olap::RefreshOptions refresh;
  refresh.eval_threads = threads;
  return fx->scenario->ApplyDelta(batch, refresh, stats);
}

// Generation, registration, aggregations, the first edit (which builds the
// aggregate cache's count sidecar) and the initial scenario; `setup_s` is
// their engine time.
bool SetUp(const RunConfig& config, olap::Rng* write_rng, LayerBook* layers,
           std::unique_ptr<Fixture>* out, double* setup_s) {
  auto fx = std::make_unique<Fixture>();
  double build_s = 0.0;
  olap::WorkforceCube wf = GenerateWorkforce(config.seed, &build_s);
  const std::vector<olap::CellWrite> first = MakeWrites(wf.cube, write_rng);
  const Clock::time_point start = Clock::now();
  fx->spec = RetainedSpec(wf.dept_dim);
  fx->scenario_base = wf.cube;
  olap::Status s = olap::RegisterWorkforce(&fx->db, "App.Db", std::move(wf));
  Clock::time_point t0 = Clock::now();
  if (s.ok()) s = fx->db.BuildAggregates("App.Db", kWorkforceAggViews);
  layers->AddSample("agg.build_aggregates_ms", MsSince(t0));
  t0 = Clock::now();
  if (s.ok()) s = fx->db.ApplyCellEdits("App.Db", first);
  layers->AddSample("agg.sidecar_ms", MsSince(t0));
  if (s.ok()) s = ApplyToScenario(fx.get(), first, config.eval_threads, nullptr);
  if (s.ok()) {
    olap::ScenarioEvalOptions eval;
    eval.eval_threads = config.eval_threads;
    olap::Result<olap::IncrementalScenario> inc =
        olap::IncrementalScenario::Create(&fx->scenario_base, {fx->spec}, eval);
    if (inc.ok()) {
      fx->scenario.emplace(*std::move(inc));
    } else {
      s = inc.status();
    }
  }
  *setup_s = build_s + MsSince(start) / 1e3;
  if (!s.ok()) {
    std::fprintf(stderr, "edit_feed set-up failed: %s\n", s.ToString().c_str());
    return false;
  }
  fx->exec = std::make_unique<olap::Executor>(&fx->db);
  *out = std::move(fx);
  return true;
}

}  // namespace

bool RunEditFeed(const RunConfig& config, RunResult* out) {
  std::unique_ptr<Fixture> fx;
  olap::Rng write_rng(0);
  for (int rep = 0; rep < kWorkforceSetupReps; ++rep) {
    fx.reset();
    write_rng = olap::Rng(config.seed * 0x9e3779b97f4a7c15ULL + 1);
    double setup_s = 0.0;
    if (!SetUp(config, &write_rng, &out->layers, &fx, &setup_s)) return false;
    out->setup_s.push_back(setup_s);
  }
  const olap::Cube* cube = *fx->db.FindCube("App.Db");
  out->cube_cells = cube->CountNonNullCells();
  out->cube_chunks = cube->NumStoredChunks();
  out->agg_views = fx->db.aggregates("App.Db")->num_views();

  olap::ResultGrid last_read;
  const Clock::time_point start = Clock::now();
  for (int64_t round = 0;
       !LoopDone(start, config.seconds,
                 static_cast<int64_t>(out->query_ms.size()));
       ++round) {
    const bool traced = config.trace && round % 2 == 1;
    const std::vector<olap::CellWrite> writes =
        MakeWrites(fx->scenario_base, &write_rng);

    olap::Database::EditStats edit_stats;
    olap::RefreshStats refresh_stats;
    Clock::time_point t0 = Clock::now();
    olap::Status s = fx->db.ApplyCellEdits("App.Db", writes, &edit_stats);
    const double edits_ms = MsSince(t0);
    const Clock::time_point t1 = Clock::now();
    if (s.ok()) {
      s = ApplyToScenario(fx.get(), writes, config.eval_threads,
                          &refresh_stats);
    }
    const double delta_ms = MsSince(t1);
    out->edit_ms.push_back(MsSince(t0));
    if (!s.ok()) {
      std::fprintf(stderr, "edit round failed: %s\n", s.ToString().c_str());
    }
    out->ops.Record(s.ok());
    LayerBook& layers = out->layers;
    layers.AddSample("engine.apply_cell_edits_ms", edits_ms);
    layers.AddSample("whatif.apply_delta_ms", delta_ms);
    layers.AddSample("whatif.delta_closure_share",
                     static_cast<double>(refresh_stats.chunks_affected) /
                         static_cast<double>(fx->scenario_base.NumStoredChunks()));
    layers.AddSample("whatif.refresh_fallbacks",
                     refresh_stats.full_recompute ? 1.0 : 0.0);
    layers.AddSample("agg.views_kept",
                     static_cast<double>(edit_stats.views_kept));
    layers.AddSample("agg.views_dropped",
                     static_cast<double>(edit_stats.views_dropped));

    if (traced) SampleParseBind(fx->db, "App.Db", kRollupRead, &layers);
    olap::QueryOptions options;
    options.eval_threads = config.eval_threads;
    options.collect_profile = traced;
    t0 = Clock::now();
    olap::Result<olap::QueryResult> r = fx->exec->Execute(kRollupRead, options);
    const double ms = MsSince(t0);
    out->ops.Record(r.ok());
    out->RecordQuery("rollup_read", ms, traced);
    if (!r.ok()) {
      std::fprintf(stderr, "rollup read failed: %s\n",
                   r.status().ToString().c_str());
      continue;
    }
    if (traced) layers.AddProfile(r->profile);
    last_read = std::move(r->grid);
  }
  out->loop_s = MsSince(start) / 1e3;

  // End-of-run answer checks, each counted as one operation.
  const uint64_t db_digest = CubeDigest(*cube);
  const bool same_base = db_digest == CubeDigest(fx->scenario_base);
  if (!same_base) std::fprintf(stderr, "database cube != scenario base\n");
  out->ops.Record(same_base);

  olap::ScenarioEvalOptions eval;
  eval.eval_threads = config.eval_threads;
  olap::Result<olap::PerspectiveCube> full =
      olap::ComputeScenario(fx->scenario_base, fx->spec, eval);
  const bool same_scenario =
      full.ok() && !fx->scenario->needs_rebuild() &&
      CubeDigest(full->output()) == CubeDigest(fx->scenario->cube().output());
  if (!same_scenario) {
    std::fprintf(stderr, "incremental scenario != from-scratch recompute\n");
  }
  out->ops.Record(same_scenario);

  olap::Database fresh;
  bool same_read = fresh.AddCube("App.Db", *cube).ok();
  if (same_read) {
    olap::QueryOptions options;
    options.eval_threads = config.eval_threads;
    olap::Result<olap::QueryResult> r =
        olap::Executor(&fresh).Execute(kRollupRead, options);
    same_read = r.ok() && GridDigest(r->grid) == GridDigest(last_read);
  }
  if (!same_read) {
    std::fprintf(stderr, "rollup read != aggregate-free database\n");
  }
  out->ops.Record(same_read);
  return true;
}

}  // namespace perfbench
