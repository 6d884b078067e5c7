// whatif_query: a dashboard of the paper's what-if queries on the workforce
// cube, in a closed loop. Five query classes (Fig. 13 at two row counts,
// Fig. 11 forward and static, a visual forward rollup) are issued in a
// fresh seeded shuffle every cycle, so each class gets an equal share and
// the 50th / 90th percentile ranks fall inside one class.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/executor.h"
#include "workforce_queries.h"
#include "workload.h"

namespace perfbench {
namespace {

struct QueryClass {
  std::string name;
  std::string mdx;
};

std::vector<QueryClass> WhatIfClasses() {
  const std::string quarters = "{(Jan), (Apr), (Jul), (Oct)} FOR Department";
  return {
      {"fig13_static_head250",
       WorkforceWhatIf(quarters + " STATIC", ChangingEmployees(250))},
      {"fig13_static_head50",
       WorkforceWhatIf(quarters + " STATIC", ChangingEmployees(50))},
      {"fig11_forward_k6",
       WorkforceWhatIf(FirstMonths(6) + " FOR Department DYNAMIC FORWARD",
                       ChangingEmployees(0))},
      {"fig11_static_k12",
       WorkforceWhatIf(FirstMonths(12) + " FOR Department STATIC",
                       ChangingEmployees(0))},
      {"visual_forward_departments",
       "WITH PERSPECTIVE " + quarters +
           " DYNAMIC FORWARD VISUAL SELECT {CrossJoin("
           "{[Account].Levels(0).Members}, "
           "{([Current], [Local], [BU Version_1], [HSP_InputValue])})} "
           "ON COLUMNS, {CrossJoin({[Department].Children}, "
           "{Descendants([Period],1,self_and_after)})} ON ROWS "
           "FROM [App].[Db]"},
  };
}

struct Fixture {
  olap::Database db;
  std::unique_ptr<olap::Executor> exec;
};

// Generation, registration and aggregations; `setup_s` is their engine
// time.
bool SetUp(uint64_t seed, LayerBook* layers, std::unique_ptr<Fixture>* out,
           double* setup_s) {
  auto fx = std::make_unique<Fixture>();
  double build_s = 0.0;
  olap::WorkforceCube wf = GenerateWorkforce(seed, &build_s);
  const Clock::time_point t0 = Clock::now();
  olap::Status s = olap::RegisterWorkforce(&fx->db, "App.Db", std::move(wf));
  const Clock::time_point t1 = Clock::now();
  if (s.ok()) s = fx->db.BuildAggregates("App.Db", kWorkforceAggViews);
  layers->AddSample("agg.build_aggregates_ms", MsSince(t1));
  *setup_s = build_s + MsSince(t0) / 1e3;
  if (!s.ok()) {
    std::fprintf(stderr, "whatif_query set-up failed: %s\n",
                 s.ToString().c_str());
    return false;
  }
  fx->exec = std::make_unique<olap::Executor>(&fx->db);
  *out = std::move(fx);
  return true;
}

}  // namespace

bool RunWhatIfQuery(const RunConfig& config, RunResult* out) {
  std::unique_ptr<Fixture> fx;
  for (int rep = 0; rep < kWorkforceSetupReps; ++rep) {
    fx.reset();  // One fixture alive at a time.
    double setup_s = 0.0;
    if (!SetUp(config.seed, &out->layers, &fx, &setup_s)) return false;
    out->setup_s.push_back(setup_s);
  }
  const olap::Cube* cube = *fx->db.FindCube("App.Db");
  out->cube_cells = cube->CountNonNullCells();
  out->cube_chunks = cube->NumStoredChunks();
  out->agg_views = fx->db.aggregates("App.Db")->num_views();

  // Reference answers: per-cell evaluation on one thread.
  const std::vector<QueryClass> classes = WhatIfClasses();
  AnswerBook answers;
  for (const QueryClass& q : classes) {
    olap::QueryOptions reference;
    reference.batched_eval = false;
    reference.eval_threads = 1;
    olap::Result<olap::QueryResult> r = fx->exec->Execute(q.mdx, reference);
    if (!r.ok()) {
      std::fprintf(stderr, "reference %s failed: %s\n", q.name.c_str(),
                   r.status().ToString().c_str());
      return false;
    }
    answers.Expect(q.name, GridDigest(r->grid));
  }

  olap::Rng order_rng(config.seed ^ 0x5eed0f0e11aULL);
  std::vector<int> order(classes.size());
  const Clock::time_point start = Clock::now();
  for (int64_t cycle = 0;
       !LoopDone(start, config.seconds,
                 static_cast<int64_t>(out->query_ms.size()));
       ++cycle) {
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    for (size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[order_rng.NextBelow(i + 1)]);
    }
    const bool traced = config.trace && cycle % 2 == 1;
    for (int c : order) {
      const QueryClass& q = classes[c];
      if (traced) SampleParseBind(fx->db, "App.Db", q.mdx, &out->layers);
      olap::QueryOptions options;
      options.eval_threads = config.eval_threads;
      options.collect_profile = traced;
      const Clock::time_point t0 = Clock::now();
      olap::Result<olap::QueryResult> r = fx->exec->Execute(q.mdx, options);
      const double ms = MsSince(t0);
      const bool ok = r.ok() && answers.Matches(q.name, GridDigest(r->grid));
      if (!ok) {
        std::fprintf(stderr, "%s: %s\n", q.name.c_str(),
                     r.ok() ? "answer differs from reference"
                            : r.status().ToString().c_str());
      }
      out->ops.Record(ok);
      out->RecordQuery(q.name, ms, traced);
      if (traced && r.ok()) {
        out->layers.AddProfile(r->profile);
        out->layers.AddSample("whatif.chunk_reads",
                              static_cast<double>(r->whatif_stats.chunk_reads));
        out->layers.AddSample(
            "whatif.peak_merge_chunks",
            static_cast<double>(r->whatif_stats.peak_merge_chunks));
      }
    }
  }
  out->loop_s = MsSince(start) / 1e3;
  return true;
}

}  // namespace perfbench
