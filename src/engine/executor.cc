#include "engine/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <optional>
#include <set>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "mdx/parser.h"
#include "rules/evaluator.h"
#include "whatif/scenario_algebra.h"

namespace olap {

namespace {

using mdx::BoundAxis;
using mdx::BoundQuery;
using mdx::BoundTuple;

// Expands every leaf-member reference to a varying dimension into one tuple
// per *active* member instance (non-empty output validity set) — the
// paper's convention that the perspective set determines which instances
// appear in the output (Definition 3.4), and that an unqualified member
// stands for all of its instances.
std::vector<BoundTuple> ExpandInstances(const std::vector<BoundTuple>& tuples,
                                        const Schema& schema) {
  std::vector<BoundTuple> out;
  for (const BoundTuple& tuple : tuples) {
    std::vector<BoundTuple> acc = {tuple};
    for (size_t slot = 0; slot < tuple.refs.size(); ++slot) {
      const auto& [dim, ref] = tuple.refs[slot];
      const Dimension& d = schema.dimension(dim);
      if (!d.is_varying() || ref.instance != kInvalidInstance ||
          !d.member(ref.member).is_leaf()) {
        continue;
      }
      std::vector<InstanceId> active;
      for (InstanceId i : d.InstancesOf(ref.member)) {
        if (d.instance(i).validity.Any()) active.push_back(i);
      }
      std::vector<BoundTuple> next;
      next.reserve(acc.size() * active.size());
      for (const BoundTuple& base : acc) {
        for (InstanceId i : active) {
          BoundTuple expanded = base;
          expanded.refs[slot].second = AxisRef::OfInstance(ref.member, i);
          next.push_back(std::move(expanded));
        }
      }
      acc = std::move(next);
    }
    out.insert(out.end(), acc.begin(), acc.end());
  }
  return out;
}

std::string TupleLabel(const BoundTuple& tuple, const Schema& schema) {
  std::vector<std::string> parts;
  for (const auto& [dim, ref] : tuple.refs) {
    const Dimension& d = schema.dimension(dim);
    if (ref.instance != kInvalidInstance) {
      parts.push_back(d.instance(ref.instance).qualified_name);
    } else {
      parts.push_back(d.member(ref.member).name);
    }
  }
  return Join(parts, ", ");
}

// The value of a DIMENSION PROPERTIES column for one row: the row's
// coordinate along the named dimension, rendered through the instance's
// path parent where applicable ("which department does this employee row
// report to").
std::string PropertyValue(const BoundTuple& tuple, const Schema& schema,
                          int property_dim) {
  for (const auto& [dim, ref] : tuple.refs) {
    if (dim != property_dim) continue;
    const Dimension& d = schema.dimension(dim);
    if (ref.instance != kInvalidInstance) {
      MemberId parent = d.instance(ref.instance).parent;
      return parent == kInvalidMember ? "" : d.member(parent).name;
    }
    return d.member(ref.member).name;
  }
  return "";
}

// Sec. 6.3 scoping decision: confine instance merging to the varying
// members the query touches, provided the query is non-visual and no tuple
// aggregates over the varying dimension (then every member could
// contribute to a derived cell). Mutates spec->scope_members on success.
void ApplyAutoScope(const BoundQuery& bound, const Cube& cube,
                    WhatIfSpec* spec) {
  if (spec->mode != EvalMode::kNonVisual || spec->varying_dim < 0) return;
  const Dimension& vd = cube.schema().dimension(spec->varying_dim);
  std::set<MemberId> members;
  bool aggregates_varying = false;
  bool mentions_varying = false;
  auto inspect = [&](const BoundTuple& t) {
    for (const auto& [dim, ref] : t.refs) {
      if (dim != spec->varying_dim) continue;
      mentions_varying = true;
      // A member introduced by the query is not in the stored dimension;
      // it leaves the merge unscoped, like an aggregate.
      const bool stored = ref.member < vd.num_members();
      if (stored && (ref.instance != kInvalidInstance ||
                     vd.member(ref.member).is_leaf())) {
        members.insert(ref.member);
      } else {
        aggregates_varying = true;
      }
    }
  };
  for (const BoundAxis& axis : bound.axes) {
    for (const BoundTuple& t : axis.tuples) inspect(t);
  }
  inspect(bound.slicer);
  if (!mentions_varying || aggregates_varying) return;
  spec->scope_members.assign(members.begin(), members.end());
  // Changed members must stay in scope for Split to take effect.
  for (const ChangeTuple& c : spec->changes) {
    if (members.insert(c.member).second) {
      spec->scope_members.push_back(c.member);
    }
  }
}

// Maps the degradation names reported by the lower layers (batch_eval /
// chunk_aggregator on_degrade callbacks) onto governor ladder rungs.
void RecordNamedDegradation(QueryContext* ctx, const char* name) {
  if (ctx == nullptr || name == nullptr) return;
  const std::string_view step(name);
  if (step == "batched_eval_off") {
    ctx->RecordDegradation(DegradeStep::kBatchedEvalOff);
  } else if (step == "lookahead_halved") {
    ctx->RecordDegradation(DegradeStep::kLookaheadHalved);
  } else if (step == "sync_io") {
    ctx->RecordDegradation(DegradeStep::kSyncIo);
  }
}

}  // namespace

Result<QueryResult> Executor::ExecuteImpl(std::string_view mdx_text,
                                          const QueryOptions& options,
                                          QueryContext* ctx) const {
  // The query's cancellation token: default (never trips) when ungoverned.
  const CancellationToken cancel =
      ctx != nullptr ? ctx->cancel() : CancellationToken();
  Result<mdx::ParsedQuery> parsed = [&] {
    TraceSpan span("query.parse");
    Result<mdx::ParsedQuery> r = mdx::Parse(mdx_text);
    if (!r.ok()) span.SetError(r.status());
    return r;
  }();
  if (!parsed.ok()) return parsed.status();
  if (parsed->compare_to != nullptr) {
    return ExecuteCompare(*parsed, options, ctx);
  }

  std::string cube_name = Join(parsed->cube_name, ".");
  Result<const Cube*> cube = db_->FindCube(cube_name);
  if (!cube.ok()) return cube.status();
  const RuleSet* rules = db_->rules(cube_name);

  Result<BoundQuery> bound = [&] {
    TraceSpan span("query.bind");
    Result<BoundQuery> r = mdx::Bind(*parsed, (*cube)->schema(), db_, *cube);
    if (!r.ok()) span.SetError(r.status());
    return r;
  }();
  if (!bound.ok()) return bound.status();
  if (ctx != nullptr) {
    if (Status s = ctx->CheckInterrupted("query.bind"); !s.ok()) return s;
  }

  // Axis layout: ordinal 0 = columns, 1 = rows, 2 = pages. Pages are
  // rendered by folding them into the rows (one row block per page tuple).
  const BoundAxis* columns = nullptr;
  const BoundAxis* rows = nullptr;
  const BoundAxis* pages = nullptr;
  for (const BoundAxis& axis : bound->axes) {
    if (axis.ordinal == 0) {
      columns = &axis;
    } else if (axis.ordinal == 1) {
      rows = &axis;
    } else if (axis.ordinal == 2) {
      pages = &axis;
    } else {
      return Status::Unimplemented("axes beyond PAGES are not supported");
    }
  }
  if (columns == nullptr) {
    return Status::InvalidArgument("query has no COLUMNS axis");
  }
  if (pages != nullptr && rows == nullptr) {
    return Status::InvalidArgument("PAGES requires a ROWS axis");
  }

  QueryResult result;
  std::optional<PerspectiveCube> pc;
  std::vector<WhatIfSpec> specs = bound->specs;

  // One "query.whatif" phase span covers allocations plus the structural
  // what-if pipeline; closed (reset) before evaluation starts.
  std::optional<TraceSpan> whatif_span;
  if (!bound->allocations.empty() || !specs.empty()) {
    whatif_span.emplace("query.whatif");
  }
  auto whatif_fail = [&](const Status& s) {
    if (whatif_span.has_value()) whatif_span->SetError(s);
    return s;
  };

  // Data-driven scenarios first: allocations produce the base cube the
  // structural what-if (if any) operates on.
  const Cube* active = *cube;
  std::optional<Cube> allocated;
  for (const AllocationSpec& allocation : bound->allocations) {
    Result<Cube> next = Allocate(*active, allocation);
    if (!next.ok()) return whatif_fail(next.status());
    allocated = *std::move(next);
    active = &*allocated;
    result.used_whatif = true;
  }

  // Out-of-core pipeline configuration, shared by the what-if read passes
  // and the batched-eval scratch materialization below.
  ChunkPipelineOptions pipeline_options;
  pipeline_options.lookahead = std::max(1, options.pipeline_lookahead);
  pipeline_options.pin_budget = options.chunk_memory_budget;
  pipeline_options.io_threads = std::max(1, options.eval_threads);
  pipeline_options.cancel = cancel;
  const ChunkPipelineOptions* pipeline =
      options.pipelined_io && options.disk != nullptr ? &pipeline_options
                                                      : nullptr;
  // Ladder at pipeline setup: under pressure the prefetch window is halved
  // (sheds pinned-chunk budget); under *memory* pressure pipelined I/O is
  // dropped entirely for the synchronous per-chunk loop. Results are
  // bit-identical either way — only I/O shape changes.
  if (ctx != nullptr && pipeline != nullptr && ctx->UnderPressure()) {
    pipeline_options.lookahead = std::max(1, pipeline_options.lookahead / 2);
    ctx->RecordDegradation(DegradeStep::kLookaheadHalved);
    if (ctx->UnderMemoryPressure()) {
      pipeline = nullptr;
      ctx->RecordDegradation(DegradeStep::kSyncIo);
    }
  }

  if (!specs.empty()) {
    // Single-what-if queries can confine the instance merge (Sec. 6.3).
    if (specs.size() == 1) {
      ApplyAutoScope(*bound, **cube, &specs[0]);
    }

    // The structural pipeline is one scenario composition: each spec (one
    // per varying dimension) becomes a canonical ScenarioSpec and the
    // algebra applies them in clause order — the single-pass route for one
    // spec, the stage pipeline (visual wins for the combined mode) for
    // several. Bit-identical to calling the operators directly.
    std::vector<ScenarioSpec> scenarios;
    scenarios.reserve(specs.size());
    for (const WhatIfSpec& spec : specs) {
      scenarios.push_back(ScenarioSpec::FromWhatIf(spec));
    }
    ScenarioEvalOptions scenario_options;
    scenario_options.strategy = options.strategy;
    scenario_options.disk = options.disk;
    scenario_options.stats = &result.whatif_stats;
    scenario_options.eval_threads = options.eval_threads;
    scenario_options.pipeline = pipeline;
    scenario_options.cancel = cancel;
    Result<PerspectiveCube> computed =
        ComposeScenarios(*active, scenarios, scenario_options);
    if (!computed.ok()) return whatif_fail(computed.status());
    pc.emplace(*std::move(computed));
    result.used_whatif = true;
  }
  whatif_span.reset();

  const Schema& eff_schema =
      pc.has_value() ? pc->output().schema() : active->schema();

  std::vector<BoundTuple> col_tuples =
      ExpandInstances(columns->tuples, eff_schema);
  std::vector<BoundTuple> row_tuples =
      rows != nullptr ? ExpandInstances(rows->tuples, eff_schema)
                      : std::vector<BoundTuple>{BoundTuple{}};
  if (pages != nullptr) {
    // Fold pages into rows: page-major ordering, combined coordinates.
    std::vector<BoundTuple> page_tuples =
        ExpandInstances(pages->tuples, eff_schema);
    std::vector<BoundTuple> folded;
    folded.reserve(page_tuples.size() * row_tuples.size());
    for (const BoundTuple& page : page_tuples) {
      for (const BoundTuple& row : row_tuples) {
        BoundTuple combined = page;
        for (const auto& ref : row.refs) {
          for (const auto& existing : combined.refs) {
            if (existing.first == ref.first) {
              return Status::InvalidArgument(
                  "PAGES and ROWS axes share dimension '" +
                  eff_schema.dimension(ref.first).name() + "'");
            }
          }
          combined.refs.push_back(ref);
        }
        folded.push_back(std::move(combined));
      }
    }
    row_tuples = std::move(folded);
  }

  std::vector<std::string> col_labels, row_labels;
  col_labels.reserve(col_tuples.size());
  for (const BoundTuple& t : col_tuples) {
    col_labels.push_back(TupleLabel(t, eff_schema));
  }
  row_labels.reserve(row_tuples.size());
  for (const BoundTuple& t : row_tuples) {
    std::string label = TupleLabel(t, eff_schema);
    row_labels.push_back(label.empty() ? "(all)" : label);
  }

  ResultGrid grid(std::move(col_labels), std::move(row_labels));

  // DIMENSION PROPERTIES columns on the rows axis.
  if (rows != nullptr) {
    for (const std::string& prop : rows->properties) {
      Result<int> prop_dim = eff_schema.FindDimension(prop);
      if (!prop_dim.ok()) return prop_dim.status();
      std::vector<std::string> values;
      values.reserve(row_tuples.size());
      for (const BoundTuple& t : row_tuples) {
        values.push_back(PropertyValue(t, eff_schema, *prop_dim));
      }
      grid.AddPropertyColumn(prop, std::move(values));
    }
  }

  // Base coordinate: every dimension defaults to its root (aggregate),
  // then the slicer and the axis tuples override.
  CellRef base(eff_schema.num_dimensions());
  for (int d = 0; d < eff_schema.num_dimensions(); ++d) {
    base[d] = AxisRef::OfMember(eff_schema.dimension(d).root());
  }
  for (const auto& [dim, ref] : bound->slicer.refs) base[dim] = ref;

  // The cube the grid's main evaluation path reads: the perspective output
  // in visual mode, the (retained) input cube in non-visual mode, else the
  // active cube.
  const Cube* eval_cube =
      pc.has_value()
          ? (pc->mode() == EvalMode::kVisual ? &pc->output() : &pc->input())
          : active;
  // Materialized aggregations answer queries over the stored cube only. A
  // non-visual what-if evaluates derived cells on its *input* cube, which
  // is the stored cube unless an allocation rewrote it — so non-visual
  // what-if queries reuse the persistent aggregations; transformed-cube
  // paths rely on the per-query scratch views below.
  const AggregateCache* cache =
      eval_cube == *cube ? db_->aggregates(cube_name) : nullptr;
  if (cache != nullptr) {
    if (options.cache_capacity_cells != 0) {
      // LRU bound, applied before evaluation threads spawn (the cache's
      // documented quiesce point). Engine-side cache management on a const
      // catalog — same const_cast idiom as Database's own mutators.
      const_cast<AggregateCache*>(cache)->SetCapacity(
          options.cache_capacity_cells < 0 ? -1
                                           : options.cache_capacity_cells);
    }
    // Freshness gate: a cache whose key lags the entry's version or epoch
    // was built before an unpatched mutation — bypass it rather than serve
    // stale sums. Edit feeds through Database::ApplyCellEdits patch the
    // views and bump the key in lockstep, so they pass this gate.
    const CacheKey current{db_->cube_version(cube_name),
                           /*scenario_fingerprint=*/0,
                           db_->structural_epoch(cube_name)};
    if (cache->key() != current) cache = nullptr;
  }

  // Batched cover-view evaluation: collect the grid's derived-cell masks,
  // materialize the covering subtotal views in one chunk pass, and serve
  // cells from the smallest covering view.
  std::optional<BatchCellEvaluator> batch;
  if (options.batched_eval && ctx != nullptr && ctx->UnderPressure()) {
    // First ladder rung: under pressure the scratch-view materialization
    // (the largest optional allocation of the query) is shed up front and
    // derived cells take the per-cell path.
    ctx->RecordDegradation(DegradeStep::kBatchedEvalOff);
  } else if (options.batched_eval) {
    TraceSpan prepare_span("query.batch_prepare");
    BatchEvalOptions batch_options;
    batch_options.threads = options.eval_threads;
    batch_options.cancel = cancel;
    if (ctx != nullptr) {
      batch_options.try_reserve_cells = [ctx](int64_t cells) {
        return ctx->TryReserveCells(cells);
      };
      batch_options.release_cells = [ctx](int64_t cells) {
        ctx->ReleaseCells(cells);
      };
      batch_options.on_degrade = [ctx](const char* name) {
        RecordNamedDegradation(ctx, name);
      };
    }
    // Out-of-core scratch materialization is only sound when the backing
    // file stores the evaluation cube itself (a what-if transform lives in
    // memory only, never on the simulated device).
    if (pipeline != nullptr && options.disk->has_backing() &&
        eval_cube == *cube) {
      batch_options.out_of_core_disk = options.disk;
      batch_options.pipelined_io = true;
      batch_options.pipeline = pipeline_options;
    }
    batch.emplace(*eval_cube, cache, batch_options);
    std::vector<std::vector<std::pair<int, AxisRef>>> row_over, col_over;
    row_over.reserve(row_tuples.size());
    for (const BoundTuple& t : row_tuples) row_over.push_back(t.refs);
    col_over.reserve(col_tuples.size());
    for (const BoundTuple& t : col_tuples) col_over.push_back(t.refs);
    batch->PrepareGrid(base, row_over, col_over);
    if (ctx != nullptr) {
      if (Status s = ctx->CheckInterrupted("query.batch_prepare"); !s.ok()) {
        return s;  // PrepareGrid published no scratch on a cancelled pass.
      }
    }
  }
  const BatchCellEvaluator* batch_ptr = batch.has_value() ? &*batch : nullptr;

  auto evaluate_rows = [&](int row_begin, int row_end) {
    for (int r = row_begin; r < row_end; ++r) {
      if (cancel.ShouldStop()) return;  // Partial grid discarded below.
      CellRef row_ref = base;
      for (const auto& [dim, ref] : row_tuples[r].refs) row_ref[dim] = ref;
      for (int c = 0; c < static_cast<int>(col_tuples.size()); ++c) {
        CellRef cell_ref = row_ref;
        for (const auto& [dim, ref] : col_tuples[c].refs) cell_ref[dim] = ref;
        CellValue v = pc.has_value()
                          ? pc->Evaluate(cell_ref, rules, batch_ptr)
                          : CellEvaluator(*active, rules, cache, batch_ptr)
                                .Evaluate(cell_ref);
        grid.set(r, c, v);
      }
    }
  };

  const int num_rows = static_cast<int>(row_tuples.size());
  int threads = std::clamp(options.eval_threads, 1, std::max(1, num_rows));
  if (ctx != nullptr && threads > 1 && ctx->UnderPressure()) {
    // Last ladder rung: the parallel evaluation falls back to serial,
    // returning the pool slots to other tenants (bit-identical results).
    threads = 1;
    ctx->RecordDegradation(DegradeStep::kSerialRollup);
  }
  std::optional<TraceSpan> eval_span(std::in_place, "query.evaluate");
  eval_span->SetDetail("cells=" +
                       std::to_string(static_cast<int64_t>(num_rows) *
                                      static_cast<int64_t>(col_tuples.size())) +
                       " threads=" + std::to_string(threads));
  if (threads <= 1) {
    evaluate_rows(0, num_rows);
  } else {
    // Evaluation only reads the cubes, but the dimensions' lazily built
    // leaf caches are not thread-safe on first touch — prime them up front.
    for (const Schema* schema : {&eff_schema, &active->schema()}) {
      for (int d = 0; d < schema->num_dimensions(); ++d) {
        schema->dimension(d).Leaves();
      }
    }
    // Same contiguous row blocks as before, but run on the shared pool
    // instead of spawning one std::thread per query. The work hint lets
    // small grids collapse to fewer (or zero) pool dispatches.
    const int per_thread = (num_rows + threads - 1) / threads;
    const int num_blocks = (num_rows + per_thread - 1) / per_thread;
    const int64_t grid_work = static_cast<int64_t>(num_rows) *
                              static_cast<int64_t>(col_tuples.size()) * 32;
    ThreadPool::Shared().ParallelFor(
        num_blocks, threads, grid_work,
        [&](int64_t block) {
          const int begin = static_cast<int>(block) * per_thread;
          const int end = std::min(num_rows, begin + per_thread);
          evaluate_rows(begin, end);
        },
        cancel);
  }
  eval_span.reset();
  if (ctx != nullptr) {
    // A cancelled evaluation leaves skipped rows null in the grid — the
    // partial result is discarded here, never returned.
    if (Status s = ctx->CheckInterrupted("query.evaluate"); !s.ok()) return s;
  }
  {
    // Raw computed-cell volume, before NON EMPTY drops anything. The
    // QueryResult field (cells_evaluated) reports the *returned* grid.
    static Counter* cells_computed =
        MetricsRegistry::Global().counter("query.cells_computed");
    cells_computed->Increment(static_cast<int64_t>(num_rows) *
                              static_cast<int64_t>(col_tuples.size()));
  }
  // NON EMPTY axes: drop all-⊥ rows/columns (the paper's figures likewise
  // omit rows for non-active members).
  const bool drop_rows = rows != nullptr && rows->non_empty;
  const bool drop_cols = columns->non_empty;
  if (drop_rows || drop_cols) {
    TraceSpan filter_span("query.filter");
    std::vector<int> keep_rows, keep_cols;
    for (int r = 0; r < grid.num_rows(); ++r) {
      bool any = false;
      for (int c = 0; c < grid.num_columns() && !any; ++c) {
        any = !grid.at(r, c).is_null();
      }
      if (any || !drop_rows) keep_rows.push_back(r);
    }
    for (int c = 0; c < grid.num_columns(); ++c) {
      bool any = false;
      for (int r = 0; r < grid.num_rows() && !any; ++r) {
        any = !grid.at(r, c).is_null();
      }
      if (any || !drop_cols) keep_cols.push_back(c);
    }
    std::vector<std::string> new_cols, new_rows;
    for (int c : keep_cols) new_cols.push_back(grid.column_labels()[c]);
    for (int r : keep_rows) new_rows.push_back(grid.row_labels()[r]);
    ResultGrid filtered(std::move(new_cols), std::move(new_rows));
    for (size_t r = 0; r < keep_rows.size(); ++r) {
      for (size_t c = 0; c < keep_cols.size(); ++c) {
        filtered.set(static_cast<int>(r), static_cast<int>(c),
                     grid.at(keep_rows[r], keep_cols[c]));
      }
    }
    for (int p = 0; p < grid.num_property_columns(); ++p) {
      std::vector<std::string> values;
      values.reserve(keep_rows.size());
      for (int r : keep_rows) values.push_back(grid.property_values(p)[r]);
      filtered.AddPropertyColumn(grid.property_name(p), std::move(values));
    }
    grid = std::move(filtered);
  }

  result.cells_evaluated = static_cast<int64_t>(grid.num_rows()) *
                           static_cast<int64_t>(grid.num_columns());
  {
    static Counter* cells_returned =
        MetricsRegistry::Global().counter("query.cells_returned");
    cells_returned->Increment(result.cells_evaluated);
  }
  result.grid = std::move(grid);
  if (ctx != nullptr) result.governor_steps = ctx->degradation_steps();
  return result;
}

Result<QueryResult> Executor::ExecuteCompare(const mdx::ParsedQuery& parsed,
                                             const QueryOptions& options,
                                             QueryContext* ctx) const {
  const CancellationToken cancel =
      ctx != nullptr ? ctx->cancel() : CancellationToken();
  const mdx::ParsedQuery& qa = parsed;
  const mdx::ParsedQuery& qb = *parsed.compare_to;

  std::string cube_name = Join(qa.cube_name, ".");
  if (Join(qb.cube_name, ".") != cube_name) {
    return Status::InvalidArgument("COMPARE sides must query the same cube");
  }
  Result<const Cube*> cube = db_->FindCube(cube_name);
  if (!cube.ok()) return cube.status();
  const RuleSet* rules = db_->rules(cube_name);

  auto bind_side = [&](const mdx::ParsedQuery& q) {
    TraceSpan span("query.bind");
    Result<BoundQuery> r = mdx::Bind(q, (*cube)->schema(), db_, *cube);
    if (!r.ok()) span.SetError(r.status());
    return r;
  };
  Result<BoundQuery> ba = bind_side(qa);
  if (!ba.ok()) return ba.status();
  Result<BoundQuery> bb = bind_side(qb);
  if (!bb.ok()) return bb.status();
  if (ctx != nullptr) {
    if (Status s = ctx->CheckInterrupted("query.bind"); !s.ok()) return s;
  }

  if (!ba->allocations.empty() || !bb->allocations.empty()) {
    return Status::Unimplemented(
        "COMPARE does not support ALLOCATION clauses");
  }

  // The delta grid needs one common coordinate set: both sides must bind
  // the same axes and slicer — the scenario clauses are where they differ.
  if (ba->axes.size() != bb->axes.size()) {
    return Status::InvalidArgument("COMPARE sides must select the same axes");
  }
  for (size_t i = 0; i < ba->axes.size(); ++i) {
    if (ba->axes[i].ordinal != bb->axes[i].ordinal ||
        !(ba->axes[i].tuples == bb->axes[i].tuples)) {
      return Status::InvalidArgument(
          "COMPARE sides must select the same axes");
    }
  }
  if (!(ba->slicer == bb->slicer)) {
    return Status::InvalidArgument("COMPARE sides must share the WHERE slicer");
  }

  const BoundAxis* columns = nullptr;
  const BoundAxis* rows = nullptr;
  for (const BoundAxis& axis : ba->axes) {
    if (axis.ordinal == 0) {
      columns = &axis;
    } else if (axis.ordinal == 1) {
      rows = &axis;
    } else {
      return Status::Unimplemented("COMPARE supports COLUMNS and ROWS only");
    }
  }
  if (columns == nullptr) {
    return Status::InvalidArgument("query has no COLUMNS axis");
  }

  // Axis labels render through the base schema, so the common coordinates
  // must predate any INTRODUCE augmentation; comparing cells *of* the
  // introduced members goes through the algebra API (CompareScenarios)
  // directly, which handles augmented refs.
  const Schema& schema = (*cube)->schema();
  auto in_schema = [&](const BoundTuple& t) {
    for (const auto& [dim, ref] : t.refs) {
      const Dimension& d = schema.dimension(dim);
      if (ref.member >= d.num_members() ||
          (ref.instance != kInvalidInstance &&
           ref.instance >= d.num_instances())) {
        return false;
      }
    }
    return true;
  };
  for (const BoundAxis& axis : ba->axes) {
    for (const BoundTuple& t : axis.tuples) {
      if (!in_schema(t)) {
        return Status::Unimplemented(
            "COMPARE axes cannot name introduced members");
      }
    }
  }
  if (!in_schema(ba->slicer)) {
    return Status::Unimplemented(
        "COMPARE slicer cannot name introduced members");
  }

  auto scenarios_of = [&](BoundQuery& q) {
    if (q.specs.size() == 1) {
      ApplyAutoScope(q, **cube, &q.specs[0]);
    }
    std::vector<ScenarioSpec> out;
    out.reserve(q.specs.size());
    for (const WhatIfSpec& spec : q.specs) {
      out.push_back(ScenarioSpec::FromWhatIf(spec));
    }
    return out;
  };
  std::vector<ScenarioSpec> sa = scenarios_of(*ba);
  std::vector<ScenarioSpec> sb = scenarios_of(*bb);

  // The compared coordinates: the grid, row-major, at *member* level (no
  // instance expansion — the two scenarios need not agree on instances).
  CellRef base(schema.num_dimensions());
  for (int d = 0; d < schema.num_dimensions(); ++d) {
    base[d] = AxisRef::OfMember(schema.dimension(d).root());
  }
  for (const auto& [dim, ref] : ba->slicer.refs) base[dim] = ref;
  const std::vector<BoundTuple>& col_tuples = columns->tuples;
  std::vector<BoundTuple> row_tuples =
      rows != nullptr ? rows->tuples : std::vector<BoundTuple>{BoundTuple{}};
  std::vector<CellRef> refs;
  refs.reserve(row_tuples.size() * col_tuples.size());
  for (const BoundTuple& row : row_tuples) {
    CellRef row_ref = base;
    for (const auto& [dim, ref] : row.refs) row_ref[dim] = ref;
    for (const BoundTuple& col : col_tuples) {
      CellRef cell_ref = row_ref;
      for (const auto& [dim, ref] : col.refs) cell_ref[dim] = ref;
      refs.push_back(std::move(cell_ref));
    }
  }

  QueryResult result;
  ScenarioCompareOptions copts;
  copts.eval.strategy = options.strategy;
  copts.eval.disk = options.disk;
  copts.eval.stats = &result.whatif_stats;
  copts.eval.eval_threads = options.eval_threads;
  copts.eval.cancel = cancel;
  ChunkPipelineOptions pipeline_options;
  pipeline_options.lookahead = std::max(1, options.pipeline_lookahead);
  pipeline_options.pin_budget = options.chunk_memory_budget;
  pipeline_options.io_threads = std::max(1, options.eval_threads);
  pipeline_options.cancel = cancel;
  if (options.pipelined_io && options.disk != nullptr) {
    copts.eval.pipeline = &pipeline_options;
  }
  copts.batched_eval = options.batched_eval;
  if (copts.batched_eval && ctx != nullptr && ctx->UnderPressure()) {
    // Same first ladder rung as ordinary queries: the shared scratch views
    // are the largest optional allocation, shed up front under pressure.
    copts.batched_eval = false;
    ctx->RecordDegradation(DegradeStep::kBatchedEvalOff);
  }
  copts.batch.threads = options.eval_threads;

  Result<ScenarioComparison> cmp =
      CompareScenarios(**cube, sa, sb, refs, rules, copts);
  if (!cmp.ok()) return cmp.status();

  std::vector<std::string> col_labels, row_labels;
  col_labels.reserve(col_tuples.size());
  for (const BoundTuple& t : col_tuples) {
    col_labels.push_back(TupleLabel(t, schema));
  }
  row_labels.reserve(row_tuples.size());
  for (const BoundTuple& t : row_tuples) {
    std::string label = TupleLabel(t, schema);
    row_labels.push_back(label.empty() ? "(all)" : label);
  }
  ResultGrid grid(std::move(col_labels), std::move(row_labels));
  for (size_t i = 0; i < refs.size(); ++i) {
    const CellValue& va = cmp->values_a[i];
    const CellValue& vb = cmp->values_b[i];
    if (va.is_null() && vb.is_null()) continue;  // Grid cells start ⊥.
    grid.set(static_cast<int>(i / col_tuples.size()),
             static_cast<int>(i % col_tuples.size()),
             CellValue(va.value_or(0.0) - vb.value_or(0.0)));
  }

  {
    static Counter* cells_computed =
        MetricsRegistry::Global().counter("query.cells_computed");
    static Counter* cells_returned =
        MetricsRegistry::Global().counter("query.cells_returned");
    cells_computed->Increment(static_cast<int64_t>(refs.size()));
    cells_returned->Increment(static_cast<int64_t>(refs.size()));
  }
  result.cells_evaluated = static_cast<int64_t>(grid.num_rows()) *
                           static_cast<int64_t>(grid.num_columns());
  result.grid = std::move(grid);
  result.used_whatif = true;
  result.compared = true;
  result.comparison = *std::move(cmp);
  if (ctx != nullptr) result.governor_steps = ctx->degradation_steps();
  return result;
}

Result<QueryResult> Executor::Execute(std::string_view mdx_text,
                                      const QueryOptions& options) const {
  MetricsRegistry& reg = MetricsRegistry::Global();
  static Counter* executed = reg.counter("query.executed");
  static Counter* failed = reg.counter("query.failed");
  static Histogram* seconds = reg.histogram("query.seconds");

  auto run = [&]() -> Result<QueryResult> {
    TraceSpan span("query.execute");
    const auto start = std::chrono::steady_clock::now();
    // Governed queries get a QueryContext for the span of the execution:
    // its destructor returns any unreleased budget reservation, so even an
    // error unwind leaves the governor's global gauge clean.
    std::optional<QueryContext> ctx;
    if (options.governor.active()) ctx.emplace(options.governor);
    Result<QueryResult> r =
        ExecuteImpl(mdx_text, options, ctx.has_value() ? &*ctx : nullptr);
    if (ctx.has_value()) {
      ctx->NoteTerminalStatus(r.ok() ? Status() : r.status());
    }
    seconds->RecordNanos(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count());
    executed->Increment();
    if (!r.ok()) {
      failed->Increment();
      span.SetError(r.status());
    }
    return r;
  };

  if (!options.collect_profile) return run();

  // Tracing sessions are process-global, so profiled queries serialize.
  // The metrics delta is likewise attributed to this query's window; any
  // concurrent unprofiled activity would leak into it, which the mutex
  // cannot prevent but profiling is an explicitly opt-in diagnostic mode.
  static std::mutex profile_mu;
  std::lock_guard<std::mutex> lock(profile_mu);
  MetricsRegistry::Snapshot before = reg.TakeSnapshot();
  const bool owns_session = TraceCollector::Enable();
  Result<QueryResult> r = run();
  TraceData trace;
  if (owns_session) trace = TraceCollector::DisableAndDrain();
  if (r.ok()) {
    r->profile.collected = owns_session;
    r->profile.trace = std::move(trace);
    r->profile.metrics_delta =
        MetricsRegistry::Snapshot::Delta(before, reg.TakeSnapshot());
  }
  return r;
}

// Plan text for one (sub-)query; COMPARE queries render one block per side.
static Result<std::string> ExplainOne(const Database* db,
                                      const mdx::ParsedQuery& parsed,
                                      const QueryOptions& options) {
  std::string cube_name = Join(parsed.cube_name, ".");
  Result<const Cube*> cube = db->FindCube(cube_name);
  if (!cube.ok()) return cube.status();
  Result<BoundQuery> bound = mdx::Bind(parsed, (*cube)->schema(), db, *cube);
  if (!bound.ok()) return bound.status();

  std::string out;
  out += "cube: " + cube_name + " (" +
         std::to_string((*cube)->CountNonNullCells()) + " cells, " +
         std::to_string((*cube)->NumStoredChunks()) + " chunks)\n";
  for (const BoundAxis& axis : bound->axes) {
    const char* name = axis.ordinal == 0   ? "columns"
                       : axis.ordinal == 1 ? "rows"
                                           : "pages";
    out += std::string(name) + ": " + std::to_string(axis.tuples.size()) +
           " tuple(s)" + (axis.non_empty ? ", NON EMPTY" : "") + "\n";
  }
  if (!bound->slicer.refs.empty()) {
    out += "slicer: " + std::to_string(bound->slicer.refs.size()) +
           " coordinate(s)\n";
  }
  for (const AllocationSpec& allocation : bound->allocations) {
    out += "allocation: move " +
           std::to_string(static_cast<int>(allocation.fraction * 100)) +
           "% along dimension '" +
           (*cube)->schema().dimension(allocation.dim).name() + "'\n";
  }
  for (WhatIfSpec spec : bound->specs) {
    if (bound->specs.size() == 1) {
      ApplyAutoScope(*bound, **cube, &spec);
    }
    out += "what-if: dimension '" +
           (*cube)->schema().dimension(spec.varying_dim).name() + "', " +
           SemanticsName(spec.semantics) + ", " + EvalModeName(spec.mode);
    if (!spec.introductions.empty()) {
      int seeded = 0;
      for (const NewMemberSpec& m : spec.introductions) {
        if (m.seed != NewMemberSpec::Seed::kNone) ++seeded;
      }
      out += ", " + std::to_string(spec.introductions.size()) +
             " introduced member(s)" +
             (seeded > 0 ? " (" + std::to_string(seeded) + " seeded)" : "");
    }
    if (!spec.perspectives.empty()) {
      out += ", " + std::to_string(spec.perspectives.size()) +
             " perspective(s) " + spec.perspectives.ToString();
    }
    if (!spec.changes.empty()) {
      out += ", " + std::to_string(spec.changes.size()) + " positive change(s)";
    }
    out += spec.scope_members.empty()
               ? ", unscoped merge\n"
               : ", merge scoped to " +
                     std::to_string(spec.scope_members.size()) + " member(s)\n";
    out += std::string("strategy: ") +
           (options.strategy == EvalStrategy::kDirect
                ? "direct"
                : "multiple-MDX simulation") +
           "\n";
  }
  const AggregateCache* cache = db->aggregates(cube_name);
  if (cache != nullptr) {
    // Persistent views serve whenever derived cells evaluate on the stored
    // cube: plain queries and non-visual what-if. Visual mode and
    // allocations evaluate a transformed cube, where only the per-query
    // scratch views built by batched evaluation apply.
    bool transformed = !bound->allocations.empty();
    for (const WhatIfSpec& spec : bound->specs) {
      if (spec.mode == EvalMode::kVisual) transformed = true;
    }
    int resident = 0;
    for (int i = 0; i < cache->num_views(); ++i) {
      if (cache->view_resident(i)) ++resident;
    }
    const CacheKey current{db->cube_version(cube_name),
                           /*scenario_fingerprint=*/0,
                           db->structural_epoch(cube_name)};
    const bool stale = cache->key() != current;
    out += "aggregations: " + std::to_string(cache->num_views()) +
           " view(s), " + std::to_string(resident) + " resident, " +
           (stale ? "stale key (bypassed)"
                  : transformed ? "scratch only (transformed cube)"
                                : "serving derived cells") +
           "\n";
  }
  return out;
}

Result<std::string> Executor::Explain(std::string_view mdx_text,
                                      const QueryOptions& options) const {
  Result<mdx::ParsedQuery> parsed = mdx::Parse(mdx_text);
  if (!parsed.ok()) return parsed.status();
  if (parsed->compare_to != nullptr) {
    Result<std::string> a = ExplainOne(db_, *parsed, options);
    if (!a.ok()) return a.status();
    Result<std::string> b = ExplainOne(db_, *parsed->compare_to, options);
    if (!b.ok()) return b.status();
    return "compare: delta grid (scenario A - scenario B), shared cover "
           "views over common refs\n-- scenario A --\n" +
           *a + "-- scenario B --\n" + *b;
  }
  return ExplainOne(db_, *parsed, options);
}

std::string QueryProfile::ToText() const {
  if (!collected) {
    return "profile: not collected (set QueryOptions::collect_profile)\n";
  }
  std::string out;
  out += "-- profile: spans --\n";
  out += trace.ToText();
  out += "-- profile: metrics delta --\n";
  for (const auto& [name, value] : metrics_delta.counters) {
    out += name + ": " + std::to_string(value) + "\n";
  }
  for (const auto& [name, g] : metrics_delta.gauges) {
    out += name + ": " + std::to_string(g.value) +
           " (max " + std::to_string(g.max) + ")\n";
  }
  for (const auto& [name, h] : metrics_delta.histograms) {
    char ms[32];
    std::snprintf(ms, sizeof(ms), "%.3f",
                  static_cast<double>(h.sum_nanos) / 1e6);
    out += name + ": count=" + std::to_string(h.count) + " total=" + ms +
           "ms\n";
  }
  return out;
}

Result<std::string> Executor::ExplainAnalyze(std::string_view mdx_text,
                                             const QueryOptions& options) const {
  Result<std::string> plan = Explain(mdx_text, options);
  if (!plan.ok()) return plan.status();
  QueryOptions profiled = options;
  profiled.collect_profile = true;
  Result<QueryResult> executed = Execute(mdx_text, profiled);
  if (!executed.ok()) return executed.status();

  std::string out = *std::move(plan);
  out += "result: " + std::to_string(executed->grid.num_rows()) + " row(s) x " +
         std::to_string(executed->grid.num_columns()) + " column(s), " +
         std::to_string(executed->cells_evaluated) + " cell(s)\n";
  if (executed->used_whatif) {
    out += "what-if cost: passes=" +
           std::to_string(executed->whatif_stats.passes) +
           " chunk_reads=" + std::to_string(executed->whatif_stats.chunk_reads) +
           " cells_moved=" + std::to_string(executed->whatif_stats.cells_moved) +
           "\n";
  }
  if (executed->compared) {
    const ScenarioComparison& c = executed->comparison;
    char dist[96];
    std::snprintf(dist, sizeof(dist), "l1=%.3f l2=%.3f linf=%.3f jaccard=%.3f",
                  c.l1, c.l2, c.linf, c.jaccard);
    out += "comparison: cells=" + std::to_string(c.cells_compared) +
           " active_a=" + std::to_string(c.active_a) +
           " active_b=" + std::to_string(c.active_b) +
           " overlap=" + std::to_string(c.overlap) + " containment=" +
           (c.a_contains_b && c.b_contains_a ? "equal"
            : c.a_contains_b                 ? "A>=B"
            : c.b_contains_a                 ? "B>=A"
                                             : "none") +
           " " + dist + "\n";
  }
  if (!executed->governor_steps.empty()) {
    out += "governor: degraded [" + Join(executed->governor_steps, " -> ") +
           "]\n";
  } else if (options.governor.active()) {
    out += "governor: active, no degradation\n";
  }
  out += executed->profile.ToText();
  return out;
}

}  // namespace olap
