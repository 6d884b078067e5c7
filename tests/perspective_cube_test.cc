#include "whatif/perspective_cube.h"

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "workload/paper_example.h"
#include "workload/product.h"
#include "workload/workforce.h"

namespace olap {
namespace {

class PerspectiveCubeTest : public ::testing::Test {
 protected:
  void SetUp() override { ex_ = BuildPaperExample(); }

  WhatIfSpec Spec(std::vector<int> moments, Semantics sem,
                  EvalMode mode = EvalMode::kNonVisual) {
    WhatIfSpec spec;
    spec.varying_dim = ex_.org_dim;
    spec.perspectives = Perspectives(std::move(moments));
    spec.semantics = sem;
    spec.mode = mode;
    return spec;
  }

  CellRef Ref(const AxisRef& org, const std::string& loc,
              const std::string& time, const std::string& measure) {
    const Schema& s = ex_.cube.schema();
    return CellRef{
        org,
        AxisRef::OfMember(*s.dimension(ex_.location_dim).FindMember(loc)),
        AxisRef::OfMember(*s.dimension(ex_.time_dim).FindMember(time)),
        AxisRef::OfMember(*s.dimension(ex_.measures_dim).FindMember(measure))};
  }

  PaperExample ex_;
};

TEST_F(PerspectiveCubeTest, RejectsBadSpecs) {
  WhatIfSpec spec;
  spec.varying_dim = -1;
  EXPECT_EQ(ComputePerspectiveCube(ex_.cube, spec).status().code(),
            StatusCode::kInvalidArgument);
  spec.varying_dim = ex_.location_dim;  // Not varying.
  EXPECT_EQ(ComputePerspectiveCube(ex_.cube, spec).status().code(),
            StatusCode::kFailedPrecondition);
  spec = Spec({99}, Semantics::kStatic);
  EXPECT_EQ(ComputePerspectiveCube(ex_.cube, spec).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(PerspectiveCubeTest, StaticDropsNonSurvivingInstances) {
  Result<PerspectiveCube> pc =
      ComputePerspectiveCube(ex_.cube, Spec({0}, Semantics::kStatic));
  ASSERT_TRUE(pc.ok()) << pc.status().ToString();
  // FTE/Joe survives with its Jan value.
  EXPECT_EQ(pc->Evaluate(Ref(AxisRef::OfInstance(ex_.joe, ex_.fte_joe), "NY",
                             "Jan", "Salary")),
            CellValue(10.0));
  // PTE/Joe is dropped: all its cells ⊥.
  EXPECT_TRUE(pc->Evaluate(Ref(AxisRef::OfInstance(ex_.joe, ex_.pte_joe), "NY",
                               "Feb", "Salary"))
                  .is_null());
  const Dimension& org_out = pc->output().schema().dimension(ex_.org_dim);
  EXPECT_TRUE(org_out.instance(ex_.pte_joe).validity.None());
}

TEST_F(PerspectiveCubeTest, NonVisualKeepsInputAggregates) {
  // Forward {Feb}: Joe's Mar salary (30) moves to PTE/Joe. Non-visual mode
  // must still report the INPUT cube's PTE Q1 total.
  Result<PerspectiveCube> pc = ComputePerspectiveCube(
      ex_.cube, Spec({1}, Semantics::kForward, EvalMode::kNonVisual));
  ASSERT_TRUE(pc.ok());
  CellRef pte_q1 = Ref(AxisRef::OfMember(ex_.pte), "NY", "Qtr1", "Salary");
  // Input: Tom 30 + PTE/Joe Feb 10 = 40.
  EXPECT_EQ(pc->Evaluate(pte_q1), CellValue(40.0));
  // Leaf cells still come from the transformed cube.
  EXPECT_EQ(pc->Evaluate(Ref(AxisRef::OfInstance(ex_.joe, ex_.pte_joe), "NY",
                             "Mar", "Salary")),
            CellValue(30.0));
}

TEST_F(PerspectiveCubeTest, VisualRecomputesAggregates) {
  Result<PerspectiveCube> pc = ComputePerspectiveCube(
      ex_.cube, Spec({1}, Semantics::kForward, EvalMode::kVisual));
  ASSERT_TRUE(pc.ok());
  CellRef pte_q1 = Ref(AxisRef::OfMember(ex_.pte), "NY", "Qtr1", "Salary");
  // Visual: Tom 30 + PTE/Joe (Feb 10 + Mar 30) = 70.
  EXPECT_EQ(pc->Evaluate(pte_q1), CellValue(70.0));
}

// The headline equivalence behind Fig. 11: the Multiple-MDX simulation
// computes exactly the same perspective cube as the direct strategy, for
// every semantics — it is just slower (more passes).
class StrategyEquivalence
    : public PerspectiveCubeTest,
      public ::testing::WithParamInterface<std::tuple<Semantics, int>> {};

TEST_P(StrategyEquivalence, MultipleMdxMatchesDirect) {
  auto [sem, num_perspectives] = GetParam();
  std::vector<int> moments;
  for (int i = 0; i < num_perspectives; ++i) {
    moments.push_back((i * 2 + 1) % 6);
  }
  WhatIfSpec spec = Spec(moments, sem, EvalMode::kNonVisual);

  EvalStats direct_stats, multi_stats;
  Result<PerspectiveCube> direct = ComputePerspectiveCube(
      ex_.cube, spec, EvalStrategy::kDirect, nullptr, &direct_stats);
  Result<PerspectiveCube> multi = ComputePerspectiveCube(
      ex_.cube, spec, EvalStrategy::kMultipleMdx, nullptr, &multi_stats);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();

  // Cell-for-cell identical output cubes.
  const Dimension& org = ex_.cube.schema().dimension(ex_.org_dim);
  for (int pos = 0; pos < org.num_positions(); ++pos) {
    for (int t = 0; t < 6; ++t) {
      std::vector<int> coords = {pos, 0, t, 0};
      EXPECT_EQ(direct->output().GetCell(coords), multi->output().GetCell(coords))
          << "pos=" << pos << " t=" << t << " sem=" << SemanticsName(sem);
    }
  }
  // Identical metadata.
  const Dimension& d_dir = direct->output().schema().dimension(ex_.org_dim);
  const Dimension& d_mul = multi->output().schema().dimension(ex_.org_dim);
  for (InstanceId i = 0; i < d_dir.num_instances(); ++i) {
    EXPECT_EQ(d_dir.instance(i).validity, d_mul.instance(i).validity) << i;
  }
  // The simulation costs k passes, the direct strategy one.
  EXPECT_EQ(direct_stats.passes, 1);
  EXPECT_EQ(multi_stats.passes, num_perspectives);
  EXPECT_GE(multi_stats.chunk_reads, direct_stats.chunk_reads);
}

INSTANTIATE_TEST_SUITE_P(
    AllSemantics, StrategyEquivalence,
    ::testing::Combine(::testing::Values(Semantics::kStatic, Semantics::kForward,
                                         Semantics::kExtendedForward,
                                         Semantics::kBackward,
                                         Semantics::kExtendedBackward),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<Semantics, int>>& info) {
      std::string name = SemanticsName(std::get<0>(info.param));
      for (char& c : name) {
        if (c == ' ') c = '_';
      }
      return name + "_" + std::to_string(std::get<1>(info.param));
    });

TEST_F(PerspectiveCubeTest, PositiveChangesOnly) {
  WhatIfSpec spec;
  spec.varying_dim = ex_.org_dim;
  spec.changes = {{ex_.lisa, ex_.fte, ex_.pte, 3}};
  Result<PerspectiveCube> pc = ComputePerspectiveCube(ex_.cube, spec);
  ASSERT_TRUE(pc.ok()) << pc.status().ToString();
  const Dimension& org = pc->output().schema().dimension(ex_.org_dim);
  InstanceId pte_lisa = org.FindInstance(ex_.lisa, ex_.pte);
  ASSERT_NE(pte_lisa, kInvalidInstance);
  EXPECT_EQ(pc->Evaluate(Ref(AxisRef::OfInstance(ex_.lisa, pte_lisa), "NY",
                             "Apr", "Salary")),
            CellValue(10.0));
  // Non-visual (the Split default): aggregates come from the input.
  EXPECT_EQ(pc->Evaluate(Ref(AxisRef::OfMember(ex_.pte), "NY", "Qtr2", "Salary")),
            CellValue(30.0));  // Input: only Tom.
  // Visual would see Lisa's Q2 salary under PTE.
  spec.mode = EvalMode::kVisual;
  Result<PerspectiveCube> visual = ComputePerspectiveCube(ex_.cube, spec);
  ASSERT_TRUE(visual.ok());
  EXPECT_EQ(
      visual->Evaluate(Ref(AxisRef::OfMember(ex_.pte), "NY", "Qtr2", "Salary")),
      CellValue(60.0));  // Tom 30 + PTE/Lisa 30.
}

TEST_F(PerspectiveCubeTest, PositiveAndNegativeCombined) {
  // Split Lisa to PTE in Apr, then apply a static {Apr} perspective: only
  // structures valid in Apr remain.
  WhatIfSpec spec = Spec({3}, Semantics::kStatic);
  spec.changes = {{ex_.lisa, ex_.fte, ex_.pte, 3}};
  Result<PerspectiveCube> pc = ComputePerspectiveCube(ex_.cube, spec);
  ASSERT_TRUE(pc.ok()) << pc.status().ToString();
  const Dimension& org = pc->output().schema().dimension(ex_.org_dim);
  InstanceId fte_lisa = org.FindInstance(ex_.lisa, ex_.fte);
  InstanceId pte_lisa = org.FindInstance(ex_.lisa, ex_.pte);
  EXPECT_TRUE(org.instance(fte_lisa).validity.None());  // Not valid in Apr.
  EXPECT_EQ(org.instance(pte_lisa).validity.ToVector(),
            (std::vector<int>{3, 4, 5}));
}

TEST_F(PerspectiveCubeTest, ScopedComputationFallsBackForOutOfScope) {
  WhatIfSpec spec = Spec({1}, Semantics::kForward, EvalMode::kNonVisual);
  spec.scope_members = {ex_.joe};
  Result<PerspectiveCube> pc = ComputePerspectiveCube(ex_.cube, spec);
  ASSERT_TRUE(pc.ok());
  // Joe is transformed.
  EXPECT_EQ(pc->Evaluate(Ref(AxisRef::OfInstance(ex_.joe, ex_.pte_joe), "NY",
                             "Mar", "Salary")),
            CellValue(30.0));
  // Lisa is out of scope: her leaf reads fall back to the input cube.
  EXPECT_EQ(pc->Evaluate(Ref(AxisRef::OfMember(ex_.lisa), "NY", "Jan", "Salary")),
            CellValue(10.0));
  // The scoped output itself holds no Lisa data (that is the point).
  InstanceId lisa =
      ex_.cube.schema().dimension(ex_.org_dim).InstancesOf(ex_.lisa)[0];
  EXPECT_TRUE(pc->output().GetCell({lisa, 0, 0, 0}).is_null());
}

TEST_F(PerspectiveCubeTest, DiskChargingAndStats) {
  SimulatedDisk disk(DiskModel{}, /*cache=*/0);
  EvalStats stats;
  Result<PerspectiveCube> pc =
      ComputePerspectiveCube(ex_.cube, Spec({1, 3}, Semantics::kForward),
                             EvalStrategy::kDirect, &disk, &stats);
  ASSERT_TRUE(pc.ok());
  EXPECT_GT(stats.chunk_reads, 0);
  EXPECT_GT(stats.cells_moved, 0);
  EXPECT_GT(stats.virtual_io_seconds, 0.0);
  EXPECT_EQ(disk.stats().physical_reads, stats.chunk_reads);
}

TEST_F(PerspectiveCubeTest, PebblingReadOrderReducesPeakMergeChunks) {
  // Same computation, two read orders: identical output cubes; the
  // pebbling order's peak co-resident chunk count never exceeds the
  // ascending order's (Sec. 5.2).
  WhatIfSpec ascending = Spec({1, 3}, Semantics::kForward);
  WhatIfSpec pebbling = ascending;
  pebbling.pebbling_read_order = true;

  EvalStats stats_ascending, stats_pebbling;
  Result<PerspectiveCube> a = ComputePerspectiveCube(
      ex_.cube, ascending, EvalStrategy::kDirect, nullptr, &stats_ascending);
  Result<PerspectiveCube> b = ComputePerspectiveCube(
      ex_.cube, pebbling, EvalStrategy::kDirect, nullptr, &stats_pebbling);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(stats_ascending.chunk_reads, stats_pebbling.chunk_reads);
  EXPECT_GT(stats_ascending.peak_merge_chunks, 0);
  EXPECT_LE(stats_pebbling.peak_merge_chunks,
            stats_ascending.peak_merge_chunks);
  // The data transform itself is order-independent.
  ex_.cube.ForEachCell([&](const std::vector<int>& coords, CellValue) {
    EXPECT_EQ(a->output().GetCell(coords), b->output().GetCell(coords));
  });
}

TEST(MergeResidencyTest, VaryingDimensionFirstNeedsLessMemory) {
  // Lemma 5.1: reading chunks in a dimension order that starts with the
  // varying dimension needs less merge memory than one that does not. The
  // fixture is the dimension-order ablation's workforce cube.
  WorkforceConfig config;
  config.num_departments = 20;
  config.num_employees = 400;
  config.num_changing = 60;
  config.num_measures = 4;
  config.num_scenarios = 2;
  config.seed = 511;
  WorkforceCube wf = BuildWorkforceCube(config);
  const int n = wf.cube.num_dims();
  ASSERT_LT(wf.dept_dim, n - 1);
  std::vector<int> first(n);
  std::iota(first.begin(), first.end(), 0);
  std::swap(first[0], first[wf.dept_dim]);
  std::vector<int> last = first;
  std::swap(last[0], last[n - 1]);

  const MergeResidency varying_first = MergeResidencyForOrder(
      wf.cube, wf.dept_dim, wf.changing_employees, first);
  const MergeResidency varying_last = MergeResidencyForOrder(
      wf.cube, wf.dept_dim, wf.changing_employees, last);
  EXPECT_GT(varying_first.peak_chunks, 0);
  EXPECT_LT(varying_first.peak_chunks, varying_last.peak_chunks);
  EXPECT_LT(varying_first.buffer_steps, varying_last.buffer_steps);
}

TEST(RelevantChunksTest, ScopedSubsetOfAll) {
  ProductCubeConfig config;
  config.separation_chunks = 8;
  ProductCube pcube = BuildProductCube(config);
  std::vector<ChunkId> all = RelevantChunks(pcube.cube, pcube.product_dim, {});
  std::vector<ChunkId> probe_only =
      RelevantChunks(pcube.cube, pcube.product_dim, {pcube.probe});
  EXPECT_EQ(static_cast<int64_t>(all.size()), pcube.cube.NumStoredChunks());
  EXPECT_LT(probe_only.size(), all.size());
  EXPECT_FALSE(probe_only.empty());
  for (ChunkId id : probe_only) {
    EXPECT_TRUE(std::find(all.begin(), all.end(), id) != all.end());
  }
}

}  // namespace
}  // namespace olap
