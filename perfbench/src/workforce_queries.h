#ifndef PERFBENCH_WORKFORCE_QUERIES_H_
#define PERFBENCH_WORKFORCE_QUERIES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "stats.h"
#include "workload/workforce.h"

namespace perfbench {

// The paper's Sec. 6 workforce cube at benchmark scale: 51 departments,
// 2,025 employees, 250 of them changing department 1-11 times over 12
// months, 10 measures, 5 scenarios. The reporting structure is generated
// from the figure benchmarks' fixed seed (ICDE 2008): which employees move,
// and how often, sets how many chunks a refresh re-reads (the delta closure
// covers 10-19% of the cube across structure seeds 1-10), which would make
// edit cost a property of the seed. The run seed drives the cell values
// (ReseedValues) and every stream the run issues instead.
inline olap::WorkforceConfig BenchWorkforceConfig() {
  olap::WorkforceConfig config;
  config.num_departments = 51;
  config.num_employees = 2025;
  config.num_changing = 250;
  config.num_measures = 10;
  config.num_scenarios = 5;
  config.seed = 20080407;
  return config;
}

// Replaces every stored cell of `cube` with a seeded integer in
// [1000, 2000). Integer data keeps every sum exact, so all evaluation paths
// must agree bit for bit.
inline void ReseedValues(olap::Cube* cube, uint64_t seed) {
  std::vector<olap::ChunkId> ids;
  ids.reserve(static_cast<size_t>(cube->NumStoredChunks()));
  cube->ForEachChunk(
      [&](olap::ChunkId id, const olap::Chunk&) { ids.push_back(id); });
  olap::Rng rng(seed);
  for (olap::ChunkId id : ids) {
    olap::Chunk* chunk = cube->GetOrCreateChunk(id);
    for (int64_t i = 0; i < chunk->size(); ++i) {
      if (!chunk->IsNull(i)) {
        chunk->Set(i, olap::CellValue(1000.0 + rng.NextBelow(1000)));
      }
    }
  }
}

// A freshly generated benchmark workforce cube, and the wall seconds its
// generation took in the engine (BuildWorkforceCube; ReseedValues is the
// benchmark's own input generation and is not counted).
inline olap::WorkforceCube GenerateWorkforce(uint64_t seed, double* build_s) {
  const Clock::time_point t0 = Clock::now();
  olap::WorkforceCube wf = olap::BuildWorkforceCube(BenchWorkforceConfig());
  *build_s = MsSince(t0) / 1e3;
  ReseedValues(&wf.cube, seed);
  return wf;
}

// Number of pre-built aggregations (Database::BuildAggregates).
constexpr int kWorkforceAggViews = 8;

inline const char* kMonthNames[12] = {"Jan", "Feb", "Mar", "Apr",
                                      "May", "Jun", "Jul", "Aug",
                                      "Sep", "Oct", "Nov", "Dec"};

// "{(Jan), (Feb), ...}": the first k months as single-moment perspectives.
inline std::string FirstMonths(int k) {
  std::string out = "{";
  for (int i = 0; i < k; ++i) {
    if (i > 0) out += ", ";
    out += '(';
    out += kMonthNames[i % 12];
    out += ')';
  }
  return out + "}";
}

// Rows of every employee who changed department (the three Fig. 10(a)
// named sets), optionally cut to the first `head` with Head(...).
inline std::string ChangingEmployees(int head) {
  const std::string all =
      "{Union({Union({[EmployeesWithAtleastOneMove-Set1].Children}, "
      "{[EmployeesWithAtleastOneMove-Set2].Children})}, "
      "{[EmployeesWithAtleastOneMove-Set3].Children})}";
  if (head <= 0) return all;
  return "{Head(" + all + ", " + std::to_string(head) + ")}";
}

// Fig. 10/11/13 query shape: every level-0 account for one input slice,
// employee x period rows, with the employee's department as a property.
inline std::string WorkforceWhatIf(const std::string& perspective_clause,
                                   const std::string& employees) {
  return "WITH PERSPECTIVE " + perspective_clause +
         " SELECT {CrossJoin({[Account].Levels(0).Members}, "
         "{([Current], [Local], [BU Version_1], [HSP_InputValue])})} "
         "ON COLUMNS, {CrossJoin(" + employees +
         ", {Descendants([Period],1,self_and_after)})} "
         "DIMENSION PROPERTIES [Department] ON ROWS FROM [App].[Db]";
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKFORCE_QUERIES_H_
