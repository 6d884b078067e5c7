// Self-tests of the benchmark's own code: the percentile rank rule, the
// refusal to report a p90 from too few samples, and answer checks that
// count a corrupted grid as a failed operation. Exits non-zero on the
// first failed expectation.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "check.h"
#include "engine/result_grid.h"
#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // Deliberately unsorted.
  return v;
}

void PercentileRankRule() {
  // Nearest rank: sorted[ceil(p/100 * n) - 1].
  Expect(NearestRankPercentile(OneTo(100), 50.0) == 50.0, "p50 of 1..100");
  Expect(NearestRankPercentile(OneTo(100), 90.0) == 90.0, "p90 of 1..100");
  Expect(NearestRankPercentile(OneTo(101), 90.0) == 91.0, "p90 of 1..101");
  Expect(NearestRankPercentile(OneTo(10), 50.0) == 5.0, "p50 of 1..10");
  Expect(NearestRankPercentile(OneTo(3), 50.0) == 2.0, "p50 of 1..3");
  Expect(NearestRankPercentile(OneTo(1), 90.0) == 1.0, "p90 of one sample");
  Expect(NearestRankPercentile(OneTo(7), 100.0) == 7.0, "p100 is the max");
  Expect(Median({3.0, 1.0, 2.0}) == 2.0, "median of three");
  // Ten samples lie strictly beyond the reported p90 of 100 samples.
  const std::vector<double> s = OneTo(100);
  const double p90 = NearestRankPercentile(s, 90.0);
  int beyond = 0;
  for (double v : s) beyond += v > p90 ? 1 : 0;
  Expect(beyond == 10, "ten samples beyond p90 of 100");
}

void RefusesThinTail() {
  Expect(MinSamplesForPercentile(90.0) == 100, "p90 needs 100 samples");
  Expect(MinSamplesForPercentile(50.0) == 20, "p50 tail needs 20 samples");
  double out = -1.0;
  std::string why;
  Expect(!TailPercentile(OneTo(99), 90.0, &out, &why),
         "p90 refused from 99 samples");
  Expect(out == -1.0, "refused p90 leaves the output untouched");
  Expect(!why.empty(), "refusal says why");
  why.clear();
  Expect(TailPercentile(OneTo(100), 90.0, &out, &why) && out == 90.0,
         "p90 reported from 100 samples");
}

olap::ResultGrid SmallGrid() {
  olap::ResultGrid grid({"Jan", "Feb"}, {"Dept01", "Dept02"});
  grid.set(0, 0, olap::CellValue(1.0));
  grid.set(0, 1, olap::CellValue(2.5));
  grid.set(1, 0, olap::CellValue(-3.0));
  // (1, 1) stays null.
  return grid;
}

void CorruptedDigestIsAFailure() {
  const olap::ResultGrid reference = SmallGrid();
  AnswerBook answers;
  answers.Expect("q", GridDigest(reference));

  OpTally tally;
  tally.Record(answers.Matches("q", GridDigest(SmallGrid())));
  Expect(tally.attempted == 1 && tally.failed == 0, "identical grid passes");

  // One flipped low mantissa bit in one cell.
  olap::ResultGrid corrupted = SmallGrid();
  double raw = 2.5;
  uint64_t bits;
  std::memcpy(&bits, &raw, sizeof(bits));
  bits ^= 1;
  std::memcpy(&raw, &bits, sizeof(raw));
  corrupted.set(0, 1, olap::CellValue(raw));
  tally.Record(answers.Matches("q", GridDigest(corrupted)));
  Expect(tally.failed == 1, "a one-bit cell difference counts as failed");

  // A null cell turned into 0 and a relabelled row are differences too.
  olap::ResultGrid zeroed = SmallGrid();
  zeroed.set(1, 1, olap::CellValue(0.0));
  tally.Record(answers.Matches("q", GridDigest(zeroed)));
  olap::ResultGrid relabelled({"Jan", "Feb"}, {"Dept01", "Dept03"});
  relabelled.set(0, 0, olap::CellValue(1.0));
  relabelled.set(0, 1, olap::CellValue(2.5));
  relabelled.set(1, 0, olap::CellValue(-3.0));
  tally.Record(answers.Matches("q", GridDigest(relabelled)));
  Expect(tally.failed == 3, "null-vs-zero and label changes count as failed");

  // The expected digest itself corrupted: the true answer now fails.
  AnswerBook corrupted_book;
  corrupted_book.Expect("q", GridDigest(reference) ^ 1);
  tally.Record(corrupted_book.Matches("q", GridDigest(reference)));
  Expect(tally.failed == 4, "a corrupted reference digest counts as failed");

  // An answer with no recorded reference is never a silent pass.
  tally.Record(answers.Matches("unknown", GridDigest(reference)));
  Expect(tally.failed == 5, "an unchecked class counts as failed");
  Expect(tally.attempted == 6, "every check is attempted once");
  Expect(std::fabs(tally.failed_share() - 5.0 / 6.0) < 1e-12,
         "failed_share = failed / attempted");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::PercentileRankRule();
  perfbench::RefusesThinTail();
  perfbench::CorruptedDigestIsAFailure();
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "%d self-test expectation(s) failed\n",
                 perfbench::failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
