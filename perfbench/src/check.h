#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstdint>
#include <map>
#include <string>

#include "cube/cube.h"
#include "engine/result_grid.h"

namespace perfbench {

// Bit digest of a result grid: its shape, every label and every cell's
// storage bits (so -0.0 vs 0.0 and NaN payloads count). Equal digests mean
// the grids are bit-identical.
uint64_t GridDigest(const olap::ResultGrid& grid);

// Bit digest of a cube's stored chunks, visited in chunk-id order.
uint64_t CubeDigest(const olap::Cube& cube);

// Attempted / failed operation tally. An operation fails when it returns a
// non-OK status or its answer does not match the expected one.
struct OpTally {
  int64_t attempted = 0;
  int64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  double failed_share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

// Expected answer digests per query class, recorded once from a reference
// execution; every later answer of that class is compared against it.
class AnswerBook {
 public:
  void Expect(const std::string& query_class, uint64_t digest) {
    expected_[query_class] = digest;
  }
  bool Has(const std::string& query_class) const {
    return expected_.count(query_class) > 0;
  }
  // True when `digest` equals the recorded one. A class with no recorded
  // answer never matches: an unchecked answer is a failed check.
  bool Matches(const std::string& query_class, uint64_t digest) const {
    auto it = expected_.find(query_class);
    return it != expected_.end() && it->second == digest;
  }

 private:
  std::map<std::string, uint64_t> expected_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
