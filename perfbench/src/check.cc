#include "check.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace perfbench {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t Fold(uint64_t h, uint64_t word) { return (h ^ word) * kFnvPrime; }

uint64_t FoldString(uint64_t h, const std::string& s) {
  h = Fold(h, s.size());
  for (unsigned char c : s) h = Fold(h, c);
  return h;
}

uint64_t StorageBits(double raw) {
  uint64_t bits = 0;
  std::memcpy(&bits, &raw, sizeof(bits));
  return bits;
}

}  // namespace

uint64_t GridDigest(const olap::ResultGrid& grid) {
  uint64_t h = Fold(Fold(kFnvOffset, grid.num_rows()), grid.num_columns());
  for (const std::string& label : grid.column_labels()) h = FoldString(h, label);
  for (const std::string& label : grid.row_labels()) h = FoldString(h, label);
  for (int p = 0; p < grid.num_property_columns(); ++p) {
    h = FoldString(h, grid.property_name(p));
    for (const std::string& v : grid.property_values(p)) h = FoldString(h, v);
  }
  for (int r = 0; r < grid.num_rows(); ++r) {
    for (int c = 0; c < grid.num_columns(); ++c) {
      h = Fold(h, StorageBits(olap::CellValue::ToStorage(grid.at(r, c))));
    }
  }
  return h;
}

uint64_t CubeDigest(const olap::Cube& cube) {
  std::vector<std::pair<olap::ChunkId, const olap::Chunk*>> chunks;
  chunks.reserve(static_cast<size_t>(cube.NumStoredChunks()));
  cube.ForEachChunk([&](olap::ChunkId id, const olap::Chunk& chunk) {
    chunks.emplace_back(id, &chunk);
  });
  std::sort(chunks.begin(), chunks.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  uint64_t h = Fold(kFnvOffset, chunks.size());
  for (const auto& [id, chunk] : chunks) {
    h = Fold(h, static_cast<uint64_t>(id));
    for (int64_t i = 0; i < chunk->size(); ++i) {
      h = Fold(h, StorageBits(olap::CellValue::ToStorage(chunk->Get(i))));
    }
  }
  return h;
}

}  // namespace perfbench
