#ifndef OLAP_AGG_CHUNK_AGGREGATOR_H_
#define OLAP_AGG_CHUNK_AGGREGATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "agg/group_by.h"
#include "agg/lattice.h"
#include "common/cancellation.h"
#include "cube/cube.h"
#include "storage/chunk_pipeline.h"
#include "storage/simulated_disk.h"

namespace olap {

// Statistics from one aggregation pass.
struct AggStats {
  int64_t chunks_visited = 0;   // Chunk-grid cells traversed.
  int64_t chunks_read = 0;      // Chunks that actually held data.
  int64_t cells_scanned = 0;    // Non-⊥ input cells.
  int64_t mmst_memory_cells = 0;  // Analytic Zhao memory bound for the pass.
};

// Simple whole-cube scanner: visits every stored cell once and projects it
// onto each requested group-by. The oracle against which ChunkAggregator is
// tested.
class NaiveAggregator {
 public:
  // Computes the requested group-bys of `cube` (sum over dropped dims).
  static std::vector<GroupByResult> Compute(const Cube& cube,
                                            const std::vector<GroupByMask>& masks);
};

// Zhao-style aggregator: reads chunks in an explicit dimension order
// (order[0] varies fastest) and accumulates every requested group-by in one
// pass. Optionally charges each chunk read to a SimulatedDisk.
//
// The numeric results are identical to NaiveAggregator (tested); what the
// dimension order changes is the I/O pattern and the analytic memory bound
// (AggStats::mmst_memory_cells) — which is what the paper's Lemma 5.1
// argument and the Zhao MMST are about.
class ChunkAggregator {
 public:
  explicit ChunkAggregator(const Cube& cube) : cube_(cube) {}

  // `order`: permutation of dimensions; order[0] is read fastest.
  // `disk` may be null.
  //
  // The stored chunks (in traversal order) are split into a deterministic
  // sequence of contiguous partitions whose count depends only on the
  // workload (never on `threads`); each partition accumulates every
  // requested group-by in one pass over its chunks, and the per-partition
  // partials are merged in ascending partition order. `threads` > 1 runs
  // the partitions in parallel on the shared pool; because the partition
  // plan and the merge order are thread-independent, the results are
  // bit-identical at every thread count. Stats and disk charging come from
  // a serial traversal pre-pass and are likewise unchanged.
  //
  // `cancel` is polled at chunk/partition granularity. A pass that
  // observes a stop request returns early with *incomplete* partials — the
  // caller owns checking the token afterwards and must discard the result
  // (never publish it into a cache).
  std::vector<GroupByResult> Compute(const std::vector<GroupByMask>& masks,
                                     const std::vector<int>& order,
                                     SimulatedDisk* disk = nullptr,
                                     int threads = 1,
                                     const CancellationToken& cancel = {});

  // Out-of-core variant: reads the chunk data from `disk`'s backing file
  // (which must store this aggregator's cube) instead of the in-memory
  // chunk map. The traversal order, the workload-only partition plan, and
  // the ascending partial merge are the same as Compute's, and chunks are
  // accumulated strictly in traversal order — so the two streaming modes
  // below are bit-identical to each other at every io_threads setting:
  //   * pipelined=false: synchronous FetchChunk per visited chunk (the
  //     oracle — compute stalls on every virtual+real read);
  //   * pipelined=true:  chunks stream through a ChunkPipeline (prefetch,
  //     coalesced ranged reads, bounded pin table), one pin held at a time.
  // kFailedPrecondition without a backing file; read errors propagate —
  // except kResourceExhausted from the pipelined mode, which walks a
  // degradation ladder first: the stream is retried with the lookahead
  // window halved (repeatedly, down to 1), then falls back to the
  // synchronous per-chunk loop, and only a still-failing sync pass
  // surfaces the error. Each retry restarts accumulation from scratch, so
  // the delivered numbers are exactly the successful pass's (bit-identical
  // to an undegraded run). Rungs taken are reported through `on_degrade`
  // and the agg.outofcore.* counters.
  struct OutOfCoreOptions {
    bool pipelined = false;
    ChunkPipelineOptions pipeline;
    // Polled per streamed chunk; also threaded into the pipeline. On a
    // stop request ComputeOutOfCore returns kCancelled/kDeadlineExceeded
    // (cancellation is terminal: the ladder does not retry it).
    CancellationToken cancel;
    // Ladder-step callback ("lookahead_halved", "sync_io"); the engine
    // wires this to QueryContext::RecordDegradation. May be empty.
    std::function<void(const char*)> on_degrade;
  };
  Result<std::vector<GroupByResult>> ComputeOutOfCore(
      const std::vector<GroupByMask>& masks, const std::vector<int>& order,
      SimulatedDisk* disk, const OutOfCoreOptions& options);

  const AggStats& stats() const { return stats_; }

 private:
  const Cube& cube_;
  AggStats stats_;
};

// Accumulates every non-⊥ cell of `chunk` (chunk id `id` of `layout`) into
// each group-by of `out` in row-major offset order, maintaining one
// incrementally-updated output index per group-by (no per-cell coordinate
// vectors). Padded cells beyond the layout extents are always ⊥, so the
// null check alone keeps them out. Shared by ChunkAggregator and the
// batched derived-cell evaluator.
void AccumulateChunkIntoGroupBys(const ChunkLayout& layout, ChunkId id,
                                 const Chunk& chunk,
                                 std::vector<GroupByResult>* out);

// Single-view weighted variant for delta maintenance: accumulates
// `weight` * every non-⊥ cell of `chunk` into `view` (⊥-aware; a ⊥ output
// cell becomes the weighted value), through the same row-tiled kernels as
// AccumulateChunkIntoGroupBys. With w = -1 this is exact
// subtraction on integer-valued data (fma(-1, x, s) = s - x), which is how
// AggregateCache patches resident views after a chunk swap: subtract the
// old chunk, add the new one.
//
// `counts` (nullable): per-view-cell contribution counters, bumped by
// sign(weight) per non-⊥ input cell — the bookkeeping that lets the caller
// restore ⊥ when a cell's last contribution disappears. Pass
// update_values=false to maintain only the counters (the sidecar build
// pass of AggregateCache::EnableIncrementalMaintenance).
void AccumulateChunkIntoGroupByWeighted(const ChunkLayout& layout, ChunkId id,
                                        const Chunk& chunk, double weight,
                                        GroupByResult* view, int32_t* counts,
                                        bool update_values = true);

// Helper shared with the engine: makes one GroupByResult shell for `mask`
// over `cube`'s position extents.
GroupByResult MakeGroupByShell(const Cube& cube, GroupByMask mask);

}  // namespace olap

#endif  // OLAP_AGG_CHUNK_AGGREGATOR_H_
