// outofcore_scan: the Fig. 12 product cube, saved as an OLAPCUB2 file and
// read back through a SimulatedDisk whose LRU holds a small fraction of the
// file's chunks. Queries run with pipelined_io, the Execute path that
// streams chunks from the cube file, mixing the group x month rollup with
// the Fig. 12 probe query (DYNAMIC FORWARD over the product whose two
// instances sit far apart).

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "engine/executor.h"
#include "storage/cube_io.h"
#include "storage/simulated_disk.h"
#include "workload.h"
#include "workload/product.h"

namespace perfbench {
namespace {

// Products between the probe's two instances: 4,004 stored chunks, far
// more than the disk LRU holds.
constexpr int kSeparationChunks = 1000;
constexpr int64_t kDiskLruChunks = 256;

struct QueryClass {
  std::string name;
  std::string mdx;
};

// One cycle: rollup, probe, rollup, probe, rollup. Each probe follows a
// scan that has cycled the disk LRU, so it pays its seeks again. The probe
// is the cheap class, so the 50th and 90th percentile ranks both fall inside
// the rollup class (the 50th a tenth of the run above the class boundary).
std::vector<QueryClass> CycleClasses() {
  const QueryClass probe = {
      "fig12_probe_forward",
      "WITH PERSPECTIVE {(Jan), (Jul)} FOR Product DYNAMIC FORWARD "
      "SELECT {Time.Members} ON COLUMNS, {Product.[1001]} ON ROWS "
      "FROM Sales WHERE ([Sales])"};
  // The all-products row is a rollup over the whole product axis: the
  // batched evaluator materializes its month view by streaming every chunk
  // of the cube file through the pipeline. The group rows roll up per cell.
  const QueryClass rollup = {
      "group_month_rollup",
      "SELECT {Time.Members} ON COLUMNS, "
      "{Union({[Product]}, {Product.Children})} ON ROWS "
      "FROM Sales WHERE ([Sales])"};
  return {rollup, probe, rollup, probe, rollup};
}

// The Fig. 12 disk: seek cost grows with head travel and saturates at a
// full stroke.
olap::DiskModel Fig12DiskModel() {
  olap::DiskModel model;
  model.seek_seconds_per_chunk = 7.8e-7;
  model.max_seek_seconds = 20e-3;
  model.transfer_seconds = 5e-5;
  return model;
}

struct Fixture {
  olap::Database db;
  std::unique_ptr<olap::Executor> exec;
  std::unique_ptr<olap::SimulatedDisk> disk;
};

bool SetUp(uint64_t seed, const std::string& path, LayerBook* layers,
           std::unique_ptr<Fixture>* out) {
  auto fx = std::make_unique<Fixture>();
  olap::ProductCubeConfig config;
  config.separation_chunks = kSeparationChunks;
  config.chunk_products = 1;
  config.fill_data = true;
  config.seed = seed;
  olap::ProductCube product = olap::BuildProductCube(config);
  Clock::time_point t0 = Clock::now();
  olap::Status s = olap::SaveCube(product.cube, path);
  layers->AddSample("storage.save_ms", MsSince(t0));
  t0 = Clock::now();
  if (s.ok()) s = fx->db.Open("Sales", path);
  layers->AddSample("storage.open_ms", MsSince(t0));
  fx->disk = std::make_unique<olap::SimulatedDisk>(Fig12DiskModel(),
                                                   kDiskLruChunks);
  if (s.ok()) s = fx->disk->AttachBackingFile(nullptr, path);
  if (!s.ok()) {
    std::fprintf(stderr, "outofcore_scan set-up failed: %s\n",
                 s.ToString().c_str());
    return false;
  }
  fx->exec = std::make_unique<olap::Executor>(&fx->db);
  *out = std::move(fx);
  return true;
}

bool Scan(const RunConfig& config, const std::string& path, RunResult* out) {
  std::unique_ptr<Fixture> fx;
  for (int rep = 0; rep < kProductSetupReps; ++rep) {
    fx.reset();
    const Clock::time_point t0 = Clock::now();
    if (!SetUp(config.seed, path, &out->layers, &fx)) return false;
    out->setup_s.push_back(MsSince(t0) / 1e3);
  }
  const olap::Cube* cube = *fx->db.FindCube("Sales");
  out->cube_cells = cube->CountNonNullCells();
  out->cube_chunks = cube->NumStoredChunks();
  const olap::Result<int64_t> file_bytes = olap::FileSize(path);
  out->file_bytes = file_bytes.ok() ? *file_bytes : 0;
  out->disk_lru_chunks = kDiskLruChunks;

  // Reference answers: the same queries in memory, no disk attached.
  const std::vector<QueryClass> cycle = CycleClasses();
  AnswerBook answers;
  for (const QueryClass& q : cycle) {
    if (answers.Has(q.name)) continue;
    olap::QueryOptions reference;
    reference.eval_threads = config.eval_threads;
    olap::Result<olap::QueryResult> r = fx->exec->Execute(q.mdx, reference);
    if (!r.ok()) {
      std::fprintf(stderr, "reference %s failed: %s\n", q.name.c_str(),
                   r.status().ToString().c_str());
      return false;
    }
    answers.Expect(q.name, GridDigest(r->grid));
  }

  LayerBook& layers = out->layers;
  const Clock::time_point start = Clock::now();
  for (int64_t pass = 0;
       !LoopDone(start, config.seconds,
                 static_cast<int64_t>(out->query_ms.size()));
       ++pass) {
    const bool traced = config.trace && pass % 2 == 1;
    for (const QueryClass& q : cycle) {
      olap::QueryOptions options;
      options.eval_threads = config.eval_threads;
      options.disk = fx->disk.get();
      options.pipelined_io = true;
      options.collect_profile = traced;
      if (traced) SampleParseBind(fx->db, "Sales", q.mdx, &layers);
      const olap::IoStats before = fx->disk->stats();
      const Clock::time_point t0 = Clock::now();
      olap::Result<olap::QueryResult> r = fx->exec->Execute(q.mdx, options);
      const double ms = MsSince(t0);
      const olap::IoStats after = fx->disk->stats();
      const bool ok = r.ok() && answers.Matches(q.name, GridDigest(r->grid));
      if (!ok) {
        std::fprintf(stderr, "%s: %s\n", q.name.c_str(),
                     r.ok() ? "answer differs from in-memory execution"
                            : r.status().ToString().c_str());
      }
      out->ops.Record(ok);
      out->RecordQuery(q.name, ms, traced);
      out->io_virtual_s += after.virtual_seconds - before.virtual_seconds;
      if (!traced || !r.ok()) continue;
      layers.AddProfile(r->profile);
      layers.AddSample("whatif.chunk_reads",
                       static_cast<double>(r->whatif_stats.chunk_reads));
      layers.AddSample("whatif.peak_merge_chunks",
                       static_cast<double>(r->whatif_stats.peak_merge_chunks));
      layers.AddSample(
          "storage.physical_reads",
          static_cast<double>(after.physical_reads - before.physical_reads));
      layers.AddSample(
          "storage.coalesced_reads",
          static_cast<double>(after.coalesced_reads - before.coalesced_reads));
      layers.AddSample("storage.seek_chunks",
                       static_cast<double>(after.total_seek_chunks -
                                           before.total_seek_chunks));
      layers.AddSample("storage.disk_cache_hits",
                       static_cast<double>(after.cache_hits - before.cache_hits));
    }
  }
  out->loop_s = MsSince(start) / 1e3;
  return true;
}

}  // namespace

bool RunOutOfCoreScan(const RunConfig& config, RunResult* out) {
  // The cube file lives in a private directory that is removed on every
  // exit path of this function.
  const std::filesystem::path dir =
      std::filesystem::path(config.work_dir) /
      ("outofcore-" + std::to_string(::getpid()));
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return false;
  }
  const bool ok = Scan(config, (dir / "product.olapcub2").string(), out);
  std::filesystem::remove_all(dir, ec);
  return ok;
}

}  // namespace perfbench
