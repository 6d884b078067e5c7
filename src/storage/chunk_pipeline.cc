#include "storage/chunk_pipeline.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace olap {

namespace {

struct PipelineMetrics {
  Counter* prefetch_issued;
  Counter* prefetch_hits;
  Counter* prefetch_misses;
  Counter* coalesced_reads;
  Gauge* pinned_chunks;
  Histogram* stall_seconds;

  static const PipelineMetrics& Get() {
    static PipelineMetrics m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      return PipelineMetrics{reg.counter("pipeline.prefetch.issued"),
                             reg.counter("pipeline.prefetch.hits"),
                             reg.counter("pipeline.prefetch.misses"),
                             reg.counter("pipeline.coalesced_reads"),
                             reg.gauge("pipeline.pinned_chunks"),
                             reg.histogram("pipeline.stall_seconds")};
    }();
    return m;
  }
};

int64_t ResolvePinBudget(const ChunkPipelineOptions& options) {
  if (options.pin_budget > 0) return options.pin_budget;
  return std::max<int64_t>(1, options.lookahead);
}

// The window's unissued schedule entries: (chunk id, schedule position)
// pairs in schedule order (an id can appear more than once — a revisit).
// A window never exceeds the lookahead, so linear scans beat a hash map —
// this runs on the consumer thread per delivery and must stay cheap for
// the stall + compute ≈ wall accounting to hold.
using Window = std::vector<std::pair<ChunkId, int64_t>>;

bool WindowHas(const Window& window, ChunkId id) {
  for (const auto& entry : window) {
    if (entry.first == id) return true;
  }
  return false;
}

int64_t SlotsIn(const Window& window, ChunkId lo, ChunkId hi) {
  int64_t n = 0;
  for (const auto& entry : window) {
    if (entry.first >= lo && entry.first <= hi) ++n;
  }
  return n;
}

// Picks the run of adjacent ids to fetch next: the maximal consecutive-id
// interval of `window` around `anchor`, trimmed (keeping the anchor) until
// the number of schedule slots it fills fits `max_slots`. With coalescing
// off the run is just the anchor id.
std::pair<ChunkId, ChunkId> FormRun(const Window& window, ChunkId anchor,
                                    int64_t max_slots, bool coalesce) {
  ChunkId lo = anchor;
  ChunkId hi = anchor;
  if (coalesce) {
    while (WindowHas(window, lo - 1)) --lo;
    while (WindowHas(window, hi + 1)) ++hi;
  }
  while (SlotsIn(window, lo, hi) > max_slots && hi > anchor) --hi;
  while (SlotsIn(window, lo, hi) > max_slots && lo < anchor) ++lo;
  return {lo, hi};
}

}  // namespace

ChunkPipeline::Pin& ChunkPipeline::Pin::operator=(Pin&& other) noexcept {
  if (this != &other) {
    Release();
    pipeline_ = other.pipeline_;
    id_ = other.id_;
    chunk_ = std::move(other.chunk_);
    other.pipeline_ = nullptr;
  }
  return *this;
}

void ChunkPipeline::Pin::Release() {
  if (pipeline_ == nullptr) return;
  ChunkPipeline* p = pipeline_;
  pipeline_ = nullptr;
  p->ReleaseOne();
}

ChunkPipeline::ChunkPipeline(SimulatedDisk* disk, std::vector<ChunkId> schedule,
                             const ChunkPipelineOptions& options)
    : disk_(disk),
      schedule_(std::move(schedule)),
      cancel_(options.cancel),
      lookahead_(std::max(1, options.lookahead)),
      pin_budget_(ResolvePinBudget(options)),
      io_threads_(std::max(1, options.io_threads)),
      coalesce_(options.coalesce),
      slots_(schedule_.size()) {
  std::lock_guard<std::mutex> lock(mu_);
  MaybeIssueLocked();
}

ChunkPipeline::~ChunkPipeline() {
  std::unique_lock<std::mutex> lock(mu_);
  cancelled_ = true;
  cv_.wait(lock, [this] { return in_flight_batches_ == 0; });
  // Chunks still resident (never delivered, or failed) give their budget
  // back to the process-wide gauge; delivered Pins must already be
  // released (they may not outlive the pipeline).
  if (pinned_ > 0) PipelineMetrics::Get().pinned_chunks->Add(-pinned_);
}

bool ChunkPipeline::Done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_deliver_ >= static_cast<int64_t>(schedule_.size());
}

ChunkPipelineStats ChunkPipeline::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ChunkPipeline::ReleaseOne() {
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  std::lock_guard<std::mutex> lock(mu_);
  --pinned_;
  metrics.pinned_chunks->Add(-1);
  if (!cancelled_) MaybeIssueLocked();
  cv_.notify_all();
}

// Issues fetch batches until the lookahead window, the pin budget, or the
// io_threads cap stops us. Called with mu_ held, and only from the
// consumer's thread (constructor, Next, Pin release) — never from a pool
// worker — so ReadRun charges land in schedule order on one thread and
// never race on the head position. The runs formed (and hence the seek
// total) can still depend on fetch timing at io_threads > 1; callers that
// need reproducible virtual seconds use ChargeSchedule.
void ChunkPipeline::MaybeIssueLocked() {
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  // A tripped token stops new I/O at the source; slots already in flight
  // finish or abandon on their own worker.
  if (cancel_.ShouldStop()) return;
  const int64_t n = static_cast<int64_t>(schedule_.size());
  // Head-of-line rescue: a tight budget can fill entirely with prefetched
  // chunks scheduled AFTER a still-unissued head (run formation follows id
  // adjacency, not schedule position). Evict the farthest-ahead ready,
  // undelivered slot — it re-fetches later — so the head can always issue
  // while the consumer holds fewer than pin_budget live Pins. Ready slots
  // only exist inside the current lookahead window (issuance is
  // window-bounded and next_deliver_ never moves back), so the scan is
  // O(lookahead).
  while (pinned_ >= pin_budget_ && in_flight_batches_ == 0 &&
         next_deliver_ < n &&
         slots_[next_deliver_].state == SlotState::kPending) {
    int64_t victim = -1;
    const int64_t window_end = std::min(n, next_deliver_ + lookahead_);
    for (int64_t i = window_end - 1; i > next_deliver_; --i) {
      if (slots_[i].state == SlotState::kReady) {
        victim = i;
        break;
      }
    }
    if (victim < 0) break;  // Budget genuinely held by live Pins.
    slots_[victim].state = SlotState::kPending;
    slots_[victim].chunk = Chunk();
    --pinned_;
    ++stats_.pins_evicted;
    metrics.pinned_chunks->Add(-1);
  }
  while (in_flight_batches_ < io_threads_ && pinned_ < pin_budget_) {
    const int64_t window_end = std::min(n, next_deliver_ + lookahead_);
    // First unissued slot in the window anchors the next batch.
    int64_t anchor_slot = -1;
    window_scratch_.clear();
    for (int64_t i = next_deliver_; i < window_end; ++i) {
      if (slots_[i].state != SlotState::kPending) continue;
      if (anchor_slot < 0) anchor_slot = i;
      window_scratch_.emplace_back(schedule_[i], i);
    }
    if (anchor_slot < 0) return;  // Window fully issued.
    const ChunkId anchor = schedule_[anchor_slot];
    auto [lo, hi] =
        FormRun(window_scratch_, anchor, pin_budget_ - pinned_, coalesce_);
    // Defer short prefetch-ahead runs while other batches are in flight:
    // as deliveries advance the window, more adjacent ids join the run and
    // it issues as one longer ranged read. The schedule head itself
    // (anchor_slot == next_deliver_) always issues — progress never waits
    // on coalescing.
    if (coalesce_ && anchor_slot != next_deliver_ && in_flight_batches_ > 0 &&
        (hi - lo + 1) * 2 < lookahead_) {
      return;
    }

    Batch batch;
    batch.begin = lo;
    batch.count = static_cast<int>(hi - lo + 1);
    batch.slots.resize(batch.count);
    int64_t filled = 0;
    for (const auto& [id, slot] : window_scratch_) {
      if (id < lo || id > hi) continue;
      // A revisited id may exceed the trimmed budget; leave the extra
      // occurrences pending for a later batch.
      if (filled >= pin_budget_ - pinned_) break;
      batch.slots[id - lo].push_back(slot);
      slots_[slot].state = SlotState::kInFlight;
      ++filled;
    }
    if (filled == 0) return;  // Budget exhausted mid-formation.

    // Charge the cost model now, in issue order, on this thread.
    disk_->ReadRun(batch.begin, batch.count);

    pinned_ += filled;
    stats_.peak_pinned = std::max(stats_.peak_pinned, pinned_);
    stats_.prefetch_issued += filled;
    ++stats_.read_batches;
    if (batch.count > 1) ++stats_.coalesced_reads;
    metrics.prefetch_issued->Increment(filled);
    metrics.pinned_chunks->Add(filled);
    if (batch.count > 1) metrics.coalesced_reads->Increment();

    ++in_flight_batches_;
    // std::function needs a copyable target; hand the batch over through a
    // shared_ptr.
    auto shared = std::make_shared<Batch>(std::move(batch));
    ThreadPool::Shared().Schedule(
        [this, shared] { RunBatch(std::move(*shared)); });
  }
}

// Pool-worker half of a fetch batch: one ranged CRC-verified read plus
// decode, then slot fill. No cost-model charging here (done at issue).
void ChunkPipeline::RunBatch(Batch batch) {
  Result<std::vector<Chunk>> data = Status::Internal("fetch batch never ran");
  {
    // The span must close before the batch is published as finished: the
    // destructor's drain (and a subsequent trace harvest) may run the
    // instant in_flight_batches_ hits zero.
    TraceSpan span("pipeline.fetch_batch");
    span.SetDetail("begin=" + std::to_string(batch.begin) +
                   " count=" + std::to_string(batch.count));
    // Abandon cleanly when the query stopped while this batch sat on the
    // pool queue: skip the read, fail the slots with the stop status, and
    // fall through to the normal publication path (in_flight accounting,
    // cv wakeup) so the consumer and destructor see a consistent table.
    const Status stop = cancel_.Poll("pipeline fetch");
    if (stop.ok()) {
      data = disk_->ReadBackingRun(batch.begin, batch.count);
    } else {
      data = stop;
    }
    if (!data.ok()) span.SetError(data.status());
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int j = 0; j < batch.count; ++j) {
      for (size_t k = 0; k < batch.slots[j].size(); ++k) {
        Slot& slot = slots_[batch.slots[j][k]];
        if (data.ok()) {
          // Copy for all but the last consumer of this id's payload.
          slot.chunk = (k + 1 < batch.slots[j].size()) ? (*data)[j]
                                                       : std::move((*data)[j]);
          slot.state = SlotState::kReady;
        } else {
          slot.status = data.status();
          slot.state = SlotState::kFailed;
        }
      }
    }
    --in_flight_batches_;
    // Notify under the lock: once in_flight_batches_ hits zero the
    // destructor may return and destroy cv_ as soon as it can take mu_.
    cv_.notify_all();
  }
}

Result<ChunkPipeline::Pin> ChunkPipeline::Next() {
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  std::unique_lock<std::mutex> lock(mu_);
  const int64_t n = static_cast<int64_t>(schedule_.size());
  if (next_deliver_ >= n) {
    return Status::OutOfRange("chunk pipeline schedule drained");
  }
  {
    Status stop = cancel_.Poll("pipeline");
    if (!stop.ok()) {
      next_deliver_ = n;  // Close: a cancelled schedule never resumes.
      cv_.notify_all();
      return stop;
    }
  }
  MaybeIssueLocked();
  bool stalled = false;
  std::chrono::steady_clock::time_point wait_start;
  while (slots_[next_deliver_].state == SlotState::kPending ||
         slots_[next_deliver_].state == SlotState::kInFlight) {
    if (slots_[next_deliver_].state == SlotState::kPending &&
        in_flight_batches_ == 0) {
      Status stop = cancel_.Poll("pipeline");
      if (!stop.ok()) {  // Cancellation closed the issue path, not pins.
        next_deliver_ = n;
        cv_.notify_all();
        return stop;
      }
      // Nothing in flight and the head of the schedule cannot be issued:
      // every budget slot is held by a live Pin. Waiting would deadlock a
      // single-threaded consumer, so surface the exhaustion instead.
      return Status::ResourceExhausted(
          "chunk pin budget (" + std::to_string(pin_budget_) +
          ") exhausted by held pins before schedule entry " +
          std::to_string(next_deliver_));
    }
    if (!stalled) {
      stalled = true;
      wait_start = std::chrono::steady_clock::now();
    }
    // A sliced wait keeps cancellation latency bounded (~2ms) even when
    // the signal arrives with no fetch completion to ring cv_.
    cv_.wait_for(lock, std::chrono::milliseconds(2));
    Status stop = cancel_.Poll("pipeline");
    if (!stop.ok()) {
      next_deliver_ = n;
      cv_.notify_all();
      return stop;
    }
    MaybeIssueLocked();
  }
  if (stalled) {
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wait_start)
            .count();
    stats_.stall_seconds += waited;
    ++stats_.stall_waits;
    metrics.prefetch_misses->Increment();
    metrics.stall_seconds->RecordSeconds(waited);
  } else {
    ++stats_.ready_hits;
    metrics.prefetch_hits->Increment();
  }
  Slot& slot = slots_[next_deliver_];
  if (slot.state == SlotState::kFailed) {
    Status failed = slot.status;
    next_deliver_ = n;  // Close the pipeline: the schedule order is broken.
    cv_.notify_all();
    return failed;
  }
  Pin pin;
  pin.pipeline_ = this;
  pin.id_ = schedule_[next_deliver_];
  pin.chunk_ = std::move(slot.chunk);
  slot.state = SlotState::kDelivered;
  ++next_deliver_;
  ++stats_.chunks_delivered;
  MaybeIssueLocked();
  return pin;
}

double ChunkPipeline::ChargeSchedule(SimulatedDisk* disk,
                                     const std::vector<ChunkId>& schedule,
                                     const ChunkPipelineOptions& options) {
  const int lookahead = std::max(1, options.lookahead);
  const int64_t budget = ResolvePinBudget(options);
  const int64_t n = static_cast<int64_t>(schedule.size());
  std::vector<char> done(schedule.size(), 0);
  double total = 0.0;
  int64_t head = 0;
  while (head < n) {
    if (done[head]) {
      ++head;
      continue;
    }
    const int64_t window_end = std::min(n, head + lookahead);
    Window window;
    for (int64_t i = head; i < window_end; ++i) {
      if (!done[i]) window.emplace_back(schedule[i], i);
    }
    auto [lo, hi] =
        FormRun(window, schedule[head], budget, options.coalesce);
    int64_t charged_slots = 0;
    for (const auto& [id, slot] : window) {
      if (id < lo || id > hi) continue;
      if (charged_slots >= budget) break;
      done[slot] = 1;
      ++charged_slots;
    }
    total += disk->ReadRun(lo, static_cast<int>(hi - lo + 1));
  }
  return total;
}

}  // namespace olap
