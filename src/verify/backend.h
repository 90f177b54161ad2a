// VerifyBackend: the one seam through which client-upload verification
// (Line 3 of Figure 2) executes.
//
// The paper's public verifier is a single logical object; this class keeps
// it that way in code. Every execution strategy -- the per-proof oracle,
// the in-process shard pipeline, and a remote fleet over sockets -- runs the
// same three-step lifecycle:
//
//   backend->Start(options);          // begin a stream
//   backend->Add(upload);             // ingest uploads (or Submit(vector))
//   VerifyReport<G> r = backend->Finish();
//
// and produces the same structured VerifyReport (src/verify/report.h), with
// bit-identical accepted sets, rejection reasons, and commitment products.
// Callers (PublicVerifier, RunProtocol, AuditTranscript) never dispatch on
// ProtocolConfig flags themselves; MakeVerifyBackend (src/verify/factory.h)
// owns that policy.
//
// Uploads flow through the shard dispatcher (src/shard/stream_dispatch.h)
// as they are Added, so shards ship to the backend's executor -- pool
// threads or verify_server daemons -- while ingestion continues, and
// resident memory is bounded by the dispatcher's in-flight window instead
// of the stream length. A strategy provides only its executor
// (MakeExecutor) and its one-shot shard partition (OneShotShardCount); this
// class owns the lifecycle, the zero-copy one-shot VerifyAll, live Progress,
// and the canonical stage accounting:
//
//   total  = wall time inside Add + wall time inside Finish
//   ingest = Add wall minus the time Add spent blocked on the window
//            (backpressure is verify-side congestion, not buffering cost)
//   verify = backpressure wait + the Finish drain, minus combine
//   combine = the deterministic merge (set by CombineShardResults)
//
// so ingest + verify + combine == total and a saturated pipeline shows up as
// verify time, exactly where the bottleneck is.
#ifndef SRC_VERIFY_BACKEND_H_
#define SRC_VERIFY_BACKEND_H_

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/core/messages.h"
#include "src/obs/trace.h"
#include "src/shard/stream_dispatch.h"
#include "src/verify/report.h"

namespace vdp {

// Per-stream knobs, fixed at Start().
struct VerifyOptions {
  // Compute the per-prover/per-bin products of accepted commitments (the
  // client half of Eq. 10). Skip when only decisions are needed.
  bool compute_products = true;
  // Thread pool for in-process parallelism; nullptr runs serially. A
  // verify_server fleet verifies remotely and uses the pool only for shards
  // it recovers in process.
  ThreadPool* pool = nullptr;
  // Streaming knobs for the shard dispatcher (src/shard/stream_dispatch.h):
  // uploads per sealed shard, and the bound on shards cut but not yet
  // retired (Add blocks when it is reached). 0 defers to the
  // ProtocolConfig's stream_* fields, which at 0 defer to the dispatcher's
  // defaults. The one-shot VerifyAll ignores both.
  size_t stream_shard_capacity = 0;
  size_t stream_max_inflight_shards = 0;
  // When set, the stream records trace spans (ingest, verify, per-shard
  // dispatch, combine) into this collector, parented under trace_parent --
  // for the remote backend the span context also crosses the wire so
  // server spans stitch into the same tree. Null collector =
  // tracing off, zero overhead.
  obs::TraceCollector* tracer = nullptr;
  obs::TraceContext trace_parent{};
};

template <PrimeOrderGroup G>
class VerifyBackend {
 public:
  // The dispatcher's teardown reaches into the executor, and the in-process
  // executors into config_/ped_, so the stream goes down here, while both
  // are still alive.
  virtual ~VerifyBackend() { AbortStream(); }

  VerifyBackend(const VerifyBackend&) = delete;
  VerifyBackend& operator=(const VerifyBackend&) = delete;

  // Stable identifier ("per-proof", "sharded", "remote"); stamped into every
  // report this backend produces.
  virtual std::string_view name() const = 0;

  // Begins a fresh verification stream, discarding any prior state. A
  // backend is reusable via a new Start after Finish; Add or Finish without
  // Start opens a stream with the previous (initially default) options.
  void Start(const VerifyOptions& options) {
    options_ = options;
    AbortStream();
  }

  // Ingests the next upload of the broadcast stream; global indices are
  // assigned in arrival order. Blocks while the in-flight window is full.
  void Add(ClientUploadMsg<G> upload) {
    EnsureStream();
    TrackFirstAdd();
    Stopwatch timer;
    dispatcher_->Add(std::move(upload));
    add_wall_ms_ += timer.ElapsedMillis();
  }

  // Bulk ingestion that surrenders the buffer: equivalent to Add of each
  // element in arrival order, but the dispatcher may adopt the allocation
  // outright (no per-upload copies). The vector is left empty.
  void AddBulk(std::vector<ClientUploadMsg<G>>&& uploads) {
    if (uploads.empty()) {
      return;
    }
    EnsureStream();
    TrackFirstAdd();
    Stopwatch timer;
    dispatcher_->AddBulk(std::move(uploads));
    add_wall_ms_ += timer.ElapsedMillis();
  }

  // Bulk ingestion; equivalent to Add for each element.
  void Submit(const std::vector<ClientUploadMsg<G>>& uploads) {
    for (const ClientUploadMsg<G>& upload : uploads) {
      Add(upload);
    }
  }

  // Rvalue fast path: moves the uploads into the stream instead of copying.
  void Submit(std::vector<ClientUploadMsg<G>>&& uploads) { AddBulk(std::move(uploads)); }

  // Verifies everything ingested since Start and returns the combined
  // report. Resets the stream state.
  VerifyReport<G> Finish() {
    EnsureStream();  // Finish-without-Start yields an empty report
    // Producer time blocked on the window so far is verify-side congestion;
    // the remainder of the Add wall is the true ingest cost.
    const double wait_before_ms = dispatcher_->backpressure_wait_ms();
    const double ingest_ms = std::max(0.0, add_wall_ms_ - wait_before_ms);
    RecordIngestSpan(ingest_ms);
    Stopwatch timer;
    VerifyReport<G> report = dispatcher_->Finish();
    const double finish_wall_ms = timer.ElapsedMillis();
    // Sealing the last partial shard inside Finish can block on the window
    // too; that wait is already inside finish_wall_ms, so only the
    // pre-Finish wait is added on top of the drain.
    const double total_wait_ms = dispatcher_->last_backpressure_wait_ms();
    const double drain_wait_ms = std::max(0.0, total_wait_ms - wait_before_ms);
    report.backend = name();
    report.timings.ingest_ms = ingest_ms;
    report.timings.verify_ms = std::max(
        0.0, total_wait_ms + finish_wall_ms - drain_wait_ms - report.timings.combine_ms);
    report.timings.total_ms = add_wall_ms_ + finish_wall_ms;
    add_wall_ms_ = 0;
    first_add_us_ = 0;
    ingested_any_ = false;
    OnStreamFinished();
    return report;
  }

  // One-shot verification of the caller's vector: contiguous shards viewed
  // in place (zero-copy) through the same dispatcher machinery, in the
  // backend's fixed one-shot partition. Like Start, it discards any open
  // stream and fixes the options a later lazily-opened stream will reuse.
  VerifyReport<G> VerifyAll(const std::vector<ClientUploadMsg<G>>& uploads,
                            const VerifyOptions& options = {}) {
    options_ = options;
    AbortStream();
    Stopwatch timer;
    const size_t shards = ClampShardCount(OneShotShardCount(uploads.size()), uploads.size());
    executor_ = MakeExecutor(options_, /*max_lanes=*/shards);
    VerifyReport<G> report =
        DispatchAllShards<G>(config_, executor_.get(), uploads, shards,
                             options_.compute_products, options_.tracer, options_.trace_parent);
    report.backend = name();
    report.timings.total_ms = timer.ElapsedMillis();
    OnStreamFinished();
    return report;
  }

  // Point-in-time pipeline state of the current stream: live shard/window
  // occupancy. Zeroes outside a stream.
  VerifyProgress Progress() const {
    // The dispatcher is engaged lazily on the producer thread (EnsureStream),
    // but Progress is documented any-thread-safe, so observers must not peek
    // at the optional directly: has_value() and the dispatcher's constructor
    // writes are unsynchronized with a concurrent emplace. Reading through
    // the release-published pointer gives the needed happens-before (pinned
    // by fleet_stress_test's RemoteBackendProgressWhileStreaming, which
    // fails under TSan on the optional-based read).
    const StreamDispatcher<G>* live = live_dispatcher_.load(std::memory_order_acquire);
    return live != nullptr ? live->Progress() : VerifyProgress{};
  }

 protected:
  VerifyBackend(const ProtocolConfig& config, Pedersen<G> ped)
      : config_(config), ped_(std::move(ped)) {}

  // The execution engine shards are handed to. Called once per stream and
  // once per one-shot VerifyAll; this class owns the result and keeps it
  // alive until the next stream starts. max_lanes is the one-shot shard
  // count (unbounded for a stream): in-process executors run
  // min(pool workers, max_lanes) lanes (InProcessLanes).
  virtual std::unique_ptr<ShardExecutor<G>> MakeExecutor(const VerifyOptions& options,
                                                         size_t max_lanes) = 0;

  // The one-shot partition for n uploads, before clamping to [1, max(1,n)].
  // Fixed per backend so one-shot shard coordinates -- and reports -- are
  // stable.
  virtual size_t OneShotShardCount(size_t n) const = 0;

  // Runs after every Finish/VerifyAll; fleet backends harvest their
  // executor's health report here.
  virtual void OnStreamFinished() {}

  // Discards any open stream (queued shards dropped, lanes joined) and the
  // executor.
  void AbortStream() {
    if (dispatcher_.has_value()) {
      // Unpublish before teardown so a stale observer sees "no stream"
      // rather than a dispatcher mid-destruction. (Teardown itself still
      // requires observers to have quiesced, same as destruction.)
      live_dispatcher_.store(nullptr, std::memory_order_release);
      dispatcher_->Abort();
      dispatcher_.reset();
    }
    executor_.reset();
    add_wall_ms_ = 0;
    first_add_us_ = 0;
    ingested_any_ = false;
  }

  ProtocolConfig config_;
  Pedersen<G> ped_;

 private:
  void EnsureStream() {
    if (dispatcher_.has_value()) {
      return;
    }
    executor_ = MakeExecutor(options_, std::numeric_limits<size_t>::max());
    StreamDispatchOptions dispatch_options;
    dispatch_options.shard_capacity = options_.stream_shard_capacity > 0
                                          ? options_.stream_shard_capacity
                                          : config_.stream_shard_capacity;
    dispatch_options.max_inflight_shards = options_.stream_max_inflight_shards > 0
                                               ? options_.stream_max_inflight_shards
                                               : config_.stream_max_inflight_shards;
    dispatch_options.compute_products = options_.compute_products;
    dispatch_options.tracer = options_.tracer;
    dispatch_options.trace_parent = options_.trace_parent;
    dispatcher_.emplace(config_, executor_.get(), dispatch_options);
    // Publish only after the dispatcher is fully constructed; Progress()
    // acquires through this pointer instead of touching the optional.
    live_dispatcher_.store(&*dispatcher_, std::memory_order_release);
  }

  void TrackFirstAdd() {
    if (!ingested_any_ && options_.tracer != nullptr) {
      first_add_us_ = options_.tracer->NowUs();
    }
    ingested_any_ = true;
  }

  // The ingest stage as one span: anchored at the first Add, lasting the
  // backpressure-corrected buffering time.
  void RecordIngestSpan(double ingest_ms) {
    if (options_.tracer == nullptr || !ingested_any_) {
      return;
    }
    obs::SpanRecord span;
    span.name = kStageIngest;
    span.trace_id = options_.trace_parent.trace_id != 0 ? options_.trace_parent.trace_id
                                                        : options_.tracer->trace_id();
    span.span_id = obs::NextSpanId();
    span.parent_span_id = options_.trace_parent.span_id;
    span.start_us = first_add_us_;
    span.duration_us = static_cast<uint64_t>(ingest_ms * 1000.0);
    options_.tracer->Record(std::move(span));
  }

  VerifyOptions options_;
  // Declaration order is load-bearing: the dispatcher must be destroyed (and
  // its lanes joined) before the executor it points into. AbortStream()
  // enforces the same order for every teardown.
  std::unique_ptr<ShardExecutor<G>> executor_;
  std::optional<StreamDispatcher<G>> dispatcher_;
  // Cross-thread view of dispatcher_: set (release) after emplace, cleared
  // before reset, loaded (acquire) by Progress(). Observers only ever reach
  // the dispatcher through this pointer.
  std::atomic<StreamDispatcher<G>*> live_dispatcher_{nullptr};
  double add_wall_ms_ = 0;
  uint64_t first_add_us_ = 0;
  bool ingested_any_ = false;
};

}  // namespace vdp

#endif  // SRC_VERIFY_BACKEND_H_
