// VerifyBackend: the one seam through which client-upload verification
// (Line 3 of Figure 2) executes.
//
// The paper's public verifier is a single logical object; this interface
// keeps it that way in code. Every execution strategy -- per-proof,
// RLC-batched, in-process sharded, and a remote fleet over sockets --
// implements the same three-step lifecycle:
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
#ifndef SRC_VERIFY_BACKEND_H_
#define SRC_VERIFY_BACKEND_H_

#include <string_view>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/core/messages.h"
#include "src/obs/trace.h"
#include "src/verify/report.h"

namespace vdp {

// Per-stream knobs, fixed at Start().
struct VerifyOptions {
  // Compute the per-prover/per-bin products of accepted commitments (the
  // client half of Eq. 10). Skip when only decisions are needed.
  bool compute_products = true;
  // Thread pool for in-process parallelism; nullptr runs serially. Backends
  // with their own execution resources (a verify_server fleet) may ignore it.
  ThreadPool* pool = nullptr;
  // Streaming knobs for backends on the shard dispatcher
  // (src/shard/stream_dispatch.h): uploads per sealed shard, and the bound
  // on shards cut but not yet retired (Add blocks when it is reached). 0
  // defers to the ProtocolConfig's stream_* fields, which at 0 defer to the
  // dispatcher's defaults. Ignored by backends that buffer the whole stream.
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
  virtual ~VerifyBackend() = default;

  // Stable identifier ("per-proof", "batched", "sharded", "remote");
  // stamped into every report this backend produces.
  virtual std::string_view name() const = 0;

  // Begins a fresh verification stream, discarding any prior state. Must be
  // called before Add/Submit; a backend is reusable via a new Start after
  // Finish.
  virtual void Start(const VerifyOptions& options) = 0;

  // Ingests the next upload of the broadcast stream; global indices are
  // assigned in arrival order. Backends may verify eagerly (bounded-memory
  // streaming) or buffer until Finish.
  virtual void Add(ClientUploadMsg<G> upload) = 0;

  // Verifies everything ingested since Start and returns the combined
  // report. Resets the stream state.
  virtual VerifyReport<G> Finish() = 0;

  // Bulk ingestion that surrenders the buffer: equivalent to Add of each
  // element in arrival order, but backends may adopt the allocation outright
  // (no per-upload copies). The vector is left empty.
  virtual void AddBulk(std::vector<ClientUploadMsg<G>>&& uploads) {
    for (ClientUploadMsg<G>& upload : uploads) {
      Add(std::move(upload));
    }
    uploads.clear();
  }

  // Bulk ingestion; equivalent to Add for each element.
  void Submit(const std::vector<ClientUploadMsg<G>>& uploads) {
    for (const ClientUploadMsg<G>& upload : uploads) {
      Add(upload);
    }
  }

  // Rvalue fast path: moves the uploads into the stream instead of copying.
  void Submit(std::vector<ClientUploadMsg<G>>&& uploads) {
    AddBulk(std::move(uploads));
  }

  // Point-in-time pipeline state of the current stream. Streaming backends
  // report live shard/window occupancy; buffered backends report only what
  // has accumulated. Zeroes outside a stream.
  virtual VerifyProgress Progress() const { return VerifyProgress{}; }

  // One-shot convenience: Start + Submit + Finish. Backends with a zero-copy
  // bulk path override this; it must behave exactly like the streaming
  // lifecycle, including discarding any previously buffered stream (the
  // conformance suite asserts result identity).
  virtual VerifyReport<G> VerifyAll(const std::vector<ClientUploadMsg<G>>& uploads,
                                    const VerifyOptions& options = {}) {
    Start(options);
    Submit(uploads);
    return Finish();
  }
};

// Shared lifecycle for backends that buffer the whole stream and verify at
// Finish (batched -- and any future backend whose unit of work is the full
// stream). Derived classes
// implement one hook, Run(uploads), and get a consistent Start/Add/Finish
// plus a zero-copy VerifyAll for free: the one-shot path verifies the
// caller's vector directly, with Start clearing any stale buffered stream so
// one-shot and streaming can never interleave into a phantom report.
template <PrimeOrderGroup G>
class BufferedVerifyBackend : public VerifyBackend<G> {
 public:
  void Start(const VerifyOptions& options) override {
    options_ = options;
    buffer_.clear();
    ingest_ms_ = 0;
    first_add_us_ = 0;
    ingested_any_ = false;
  }

  void Add(ClientUploadMsg<G> upload) override {
    if (!ingested_any_ && options_.tracer != nullptr) {
      first_add_us_ = options_.tracer->NowUs();
    }
    ingested_any_ = true;
    Stopwatch timer;
    buffer_.push_back(std::move(upload));
    ingest_ms_ += timer.ElapsedMillis();
  }

  void AddBulk(std::vector<ClientUploadMsg<G>>&& uploads) override {
    if (uploads.empty()) {
      return;
    }
    if (!ingested_any_ && options_.tracer != nullptr) {
      first_add_us_ = options_.tracer->NowUs();
    }
    ingested_any_ = true;
    Stopwatch timer;
    if (buffer_.empty()) {
      buffer_ = std::move(uploads);  // adopt the caller's allocation outright
    } else {
      buffer_.insert(buffer_.end(), std::make_move_iterator(uploads.begin()),
                     std::make_move_iterator(uploads.end()));
    }
    uploads.clear();
    ingest_ms_ += timer.ElapsedMillis();
  }

  VerifyProgress Progress() const override {
    VerifyProgress progress;
    progress.uploads_ingested = buffer_.size();
    progress.buffered_uploads = buffer_.size();
    return progress;
  }

  VerifyReport<G> Finish() override {
    RecordIngestSpan();
    Stopwatch timer;
    VerifyReport<G> report = Run(buffer_);
    buffer_.clear();
    report.timings.ingest_ms = ingest_ms_;
    report.timings.total_ms = ingest_ms_ + timer.ElapsedMillis();
    ingest_ms_ = 0;
    ingested_any_ = false;
    return report;
  }

  VerifyReport<G> VerifyAll(const std::vector<ClientUploadMsg<G>>& uploads,
                            const VerifyOptions& options = {}) override {
    Start(options);
    Stopwatch timer;
    // Zero-copy: the caller's vector is the stream (no ingest stage paid).
    VerifyReport<G> report = Run(uploads);
    report.timings.total_ms = timer.ElapsedMillis();
    return report;
  }

 protected:
  // Verifies one whole stream under options(). Must not touch the buffer.
  virtual VerifyReport<G> Run(const std::vector<ClientUploadMsg<G>>& uploads) = 0;

  const VerifyOptions& options() const { return options_; }

 private:
  // The ingest stage as one span: anchored at the first Add, lasting the
  // accumulated in-backend buffering time (caller time between Adds is the
  // caller's, not this backend's).
  void RecordIngestSpan() {
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
    span.duration_us = static_cast<uint64_t>(ingest_ms_ * 1000.0);
    options_.tracer->Record(std::move(span));
  }

  VerifyOptions options_;
  std::vector<ClientUploadMsg<G>> buffer_;
  double ingest_ms_ = 0;
  uint64_t first_add_us_ = 0;
  bool ingested_any_ = false;
};

}  // namespace vdp

#endif  // SRC_VERIFY_BACKEND_H_
