// BatchedBackend: the whole stream verified as ONE random-linear-combination
// check over a single multi-scalar multiplication (PR 1's src/batch/), with
// per-proof blame attribution only when the combined check fails.
//
// Implemented as VerifyShard (src/shard/shard_result.h) on a single
// whole-stream shard -- the same code the sharded pipeline runs per shard,
// so the batched and sharded decisions cannot drift apart.
#ifndef SRC_VERIFY_BATCHED_BACKEND_H_
#define SRC_VERIFY_BATCHED_BACKEND_H_

#include <string>
#include <utility>
#include <vector>

#include "src/common/timer.h"
#include "src/shard/shard_result.h"
#include "src/verify/backend.h"

namespace vdp {

template <PrimeOrderGroup G>
class BatchedBackend final : public BufferedVerifyBackend<G> {
 public:
  BatchedBackend(const ProtocolConfig& config, Pedersen<G> ped)
      : config_(config), ped_(std::move(ped)) {}

  std::string_view name() const override { return "batched"; }

 protected:
  VerifyReport<G> Run(const std::vector<ClientUploadMsg<G>>& uploads) override {
    const VerifyOptions& options = this->options();
    Stopwatch timer;
    obs::TraceSpan verify_span(options.tracer, kStageVerify, options.trace_parent);
    ShardResult<G> result = VerifyShard(config_, ped_, uploads.data(), uploads.size(),
                                        /*base=*/0, /*shard_index=*/0, options.pool,
                                        options.compute_products, options.tracer,
                                        verify_span.context());
    const double verify_ms = timer.ElapsedMillis();
    verify_span.End();
    std::vector<ShardResult<G>> results;
    results.push_back(std::move(result));
    obs::TraceSpan combine_span(options.tracer, kStageCombine, options.trace_parent);
    VerifyReport<G> report =
        CombineShardResults(config_, std::move(results), options.compute_products);
    combine_span.End();
    report.backend = name();
    report.timings.verify_ms = verify_ms;
    return report;
  }

 private:
  ProtocolConfig config_;
  Pedersen<G> ped_;
};

}  // namespace vdp

#endif  // SRC_VERIFY_BATCHED_BACKEND_H_
