// ShardedBackend: the upload stream partitioned into contiguous shards, each
// batch-verified independently (RLC + MSM) by the in-process executor, cut
// and dispatched by the streaming spine (src/shard/stream_dispatch.h), and
// merged by the deterministic combiner.
//
// Streaming Add keeps memory bounded: full shards leave for pool lanes as
// soon as they are cut, and Add blocks at the in-flight window. The one-shot
// path partitions the caller's vector in place into num_verify_shards shards
// with no copies; at one shard (batch_verify alone) that is a single
// whole-stream RLC batch with the whole pool inside it.
#ifndef SRC_VERIFY_SHARDED_BACKEND_H_
#define SRC_VERIFY_SHARDED_BACKEND_H_

#include <memory>
#include <utility>

#include "src/shard/stream_dispatch.h"
#include "src/verify/backend.h"

namespace vdp {

template <PrimeOrderGroup G>
class ShardedBackend final : public VerifyBackend<G> {
 public:
  ShardedBackend(const ProtocolConfig& config, Pedersen<G> ped)
      : VerifyBackend<G>(config, std::move(ped)) {}

  std::string_view name() const override { return "sharded"; }

 protected:
  std::unique_ptr<ShardExecutor<G>> MakeExecutor(const VerifyOptions& options,
                                                 size_t max_lanes) override {
    return std::make_unique<InProcessShardExecutor<G>>(this->config_, this->ped_,
                                                       options.pool, max_lanes);
  }

  size_t OneShotShardCount(size_t /*n*/) const override {
    return this->config_.num_verify_shards;
  }
};

}  // namespace vdp

#endif  // SRC_VERIFY_SHARDED_BACKEND_H_
