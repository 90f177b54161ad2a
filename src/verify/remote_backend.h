// RemoteBackend: shards farmed out to verify_server daemons over
// authenticated sockets (src/net/remote_fleet.h), with blamed retries,
// reconnects, and in-process recovery, so the verdict never depends on
// fleet health -- the one out-of-process execution strategy, whose
// verifiers may live on other machines or in local subprocesses.
//
// The fleet comes from ProtocolConfig::remote_verifiers (validated
// endpoints) and authenticates with ProtocolConfig::remote_auth_key_hex.
// When remote_verifiers is empty and verify_workers > 1, the backend spawns
// a private loopback fleet of verify_workers servers (net::LoopbackFleet,
// fresh random secret) that lives and dies with it; a server that fails to
// start only shrinks the fleet, and a fleet that cannot start at all
// degrades to in-process verification of every shard.
// Streaming Add cuts shards through the dispatcher and ships them to the
// fleet while ingestion continues -- shards only leave the process as whole
// authenticated wire frames, and at most the in-flight window of them is
// resident at once.
#ifndef SRC_VERIFY_REMOTE_BACKEND_H_
#define SRC_VERIFY_REMOTE_BACKEND_H_

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/net/remote_fleet.h"
#include "src/net/server_process.h"
#include "src/verify/backend.h"

namespace vdp {

template <PrimeOrderGroup G>
class RemoteBackend final : public VerifyBackend<G> {
 public:
  RemoteBackend(const ProtocolConfig& config, Pedersen<G> ped,
                RemoteFleetOptions options = {})
      : VerifyBackend<G>(config, std::move(ped)), fleet_options_(std::move(options)) {
    if (this->config_.remote_verifiers.empty() && this->config_.verify_workers > 1) {
      loopback_ = std::make_unique<net::LoopbackFleet>(this->config_.verify_workers);
      loopback_->ApplyTo(&this->config_);
    }
  }

  // An open stream's lanes may still be talking to the loopback servers:
  // tear it down before they go.
  ~RemoteBackend() override { this->AbortStream(); }

  std::string_view name() const override { return "remote"; }

  // Fleet health of the most recent stream: blamed failures, shards served
  // remotely vs recovered in process, connections and reconnects.
  const RemoteFleetReport& last_fleet_report() const { return last_fleet_report_; }

 protected:
  // The pool goes to the fleet's in-process fallback: shards it recovers
  // run on the caller's pool rather than serially on their lane.
  std::unique_ptr<ShardExecutor<G>> MakeExecutor(const VerifyOptions& options,
                                                 size_t /*max_lanes*/) override {
    auto fleet = std::make_unique<RemoteVerifierFleet<G>>(this->config_, this->ped_,
                                                          fleet_options_, options.pool);
    fleet_ = fleet.get();
    return fleet;
  }

  // num_verify_shards when set, else two shards per endpoint so a straggler
  // can be overlapped.
  size_t OneShotShardCount(size_t /*n*/) const override {
    return this->config_.num_verify_shards > 1
               ? this->config_.num_verify_shards
               : 2 * std::max<size_t>(1, this->config_.remote_verifiers.size());
  }

  void OnStreamFinished() override {
    if (fleet_ != nullptr) {
      last_fleet_report_ = fleet_->TakeReport();
    }
  }

 private:
  std::unique_ptr<net::LoopbackFleet> loopback_;  // the verify_workers fleet, if any
  RemoteFleetOptions fleet_options_;
  RemoteVerifierFleet<G>* fleet_ = nullptr;  // owned by the base as the executor
  RemoteFleetReport last_fleet_report_;
};

}  // namespace vdp

#endif  // SRC_VERIFY_REMOTE_BACKEND_H_
