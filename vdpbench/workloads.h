// The three workloads of the repo benchmark (driven by vdpbench/bench.cc).
//
// Every workload uses modp-256 (the group of the committed
// bench_backend_matrix baseline), Pedersen Morra and batch_verify = true, and
// reaches the library only through its public entry points: RunProtocol,
// ClientUploadMsg<G>::Deserialize, the VerifyBackend lifecycle and the
// verify_server daemon. Inputs are generated from the seed before any timing
// as a pool of distinct batches (so a cache spanning batches cannot fake a
// gain), together with the expected outcome of every batch (the oracle).
//
// Why each workload exists:
//
//   release        The publish phase of Pi_Bin, end to end: client
//                  validation, Sigma-prove, Sigma-verify, Morra, aggregation
//                  and the Eq. 10 check. The coin side dominates here, as in
//                  the paper's Table 1 (a probe of this code on a 4-vCPU host
//                  split one release as Morra ~31%, Sigma-prove ~22%,
//                  Sigma-verify ~22%, check ~16%, validation ~6%,
//                  aggregation ~2%). No bytes are decoded, so the wire and
//                  decode layers do no work: a decode change must leave it
//                  unchanged.
//   ingest         Clean uploads arriving as bytes: decode with the e^q
//                  subgroup check on the producer thread, stream into the
//                  sharded backend, Finish. Decode is ~90% of the work and
//                  sits on the critical path; there is no coin side, no
//                  blame fallback and no transport. It is the workload a
//                  decode or dispatcher change should move.
//   hostile-fleet  The same traffic with adversarial content fixed by the
//                  seed (1 in 128 uploads carries a tampered OR proof, 1 in
//                  512 is truncated bytes), verified by a loopback fleet of
//                  verify_server processes through the remote backend. Every
//                  shard fails the RLC batch check and pays the per-proof
//                  blame fallback, and every shard crosses the wire, the MAC
//                  and a second decode on the server. All adversity is in the
//                  data: no --fault modes, whose cost is a configured timeout
//                  or backoff sleep rather than work done by the program.
#ifndef VDPBENCH_WORKLOADS_H_
#define VDPBENCH_WORKLOADS_H_

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/hex.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/core/audit.h"
#include "src/core/protocol.h"
#include "src/net/server_process.h"
#include "src/obs/trace.h"
#include "src/verify/factory.h"

namespace vdpbench {

using G = vdp::ModP256;
using Upload = vdp::ClientUploadMsg<G>;

// Per-operation layer figures of a traced operation, by per-layer metric name.
using Layers = std::map<std::string, double>;

// Input sizes. `full` is what the benchmark measures; `tiny` only exists so
// the benchmark's own tests can run every code path in a few seconds.
struct Sizes {
  size_t release_clients = 256;
  double release_epsilon = 1.0;  // with delta = 2^-10: nb = 763 coins per bin
  size_t release_sets = 4;       // distinct client sets, used round-robin
  // 512 uploads in shards of 128: four shards per batch, one per pool lane
  // plus the producer's next fill, two per server -- and small enough that a
  // 30-s run holds well over 100 batches.
  size_t batch_uploads = 512;
  size_t shard_capacity = 128;   // == the Submit chunk, so Submit adopts it
  size_t batches = 8;            // distinct upload batches, used round-robin
  size_t tamper_block = 128;     // hostile-fleet: one tampered proof per block
  size_t truncate_block = 512;   // hostile-fleet: one truncated upload per block

  static Sizes Tiny() {
    Sizes s;
    s.release_clients = 16;
    s.release_epsilon = 8.0;
    s.release_sets = 2;
    s.batch_uploads = 64;
    s.shard_capacity = 16;
    s.batches = 2;
    s.tamper_block = 16;
    s.truncate_block = 32;
    return s;
  }
};

struct OpOutcome {
  double wall_ms = 0;
  bool correct = false;
  size_t uploads = 0;
};

// Adds the wall time of a scope to an accumulator and records it as a span
// when a collector is given (benchmark-side spans around public calls).
class Timed {
 public:
  Timed(double* acc_ms, vdp::obs::TraceCollector* tracer, const char* name,
        vdp::obs::TraceContext parent)
      : acc_ms_(acc_ms), span_(tracer, name, parent, "vdpbench") {}
  ~Timed() { *acc_ms_ += watch_.ElapsedMillis(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  double* acc_ms_;
  vdp::obs::TraceSpan span_;
  vdp::Stopwatch watch_;  // declared last: starts after the span opens
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* backend_name() const = 0;
  // The thread budget: pool workers, a producer thread that works while the
  // pool does, and verify_server processes.
  virtual size_t pool_threads() const = 0;
  virtual size_t producer_threads() const = 0;
  virtual size_t servers() const { return 0; }
  virtual size_t uploads_per_op() const = 0;
  virtual size_t shards_per_op() const = 0;

  // Untimed: the input pool and its oracle.
  virtual void Generate(uint64_t seed, bool flip_oracle) = 0;
  // Timed as setup_s: builds the system the operations run on.
  virtual bool Setup() = 0;
  // The untimed warm-up operation plus any once-per-run checks; false when
  // they fail.
  virtual bool Warmup() = 0;
  // One timed operation. With a collector, the operation is traced and its
  // workload-specific layer figures are added to *layers.
  virtual OpOutcome Run(size_t op, vdp::obs::TraceCollector* tracer,
                        vdp::obs::TraceContext parent, Layers* layers) = 0;
  // Traced runs only, after the timed loop: figures measured outside any
  // operation. False when what it measured was wrong.
  virtual bool MeasureOutsideOps(Layers* /*layers*/) { return true; }
};

inline std::string SeedLabel(const char* workload, uint64_t seed) {
  return std::string("vdpbench/") + workload + "/seed/" + std::to_string(seed);
}

// ---------------------------------------------------------------------------
// release

// Morra party of the prover, timed around its two phases.
class TimedMorraParty final : public vdp::MorraParty<G> {
  using Base = vdp::MorraParty<G>;

 public:
  TimedMorraParty(vdp::SecureRng rng, double* ms, vdp::obs::TraceCollector* tracer,
                  vdp::obs::TraceContext parent)
      : Base(std::move(rng)), ms_(ms), tracer_(tracer), parent_(parent) {}

  std::vector<G::Element> CommitPhase(size_t num_coins, const vdp::Pedersen<G>& ped) override {
    Timed timed(ms_, tracer_, "morra.prover_commit", parent_);
    return Base::CommitPhase(num_coins, ped);
  }
  std::vector<Base::Opening> RevealPhase() override {
    Timed timed(ms_, tracer_, "morra.prover_reveal", parent_);
    return Base::RevealPhase();
  }

 private:
  double* ms_;
  vdp::obs::TraceCollector* tracer_;
  vdp::obs::TraceContext parent_;
};

// What the timed prover measured over one release (summed over provers).
struct ProverClock {
  double sigma_prove_ms = 0;
  double aggregate_ms = 0;
  double morra_party_ms = 0;
  vdp::obs::TraceCollector* tracer = nullptr;
  vdp::obs::TraceContext parent{};
};

// An honest prover whose steps are timed from outside: the same RNG
// derivations as Prover<G>, so a traced release draws the same coins.
class TimedProver final : public vdp::Prover<G> {
  using Base = vdp::Prover<G>;

 public:
  TimedProver(size_t index, const vdp::ProtocolConfig& config, const vdp::Pedersen<G>& ped,
              vdp::SecureRng rng, ProverClock* clock)
      : Base(index, config, ped, std::move(rng)), clock_(clock) {}

  void LoadClientShares(const std::vector<vdp::ClientShareMsg<G>>& shares) override {
    Timed timed(&clock_->aggregate_ms, clock_->tracer, "core.aggregate", clock_->parent);
    Base::LoadClientShares(shares);
  }
  vdp::ProverCoinsMsg<G> CommitCoins(vdp::ThreadPool* pool = nullptr) override {
    Timed timed(&clock_->sigma_prove_ms, clock_->tracer, "sigma.prove", clock_->parent);
    return Base::CommitCoins(pool);
  }
  std::unique_ptr<vdp::MorraParty<G>> MakeMorraParty() override {
    return std::make_unique<TimedMorraParty>(this->rng_.Fork("morra"), &clock_->morra_party_ms,
                                             clock_->tracer, clock_->parent);
  }
  void ReceivePublicCoins(const std::vector<std::vector<bool>>& bits) override {
    Timed timed(&clock_->aggregate_ms, clock_->tracer, "core.aggregate", clock_->parent);
    Base::ReceivePublicCoins(bits);
  }
  vdp::ProverOutputMsg<G> ComputeOutput() override {
    Timed timed(&clock_->aggregate_ms, clock_->tracer, "core.aggregate", clock_->parent);
    return Base::ComputeOutput();
  }

 private:
  ProverClock* clock_;
};

class ReleaseWorkload final : public Workload {
 public:
  explicit ReleaseWorkload(const Sizes& sizes) : sizes_(sizes) {
    config_.epsilon = sizes.release_epsilon;
    config_.delta = 1.0 / 1024;
    config_.num_provers = 2;
    config_.num_bins = 2;
    config_.morra_mode = vdp::MorraMode::kPedersen;
    config_.batch_verify = true;
    config_.num_verify_shards = 4;
    config_.session_id = "vdpbench-release";
  }

  const char* backend_name() const override { return "sharded"; }
  size_t pool_threads() const override { return 4; }
  // RunProtocol's caller blocks while the pool works: no extra thread.
  size_t producer_threads() const override { return 0; }
  size_t uploads_per_op() const override { return sizes_.release_clients; }
  size_t shards_per_op() const override { return config_.num_verify_shards; }

  void Generate(uint64_t seed, bool flip_oracle) override {
    label_ = SeedLabel("release", seed);
    vdp::Pedersen<G> ped;
    vdp::SecureRng rng(label_ + "/clients");
    sets_.resize(sizes_.release_sets);
    for (ClientSet& set : sets_) {
      set.true_counts.assign(config_.num_bins, 0);
      for (size_t i = 0; i < sizes_.release_clients; ++i) {
        const auto choice = static_cast<uint32_t>(rng.UniformBelow(config_.num_bins));
        ++set.true_counts[choice];
        set.clients.push_back(vdp::MakeClientBundle(choice, i, config_, ped, rng));
      }
    }
    // Negative control: the oracle expects set 0 to be rejected.
    sets_[0].expect_accept = !flip_oracle;
  }

  bool Setup() override {
    ped_ = std::make_unique<vdp::Pedersen<G>>();
    pool_ = std::make_unique<vdp::ThreadPool>(pool_threads());
    return true;
  }

  // The warm-up release is recorded into a PublicTranscript and re-checked
  // by AuditTranscript: the audit must accept and reproduce the histogram.
  bool Warmup() override {
    vdp::PublicTranscript<G> transcript;
    vdp::ProtocolResult result = Release(0, nullptr, &transcript);
    if (!Matches(result, sets_[0])) {
      return false;
    }
    vdp::AuditReport audit = vdp::AuditTranscript(transcript, config_, *ped_, pool_.get());
    return audit.accepted() && audit.raw_histogram == result.raw_histogram;
  }

  OpOutcome Run(size_t op, vdp::obs::TraceCollector* tracer, vdp::obs::TraceContext parent,
                Layers* layers) override {
    ProverClock clock;
    clock.tracer = tracer;
    clock.parent = parent;
    OpOutcome out;
    vdp::Stopwatch watch;
    vdp::ProtocolResult result = Release(op, layers != nullptr ? &clock : nullptr, nullptr,
                                         &watch);
    out.wall_ms = watch.ElapsedMillis();
    out.correct = Matches(result, sets_[op % sets_.size()]);
    out.uploads = sizes_.release_clients;
    if (layers != nullptr) {
      const vdp::StageTimings& t = result.timings;
      Layers& l = *layers;
      l["core.validate_ms"] = t.client_validate_ms;
      l["core.aggregate_ms"] = clock.aggregate_ms;
      l["core.check_ms"] = t.check_ms;
      l["sigma.prove_ms"] = clock.sigma_prove_ms;
      l["sigma.verify_ms"] = t.sigma_verify_ms;
      l["morra.ms"] = t.morra_ms;
      l["morra.prover_party_ms"] = clock.morra_party_ms;
    }
    return out;
  }

 private:
  struct ClientSet {
    std::vector<vdp::ClientBundle<G>> clients;
    std::vector<uint64_t> true_counts;
    bool expect_accept = true;
  };

  // One release with fresh provers and a fresh verifier RNG, both derived
  // from the operation index. `clock` selects the timed provers; `watch`, when
  // given, is restarted just before RunProtocol.
  vdp::ProtocolResult Release(size_t op, ProverClock* clock,
                              vdp::PublicTranscript<G>* record,
                              vdp::Stopwatch* watch = nullptr) {
    vdp::SecureRng op_rng(label_ + "/op/" + std::to_string(op));
    std::vector<std::unique_ptr<vdp::Prover<G>>> owned;
    std::vector<vdp::Prover<G>*> provers;
    for (size_t k = 0; k < config_.num_provers; ++k) {
      vdp::SecureRng prover_rng = op_rng.Fork("prover-" + std::to_string(k));
      if (clock != nullptr) {
        owned.push_back(
            std::make_unique<TimedProver>(k, config_, *ped_, std::move(prover_rng), clock));
      } else {
        owned.push_back(
            std::make_unique<vdp::Prover<G>>(k, config_, *ped_, std::move(prover_rng)));
      }
      provers.push_back(owned.back().get());
    }
    vdp::SecureRng verifier_rng = op_rng.Fork("verifier");
    const ClientSet& set = sets_[op % sets_.size()];
    if (watch != nullptr) {
      watch->Reset();
    }
    return vdp::RunProtocol(config_, *ped_, set.clients, provers, verifier_rng, pool_.get(),
                            record);
  }

  // The release oracle: Accept, every client accepted, and each raw bin minus
  // its true count within [0, K * nb] (the honest noise range).
  bool Matches(const vdp::ProtocolResult& result, const ClientSet& set) const {
    bool ok = result.accepted() && result.accepted_clients.size() == set.clients.size() &&
              result.raw_histogram.size() == config_.num_bins;
    for (size_t i = 0; ok && i < result.accepted_clients.size(); ++i) {
      ok = result.accepted_clients[i] == i;
    }
    const uint64_t max_noise = config_.num_provers * config_.NumCoins();
    for (size_t bin = 0; ok && bin < config_.num_bins; ++bin) {
      const uint64_t raw = result.raw_histogram[bin];
      ok = raw >= set.true_counts[bin] && raw - set.true_counts[bin] <= max_noise;
    }
    return ok == set.expect_accept;
  }

  Sizes sizes_;
  vdp::ProtocolConfig config_;
  std::string label_;
  std::vector<ClientSet> sets_;
  std::unique_ptr<vdp::Pedersen<G>> ped_;
  std::unique_ptr<vdp::ThreadPool> pool_;
};

// ---------------------------------------------------------------------------
// ingest and hostile-fleet

// verify_server processes on loopback, sharing one fresh auth key whose file
// lives in the benchmark's work directory (net::LoopbackFleet would put it in
// /tmp). Servers are stopped and reaped, and the key file removed, on
// destruction.
class Fleet {
 public:
  Fleet(size_t n, const std::string& work_dir, const std::string& fault) {
    key_hex_ = vdp::HexEncode(vdp::SecureRng::FromEntropy().RandomBytes(32));
    key_file_ = work_dir + "/fleet-" + std::to_string(getpid()) + ".key";
    FILE* f = std::fopen(key_file_.c_str(), "w");
    if (f == nullptr) {
      key_file_.clear();
      return;
    }
    const bool written = std::fprintf(f, "%s\n", key_hex_.c_str()) > 0;
    if (std::fclose(f) != 0 || !written) {
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      vdp::net::SpawnServerOptions options;
      options.auth_key_file = key_file_;
      options.server_id = i;
      options.fault = fault;
      auto server = vdp::net::SpawnVerifyServer(options);
      if (!server.has_value()) {
        return;
      }
      servers_.push_back(std::move(*server));
    }
  }

  ~Fleet() {
    for (vdp::net::ServerProcess& server : servers_) {
      vdp::net::DestroyServer(&server);
    }
    if (!key_file_.empty()) {
      unlink(key_file_.c_str());
    }
  }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  size_t size() const { return servers_.size(); }

  void ApplyTo(vdp::ProtocolConfig* config) const {
    config->remote_verifiers.clear();
    for (const vdp::net::ServerProcess& server : servers_) {
      config->remote_verifiers.push_back(server.endpoint);
    }
    config->remote_auth_key_hex = key_hex_;
  }

 private:
  std::vector<vdp::net::ServerProcess> servers_;
  std::string key_hex_;
  std::string key_file_;
};

class StreamWorkload final : public Workload {
 public:
  StreamWorkload(bool hostile, const Sizes& sizes, std::string work_dir,
                 std::string server_fault)
      : hostile_(hostile),
        sizes_(sizes),
        work_dir_(std::move(work_dir)),
        server_fault_(std::move(server_fault)) {
    config_.num_provers = 1;
    config_.num_bins = 2;
    config_.batch_verify = true;
    config_.num_verify_shards = 4;
    config_.session_id = hostile ? "vdpbench-hostile-fleet" : "vdpbench-ingest";
  }

  const char* backend_name() const override { return hostile_ ? "remote" : "sharded"; }
  size_t pool_threads() const override { return hostile_ ? 0 : 3; }
  // The producer decodes while the lanes or servers verify.
  size_t producer_threads() const override { return 1; }
  size_t servers() const override { return hostile_ ? 2 : 0; }
  size_t uploads_per_op() const override { return sizes_.batch_uploads; }
  size_t shards_per_op() const override {
    return (sizes_.batch_uploads + sizes_.shard_capacity - 1) / sizes_.shard_capacity;
  }

  void Generate(uint64_t seed, bool flip_oracle) override {
    label_ = SeedLabel(hostile_ ? "hostile-fleet" : "ingest", seed);
    vdp::Pedersen<G> ped;
    vdp::ThreadPool gen_pool(0);  // untimed: every core the machine has
    vdp::SecureRng layout_rng(label_ + "/layout");
    batches_.resize(sizes_.batches);
    for (size_t b = 0; b < batches_.size(); ++b) {
      Batch& batch = batches_[b];
      const size_t n = sizes_.batch_uploads;
      // Where the adversarial uploads sit: one per block, at a seeded offset.
      std::vector<uint8_t> tamper(n, 0);
      std::vector<uint8_t> truncate(n, 0);
      if (hostile_) {
        for (size_t base = 0; base < n; base += sizes_.tamper_block) {
          const size_t span = std::min(sizes_.tamper_block, n - base);
          tamper[base + layout_rng.UniformBelow(span)] = 1;
        }
        for (size_t base = 0; base < n; base += sizes_.truncate_block) {
          const size_t span = std::min(sizes_.truncate_block, n - base);
          size_t at = base + layout_rng.UniformBelow(span);
          while (tamper[at] != 0) {
            at = base + layout_rng.UniformBelow(span);
          }
          truncate[at] = 1;
        }
      }
      batch.blobs.resize(n);
      std::vector<std::optional<Upload>> decoded(n);
      std::vector<std::string> why(n);
      std::vector<uint8_t> ok(n, 0);
      const std::string batch_label = label_ + "/batch/" + std::to_string(b);
      gen_pool.ParallelFor(n, [&](size_t i) {
        vdp::SecureRng rng(batch_label + "/upload/" + std::to_string(i));
        const auto choice = static_cast<uint32_t>(rng.UniformBelow(config_.num_bins));
        Upload upload = vdp::MakeClientBundle(choice, i, config_, ped, rng).upload;
        if (tamper[i] != 0) {
          upload.bin_proofs[rng.UniformBelow(config_.num_bins)].z0 += G::Scalar::One();
        }
        vdp::Bytes bytes = upload.Serialize();
        if (truncate[i] != 0) {
          bytes.resize(rng.UniformBelow(bytes.size()));
        }
        // The per-proof oracle sees exactly what the producer will submit:
        // the decoded upload, or an empty one where decoding fails.
        decoded[i] = Upload::Deserialize(bytes);
        const Upload empty;
        const Upload& seen = decoded[i].has_value() ? *decoded[i] : empty;
        ok[i] = vdp::ValidateClientUpload(seen, i, config_, ped, &why[i]) ? 1 : 0;
        batch.blobs[i] = std::move(bytes);
      });
      batch.products.assign(config_.num_provers,
                            std::vector<G::Element>(config_.num_bins, G::Identity()));
      for (size_t i = 0; i < n; ++i) {
        const bool clean = tamper[i] == 0 && truncate[i] == 0;
        if (decoded[i].has_value() != (truncate[i] == 0) || (ok[i] != 0) != clean) {
          generation_ok_ = false;  // the corpus is not what it claims to be
        }
        if (ok[i] == 0) {
          batch.reasons.push_back("client " + std::to_string(i) + ": " + why[i]);
          continue;
        }
        batch.accepted.push_back(i);
        for (size_t k = 0; k < config_.num_provers; ++k) {
          for (size_t m = 0; m < config_.num_bins; ++m) {
            batch.products[k][m] =
                G::Mul(batch.products[k][m], decoded[i]->commitments[k][m]);
          }
        }
        if (b == 0) {
          for (const auto& row : decoded[i]->commitments) {
            for (const G::Element& c : row) {
              element_encodings_.push_back(G::Encode(c));
            }
          }
          for (const auto& proof : decoded[i]->bin_proofs) {
            element_encodings_.push_back(G::Encode(proof.a0));
            element_encodings_.push_back(G::Encode(proof.a1));
          }
        }
      }
    }
    if (flip_oracle && !batches_[0].accepted.empty()) {
      // Negative control: the oracle expects the first accepted upload of
      // batch 0 to be rejected.
      const size_t index = batches_[0].accepted.front();
      batches_[0].accepted.erase(batches_[0].accepted.begin());
      batches_[0].reasons.insert(batches_[0].reasons.begin(),
                                 "client " + std::to_string(index) + ": " +
                                     vdp::kDetailProofInvalid);
    }
  }

  bool Setup() override {
    ped_ = std::make_unique<vdp::Pedersen<G>>();
    if (hostile_) {
      fleet_ = std::make_unique<Fleet>(servers(), work_dir_, server_fault_);
      if (fleet_->size() != servers()) {
        std::fprintf(stderr, "vdpbench: could not start %zu verify_server processes\n",
                     servers());
        return false;
      }
      fleet_->ApplyTo(&config_);
      backend_ = vdp::MakeVerifyBackend<G>(vdp::VerifyBackendKind::kRemote, config_, *ped_);
    } else {
      pool_ = std::make_unique<vdp::ThreadPool>(pool_threads());
      backend_ = vdp::MakeVerifyBackend<G>(vdp::VerifyBackendKind::kSharded, config_, *ped_);
    }
    return true;
  }

  bool Warmup() override { return generation_ok_ && Run(0, nullptr, {}, nullptr).correct; }

  OpOutcome Run(size_t op, vdp::obs::TraceCollector* tracer, vdp::obs::TraceContext parent,
                Layers* layers) override {
    const Batch& batch = batches_[op % batches_.size()];
    const size_t n = batch.blobs.size();
    vdp::VerifyOptions options;
    options.pool = pool_.get();
    options.compute_products = true;
    options.stream_shard_capacity = sizes_.shard_capacity;
    options.tracer = tracer;
    options.trace_parent = parent;

    double decode_ms = 0;
    double submit_ms = 0;
    double finish_ms = 0;
    double backpressure_ms = 0;
    vdp::VerifyReport<G> report;
    OpOutcome out;
    vdp::Stopwatch watch;
    backend_->Start(options);
    for (size_t begin = 0; begin < n; begin += sizes_.shard_capacity) {
      const size_t end = std::min(n, begin + sizes_.shard_capacity);
      std::vector<Upload> chunk;
      chunk.reserve(end - begin);
      {
        Timed timed(&decode_ms, tracer, "wire.decode", parent);
        for (size_t i = begin; i < end; ++i) {
          std::optional<Upload> upload = Upload::Deserialize(batch.blobs[i]);
          // A blob that does not decode keeps its index as an empty upload,
          // which every backend rejects as malformed.
          chunk.push_back(upload.has_value() ? std::move(*upload) : Upload{});
        }
      }
      Timed timed(&submit_ms, tracer, "verify.submit", parent);
      backend_->Submit(std::move(chunk));
    }
    backpressure_ms = backend_->Progress().backpressure_wait_ms;
    {
      Timed timed(&finish_ms, tracer, "verify.finish", parent);
      report = backend_->Finish();
    }
    out.wall_ms = watch.ElapsedMillis();
    out.uploads = n;
    out.correct = report.accepted == batch.accepted &&
                  report.RenderedReasons() == batch.reasons && report.has_products() &&
                  report.commitment_products == batch.products;
    if (layers != nullptr) {
      Layers& l = *layers;
      l["wire.decode_ms"] = decode_ms;
      l["wire.decode_us_per_upload"] = 1000.0 * decode_ms / static_cast<double>(n);
      l["verify.submit_ms"] = submit_ms;
      l["verify.backpressure_ms"] = backpressure_ms;
      l["verify.finish_ms"] = finish_ms;
      l["verify.combine_ms"] = report.timings.combine_ms;
      l["shard.fallback_shards"] = static_cast<double>(report.shards_with_fallback);
    }
    return out;
  }

  // G::Decode timed directly on the element encodings of batch 0 (median of
  // three passes); every encoding must decode.
  bool MeasureOutsideOps(Layers* layers) override {
    std::vector<double> per_element_us;
    size_t decoded = 0;
    for (int pass = 0; pass < 3; ++pass) {
      vdp::Stopwatch watch;
      for (const vdp::Bytes& encoding : element_encodings_) {
        decoded += G::Decode(encoding).has_value() ? 1 : 0;
      }
      per_element_us.push_back(watch.ElapsedMicros() /
                               static_cast<double>(element_encodings_.size()));
    }
    std::sort(per_element_us.begin(), per_element_us.end());
    (*layers)["group.decode_us_per_element"] = per_element_us[1];
    return decoded == 3 * element_encodings_.size();
  }

 private:
  struct Batch {
    std::vector<vdp::Bytes> blobs;
    // The oracle: per-proof verdicts and a running product over the decoded
    // uploads, as tools/stream_soak computes them.
    std::vector<size_t> accepted;
    std::vector<std::string> reasons;
    std::vector<std::vector<G::Element>> products;
  };

  bool hostile_;
  Sizes sizes_;
  std::string work_dir_;
  std::string server_fault_;
  vdp::ProtocolConfig config_;
  std::string label_;
  std::vector<Batch> batches_;
  std::vector<vdp::Bytes> element_encodings_;
  bool generation_ok_ = true;
  std::unique_ptr<vdp::Pedersen<G>> ped_;
  std::unique_ptr<vdp::ThreadPool> pool_;
  std::unique_ptr<Fleet> fleet_;
  std::unique_ptr<vdp::VerifyBackend<G>> backend_;  // after fleet_: torn down first
};

}  // namespace vdpbench

#endif  // VDPBENCH_WORKLOADS_H_
