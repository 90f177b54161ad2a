// The streaming shard dispatcher (src/shard/stream_dispatch.h), tested
// against a synthetic executor so the pipeline mechanics -- capacity-based
// shard cutting, the bounded in-flight window, out-of-order lane completion,
// bulk ingest, abort/reuse -- are checked without any cryptography in the
// loop. Bit-identity of real verdicts is the conformance suite's job
// (tests/verify/backend_conformance_test.cc); this file pins the plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <mutex>
#include <thread>

#include "src/shard/stream_dispatch.h"

namespace vdp {
namespace {

using G = ModP256;

// Synthesizes verdicts from shard coordinates alone: global index i is
// rejected iff i % 7 == 3. Deterministic, so any partition of the same
// stream must combine to the same report.
class FakeExecutor final : public ShardExecutor<G> {
 public:
  explicit FakeExecutor(size_t lanes, int sleep_ms = 0, int slow_shard = -1)
      : lanes_(lanes), sleep_ms_(sleep_ms), slow_shard_(slow_shard) {}

  size_t lanes() const override { return lanes_; }

  ShardResult<G> ExecuteShard(size_t lane, const ShardPayload<G>& shard) override {
    {
      std::lock_guard<std::mutex> lock(lane_mu_);
      lane_of_shard_[shard.shard_index] = lane;
    }
    const size_t running = concurrent_.fetch_add(1, std::memory_order_relaxed) + 1;
    size_t prev = max_concurrent_.load(std::memory_order_relaxed);
    while (running > prev &&
           !max_concurrent_.compare_exchange_weak(prev, running, std::memory_order_relaxed)) {
    }
    if (sleep_ms_ > 0 &&
        (slow_shard_ < 0 || shard.shard_index == static_cast<size_t>(slow_shard_))) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
    }
    ShardResult<G> result;
    result.shard_index = shard.shard_index;
    result.base = shard.base;
    result.count = shard.count();
    for (size_t i = 0; i < shard.count(); ++i) {
      const size_t global = shard.base + i;
      if (global % 7 == 3) {
        result.rejections.emplace_back(global, "synthetic");
      } else {
        result.accepted.push_back(global);
      }
    }
    concurrent_.fetch_sub(1, std::memory_order_relaxed);
    shards_executed_.fetch_add(1, std::memory_order_relaxed);
    return result;
  }

  void CloseLane(size_t /*lane*/) override {
    lanes_closed_.fetch_add(1, std::memory_order_relaxed);
  }

  size_t shards_executed() const { return shards_executed_.load(); }
  size_t max_concurrent() const { return max_concurrent_.load(); }
  size_t lanes_closed() const { return lanes_closed_.load(); }
  std::map<size_t, size_t> lane_of_shard() const {
    std::lock_guard<std::mutex> lock(lane_mu_);
    return lane_of_shard_;
  }

 private:
  size_t lanes_;
  int sleep_ms_;
  int slow_shard_;
  std::atomic<size_t> concurrent_{0};
  std::atomic<size_t> max_concurrent_{0};
  std::atomic<size_t> shards_executed_{0};
  std::atomic<size_t> lanes_closed_{0};
  mutable std::mutex lane_mu_;
  std::map<size_t, size_t> lane_of_shard_;  // shard index -> lane that ran it
};

StreamDispatchOptions NoProducts(size_t capacity, size_t window) {
  StreamDispatchOptions options;
  options.shard_capacity = capacity;
  options.max_inflight_shards = window;
  options.compute_products = false;  // the fake synthesizes no products
  return options;
}

// The expected verdict of the fake over global indices [0, n).
void ExpectFakeVerdict(const VerifyReport<G>& report, size_t n) {
  std::vector<size_t> accepted;
  std::vector<std::string> reasons;
  for (size_t i = 0; i < n; ++i) {
    if (i % 7 == 3) {
      reasons.push_back("client " + std::to_string(i) + ": synthetic");
    } else {
      accepted.push_back(i);
    }
  }
  EXPECT_EQ(report.accepted, accepted);
  EXPECT_EQ(report.RenderedReasons(), reasons);
  EXPECT_EQ(report.total_uploads, n);
}

TEST(StreamDispatchTest, CutsShardsAtCapacityAndCombinesInShardOrder) {
  ProtocolConfig config;
  FakeExecutor executor(/*lanes=*/2, /*sleep_ms=*/20, /*slow_shard=*/0);
  StreamDispatcher<G> dispatcher(config, &executor, NoProducts(4, 4));
  // 18 uploads at capacity 4: shards of 4/4/4/4/2. Shard 0 sleeps, so later
  // shards retire first -- the combiner must still order by shard index.
  for (size_t i = 0; i < 18; ++i) {
    dispatcher.Add(ClientUploadMsg<G>{});
  }
  VerifyReport<G> report = dispatcher.Finish();
  EXPECT_EQ(report.num_shards, 5u);
  ExpectFakeVerdict(report, 18);
  EXPECT_EQ(executor.shards_executed(), 5u);
  EXPECT_EQ(executor.lanes_closed(), 2u);
  EXPECT_FALSE(report.has_products());
}

TEST(StreamDispatchTest, WindowBoundsInflightAndRecordsBackpressure) {
  ProtocolConfig config;
  FakeExecutor executor(/*lanes=*/1, /*sleep_ms=*/5);
  StreamDispatcher<G> dispatcher(config, &executor, NoProducts(1, 2));
  // Capacity 1 seals a shard per Add; a single 5ms lane against a window of
  // 2 forces the producer to block, and the window must never be exceeded.
  for (size_t i = 0; i < 12; ++i) {
    dispatcher.Add(ClientUploadMsg<G>{});
    const VerifyProgress p = dispatcher.Progress();
    EXPECT_LE(p.inflight_shards, 2u);
    EXPECT_LE(p.buffered_uploads, 3u);  // window + the fill buffer
  }
  EXPECT_GT(dispatcher.backpressure_wait_ms(), 0.0);
  VerifyReport<G> report = dispatcher.Finish();
  ExpectFakeVerdict(report, 12);
  EXPECT_EQ(report.num_shards, 12u);
  EXPECT_LE(executor.max_concurrent(), 1u);
  EXPECT_GT(dispatcher.last_backpressure_wait_ms(), 0.0);
}

TEST(StreamDispatchTest, AddBulkMatchesPerUploadAdd) {
  ProtocolConfig config;
  // Same stream twice: one upload at a time, then in bulk chunks whose sizes
  // straddle the capacity (3 < 5, 8 > 5, 4 < 5). Reports must be identical.
  FakeExecutor a_exec(2);
  StreamDispatcher<G> a(config, &a_exec, NoProducts(5, 4));
  for (size_t i = 0; i < 15; ++i) {
    a.Add(ClientUploadMsg<G>{});
  }
  VerifyReport<G> a_report = a.Finish();

  FakeExecutor b_exec(2);
  StreamDispatcher<G> b(config, &b_exec, NoProducts(5, 4));
  for (size_t chunk : {3, 8, 4}) {
    std::vector<ClientUploadMsg<G>> uploads(chunk);
    b.AddBulk(std::move(uploads));
  }
  VerifyReport<G> b_report = b.Finish();

  EXPECT_EQ(a_report.accepted, b_report.accepted);
  EXPECT_EQ(a_report.RenderedReasons(), b_report.RenderedReasons());
  EXPECT_EQ(a_report.num_shards, b_report.num_shards);
  EXPECT_EQ(a_report.total_uploads, b_report.total_uploads);
}

TEST(StreamDispatchTest, ProgressCountsTheWholePipeline) {
  ProtocolConfig config;
  FakeExecutor executor(1);
  StreamDispatcher<G> dispatcher(config, &executor, NoProducts(4, 8));
  for (size_t i = 0; i < 10; ++i) {
    dispatcher.Add(ClientUploadMsg<G>{});
  }
  const VerifyProgress mid = dispatcher.Progress();
  EXPECT_EQ(mid.uploads_ingested, 10u);
  EXPECT_EQ(mid.shards_cut, 2u);  // 8 sealed; 2 still filling
  EXPECT_GE(mid.buffered_uploads, 2u);
  VerifyReport<G> report = dispatcher.Finish();
  EXPECT_EQ(report.num_shards, 3u);
  ExpectFakeVerdict(report, 10);
}

TEST(StreamDispatchTest, AbortDiscardsStreamAndDispatcherIsReusable) {
  ProtocolConfig config;
  FakeExecutor executor(2, /*sleep_ms=*/5);
  StreamDispatcher<G> dispatcher(config, &executor, NoProducts(2, 2));
  for (size_t i = 0; i < 9; ++i) {
    dispatcher.Add(ClientUploadMsg<G>{});
  }
  dispatcher.Abort();
  // A fresh stream restarts global indices at 0 and sees none of the
  // aborted stream's shards.
  for (size_t i = 0; i < 6; ++i) {
    dispatcher.Add(ClientUploadMsg<G>{});
  }
  VerifyReport<G> report = dispatcher.Finish();
  EXPECT_EQ(report.num_shards, 3u);
  ExpectFakeVerdict(report, 6);
}

// The lane rule of both in-process executors: one lane per pool worker,
// capped at the one-shot shard count, never zero.
TEST(StreamDispatchTest, InProcessLanesCapPoolWorkersAtShardCount) {
  ThreadPool pool(4);
  const size_t unbounded = std::numeric_limits<size_t>::max();
  EXPECT_EQ(InProcessLanes(&pool, unbounded), 4u);  // a stream
  EXPECT_EQ(InProcessLanes(&pool, 8), 4u);
  EXPECT_EQ(InProcessLanes(&pool, 2), 2u);
  EXPECT_EQ(InProcessLanes(&pool, 1), 1u);  // whole-stream shard: pool inside
  EXPECT_EQ(InProcessLanes(&pool, 0), 1u);
  EXPECT_EQ(InProcessLanes(nullptr, unbounded), 1u);
  EXPECT_EQ(InProcessLanes(nullptr, 8), 1u);
  EXPECT_EQ(ClampShardCount(8, 3), 3u);
  EXPECT_EQ(ClampShardCount(0, 10), 1u);
  EXPECT_EQ(ClampShardCount(4, 0), 1u);
}

TEST(StreamDispatchTest, EachLaneRunsTheShardMatchingItsIndexFirst) {
  // Instant shards: without the reservation, whichever lane thread starts
  // first tends to drain the queue before the others wake. Shard i < lanes
  // must still run on lane i, one-shot and streaming alike.
  ProtocolConfig config;
  for (int round = 0; round < 20; ++round) {
    FakeExecutor one_shot(4);
    std::vector<ClientUploadMsg<G>> uploads(40);
    DispatchAllShards<G>(config, &one_shot, uploads, /*num_shards=*/8,
                         /*compute_products=*/false);
    FakeExecutor streamed(4);
    StreamDispatcher<G> dispatcher(config, &streamed, NoProducts(2, 8));
    for (size_t i = 0; i < 16; ++i) {
      dispatcher.Add(ClientUploadMsg<G>{});
    }
    ExpectFakeVerdict(dispatcher.Finish(), 16);
    for (const FakeExecutor* executor : {&one_shot, &streamed}) {
      const std::map<size_t, size_t> lanes = executor->lane_of_shard();
      ASSERT_EQ(lanes.size(), 8u);
      for (size_t shard = 0; shard < 4; ++shard) {
        EXPECT_EQ(lanes.at(shard), shard) << "round " << round;
      }
    }
  }
}

TEST(StreamDispatchTest, OneShotPartitionUsesHistoricalBoundaries) {
  ProtocolConfig config;
  FakeExecutor executor(3);
  std::vector<ClientUploadMsg<G>> uploads(11);
  VerifyReport<G> report =
      DispatchAllShards<G>(config, &executor, uploads, /*num_shards=*/3,
                           /*compute_products=*/false);
  // 11 uploads over 3 shards: n*s/shards boundaries give 3/4/4.
  EXPECT_EQ(report.num_shards, 3u);
  ExpectFakeVerdict(report, 11);
  EXPECT_GE(report.timings.verify_ms, 0.0);
}

}  // namespace
}  // namespace vdp
