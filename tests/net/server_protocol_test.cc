// verify_server's task protocol, driven by hand: one authenticated session
// opened with ConnectAndHandshake, then raw task frames, so the daemon's
// protocol-level refusals are observed directly instead of through the
// fleet driver's retry and recovery (which would hide them behind a
// correct verdict).
#include <gtest/gtest.h>
#include <unistd.h>

#include "src/common/hex.h"
#include "src/net/remote_conn.h"
#include "src/net/server_process.h"
#include "src/wire/wire_convert.h"

namespace vdp {
namespace {

using G = ModP256;
using S = G::Scalar;

constexpr int kTimeoutMs = 15'000;

ProtocolConfig ProtocolTestConfig() {
  ProtocolConfig config;
  config.epsilon = 50.0;  // nb = 31: keeps upload construction fast
  config.num_provers = 1;
  config.num_bins = 1;
  config.session_id = "server-protocol-test";
  config.batch_verify = true;
  return config;
}

class ServerProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(fleet_.servers().size(), 1u) << "is verify_server next to the test binary?";
    setup_ = wire::MakeWireSetup(config_, ped_);
    std::string blame;
    conn_ = Connect(&blame);
    ASSERT_TRUE(conn_.ok()) << blame;
  }

  void TearDown() override { net::CloseRemoteConn(&conn_); }

  net::RemoteConn Connect(std::string* blame) {
    auto endpoint = net::ParseEndpoint(fleet_.servers()[0].endpoint);
    auto key = HexDecode(fleet_.key_hex());
    if (!endpoint.has_value() || !key.has_value()) {
      *blame = "fleet announced an unusable endpoint or key";
      return net::RemoteConn{};
    }
    return net::ConnectAndHandshake(*endpoint, *key, setup_.Serialize(), setup_.Digest(),
                                    net::HandshakeOptions{}, blame);
  }

  std::vector<ClientUploadMsg<G>> Uploads(size_t n) {
    SecureRng rng("server-protocol-uploads");
    std::vector<ClientUploadMsg<G>> uploads;
    for (size_t i = 0; i < n; ++i) {
      uploads.push_back(
          MakeClientBundle<G>(static_cast<uint32_t>(i % 2), i, config_, ped_, rng).upload);
    }
    uploads[n / 2].bin_proofs[0].z0 += S::One();  // one rejection in the shard
    return uploads;
  }

  // Sends a well-formed task for `uploads` on `conn` and checks the answer
  // is exactly the in-process VerifyShard of the same shard.
  void ExpectServedLikeVerifyShard(net::RemoteConn* conn,
                                   const std::vector<ClientUploadMsg<G>>& uploads) {
    wire::WireShardTask task = wire::MakeShardTask<G>(
        setup_.Digest(), /*shard_index=*/0, /*base=*/0, /*compute_products=*/true,
        uploads.data(), uploads.size());
    ASSERT_EQ(conn->channel.Write(wire::FrameType::kTask, task.Serialize(), kTimeoutMs),
              wire::WriteStatus::kOk);
    wire::Frame response;
    ASSERT_EQ(conn->channel.Read(&response, 60'000), wire::ReadStatus::kOk);
    ASSERT_EQ(response.type, wire::FrameType::kResult);
    auto wire_result = wire::WireShardResult::Deserialize(response.payload);
    ASSERT_TRUE(wire_result.has_value());
    auto result = wire::ResultFromWire<G>(config_, *wire_result);
    ASSERT_TRUE(result.has_value());

    auto expected = VerifyShard(config_, ped_, uploads.data(), uploads.size(), 0, 0);
    EXPECT_EQ(result->accepted, expected.accepted);
    EXPECT_EQ(result->rejections, expected.rejections);
    EXPECT_EQ(result->rejections.size(), 1u);
    ASSERT_EQ(result->partial_products.size(), expected.partial_products.size());
    for (size_t k = 0; k < expected.partial_products.size(); ++k) {
      ASSERT_EQ(result->partial_products[k].size(), expected.partial_products[k].size());
      for (size_t m = 0; m < expected.partial_products[k].size(); ++m) {
        EXPECT_TRUE(result->partial_products[k][m] == expected.partial_products[k][m]);
      }
    }
  }

  net::LoopbackFleet fleet_{1};
  ProtocolConfig config_ = ProtocolTestConfig();
  Pedersen<G> ped_;
  wire::WireSetup setup_;
  net::RemoteConn conn_;
};

TEST_F(ServerProtocolTest, RefusesTaskWithMismatchedParamsDigest) {
  wire::WireShardTask task;
  task.params_digest.fill(0xEE);  // not the session's setup digest
  ASSERT_EQ(conn_.channel.Write(wire::FrameType::kTask, task.Serialize(), kTimeoutMs),
            wire::WriteStatus::kOk);
  wire::Frame response;
  ASSERT_EQ(conn_.channel.Read(&response, kTimeoutMs), wire::ReadStatus::kOk);
  ASSERT_EQ(response.type, wire::FrameType::kError);
  auto error = wire::WireError::Deserialize(response.payload);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->message.find("digest"), std::string::npos) << error->message;

  // Only the task was refused: the session itself still serves.
  ExpectServedLikeVerifyShard(&conn_, Uploads(8));
}

TEST_F(ServerProtocolTest, AnswersWellFormedTask) {
  ExpectServedLikeVerifyShard(&conn_, Uploads(8));
}

TEST_F(ServerProtocolTest, RejectsFutureWireVersionCleanly) {
  // A frame claiming wire version kWireVersion + 1, written under the
  // authenticated channel: the server must refuse it from the header alone
  // (no payload interpretation, no answer) and drop the session.
  Bytes frame = wire::EncodeFrame(wire::FrameType::kTask, Bytes(4, 0x00));
  frame[4] = wire::kWireVersion + 1;  // version byte follows the 4-byte magic
  size_t written = 0;
  while (written < frame.size()) {
    ssize_t n = write(conn_.fd, frame.data() + written, frame.size() - written);
    ASSERT_GT(n, 0);
    written += static_cast<size_t>(n);
  }
  wire::Frame response;
  const wire::ReadStatus status = conn_.channel.Read(&response, kTimeoutMs);
  EXPECT_TRUE(status == wire::ReadStatus::kEof || status == wire::ReadStatus::kError)
      << wire::ReadStatusName(status);

  // The daemon survives the skewed peer and keeps serving new connections.
  std::string blame;
  net::RemoteConn fresh = Connect(&blame);
  ASSERT_TRUE(fresh.ok()) << blame;
  ExpectServedLikeVerifyShard(&fresh, Uploads(8));
  net::CloseRemoteConn(&fresh);
}

}  // namespace
}  // namespace vdp
