// Signal-interruption regression for the frame transport: with an interval
// timer firing every 2 ms and its handler installed WITHOUT SA_RESTART,
// every poll/read/write in flight gets interrupted over and over. A
// multi-megabyte frame squeezed through a pipe (64 KB kernel buffer, so
// thousands of partial reads and writes) must still arrive intact -- EINTR
// is a retry, never a peer failure. This pins the behavior the socket fleet
// relies on under sanitizer/profiler/CI signals.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/wire/frame_io.h"

namespace vdp {
namespace wire {
namespace {

std::atomic<uint64_t> g_signal_count{0};

void CountingHandler(int) { g_signal_count.fetch_add(1, std::memory_order_relaxed); }

class InterruptingTimer {
 public:
  InterruptingTimer() {
    g_signal_count.store(0);
    struct sigaction sa;
    sigemptyset(&sa.sa_mask);
    sa.sa_handler = CountingHandler;
    sa.sa_flags = 0;  // deliberately NOT SA_RESTART: syscalls return EINTR
    sigaction(SIGALRM, &sa, &old_action_);
    struct itimerval timer;
    timer.it_interval.tv_sec = 0;
    timer.it_interval.tv_usec = 1000;  // every 1 ms
    timer.it_value = timer.it_interval;
    setitimer(ITIMER_REAL, &timer, &old_timer_);
  }

  ~InterruptingTimer() {
    struct itimerval stop = {};
    setitimer(ITIMER_REAL, &stop, nullptr);
    sigaction(SIGALRM, &old_action_, nullptr);
  }

 private:
  struct sigaction old_action_;
  struct itimerval old_timer_;
};

TEST(FrameIoEintrTest, LargeFrameSurvivesConstantInterruption) {
  InterruptingTimer timer;

  int fds[2];
  ASSERT_EQ(pipe(fds), 0);

  // 8 MB of patterned payload: ~128 pipe-buffer refills, each a fresh
  // chance for a signal to land inside poll, read, or write.
  Bytes payload(8 * 1024 * 1024);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 31 + (i >> 11));
  }

  std::thread writer([&]() {
    WriteStatus status = WriteFrame(fds[1], FrameType::kTask, payload, /*timeout_ms=*/-1);
    EXPECT_EQ(status, WriteStatus::kOk);
    close(fds[1]);
  });

  Frame frame;
  ReadStatus status = ReadFrame(fds[0], &frame, /*timeout_ms=*/30'000);
  writer.join();
  close(fds[0]);

  ASSERT_EQ(status, ReadStatus::kOk) << ReadStatusName(status);
  EXPECT_EQ(frame.type, FrameType::kTask);
  EXPECT_EQ(frame.payload, payload);

  // The test only proves something if signals actually landed (the exact
  // count depends on how fast the pipe drains on this machine).
  EXPECT_GT(g_signal_count.load(), 3u);
}

TEST(FrameIoEintrTest, DeadlineStillEnforcedUnderInterruption) {
  // EINTR retries must not reset or extend the deadline: a peer that sends
  // half a frame and stalls still times out on schedule.
  InterruptingTimer timer;

  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  Bytes header_and_some = EncodeFrame(FrameType::kTask, Bytes(1024, 0x77));
  header_and_some.resize(header_and_some.size() / 2);  // stall mid-frame
  ASSERT_EQ(write(fds[1], header_and_some.data(), header_and_some.size()),
            static_cast<ssize_t>(header_and_some.size()));

  Frame frame;
  const auto start = std::chrono::steady_clock::now();
  ReadStatus status = ReadFrame(fds[0], &frame, /*timeout_ms=*/200);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_EQ(status, ReadStatus::kTimeout);
  EXPECT_GE(elapsed, 190);
  EXPECT_LT(elapsed, 5000);  // interrupted polls must not extend it unboundedly
  close(fds[0]);
  close(fds[1]);
}

TEST(FrameIoEintrTest, NonblockingSocketRoundTripUnderInterruption) {
  // The socket-fleet shape: a nonblocking fd on the driver side (WriteFrame
  // deadlines work, ReadFrame must absorb spurious EAGAIN wakeups) while
  // signals fire.
  InterruptingTimer timer;

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(fcntl(fds[0], F_SETFL, fcntl(fds[0], F_GETFL, 0) | O_NONBLOCK), 0);

  Bytes payload(2 * 1024 * 1024, 0x5A);
  std::thread peer([&]() {
    Frame frame;
    ReadStatus status = ReadFrame(fds[1], &frame, /*timeout_ms=*/30'000);
    EXPECT_EQ(status, ReadStatus::kOk) << ReadStatusName(status);
    EXPECT_EQ(frame.payload.size(), payload.size());
    // Echo it back so the nonblocking side reads too.
    EXPECT_EQ(WriteFrame(fds[1], FrameType::kResult, frame.payload, 30'000),
              WriteStatus::kOk);
  });

  ASSERT_EQ(WriteFrame(fds[0], FrameType::kTask, payload, /*timeout_ms=*/30'000),
            WriteStatus::kOk);
  Frame echoed;
  ReadStatus status = ReadFrame(fds[0], &echoed, /*timeout_ms=*/30'000);
  peer.join();
  EXPECT_EQ(status, ReadStatus::kOk) << ReadStatusName(status);
  EXPECT_EQ(echoed.payload, payload);
  close(fds[0]);
  close(fds[1]);
}

}  // namespace
}  // namespace wire
}  // namespace vdp
