// Tests for the execution subsystem: the fork-join exec::parallel_for
// and stop tokens.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/parallel_for.h"
#include "exec/stop_token.h"

namespace otem::exec {
namespace {

TEST(ParallelFor, DefaultConcurrencyIsPositive) {
  EXPECT_GE(default_concurrency(), 1u);
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
  std::atomic<int> calls{0};
  parallel_for(0, [&](size_t) { calls.fetch_add(1); }, 4);
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](size_t i) { hits[i].fetch_add(1); }, 4);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, SerialWidthVisitsInOrderOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  parallel_for(
      5,
      [&](size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
      },
      /*threads=*/1);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

/// Thread ids seen by one parallel_for call.
std::set<std::thread::id> threads_used(size_t n, size_t threads) {
  std::mutex mutex;
  std::set<std::thread::id> ids;
  parallel_for(
      n,
      [&](size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const std::lock_guard<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
      },
      threads);
  return ids;
}

TEST(ParallelFor, NeverUsesMoreThreadsThanRequestedOrIndices) {
  EXPECT_LE(threads_used(64, 3).size(), 3u);
  EXPECT_LE(threads_used(2, 8).size(), 2u);
}

TEST(ParallelFor, RunsTheFullWidthAtOnceWithTheCallerWorking) {
  // Each index blocks until all three are in flight, so the call only
  // returns if three threads (two spawned plus the caller) ran at once.
  constexpr size_t kWidth = 3;
  std::mutex mutex;
  std::condition_variable all_in;
  size_t arrived = 0;
  std::set<std::thread::id> ids;
  parallel_for(
      kWidth,
      [&](size_t) {
        std::unique_lock<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
        if (++arrived == kWidth) all_in.notify_all();
        EXPECT_TRUE(all_in.wait_for(lock, std::chrono::seconds(10),
                                    [&] { return arrived == kWidth; }));
      },
      kWidth);
  EXPECT_EQ(ids.size(), kWidth);
  EXPECT_EQ(ids.count(std::this_thread::get_id()), 1u);
}

TEST(ParallelFor, ZeroThreadsResolvesThroughDefaultConcurrency) {
  const char* old = std::getenv("OTEM_THREADS");
  const std::string saved = old != nullptr ? old : "";
  ::setenv("OTEM_THREADS", "2", 1);
  EXPECT_EQ(default_concurrency(), 2u);
  EXPECT_LE(threads_used(32, 0).size(), 2u);
  if (old != nullptr)
    ::setenv("OTEM_THREADS", saved.c_str(), 1);
  else
    ::unsetenv("OTEM_THREADS");
}

TEST(ParallelFor, PropagatesTheFirstException) {
  std::atomic<int> completed{0};
  try {
    parallel_for(
        64,
        [&](size_t i) {
          if (i == 13) throw std::runtime_error("boom");
          completed.fetch_add(1);
        },
        4);
    FAIL() << "expected the task exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // Every non-throwing index still ran: one failure does not abandon
  // the range.
  EXPECT_EQ(completed.load(), 63);
}

TEST(ParallelFor, ExceptionOnSerialPathPropagates) {
  EXPECT_THROW(parallel_for(
                   4,
                   [](size_t i) {
                     if (i == 2) throw std::invalid_argument("serial boom");
                   },
                   1),
               std::invalid_argument);
}

TEST(ParallelFor, NestedParallelForRunsSeriallyOnTheWorker) {
  std::atomic<int> inner_calls{0};
  std::atomic<int> inner_off_thread{0};
  parallel_for(
      8,
      [&](size_t) {
        // A nested call from inside a worker must run serially on that
        // worker instead of spawning a second layer of threads.
        const std::thread::id worker = std::this_thread::get_id();
        parallel_for(
            8,
            [&](size_t) {
              inner_calls.fetch_add(1);
              if (std::this_thread::get_id() != worker)
                inner_off_thread.fetch_add(1);
            },
            4);
      },
      4);
  EXPECT_EQ(inner_calls.load(), 64);
  EXPECT_EQ(inner_off_thread.load(), 0);
}

// --- stop tokens ------------------------------------------------------------

TEST(StopToken, EmptyTokenNeverStops) {
  StopToken t;
  EXPECT_FALSE(t.stop_possible());
  EXPECT_FALSE(t.stop_requested());
  EXPECT_FALSE(t.deadline_expired());
}

TEST(StopToken, RequestStopTripsEveryToken) {
  StopSource src;
  StopToken a = src.token();
  StopToken b = src.token();
  EXPECT_TRUE(a.stop_possible());
  EXPECT_FALSE(a.stop_requested());
  src.request_stop();
  EXPECT_TRUE(a.stop_requested());
  EXPECT_TRUE(b.stop_requested());
  // An explicit stop is not a deadline.
  EXPECT_FALSE(a.deadline_expired());
}

TEST(StopToken, PastDeadlineTripsAndLatchesAsExpired) {
  const StopSource src = StopSource::with_deadline(
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
  StopToken t = src.token();
  EXPECT_TRUE(t.stop_requested());
  EXPECT_TRUE(t.deadline_expired());
}

TEST(StopToken, FutureDeadlineStillAllowsExplicitStop) {
  const StopSource src = StopSource::with_deadline(
      std::chrono::steady_clock::now() + std::chrono::hours(1));
  EXPECT_FALSE(src.token().stop_requested());
  src.request_stop();
  EXPECT_TRUE(src.token().stop_requested());
  EXPECT_FALSE(src.token().deadline_expired());
}

}  // namespace
}  // namespace otem::exec
