#include "tensor/threadpool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace hiergat {
namespace {

TEST(ThreadPoolTest, StartAndShutdown) {
  // Construction spawns the workers; destruction must join them even
  // when no task was ever dispatched (workers park immediately).
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
}

TEST(ThreadPoolTest, SingleLanePoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<int> calls;
  pool.ParallelFor(0, 100, 10, [&](int64_t b, int64_t e) {
    calls.push_back(static_cast<int>(e - b));
  });
  // Inline execution: one call covering the whole range, so unguarded
  // access to `calls` is safe.
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], 100);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int64_t kN = 10007;  // Prime: exercises the ragged tail chunk.
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(0, kN, 64, [&](int64_t b, int64_t e) {
    ASSERT_LT(b, e);
    for (int64_t i = b; i < e; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ChunkBoundariesAreDeterministic) {
  // The determinism contract: chunk boundaries derive from the
  // arguments alone. Collect them across repeated dispatches and
  // require the identical partition every time.
  ThreadPool pool(3);
  std::vector<std::pair<int64_t, int64_t>> first;
  for (int rep = 0; rep < 20; ++rep) {
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> chunks;
    pool.ParallelFor(0, 1000, 96, [&](int64_t b, int64_t e) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace_back(b, e);
    });
    std::sort(chunks.begin(), chunks.end());
    if (rep == 0) {
      first = chunks;
    } else {
      EXPECT_EQ(chunks, first);
    }
  }
}

TEST(ThreadPoolTest, ParkedWorkersWakeForLateTask) {
  ThreadPool pool(4);
  // Let the workers exhaust their spin budget and park.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(0, 1000, 10, [&](int64_t b, int64_t e) {
    int64_t local = 0;
    for (int64_t i = b; i < e; ++i) local += i;
    sum.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 1000 * 999 / 2);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> outer_chunks{0};
  std::atomic<int64_t> total{0};
  pool.ParallelFor(0, 8, 1, [&](int64_t ob, int64_t oe) {
    outer_chunks.fetch_add(1, std::memory_order_relaxed);
    // A nested call must not try to re-enter the (busy) pool.
    pool.ParallelFor(0, 100, 10, [&](int64_t b, int64_t e) {
      total.fetch_add(e - b, std::memory_order_relaxed);
      (void)ob;
      (void)oe;
    });
  });
  EXPECT_EQ(outer_chunks.load(), 8);
  EXPECT_EQ(total.load(), 8 * 100);
}

TEST(ThreadPoolTest, NestedParallelForOnAnotherPoolRunsInline) {
  // The thread budget: a chunk of pool A that calls ParallelFor on pool
  // B (one engine's chunk scoring through another engine) runs B's
  // range as one inline call on its own thread instead of fanning out
  // again.
  ThreadPool outer(4);
  ThreadPool inner(4);
  std::atomic<int> outer_chunks{0};
  std::atomic<int> bad_nested{0};
  outer.ParallelFor(0, 8, 1, [&](int64_t, int64_t) {
    outer_chunks.fetch_add(1, std::memory_order_relaxed);
    const std::thread::id self = std::this_thread::get_id();
    int calls = 0;  // Unguarded: inline means this thread only.
    inner.ParallelFor(0, 1000, 10, [&](int64_t b, int64_t e) {
      ++calls;
      if (std::this_thread::get_id() != self || b != 0 || e != 1000) {
        bad_nested.fetch_add(1, std::memory_order_relaxed);
      }
    });
    if (calls != 1) bad_nested.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(outer_chunks.load(), 8);
  EXPECT_EQ(bad_nested.load(), 0);
  // Leaving the outer task clears the nesting mark: the dispatching
  // thread's next call fans out again, one fn call per chunk.
  std::atomic<int> chunks{0};
  inner.ParallelFor(0, 1000, 10, [&](int64_t, int64_t) {
    chunks.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(chunks.load(), 100);
}

TEST(ThreadPoolTest, ThreadsGaugeSumsLivePools) {
  // Every engine owns a pool, so the gauge must count the lanes of all
  // of them, not whichever pool was built last.
  const obs::Gauge& lanes =
      obs::MetricsRegistry::Global().GetGauge("hiergat.threadpool.threads");
  const double before = lanes.Value();
  {
    ThreadPool three(3);
    ThreadPool two(2);
    EXPECT_EQ(lanes.Value(), before + 5);
  }
  EXPECT_EQ(lanes.Value(), before);
}

TEST(ThreadPoolTest, ConcurrentDispatchersSerialize) {
  // Several threads hammer the same pool; every dispatch must complete
  // with its own full coverage. TSan-checked via the `tsan` preset.
  ThreadPool pool(4);
  constexpr int kDispatchers = 4;
  constexpr int kReps = 25;
  std::vector<std::thread> threads;
  std::vector<int64_t> sums(kDispatchers, 0);
  for (int t = 0; t < kDispatchers; ++t) {
    threads.emplace_back([&pool, &sums, t]() {
      for (int rep = 0; rep < kReps; ++rep) {
        std::atomic<int64_t> sum{0};
        pool.ParallelFor(0, 501, 7, [&](int64_t b, int64_t e) {
          for (int64_t i = b; i < e; ++i) {
            sum.fetch_add(i, std::memory_order_relaxed);
          }
        });
        sums[static_cast<size_t>(t)] = sum.load();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kDispatchers; ++t) {
    EXPECT_EQ(sums[static_cast<size_t>(t)], 501 * 500 / 2);
  }
}

}  // namespace
}  // namespace hiergat
