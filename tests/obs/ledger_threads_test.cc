// Concurrency test for the cost ledger (src/obs/ledger.cc), with TSan as the
// oracle (the thread-sanitizer CI preset runs this suite under
// -fsanitize=thread):
//  - tallies: relaxed fetch_adds on one shared slot array from many
//    threads must lose no call, and each thread's nesting is its own;
//  - tally vs. snapshot vs. reset vs. toggle: readers may tear between
//    layers, but a TSan report is a failure. A scope that opened enabled
//    finishes its tally; one that opened idle stays a no-op.
#include "obs/ledger.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace gametrace::obs {
namespace {

std::uint64_t Calls(Layer layer) { return LedgerSnapshot()[static_cast<std::size_t>(layer)].calls; }

TEST(LedgerThreads, ConcurrentScopesCountExactly) {
  EnableLedger(true);
  ResetLedger();
  constexpr int kThreads = 8;
  constexpr int kScopesPerThread = 2000;

  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kScopesPerThread; ++i) {
        const LayerScope outer(Layer::kFleetMerge);
        const LayerScope inner(Layer::kCoreCharacterize);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  EnableLedger(false);

  constexpr auto kExpected = static_cast<std::uint64_t>(kThreads) * kScopesPerThread;
  EXPECT_EQ(Calls(Layer::kFleetMerge), kExpected);
  EXPECT_EQ(Calls(Layer::kCoreCharacterize), kExpected);
  EXPECT_EQ(Calls(Layer::kRun), 0u);
}

TEST(LedgerThreads, TalliesRaceSnapshotsResetsAndToggles) {
  EnableLedger(true);
  constexpr int kWriters = 4;
  constexpr int kIterations = 400;

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        const LayerScope outer(Layer::kSimDispatch);
        const LayerScope inner(Layer::kGameGenerate);
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const LedgerTallies tallies = LedgerSnapshot();
      static_cast<void>(tallies);
      std::this_thread::yield();
    }
  });
  std::thread toggler([&] {
    for (int i = 0; i < 50; ++i) {
      EnableLedger(i % 2 == 0);
      std::this_thread::yield();
    }
    EnableLedger(true);
  });
  std::thread resetter([&] {
    for (int i = 0; i < 20; ++i) {
      ResetLedger();
      std::this_thread::yield();
    }
  });

  for (std::thread& t : writers) t.join();
  toggler.join();
  resetter.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // Post-quiescence: the ledger still counts exactly.
  ResetLedger();
  {
    const LayerScope scope(Layer::kGameGenerate);
  }
  EnableLedger(false);
  EXPECT_EQ(Calls(Layer::kGameGenerate), 1u);
  EXPECT_EQ(Calls(Layer::kSimDispatch), 0u);
}

TEST(LedgerThreads, DisabledScopesStayNoOpsUnderContention) {
  EnableLedger(false);
  ResetLedger();
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 500; ++i) {
        const LayerScope scope(Layer::kRouterNat);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(Calls(Layer::kRouterNat), 0u);
}

}  // namespace
}  // namespace gametrace::obs
