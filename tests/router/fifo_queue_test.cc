#include "router/fifo_queue.h"

#include <gtest/gtest.h>

#include "core/check.h"

namespace gametrace::router {
namespace {

TEST(FifoQueue, Validation) { EXPECT_THROW(FifoQueue(0), gametrace::ContractViolation); }

TEST(FifoQueue, PushPopFifoOrder) {
  FifoQueue q(10);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_TRUE(q.TryPush(i));
  for (std::uint32_t i = 0; i < 5; ++i) {
    const auto row = q.Pop();
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ(*row, i);
  }
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(FifoQueue, DropTailWhenFull) {
  FifoQueue q(3);
  EXPECT_TRUE(q.TryPush(0));
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.TryPush(3));
  EXPECT_EQ(q.size(), 3u);
  // The survivors are the first three (drop-tail, not drop-head).
  EXPECT_EQ(q.Pop(), 0u);
}

TEST(FifoQueue, SpaceReopensAfterPop) {
  FifoQueue q(1);
  EXPECT_TRUE(q.TryPush(0));
  EXPECT_FALSE(q.TryPush(1));
  (void)q.Pop();
  EXPECT_TRUE(q.TryPush(2));
}

TEST(FifoQueue, RowIdsPreservedAcrossGrowthAndWrap) {
  // The ring starts small and grows on demand: interleave pushes and pops
  // so the live range wraps before and after each growth.
  FifoQueue q(100);
  std::uint32_t next_in = 1000;
  std::uint32_t next_out = 1000;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.TryPush(next_in++));
    ASSERT_EQ(q.Pop(), next_out++);
  }
  EXPECT_EQ(q.size(), 80u);
  while (!q.empty()) ASSERT_EQ(q.Pop(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

}  // namespace
}  // namespace gametrace::router
