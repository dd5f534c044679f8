// Unit tests for the 4-entry write buffer.
#include "mem/write_buffer.hpp"

#include <gtest/gtest.h>

namespace {

using namespace ccsim;
using namespace ccsim::mem;

TEST(WriteBuffer, CapacityAndFifo) {
  WriteBuffer wb;
  EXPECT_TRUE(wb.empty());
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(wb.full());
    wb.push({kSharedBase + i * 8, 8, i});
  }
  EXPECT_TRUE(wb.full());
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(wb.front().value, i);
    wb.pop();
  }
  EXPECT_TRUE(wb.empty());
}

TEST(WriteBuffer, ForwardsNewestExactMatch) {
  WriteBuffer wb;
  const Addr a = kSharedBase;
  wb.push({a, 8, 1});
  wb.push({a + 8, 8, 2});
  wb.push({a, 8, 3});  // newer write to the same word
  auto f = wb.forward(a, 8);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(*f, 3u);
  EXPECT_FALSE(wb.forward(a + 16, 8).has_value());
}

TEST(WriteBuffer, ForwardRequiresExactSize) {
  WriteBuffer wb;
  wb.push({kSharedBase, 8, 42});
  EXPECT_FALSE(wb.forward(kSharedBase, 4).has_value());
  EXPECT_TRUE(wb.partially_overlaps(kSharedBase, 4));
}

TEST(WriteBuffer, PartialOverlapDetection) {
  WriteBuffer wb;
  wb.push({kSharedBase + 4, 4, 7});
  EXPECT_TRUE(wb.partially_overlaps(kSharedBase, 8));   // covers bytes 4..7
  EXPECT_FALSE(wb.partially_overlaps(kSharedBase, 4));  // disjoint bytes 0..3
  EXPECT_FALSE(wb.partially_overlaps(kSharedBase + 4, 4));  // exact match
}

TEST(WriteBuffer, ContainsBlock) {
  WriteBuffer wb;
  wb.push({kSharedBase + 24, 8, 1});
  EXPECT_TRUE(wb.contains_block(block_of(kSharedBase)));
  EXPECT_FALSE(wb.contains_block(block_of(kSharedBase) + 1));
}

} // namespace
