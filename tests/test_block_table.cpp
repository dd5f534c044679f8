// Unit tests for mem::BlockTable: first-touch growth, lookups past the
// end, stable references across growth, address-order iteration, and the
// check on blocks below the shared segment.
#include "mem/block_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace {

using namespace ccsim;
using mem::BlockAddr;
using mem::BlockTable;

constexpr BlockAddr kFirst = mem::block_of(mem::kSharedBase);
constexpr std::size_t kChunk = BlockTable<int>::kChunkBlocks;

struct Rec {
  std::uint64_t count = 0;
  NodeId owner = kInvalidNode;  // a default member initializer survives
};

TEST(BlockTable, FirstTouchValueInitializesTheRecord) {
  BlockTable<Rec> t;
  Rec& r = t[kFirst + 3];
  EXPECT_EQ(r.count, 0u);
  EXPECT_EQ(r.owner, kInvalidNode);
  r.count = 7;
  EXPECT_EQ(t[kFirst + 3].count, 7u);
  EXPECT_EQ(t[kFirst + 4].count, 0u);
}

TEST(BlockTable, FindReturnsNullBeforeAnyTouchAndPastTheLastChunk) {
  BlockTable<Rec> t;
  EXPECT_EQ(t.find(kFirst), nullptr);
  t[kFirst + 1].count = 5;
  ASSERT_NE(t.find(kFirst + 1), nullptr);
  EXPECT_EQ(t.find(kFirst + 1)->count, 5u);
  // The rest of the touched chunk exists, at its default.
  ASSERT_NE(t.find(kFirst + kChunk - 1), nullptr);
  EXPECT_EQ(t.find(kFirst + kChunk - 1)->count, 0u);
  EXPECT_EQ(t.find(kFirst + kChunk), nullptr);
  const BlockTable<Rec>& ct = t;
  EXPECT_EQ(ct.find(kFirst + 10 * kChunk), nullptr);
}

TEST(BlockTable, ReferencesSurviveGrowthSeveralChunksFurther) {
  BlockTable<Rec> t;
  Rec& early = t[kFirst + 2];
  early.count = 11;
  // Growing by many chunks reallocates the chunk-pointer vector, never a
  // chunk: the reference still names the record the table holds.
  for (std::size_t c = 1; c <= 40; ++c) t[kFirst + c * kChunk + 5].count = c;
  EXPECT_EQ(early.count, 11u);
  early.count = 12;
  EXPECT_EQ(t.find(kFirst + 2)->count, 12u);
  EXPECT_EQ(&t[kFirst + 2], &early);
  EXPECT_EQ(t.find(kFirst + 40 * kChunk + 5)->count, 40u);
}

TEST(BlockTable, ForEachVisitsBlocksInAddressOrder) {
  BlockTable<Rec> t;
  t[kFirst + 2 * kChunk + 1].count = 3;  // touched out of order
  t[kFirst + 5].count = 1;
  t[kFirst + kChunk].count = 2;
  std::vector<BlockAddr> seen;
  std::vector<std::uint64_t> counts;
  const BlockTable<Rec>& ct = t;
  ct.for_each([&](BlockAddr b, const Rec& r) {
    seen.push_back(b);
    if (r.count != 0) counts.push_back(r.count);
    else EXPECT_EQ(r.owner, kInvalidNode) << "untouched slot not at its default";
  });
  ASSERT_EQ(seen.size(), 3 * kChunk);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], kFirst + i);
  EXPECT_EQ(counts, (std::vector<std::uint64_t>{1, 2, 3}));
  // The mutable walk reaches the same records.
  t.for_each([](BlockAddr, Rec& r) { r.count *= 10; });
  EXPECT_EQ(t.find(kFirst + 2 * kChunk + 1)->count, 30u);
}

TEST(BlockTableDeathTest, BlockBelowTheSharedSegmentDies) {
  BlockTable<Rec> t;
  EXPECT_DEATH((void)t[kFirst - 1], "lies below the shared segment");
  EXPECT_DEATH((void)t.find(0), "block 0 lies below the shared segment");
}

} // namespace
