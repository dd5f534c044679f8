// Unit tests for the full-map directory.
#include "mem/directory.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace {

using namespace ccsim;
using namespace ccsim::mem;

constexpr BlockAddr kFirst = block_of(kSharedBase);

TEST(Directory, EntriesStartUnowned) {
  HomeTable d;
  const BlockAddr b = kFirst + 7;
  EXPECT_EQ(d.find(b), nullptr);
  DirEntry& e = d.entry(b);
  EXPECT_EQ(e.state, DirState::Unowned);
  EXPECT_EQ(e.sharers, 0u);
  EXPECT_NE(d.find(b), nullptr);
}

TEST(Directory, EntriesAreWalkedInBlockOrder) {
  HomeTable d;
  const BlockAddr late = kFirst + BlockTable<HomeBlock>::kChunkBlocks + 3;
  const BlockAddr early = kFirst + 5;
  d.entry(late).owner = 2;
  d.entry(early).owner = 1;
  // Memory alone is not an entry.
  const BlockAddr memory_only = kFirst + 9;
  d.write_word(block_base(memory_only), 8, 42);
  EXPECT_EQ(d.find(memory_only), nullptr);
  EXPECT_EQ(d.read_word(block_base(memory_only), 8), 42u);

  std::vector<std::pair<BlockAddr, NodeId>> walked;
  d.for_each_entry(
      [&](BlockAddr b, const DirEntry& e) { walked.emplace_back(b, e.owner); });
  const std::vector<std::pair<BlockAddr, NodeId>> want{{early, 1}, {late, 2}};
  EXPECT_EQ(walked, want);

  // Past the last chunk: no entry, and memory reads as zero.
  const BlockAddr beyond = kFirst + 10 * BlockTable<HomeBlock>::kChunkBlocks;
  EXPECT_EQ(d.find(beyond), nullptr);
  EXPECT_EQ(d.read_word(block_base(beyond), 8), 0u);
}

TEST(Directory, SharerBitOperations) {
  DirEntry e;
  e.add_sharer(0);
  e.add_sharer(31);
  EXPECT_TRUE(e.has_sharer(0));
  EXPECT_TRUE(e.has_sharer(31));
  EXPECT_FALSE(e.has_sharer(5));
  EXPECT_EQ(e.sharer_count(), 2u);
  e.remove_sharer(0);
  EXPECT_FALSE(e.has_sharer(0));
  EXPECT_EQ(e.sharer_count(), 1u);
  e.remove_sharer(0);  // idempotent
  EXPECT_EQ(e.sharer_count(), 1u);
}

TEST(Directory, OnlySharerIs) {
  DirEntry e;
  e.add_sharer(4);
  EXPECT_TRUE(e.only_sharer_is(4));
  EXPECT_FALSE(e.only_sharer_is(3));
  e.add_sharer(9);
  EXPECT_FALSE(e.only_sharer_is(4));
  e.remove_sharer(9);
  EXPECT_TRUE(e.only_sharer_is(4));
}

TEST(Directory, AllThirtyTwoSharers) {
  DirEntry e;
  for (NodeId i = 0; i < 32; ++i) e.add_sharer(i);
  EXPECT_EQ(e.sharer_count(), 32u);
  for (NodeId i = 0; i < 32; ++i) EXPECT_TRUE(e.has_sharer(i));
}

} // namespace
