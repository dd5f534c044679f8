// Unit tests for home memory: data storage in the home table and bank
// contention in the memory module.
#include "mem/directory.hpp"
#include "mem/memory_module.hpp"

#include <gtest/gtest.h>

namespace {

using namespace ccsim;
using namespace ccsim::mem;
using AK = MemoryModule::AccessKind;

TEST(HomeMemory, ZeroInitialized) {
  HomeTable m;
  EXPECT_EQ(m.read_word(kSharedBase, 8), 0u);
}

TEST(HomeMemory, WordReadBack) {
  HomeTable m;
  m.write_word(kSharedBase + 16, 8, 0xdeadbeefcafef00dull);
  EXPECT_EQ(m.read_word(kSharedBase + 16, 8), 0xdeadbeefcafef00dull);
  EXPECT_EQ(m.read_word(kSharedBase + 16, 4), 0xcafef00du);
  m.write_word(kSharedBase + 20, 1, 0x42);
  EXPECT_EQ(m.read_word(kSharedBase + 20, 1), 0x42u);
}

TEST(HomeMemory, BlockReadWriteRoundTrip) {
  HomeTable m;
  std::array<std::byte, kBlockSize> blk{};
  blk[0] = std::byte{0xaa};
  blk[63] = std::byte{0x55};
  const BlockAddr b = block_of(kSharedBase);
  m.write_block(b, blk);
  EXPECT_EQ(m.read_block(b)[0], std::byte{0xaa});
  EXPECT_EQ(m.read_block(b)[63], std::byte{0x55});
  // word view of the same data
  EXPECT_EQ(m.read_word(kSharedBase, 1), 0xaau);
}

TEST(MemoryModule, BankTimingDefaults) {
  MemoryModule m;  // block_read = 20 + 7 per the paper's 20-cycle first word
  EXPECT_EQ(m.book(0, AK::BlockRead), 27u);
  EXPECT_EQ(m.book(100, AK::WordRead), 120u);
  EXPECT_EQ(m.book(200, AK::BlockWrite), 208u);
  EXPECT_EQ(m.book(300, AK::WordWrite), 304u);
  EXPECT_EQ(m.book(400, AK::DirOnly), 402u);
}

TEST(MemoryModule, BankContentionSerializes) {
  MemoryModule m;
  const Cycle t1 = m.book(0, AK::BlockRead);   // 0 -> 27
  const Cycle t2 = m.book(5, AK::BlockRead);   // queued: 27 -> 54
  const Cycle t3 = m.book(60, AK::DirOnly);    // idle again: 60 -> 62
  EXPECT_EQ(t1, 27u);
  EXPECT_EQ(t2, 54u);
  EXPECT_EQ(t3, 62u);
}

} // namespace
