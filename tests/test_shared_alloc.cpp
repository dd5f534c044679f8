// Unit tests for the shared allocator (interleave + explicit placement).
#include "mem/shared_alloc.hpp"

#include <gtest/gtest.h>

namespace {

using namespace ccsim;
using namespace ccsim::mem;

TEST(SharedAlloc, StartsAtSharedBaseAligned) {
  SharedAllocator a(8);
  const Addr p = a.allocate(8);
  EXPECT_GE(p, kSharedBase);
  EXPECT_EQ(p % kWordSize, 0u);
}

TEST(SharedAlloc, InterleavedHomeIsBlockModNodes) {
  SharedAllocator a(8);
  const Addr p = a.allocate(16 * kBlockSize, kBlockSize);
  for (unsigned i = 0; i < 16; ++i) {
    const BlockAddr b = block_of(p) + i;
    EXPECT_EQ(a.home_of(b), b % 8);
  }
}

TEST(SharedAlloc, PlacementOverridesInterleave) {
  SharedAllocator a(8);
  const Addr p = a.allocate_on(5, 3 * kBlockSize);
  EXPECT_EQ(p % kBlockSize, 0u) << "placed regions are block aligned";
  for (unsigned i = 0; i < 3; ++i) EXPECT_EQ(a.home_of(block_of(p) + i), 5u);
}

TEST(SharedAlloc, PlacedRegionsNeverShareBlocks) {
  SharedAllocator a(4);
  const Addr p1 = a.allocate_on(1, 8);   // less than a block
  const Addr p2 = a.allocate_on(2, 8);
  EXPECT_NE(block_of(p1), block_of(p2));
  EXPECT_EQ(a.home_of(block_of(p1)), 1u);
  EXPECT_EQ(a.home_of(block_of(p2)), 2u);
}

TEST(SharedAlloc, AllocationsDoNotOverlap) {
  SharedAllocator a(4);
  const Addr p1 = a.allocate(24);
  const Addr p2 = a.allocate(8);
  const Addr p3 = a.allocate_on(0, 100);
  const Addr p4 = a.allocate(8);
  EXPECT_GE(p2, p1 + 24);
  EXPECT_GE(p3, p2 + 8);
  EXPECT_GE(p4, p3 + 100);
}

TEST(SharedAlloc, AlignmentRespected) {
  SharedAllocator a(4);
  (void)a.allocate(3);
  const Addr p = a.allocate(8, 64);
  EXPECT_EQ(p % 64, 0u);
}

TEST(SharedAlloc, UnplacedBlocksBesidePlacedOnesStayInterleaved) {
  // Placement tags live in per-block records; a record nothing placed must
  // read as interleaved, not as home 0.
  SharedAllocator a(8);
  const Addr placed = a.allocate_on(5, kBlockSize);
  const Addr inter = a.allocate(4 * kBlockSize, kBlockSize);
  EXPECT_EQ(a.home_of(block_of(placed)), 5u);
  for (unsigned i = 0; i < 4; ++i) {
    const BlockAddr b = block_of(inter) + i;
    EXPECT_EQ(a.home_of(b), b % 8) << i;
  }
  // Far past every record.
  const BlockAddr far = block_of(inter) + 100000;
  EXPECT_EQ(a.home_of(far), far % 8);
  EXPECT_EQ(a.domain_of(far), 0u);
}

TEST(SharedAlloc, DomainsTagBlocksAndPrivateBlocksKeepTheDefaults) {
  SharedAllocator a(4);
  const Addr p = a.allocate_on(3, 2 * kBlockSize);
  a.set_domain(p + kBlockSize, 8, 2);
  EXPECT_EQ(a.domain_of(block_of(p)), 0u);
  EXPECT_EQ(a.domain_of(block_of(p) + 1), 2u);
  EXPECT_EQ(a.home_of(block_of(p) + 1), 3u) << "a domain tag keeps the placement";
  // Private memory (below kSharedBase) has no records: Hybrid machines look
  // up the domain of every access, private ones included.
  EXPECT_EQ(a.domain_of(block_of(0x100)), 0u);
  EXPECT_EQ(a.home_of(block_of(0x100)), block_of(0x100) % 4);
}

} // namespace
