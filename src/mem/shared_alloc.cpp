#include "mem/shared_alloc.hpp"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>

namespace ccsim::mem {

namespace {
Addr align_up(Addr a, std::size_t align) {
  return (a + align - 1) / align * align;
}
} // namespace

void SharedAllocator::record_region(Addr start, std::size_t size,
                                    std::string_view name) {
  if (name.empty()) return;
  regions_.push_back(Region{start, size, std::string(name)});
}

Addr SharedAllocator::allocate(std::size_t size, std::size_t align,
                               std::string_view name) {
  assert(size > 0);
  next_ = align_up(next_, align);
  const Addr a = next_;
  next_ += size;
  record_region(a, size, name);
  return a;
}

Addr SharedAllocator::allocate_on(NodeId home, std::size_t size,
                                  std::string_view name) {
  assert(home < nodes_);
  assert(size > 0);
  next_ = align_up(next_, kBlockSize);
  const Addr a = next_;
  next_ = align_up(next_ + size, kBlockSize);
  for (BlockAddr b = block_of(a); b < block_of(next_ - 1) + 1; ++b) tags_[b].home = home;
  record_region(a, size, name);
  return a;
}

std::string SharedAllocator::name_of(Addr a) const {
  // Regions are recorded with ascending start addresses: binary-search the
  // last region starting at or before `a`.
  auto it = std::upper_bound(
      regions_.begin(), regions_.end(), a,
      [](Addr v, const Region& r) { return v < r.start; });
  if (it == regions_.begin()) return {};
  --it;
  // Home placement pads to whole blocks; attribute the padding to the
  // region too (a block is hot as a unit).
  const Addr padded_end = align_up(it->start + it->size, kBlockSize);
  if (a >= padded_end) return {};
  std::string out = it->name;
  if (a != it->start) {
    char off[24];
    std::snprintf(off, sizeof off, "+0x%" PRIx64, a - it->start);
    out += off;
  }
  return out;
}

void SharedAllocator::set_domain(Addr start, std::size_t size, std::uint8_t domain) {
  assert(size > 0);
  for (BlockAddr b = block_of(start); b <= block_of(start + size - 1); ++b)
    tags_[b].domain = domain;
}

std::uint8_t SharedAllocator::domain_of(BlockAddr b) const {
  const BlockTag* t = tag(b);
  return t ? t->domain : 0;
}

NodeId SharedAllocator::home_of(BlockAddr b) const {
  if (const BlockTag* t = tag(b); t && t->home != kInvalidNode) return t->home;
  return static_cast<NodeId>(b % nodes_);
}

} // namespace ccsim::mem
