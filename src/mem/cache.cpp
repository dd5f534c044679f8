#include "mem/cache.hpp"

#include "sim/check.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace ccsim::mem {

DataCache::DataCache(std::size_t size_bytes) {
  const std::size_t sets = size_bytes / kBlockSize;
  assert(std::has_single_bit(sets) && "cache size must give a power-of-two set count");
  lines_.resize(sets);
}

std::uint64_t DataCache::read(Addr addr, std::size_t size) const {
  CCSIM_CHECK(within_word(addr, size),
              "addr=%#llx size=%zu: cache read crosses a word boundary",
              static_cast<unsigned long long>(addr), size);
  const CacheLine& l = set_for(block_of(addr));
  CCSIM_CHECK(l.valid() && l.block == block_of(addr),
              "addr=%#llx block=%#llx: cache read of a non-resident line "
              "(set holds %#llx, state %u)",
              static_cast<unsigned long long>(addr),
              static_cast<unsigned long long>(block_of(addr)),
              static_cast<unsigned long long>(l.block),
              static_cast<unsigned>(l.state));
  std::uint64_t v = 0;
  std::memcpy(&v, l.data.data() + offset_of(addr), size);
  return v;
}

void DataCache::write(Addr addr, std::size_t size, std::uint64_t value) {
  CCSIM_CHECK(within_word(addr, size),
              "addr=%#llx size=%zu: cache write crosses a word boundary",
              static_cast<unsigned long long>(addr), size);
  CacheLine& l = set_for(block_of(addr));
  CCSIM_CHECK(l.valid() && l.block == block_of(addr),
              "addr=%#llx block=%#llx: cache write to a non-resident line "
              "(set holds %#llx, state %u)",
              static_cast<unsigned long long>(addr),
              static_cast<unsigned long long>(block_of(addr)),
              static_cast<unsigned long long>(l.block),
              static_cast<unsigned>(l.state));
  std::memcpy(l.data.data() + offset_of(addr), &value, size);
}

void DataCache::notify(BlockAddr b) {
  auto it = std::find_if(watchers_.begin(), watchers_.end(),
                         [b](const Watcher& w) { return w.block == b; });
  if (it == watchers_.end()) return;
  // Move b's watchers out first: a watcher may re-subscribe synchronously.
  // The firing buffer keeps its capacity across calls; a nested notify
  // finds it taken and uses its own.
  std::vector<std::function<void()>> fire = std::move(firing_);
  auto keep = it;
  for (; it != watchers_.end(); ++it) {
    if (it->block == b)
      fire.push_back(std::move(it->fn));
    else
      *keep++ = std::move(*it);
  }
  watchers_.erase(keep, watchers_.end());
  for (auto& fn : fire) fn();
  fire.clear();
  firing_ = std::move(fire);
}

} // namespace ccsim::mem
