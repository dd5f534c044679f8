#include "mem/directory.hpp"

#include "sim/check.hpp"

#include <cstring>

namespace ccsim::mem {

std::uint64_t HomeTable::read_word(Addr addr, std::size_t size) const {
  CCSIM_CHECK(within_word(addr, size),
              "addr=%#llx size=%zu: memory read crosses a word boundary",
              static_cast<unsigned long long>(addr), size);
  std::uint64_t v = 0;
  if (const HomeBlock* h = blocks_.find(block_of(addr)))
    std::memcpy(&v, h->data.data() + offset_of(addr), size);
  return v;
}

void HomeTable::write_word(Addr addr, std::size_t size, std::uint64_t value) {
  CCSIM_CHECK(within_word(addr, size),
              "addr=%#llx size=%zu: memory write crosses a word boundary",
              static_cast<unsigned long long>(addr), size);
  std::memcpy(blocks_[block_of(addr)].data.data() + offset_of(addr), &value, size);
}

} // namespace ccsim::mem
