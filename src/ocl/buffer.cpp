#include "ocl/buffer.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/units.hpp"

namespace clmpi::ocl {

Buffer::Buffer(Context* ctx, std::size_t size, MemFlags flags, std::string label)
    : ctx_(ctx), flags_(flags), label_(std::move(label)), storage_(size) {
  CLMPI_REQUIRE(size > 0, "buffer size must be positive");
}

std::byte* Buffer::map_region(std::size_t offset, std::size_t size) {
  CLMPI_REQUIRE(region_fits(offset, size, storage_.size()), "mapping outside the buffer");
  std::byte* ptr = storage_.data() + offset;
  mappings_.push_back(ptr);
  return ptr;
}

void Buffer::unmap_region(const std::byte* ptr) {
  auto it = std::find(mappings_.begin(), mappings_.end(), ptr);
  CLMPI_REQUIRE(it != mappings_.end(), "unmap of a pointer that is not mapped");
  mappings_.erase(it);
}

}  // namespace clmpi::ocl
