// Device memory objects (cl_mem buffers).
//
// Simulation note: device memory is modelled as ordinary host memory owned by
// the Buffer; what makes it "device" memory is that every access path charges
// the appropriate virtual cost (PCIe DMA for read/write commands, mapped
// bandwidth for host access through a mapping, kernel access is free within
// the kernel's own cost model). A buffer belongs to its cluster's strand and
// holds no lock.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace clmpi::ocl {

class Context;

enum class MemFlags {
  read_write,
  read_only,
  write_only,
};

class Buffer {
 public:
  Buffer(Context* ctx, std::size_t size, MemFlags flags, std::string label);

  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return storage_.size(); }
  [[nodiscard]] MemFlags flags() const noexcept { return flags_; }
  [[nodiscard]] const std::string& label() const noexcept { return label_; }
  [[nodiscard]] Context* context() const noexcept { return ctx_; }

  /// Raw device storage. Runtime-internal: commands and transfer strategies
  /// use this; applications go through queue commands or mappings.
  [[nodiscard]] std::span<std::byte> storage() noexcept { return storage_; }
  [[nodiscard]] std::span<const std::byte> storage() const noexcept { return storage_; }

  /// Typed view of the device storage (element count = size / sizeof(T)).
  template <typename T>
  [[nodiscard]] std::span<T> as() noexcept {
    return {reinterpret_cast<T*>(storage_.data()), storage_.size() / sizeof(T)};
  }
  template <typename T>
  [[nodiscard]] std::span<const T> as() const noexcept {
    return {reinterpret_cast<const T*>(storage_.data()), storage_.size() / sizeof(T)};
  }

  // --- mapping state (clEnqueueMapBuffer bookkeeping) ----------------------

  /// Record a mapping; returns the host-visible pointer for [offset, size).
  std::byte* map_region(std::size_t offset, std::size_t size);

  /// Release a mapping previously returned by map_region.
  void unmap_region(const std::byte* ptr);

  [[nodiscard]] int active_mappings() const noexcept {
    return static_cast<int>(mappings_.size());
  }

 private:
  Context* ctx_;
  MemFlags flags_;
  std::string label_;
  std::vector<std::byte> storage_;
  std::vector<const std::byte*> mappings_;
};

using BufferPtr = std::shared_ptr<Buffer>;

}  // namespace clmpi::ocl
