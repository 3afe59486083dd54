// Host bounce buffer of one staged transfer block.
//
// The pinned and pipelined strategies (and the runtime's staged broadcast)
// copy every block through a host bounce buffer between device memory and
// the NIC. Its cost in virtual time is the PCIe and wire legs, which are
// charged to vt resources; how the host allocates it only moves wall time.
// So a bounce buffer is one plain allocation, owned by the operation that
// stages through it and freed when the last callback holding it lets go.
//
// A service job's staging quota is charged the buffer's exact size on
// construction and credited back on destruction.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "support/context.hpp"
#include "support/tenant.hpp"

namespace clmpi::xfer {

class StagingBuffer {
 public:
  /// Allocate `bytes` uninitialized and charge them to the current task's
  /// job (none for standalone runs); a QuotaError frees them again.
  explicit StagingBuffer(std::size_t bytes)
      : storage_(std::make_unique_for_overwrite<std::byte[]>(bytes)),
        size_(bytes),
        job_(ctx::current().job) {
    if (job_ != nullptr) job_->charge_staging(bytes);
  }
  StagingBuffer(const StagingBuffer&) = delete;
  StagingBuffer& operator=(const StagingBuffer&) = delete;
  ~StagingBuffer() {
    if (job_ != nullptr) job_->credit_staging(size_);
  }

  [[nodiscard]] std::byte* data() noexcept { return storage_.get(); }
  [[nodiscard]] std::span<std::byte> span() noexcept { return {storage_.get(), size_}; }

 private:
  std::unique_ptr<std::byte[]> storage_;
  std::size_t size_;
  tenant::JobControl* job_;
};

}  // namespace clmpi::xfer
