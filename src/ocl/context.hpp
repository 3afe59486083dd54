// Contexts: resource containers (buffers, user events, queues) bound to a
// device, the OpenCL analogue of a process.
#pragma once

#include <memory>
#include <string>

#include "ocl/buffer.hpp"
#include "ocl/device.hpp"
#include "ocl/event.hpp"
#include "ocl/queue.hpp"

namespace clmpi::ocl {

class Context {
 public:
  explicit Context(Device& device);

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  [[nodiscard]] Device& device() noexcept { return *device_; }
  [[nodiscard]] const sys::SystemProfile& profile() const noexcept {
    return device_->profile();
  }

  /// clCreateBuffer.
  [[nodiscard]] BufferPtr create_buffer(std::size_t size,
                                        MemFlags flags = MemFlags::read_write,
                                        std::string label = "buf");

  /// clCreateUserEvent.
  [[nodiscard]] std::shared_ptr<UserEvent> create_user_event(std::string label = "user");

  /// clCreateCommandQueue; in-order by default, out-of-order with
  /// QueueOrder::out_of_order (CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE).
  /// Needs a running rank: off a scheduler strand it throws
  /// PreconditionError.
  [[nodiscard]] std::unique_ptr<CommandQueue> create_queue(
      std::string label = "cmd", QueueOrder order = QueueOrder::in_order);

 private:
  Device* device_;
  int next_queue_{0};
};

}  // namespace clmpi::ocl
