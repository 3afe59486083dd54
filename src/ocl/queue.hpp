// In-order command queues (OpenCL 1.1 semantics).
//
// Each queue runs a worker fiber on the strand of the cluster that created
// it (a queue needs a running rank: constructing one off a strand throws
// PreconditionError). The queue belongs to that strand and holds no lock;
// enqueueing from another strand fails its owner check. A command executes
// once (a) every earlier command in the same queue has completed (in-order
// dispatch) and (b) every event in its wait list has completed. The host
// thread never blocks on enqueue (unless it asks to); that is the property
// the clMPI extension builds on: its inter-node communication commands are
// enqueued here like any other command, and dependent work is chained with
// events instead of host-side waiting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "ocl/buffer.hpp"
#include "ocl/device.hpp"
#include "ocl/event.hpp"
#include "ocl/kernel.hpp"
#include "support/sched.hpp"
#include "vt/clock.hpp"

namespace clmpi::ocl {

class Context;

/// Wait list: events that must complete before the command may run.
using WaitList = std::span<const EventPtr>;

/// Queue ordering semantics (clCreateCommandQueue properties).
enum class QueueOrder {
  /// Default OpenCL 1.1: a command starts only after the previous command
  /// in the queue completed.
  in_order,
  /// CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE: commands are gated by their
  /// wait lists (and explicit barriers) only. Side effects still execute on
  /// the single queue worker in release order; the *virtual* schedule is
  /// out-of-order.
  out_of_order,
};

class CommandQueue {
 public:
  CommandQueue(Context& ctx, Device& dev, std::string label,
               QueueOrder order = QueueOrder::in_order);
  ~CommandQueue();

  CommandQueue(const CommandQueue&) = delete;
  CommandQueue& operator=(const CommandQueue&) = delete;

  [[nodiscard]] Device& device() noexcept { return *device_; }
  [[nodiscard]] Context& context() noexcept { return *ctx_; }
  [[nodiscard]] const std::string& label() const noexcept { return label_; }

  // --- data movement -------------------------------------------------------
  // `pinned_host` marks the host pointer as page-locked memory (the vendor
  // idiom of the paper's footnote 1), which selects the faster DMA path.

  EventPtr enqueue_read_buffer(const BufferPtr& buf, bool blocking, std::size_t offset,
                               std::size_t size, void* dst, WaitList waits, vt::Clock& clock,
                               bool pinned_host = false);
  EventPtr enqueue_write_buffer(const BufferPtr& buf, bool blocking, std::size_t offset,
                                std::size_t size, const void* src, WaitList waits,
                                vt::Clock& clock, bool pinned_host = false);
  EventPtr enqueue_copy_buffer(const BufferPtr& src, const BufferPtr& dst,
                               std::size_t src_offset, std::size_t dst_offset,
                               std::size_t size, WaitList waits, vt::Clock& clock);

  struct Mapping {
    std::byte* ptr{nullptr};
    EventPtr event;
  };
  /// clEnqueueMapBuffer: expose [offset, offset+size) to the host.
  Mapping enqueue_map_buffer(const BufferPtr& buf, bool blocking, std::size_t offset,
                             std::size_t size, WaitList waits, vt::Clock& clock);
  EventPtr enqueue_unmap(const BufferPtr& buf, std::byte* ptr, WaitList waits,
                         vt::Clock& clock);

  // --- compute --------------------------------------------------------------

  /// clEnqueueNDRangeKernel: argument bindings are snapshotted now.
  EventPtr enqueue_ndrange(const KernelPtr& kernel, const NDRange& range, WaitList waits,
                           vt::Clock& clock);

  // --- ordering -------------------------------------------------------------

  /// clEnqueueMarkerWithWaitList: completes after the waits and all earlier
  /// commands.
  EventPtr enqueue_marker(WaitList waits, vt::Clock& clock);

  /// clEnqueueBarrierWithWaitList: subsequent commands of an out-of-order
  /// queue wait for everything enqueued before the barrier (and `waits`).
  /// On an in-order queue it is equivalent to a marker.
  EventPtr enqueue_barrier(WaitList waits, vt::Clock& clock);

  [[nodiscard]] QueueOrder order() const noexcept { return order_; }

  /// clFinish: block until every enqueued command has completed.
  void finish(vt::Clock& clock);

  /// Number of commands executed so far (observability for tests).
  [[nodiscard]] std::size_t commands_executed() const noexcept { return executed_; }

 private:
  struct Command {
    std::string label;
    std::vector<EventPtr> waits;
    EventPtr event;
    vt::TimePoint enqueue_time;
    std::function<vt::Resource::Span(vt::TimePoint)> body;
  };

  EventPtr push(std::string op_label, WaitList waits, vt::Clock& clock,
                std::function<vt::Resource::Span(vt::TimePoint)> body);
  void worker_loop();

  Context* ctx_;
  Device* device_;
  std::string label_;
  QueueOrder order_;

  /// The creating (and only) strand allowed to enqueue.
  std::uint64_t strand_;
  std::deque<Command> pending_;
  bool shutdown_{false};
  std::size_t executed_{0};
  vt::TimePoint prev_end_{};

  // Out-of-order bookkeeping (touched only from the enqueueing side):
  // events since the last barrier, and the barrier gate itself.
  std::vector<EventPtr> since_barrier_;
  EventPtr barrier_gate_;

  // A fiber on the creator's strand.
  sched::ServiceHandle worker_;
};

}  // namespace clmpi::ocl
