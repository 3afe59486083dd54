#include "ocl/queue.hpp"

#include <cstring>

#include "ocl/context.hpp"
#include "support/error.hpp"
#include "support/units.hpp"

namespace clmpi::ocl {

namespace {
/// Host CPU cost of one enqueue call (driver overhead).
constexpr vt::Duration kEnqueueOverhead = vt::microseconds(2.0);
}  // namespace

CommandQueue::CommandQueue(Context& ctx, Device& dev, std::string label, QueueOrder order)
    : ctx_(&ctx),
      device_(&dev),
      label_(std::move(label)),
      order_(order),
      strand_(sched::current_strand()) {
  CLMPI_REQUIRE(strand_ != 0,
                "a command queue needs a running rank: create it inside Cluster::run");
  worker_ = sched::spawn_service(label_, [this] { worker_loop(); });
}

CommandQueue::~CommandQueue() {
  shutdown_ = true;
  worker_.join();
}

EventPtr CommandQueue::push(std::string op_label, WaitList waits, vt::Clock& clock,
                            std::function<vt::Resource::Span(vt::TimePoint)> body) {
  CLMPI_REQUIRE(sched::current_strand() == strand_,
                "command queue used from outside the strand that created it");
  CLMPI_REQUIRE(!shutdown_, "enqueue on a released command queue");
  for (const EventPtr& w : waits) {
    CLMPI_REQUIRE(w != nullptr, "null event in wait list");
  }
  clock.advance(kEnqueueOverhead);

  auto event = std::make_shared<Event>(op_label);
  event->mark_queued(clock.now());

  Command cmd;
  cmd.label = std::move(op_label);
  cmd.waits.assign(waits.begin(), waits.end());
  cmd.event = event;
  cmd.enqueue_time = clock.now();
  cmd.body = std::move(body);
  if (order_ == QueueOrder::out_of_order) {
    // Out-of-order commands are gated by the last barrier instead of by the
    // previous command.
    if (barrier_gate_) cmd.waits.push_back(barrier_gate_);
    since_barrier_.push_back(event);
  }
  pending_.push_back(std::move(cmd));
  return event;
}

void CommandQueue::worker_loop() {
  for (;;) {
    sched::wait([this] { return shutdown_ || !pending_.empty(); }, "ocl.queue.idle",
                /*interruptible=*/false);
    if (pending_.empty()) return;  // shutdown with a drained queue
    Command cmd = std::move(pending_.front());
    pending_.pop_front();

    // In-order dispatch: a command is submitted once the previous one
    // ended. Out-of-order queues are gated by wait lists (and barriers)
    // only; their side effects still run in release order on this worker.
    vt::TimePoint ready = cmd.enqueue_time;
    if (order_ == QueueOrder::in_order) ready = vt::max(ready, prev_end_);
    cmd.event->mark_submitted(ready);
    try {
      for (const EventPtr& w : cmd.waits) ready = vt::max(ready, w->wait());
      const vt::Resource::Span span = cmd.body(ready);
      cmd.event->mark_running(span.start);
      prev_end_ = span.end;
      // Count before completing the event: finish() observers must see the
      // command as executed once its event fires.
      ++executed_;
      cmd.event->settle(span.end);
    } catch (...) {
      // A failed command (or failed dependency) poisons this command's
      // event; waiters rethrow. The queue itself keeps running.
      prev_end_ = ready;
      ++executed_;
      cmd.event->settle(ready, std::current_exception());
    }
  }
}

EventPtr CommandQueue::enqueue_read_buffer(const BufferPtr& buf, bool blocking,
                                           std::size_t offset, std::size_t size, void* dst,
                                           WaitList waits, vt::Clock& clock,
                                           bool pinned_host) {
  CLMPI_REQUIRE(buf != nullptr, "read from a null buffer");
  CLMPI_REQUIRE(region_fits(offset, size, buf->size()), "read outside the buffer");
  CLMPI_REQUIRE(dst != nullptr, "read into a null host pointer");

  EventPtr ev = push(
      "read " + buf->label(), waits, clock, [=, dev = device_](vt::TimePoint ready) {
        const auto span = dev->charge_dma(ready, size, /*to_device=*/false, pinned_host);
        std::memcpy(dst, buf->storage().data() + offset, size);
        return span;
      });
  if (blocking) {
    traced_wait(ev, clock, device_->tracer(), device_->node(), "wait read " + buf->label());
  }
  return ev;
}

EventPtr CommandQueue::enqueue_write_buffer(const BufferPtr& buf, bool blocking,
                                            std::size_t offset, std::size_t size,
                                            const void* src, WaitList waits, vt::Clock& clock,
                                            bool pinned_host) {
  CLMPI_REQUIRE(buf != nullptr, "write to a null buffer");
  CLMPI_REQUIRE(region_fits(offset, size, buf->size()), "write outside the buffer");
  CLMPI_REQUIRE(src != nullptr, "write from a null host pointer");

  EventPtr ev = push(
      "write " + buf->label(), waits, clock, [=, dev = device_](vt::TimePoint ready) {
        const auto span = dev->charge_dma(ready, size, /*to_device=*/true, pinned_host);
        std::memcpy(buf->storage().data() + offset, src, size);
        return span;
      });
  if (blocking) {
    traced_wait(ev, clock, device_->tracer(), device_->node(), "wait write " + buf->label());
  }
  return ev;
}

EventPtr CommandQueue::enqueue_copy_buffer(const BufferPtr& src, const BufferPtr& dst,
                                           std::size_t src_offset, std::size_t dst_offset,
                                           std::size_t size, WaitList waits,
                                           vt::Clock& clock) {
  CLMPI_REQUIRE(src != nullptr && dst != nullptr, "copy with a null buffer");
  CLMPI_REQUIRE(region_fits(src_offset, size, src->size()), "copy outside the source buffer");
  CLMPI_REQUIRE(region_fits(dst_offset, size, dst->size()), "copy outside the destination buffer");

  return push("copy " + src->label() + "->" + dst->label(), waits, clock,
              [=, dev = device_](vt::TimePoint ready) {
                // Device-to-device copy moves at pinned-DMA rate on the copy
                // engine.
                const auto span = dev->charge_dma(ready, size, /*to_device=*/true,
                                                  /*pinned_host=*/true);
                std::memcpy(dst->storage().data() + dst_offset,
                            src->storage().data() + src_offset, size);
                return span;
              });
}

CommandQueue::Mapping CommandQueue::enqueue_map_buffer(const BufferPtr& buf, bool blocking,
                                                       std::size_t offset, std::size_t size,
                                                       WaitList waits, vt::Clock& clock) {
  CLMPI_REQUIRE(buf != nullptr, "map of a null buffer");
  std::byte* ptr = buf->map_region(offset, size);
  EventPtr ev = push("map " + buf->label(), waits, clock,
                     [dev = device_](vt::TimePoint ready) {
                       const auto cost = dev->profile().pcie.map_setup;
                       return dev->copy_engine().acquire(ready, cost);
                     });
  if (blocking) {
    traced_wait(ev, clock, device_->tracer(), device_->node(), "wait map " + buf->label());
  }
  return {ptr, ev};
}

EventPtr CommandQueue::enqueue_unmap(const BufferPtr& buf, std::byte* ptr, WaitList waits,
                                     vt::Clock& clock) {
  CLMPI_REQUIRE(buf != nullptr, "unmap of a null buffer");
  buf->unmap_region(ptr);
  return push("unmap " + buf->label(), waits, clock, [dev = device_](vt::TimePoint ready) {
    const auto cost = dev->profile().pcie.map_setup;
    return dev->copy_engine().acquire(ready, cost);
  });
}

EventPtr CommandQueue::enqueue_ndrange(const KernelPtr& kernel, const NDRange& range,
                                       WaitList waits, vt::Clock& clock) {
  CLMPI_REQUIRE(kernel != nullptr, "launch of a null kernel");
  CLMPI_REQUIRE(range.total() > 0, "launch with an empty NDRange");

  // Snapshot the argument bindings (clSetKernelArg semantics).
  auto args = std::make_shared<std::vector<KernelArg>>(kernel->args());
  return push(kernel->name(), waits, clock, [=, dev = device_](vt::TimePoint ready) {
    const vt::Duration cost = kernel->cost()(range, dev->profile());
    const auto span = dev->charge_kernel(ready, cost, kernel->name());
    KernelArgs view(*args);
    kernel->body()(range, view);
    return span;
  });
}

EventPtr CommandQueue::enqueue_marker(WaitList waits, vt::Clock& clock) {
  return push("marker", waits, clock,
              [](vt::TimePoint ready) { return vt::Resource::Span{ready, ready}; });
}

EventPtr CommandQueue::enqueue_barrier(WaitList waits, vt::Clock& clock) {
  std::vector<EventPtr> all(waits.begin(), waits.end());
  if (order_ == QueueOrder::out_of_order) {
    all.insert(all.end(), since_barrier_.begin(), since_barrier_.end());
  }
  EventPtr ev = push("queue-barrier", all, clock,
                     [](vt::TimePoint ready) { return vt::Resource::Span{ready, ready}; });
  if (order_ == QueueOrder::out_of_order) {
    barrier_gate_ = ev;
    since_barrier_.clear();
  }
  return ev;
}

void CommandQueue::finish(vt::Clock& clock) {
  // A barrier covers both orderings: on an in-order queue it drains by
  // queue position; on an out-of-order queue it waits everything enqueued.
  EventPtr barrier = enqueue_barrier({}, clock);
  traced_wait(barrier, clock, device_->tracer(), device_->node(), "clFinish " + label_);
}

}  // namespace clmpi::ocl
