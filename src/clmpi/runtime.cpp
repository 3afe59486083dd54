#include "clmpi/runtime.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "simmpi/cluster_core.hpp"
#include "simmpi/progress.hpp"
#include "simmpi/datatype.hpp"
#include "transfer/async.hpp"
#include "transfer/staging.hpp"
#include "transfer/wire.hpp"
#include "support/error.hpp"
#include "support/units.hpp"

namespace clmpi::rt {

namespace {

/// One request over `subs`, settled through a vt::Join once every
/// sub-request has: at the latest of their times, failed with the first
/// failure. This is how MPI_CL_MEM operations present a pipelined wire
/// decomposition as a single MPI_Request; since it waits for every block,
/// failed or not, callers may free the cl_mem once it settles.
mpi::Request join_requests(std::vector<mpi::Request> subs, const mpi::MsgStatus& st) {
  auto state = mpi::detail::make_request_state();
  const vt::Join arrive(subs.size(),
                        [state, st](vt::TimePoint when, const std::exception_ptr& err) {
                          if (err) {
                            state->fail(when, err);
                          } else {
                            state->complete(when, st);
                          }
                        });
  for (mpi::Request& sub : subs) sub.on_settle(arrive);
  return mpi::Request(std::move(state));
}

/// Eager argument validation for buffer transfer commands. Misuse surfaces
/// as a typed Status at enqueue time — the C API maps it to a defined error
/// code — instead of a precondition failure deep inside the transfer layer
/// (or worse, on the dispatcher thread after the call already returned).
void validate_transfer_args(const ocl::BufferPtr& buf, std::size_t offset, std::size_t size,
                            int peer, int tag, const mpi::Comm& comm) {
  // A zero-size transfer is legal: it is carried as a single empty message
  // (matching-only, no payload wire time) under every strategy, mirroring
  // the RMA rule below and the transfer layer's empty-pipeline handling.
  if (!region_fits(offset, size, buf->size())) {
    throw Error("transfer region outside the device buffer", Status::invalid_value);
  }
  if (peer < 0 || peer >= comm.size()) {
    throw Error("peer rank " + std::to_string(peer) + " outside the comm group of size " +
                    std::to_string(comm.size()),
                Status::invalid_rank);
  }
  if (tag < 0 || tag > mpi::max_user_tag) {
    throw Error("tag " + std::to_string(tag) + " outside the user tag space [0, " +
                    std::to_string(mpi::max_user_tag) + "]",
                Status::invalid_tag);
  }
}

/// Eager validation for RMA access commands (put/get). Unlike two-sided
/// transfers, zero-size accesses are legal (latency-only wire at the fence).
void validate_rma_args(const ocl::BufferPtr& buf, std::size_t offset, std::size_t size,
                       int target, std::size_t target_offset, const mpi::Win& win) {
  if (!win.valid()) {
    throw Error("invalid RMA window handle", Status::invalid_window);
  }
  if (!region_fits(offset, size, buf->size())) {
    throw Error("RMA local region outside the device buffer", Status::invalid_value);
  }
  const std::size_t tsize = win.region_size(target);  // typed: invalid_rank / invalid_window
  if (!region_fits(target_offset, size, tsize)) {
    throw Error("RMA access [" + std::to_string(target_offset) + ", " +
                    std::to_string(target_offset + size) +
                    ") outside the target region of " + std::to_string(tsize) + " B",
                Status::invalid_value);
  }
}

/// Map a resolved RMA strategy onto the simmpi wire tier.
mpi::RmaPath rma_path_for(const xfer::Strategy& s) {
  return s.kind == xfer::StrategyKind::shmem ? mpi::RmaPath::shmem : mpi::RmaPath::wire;
}

}  // namespace

Runtime::Runtime(mpi::Rank& rank, ocl::Device& device)
    : rank_(&rank),
      device_(&device),
      disk_("disk" + std::to_string(rank.rank())) {
  CLMPI_REQUIRE(device.node() == rank.rank(),
                "the communicator device must live on the rank's node");
  dispatcher_ = sched::spawn_service("clmpi-comm" + std::to_string(rank.rank()),
                                     [this] { dispatcher_loop(); });
}

Runtime::~Runtime() {
  shutdown_ = true;
  dispatcher_.join();
  // Posted transfers reference application buffers; make sure they are all
  // done before the runtime (and with it, typically, those buffers) goes.
  // Failed commands already carry their exception to whoever waits on their
  // event; the destructor must not throw.
  for (const auto& ev : issued_) {
    try {
      ev->wait();
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
  }
}

void Runtime::dispatcher_loop() {
  for (;;) {
    // Drain the whole queue per wakeup: enqueue bursts (an application
    // posting a dependency chain of commands) cost one resume instead of one
    // per command.
    sched::wait([this] { return shutdown_ || !jobs_.empty(); }, "rt.dispatcher.idle",
                /*interruptible=*/false);
    if (jobs_.empty()) return;  // shutdown with a drained queue
    std::deque<Job> batch;
    batch.swap(jobs_);
    if (obs::metrics_enabled()) {
      static auto& batches = obs::Registry::instance().counter("rt.dispatcher.batches");
      static auto& batch_jobs = obs::Registry::instance().gauge("rt.dispatcher.batch_jobs");
      batches.add();
      batch_jobs.record(batch.size());
    }
    for (Job& job : batch) {
      // Release the command once its wait list fires (§IV-B): commands are
      // released in enqueue order, which preserves MPI tag-matching order.
      //
      // The dispatcher parks at most once per job (one progress continuation)
      // and registers nothing on the events, so a wait the deadlock verdict
      // fails leaves no callback behind. Release walk: ready is the running
      // max of completion times, and the FIRST failed event in list order
      // poisons the command.
      vt::TimePoint ready = job.enqueue_time;
      const auto fired = [&job] {
        return std::all_of(job.waits.begin(), job.waits.end(),
                           [](const ocl::EventPtr& w) { return w->complete(); });
      };
      try {
        if (!fired()) {
          if (obs::metrics_enabled()) mpi::detail::progress_metrics().continuations.add();
          sched::wait(fired, "rt.dispatcher.waitlist");
        }
        std::exception_ptr err;
        for (const auto& w : job.waits) {
          if ((err = w->error())) break;
          ready = vt::max(ready, w->completion_time());
        }
        if (err) {
          job.event->settle(ready, std::move(err));
          continue;
        }
        job.event->mark_submitted(ready);
        job.event->mark_running(ready);
        job.post(ready, job.event);
      } catch (...) {
        job.event->settle(ready, std::current_exception());
      }
    }
  }
}

ocl::EventPtr Runtime::submit(ocl::CommandQueue& queue, std::string label,
                              ocl::WaitList waits, bool blocking, Post post) {
  CLMPI_REQUIRE(sched::current_strand() == rank_->core()->strand,
                "clMPI runtime used from outside its rank's cluster strand");
  CLMPI_REQUIRE(&queue.device() == device_, "queue is not bound to the communicator device");
  for (const auto& w : waits) CLMPI_REQUIRE(w != nullptr, "null event in wait list");

  // The command's event is a user event that mimics a command event (§V-A).
  auto ev = std::make_shared<ocl::UserEvent>(std::move(label));
  ev->mark_queued(rank_->clock().now());

  Job job;
  job.waits.assign(waits.begin(), waits.end());
  job.enqueue_time = rank_->clock().now();
  job.event = ev;
  job.post = std::move(post);
  CLMPI_REQUIRE(!shutdown_, "enqueue on a shut-down clMPI runtime");
  jobs_.push_back(std::move(job));
  issued_.push_back(ev);
  const std::size_t depth = jobs_.size();
  if (obs::metrics_enabled()) {
    static auto& submitted = obs::Registry::instance().counter("rt.dispatcher.jobs");
    static auto& queue_depth = obs::Registry::instance().gauge("rt.dispatcher.queue_depth");
    submitted.add();
    queue_depth.record(depth);
  }
  if (blocking) {
    ocl::traced_wait(ev, rank_->clock(), rank_->tracer(), rank_->rank(), "wait " + ev->label());
  }
  return ev;
}

xfer::Strategy Runtime::policy(std::size_t size) const {
  return xfer::select(device_->profile(), size);
}

void Runtime::finish(vt::Clock& clock) {
  // Commands other fibers submit while this one waits stay in issued_ for
  // the next finish (or the destructor).
  const std::vector<ocl::EventPtr> settling = std::exchange(issued_, {});
  const vt::TimePoint t0 = clock.now();
  vt::TimePoint end = t0;
  std::exception_ptr first_error;
  for (const auto& ev : settling) {
    sched::wait([&ev] { return ev->complete(); }, "rt.finish");
    end = vt::max(end, ev->completion_time());
    if (first_error == nullptr) first_error = ev->error();
  }
  clock.sync_to(end);
  if (first_error) std::rethrow_exception(first_error);
  vt::Tracer* tracer = rank_->tracer();
  if (tracer != nullptr && end.s > t0.s) {
    tracer->record("host" + std::to_string(rank_->rank()), "clmpiFinish",
                   vt::SpanKind::wait, t0, end);
  }
}

ocl::EventPtr Runtime::enqueue_send_buffer(ocl::CommandQueue& queue,
                                           const ocl::BufferPtr& buf, bool blocking,
                                           std::size_t offset, std::size_t size, int dst,
                                           int tag, mpi::Comm& comm, ocl::WaitList waits,
                                           std::optional<xfer::Strategy> force) {
  CLMPI_REQUIRE(buf != nullptr, "send from a null buffer");
  validate_transfer_args(buf, offset, size, dst, tag, comm);
  const xfer::Strategy strategy = force.value_or(policy(size));
  const xfer::DeviceEndpoint ep{&comm,  device_, buf.get(), offset,
                                size,   dst,     tag,       default_deadline()};

  return submit(
      queue, "clEnqueueSendBuffer -> " + std::to_string(dst), waits, blocking,
      // `buf` captured to keep the memory object alive until completion.
      [ep, strategy, buf](vt::TimePoint ready, const ocl::EventPtr& event) {
        xfer::send_device_async(ep, strategy, ready,
                               [event, buf](vt::TimePoint end, const std::exception_ptr& err) {
                                 event->settle(end, err);
                               });
      });
}

ocl::EventPtr Runtime::enqueue_recv_buffer(ocl::CommandQueue& queue,
                                           const ocl::BufferPtr& buf, bool blocking,
                                           std::size_t offset, std::size_t size, int src,
                                           int tag, mpi::Comm& comm, ocl::WaitList waits,
                                           std::optional<xfer::Strategy> force) {
  CLMPI_REQUIRE(buf != nullptr, "receive into a null buffer");
  validate_transfer_args(buf, offset, size, src, tag, comm);
  const xfer::Strategy strategy = force.value_or(policy(size));
  const xfer::DeviceEndpoint ep{&comm,  device_, buf.get(), offset,
                                size,   src,     tag,       default_deadline()};

  return submit(
      queue, "clEnqueueRecvBuffer <- " + std::to_string(src), waits, blocking,
      [ep, strategy, buf](vt::TimePoint ready, const ocl::EventPtr& event) {
        xfer::recv_device_async(ep, strategy, ready,
                               [event, buf](vt::TimePoint end, const std::exception_ptr& err) {
                                 event->settle(end, err);
                               });
      });
}

mpi::Win Runtime::create_window(const ocl::BufferPtr& buf, std::size_t offset,
                                std::size_t size, mpi::Comm& comm) {
  CLMPI_REQUIRE(buf != nullptr, "window over a null buffer");
  if (!region_fits(offset, size, buf->size())) {
    throw Error("window region outside the device buffer", Status::invalid_value);
  }
  auto* dev = device_;
  // Remote accesses land in (or leave) device memory: the window's staging
  // hooks charge this device's pinned path, so an RMA access costs the same
  // PCIe legs as the equivalent staged two-sided transfer.
  mpi::StageHook ingress = [dev](vt::TimePoint ready, std::size_t bytes) {
    return dev->charge_pinned_dma(ready, bytes, /*to_device=*/true);
  };
  mpi::StageHook egress = [dev](vt::TimePoint ready, std::size_t bytes) {
    return dev->charge_pinned_dma(ready, bytes, /*to_device=*/false);
  };
  return mpi::create_window(comm, buf->storage().subspan(offset, size), rank_->clock(),
                            std::move(ingress), std::move(egress));
}

ocl::EventPtr Runtime::enqueue_put_buffer(ocl::CommandQueue& queue, const ocl::BufferPtr& buf,
                                          bool blocking, std::size_t offset, std::size_t size,
                                          int target, std::size_t target_offset, mpi::Win win,
                                          ocl::WaitList waits,
                                          std::optional<xfer::Strategy> force) {
  CLMPI_REQUIRE(buf != nullptr, "put from a null buffer");
  validate_rma_args(buf, offset, size, target, target_offset, win);
  const xfer::Strategy requested =
      force.value_or(xfer::select_rma(device_->profile(), size));
  CLMPI_REQUIRE(requested.kind == xfer::StrategyKind::shmem ||
                    requested.kind == xfer::StrategyKind::pinned,
                "RMA accesses support only the shmem and pinned strategies");
  const xfer::Strategy resolved =
      xfer::resolve_rma_strategy(device_->profile(), rank_->core()->faults.get(), requested);
  const mpi::RmaOptions opts{rma_path_for(resolved), default_deadline()};
  auto* dev = device_;

  return submit(
      queue, "clEnqueuePutBuffer -> " + std::to_string(target), waits, blocking,
      // `buf` kept alive until the payload is staged out; the window captures
      // the payload by value, so nothing references the buffer afterwards.
      [dev, buf, offset, size, target, target_offset, win,
       opts](vt::TimePoint ready, const ocl::EventPtr& event) mutable {
        const auto d2h = dev->charge_pinned_dma(ready, size, /*to_device=*/false);
        std::vector<std::byte> payload(size);
        if (size > 0) std::memcpy(payload.data(), buf->storage().data() + offset, size);
        win.put(std::move(payload), target, target_offset, d2h.end, opts);
        // Local completion: the origin buffer is staged out and reusable.
        // The remote landing — and any transport fault — surfaces at the
        // window fence, on both endpoints.
        event->settle(d2h.end);
      });
}

ocl::EventPtr Runtime::enqueue_get_buffer(ocl::CommandQueue& queue, const ocl::BufferPtr& buf,
                                          bool blocking, std::size_t offset, std::size_t size,
                                          int target, std::size_t target_offset, mpi::Win win,
                                          ocl::WaitList waits,
                                          std::optional<xfer::Strategy> force) {
  CLMPI_REQUIRE(buf != nullptr, "get into a null buffer");
  if (blocking) {
    throw Error(
        "blocking clEnqueueGetBuffer would deadlock: a get only completes at the next "
        "window fence",
        Status::invalid_operation);
  }
  validate_rma_args(buf, offset, size, target, target_offset, win);
  const xfer::Strategy requested =
      force.value_or(xfer::select_rma(device_->profile(), size));
  CLMPI_REQUIRE(requested.kind == xfer::StrategyKind::shmem ||
                    requested.kind == xfer::StrategyKind::pinned,
                "RMA accesses support only the shmem and pinned strategies");
  const xfer::Strategy resolved =
      xfer::resolve_rma_strategy(device_->profile(), rank_->core()->faults.get(), requested);
  const mpi::RmaOptions opts{rma_path_for(resolved), default_deadline()};
  auto* dev = device_;

  return submit(
      queue, "clEnqueueGetBuffer <- " + std::to_string(target), waits, /*blocking=*/false,
      // `buf` captured into the sink and completion: the destination buffer
      // stays alive until the fence lands the data.
      [dev, buf, offset, size, target, target_offset, win,
       opts](vt::TimePoint ready, const ocl::EventPtr& event) mutable {
        mpi::RmaSink sink = [dev, buf, offset](vt::TimePoint wire_end,
                                               std::span<const std::byte> data) {
          const auto h2d = dev->charge_pinned_dma(wire_end, data.size(), /*to_device=*/true);
          if (!data.empty()) {
            std::memcpy(buf->storage().data() + offset, data.data(), data.size());
          }
          return h2d.end;
        };
        win.get(std::move(sink), size, target, target_offset, ready, opts,
                [event, buf](vt::TimePoint end, const std::exception_ptr& err) {
                  event->settle(end, err);
                });
      });
}

ocl::EventPtr Runtime::enqueue_window_fence(ocl::CommandQueue& queue, mpi::Win win,
                                            bool blocking, ocl::WaitList waits) {
  if (!win.valid()) {
    throw Error("invalid RMA window handle", Status::invalid_window);
  }
  return submit(
      queue, "clEnqueueWindowFence", waits, blocking,
      // The fence blocks the dispatcher until every rank of the window has
      // fenced — the MPI collective contract, lifted to the command queue.
      // Queue order guarantees every access enqueued before the fence was
      // registered first. Transport faults rethrow here (typed) and poison
      // the fence event via the job's failure path.
      [win](vt::TimePoint ready, const ocl::EventPtr& event) mutable {
        event->settle(win.fence(ready));
      });
}

ocl::EventPtr Runtime::enqueue_bcast_buffer(ocl::CommandQueue& queue,
                                            const ocl::BufferPtr& buf, bool blocking,
                                            std::size_t offset, std::size_t size, int root,
                                            mpi::Comm& comm, ocl::WaitList waits) {
  CLMPI_REQUIRE(buf != nullptr, "broadcast of a null buffer");
  CLMPI_REQUIRE(region_fits(offset, size, buf->size()), "broadcast region outside the buffer");
  CLMPI_REQUIRE(size > 0, "empty broadcast");
  auto* dev = device_;
  const bool is_root = comm.rank() == root;
  mpi::Comm* comm_ptr = &comm;

  return submit(
      queue, "clEnqueueBcastBuffer root=" + std::to_string(root), waits, blocking,
      [dev, buf, offset, size, root, is_root, comm_ptr](vt::TimePoint ready,
                                                        const ocl::EventPtr& event) {
        auto bounce = std::make_shared<xfer::StagingBuffer>(size);
        vt::TimePoint wire_ready = ready;
        if (is_root) {
          // Stage the payload down through the pinned path first.
          wire_ready = dev->charge_pinned_dma(ready, size, /*to_device=*/false).end;
          std::memcpy(bounce->data(), buf->storage().data() + offset, size);
        }
        vt::Clock wire_clock(wire_ready);
        mpi::Request req = comm_ptr->ibcast(bounce->span(), root, wire_clock);
        req.on_settle([dev, buf, offset, size, is_root, bounce, event](
                          vt::TimePoint when, const std::exception_ptr& err) {
          if (err || is_root) {
            event->settle(when, err);
            return;
          }
          const auto h2d = dev->charge_pinned_dma(when, size, /*to_device=*/true);
          std::memcpy(buf->storage().data() + offset, bounce->data(), size);
          event->settle(h2d.end);
        });
      });
}

ocl::EventPtr Runtime::enqueue_write_file(ocl::CommandQueue& queue,
                                          const ocl::BufferPtr& buf, bool blocking,
                                          std::size_t offset, std::size_t size,
                                          std::string path, ocl::WaitList waits) {
  CLMPI_REQUIRE(buf != nullptr, "file write from a null buffer");
  CLMPI_REQUIRE(region_fits(offset, size, buf->size()), "file write region outside the buffer");
  CLMPI_REQUIRE(!path.empty(), "file write needs a path");
  auto* dev = device_;
  auto* disk = &disk_;
  // Built before the call: the lambda below takes `path` by move, and may
  // be initialised before this argument is.
  std::string label = "clEnqueueWriteFile " + path;

  return submit(
      queue, std::move(label), waits, blocking,
      [dev, disk, buf, offset, size, path = std::move(path)](vt::TimePoint ready,
                                                             const ocl::EventPtr& event) {
        auto& prof = dev->profile();
        // Stage down through the pinned path, then stream to storage.
        const auto d2h = dev->charge_pinned_dma(ready, size, /*to_device=*/false);
        const auto io = disk->acquire(d2h.end, prof.storage.of(size));

        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        CLMPI_REQUIRE(out.good(), "cannot open file for writing: " + path);
        out.write(reinterpret_cast<const char*>(buf->storage().data() + offset),
                  static_cast<std::streamsize>(size));
        CLMPI_REQUIRE(out.good(), "short write to file: " + path);
        out.close();
        event->settle(io.end);
      });
}

ocl::EventPtr Runtime::enqueue_read_file(ocl::CommandQueue& queue, const ocl::BufferPtr& buf,
                                         bool blocking, std::size_t offset, std::size_t size,
                                         std::string path, ocl::WaitList waits) {
  CLMPI_REQUIRE(buf != nullptr, "file read into a null buffer");
  CLMPI_REQUIRE(region_fits(offset, size, buf->size()), "file read region outside the buffer");
  CLMPI_REQUIRE(!path.empty(), "file read needs a path");
  auto* dev = device_;
  auto* disk = &disk_;
  std::string label = "clEnqueueReadFile " + path;  // before the move, as above

  return submit(
      queue, std::move(label), waits, blocking,
      [dev, disk, buf, offset, size, path = std::move(path)](vt::TimePoint ready,
                                                             const ocl::EventPtr& event) {
        auto& prof = dev->profile();
        const auto io = disk->acquire(ready, prof.storage.of(size));

        std::ifstream in(path, std::ios::binary);
        CLMPI_REQUIRE(in.good(), "cannot open file for reading: " + path);
        in.read(reinterpret_cast<char*>(buf->storage().data() + offset),
                static_cast<std::streamsize>(size));
        CLMPI_REQUIRE(static_cast<std::size_t>(in.gcount()) == size,
                      "short read from file: " + path);

        event->settle(dev->charge_pinned_dma(io.end, size, /*to_device=*/true).end);
      });
}

ocl::EventPtr Runtime::event_from_request(mpi::Request req) {
  CLMPI_REQUIRE(req.valid(), "event from a null request");
  auto event = std::make_shared<ocl::UserEvent>("mpi-request");
  event->mark_queued(rank_->clock().now());
  req.on_settle(
      [event](vt::TimePoint when, const std::exception_ptr& err) { event->settle(when, err); });
  return event;
}

mpi::Request Runtime::isend_cl_mem(std::span<const std::byte> data, int dst, int tag,
                                   mpi::Comm& comm) {
  const xfer::Strategy strategy = policy(data.size());
  const vt::Duration deadline = default_deadline();
  if (strategy.kind != xfer::StrategyKind::pipelined) {
    return comm.isend(data, dst, tag, rank_->clock(), mpi::P2POptions{.deadline = deadline});
  }
  const vt::TimePoint ready = rank_->clock().now();
  std::vector<mpi::Request> subs;
  for (const auto& b : xfer::detail::wire_blocks(data.size(), tag, strategy, deadline)) {
    subs.push_back(comm.isend(data.subspan(b.offset, b.size), dst, b.tag, ready, b.opts));
  }
  return join_requests(std::move(subs), mpi::MsgStatus{dst, tag, data.size()});
}

mpi::Request Runtime::irecv_cl_mem(std::span<std::byte> data, int src, int tag,
                                   mpi::Comm& comm) {
  const xfer::Strategy strategy = policy(data.size());
  const vt::Duration deadline = default_deadline();
  if (strategy.kind != xfer::StrategyKind::pipelined) {
    return comm.irecv(data, src, tag, rank_->clock(), mpi::P2POptions{.deadline = deadline});
  }
  const vt::TimePoint ready = rank_->clock().now();
  std::vector<mpi::Request> subs;
  for (const auto& b : xfer::detail::wire_blocks(data.size(), tag, strategy, deadline)) {
    subs.push_back(comm.irecv(data.subspan(b.offset, b.size), src, b.tag, ready, b.opts));
  }
  return join_requests(std::move(subs), mpi::MsgStatus{src, tag, data.size()});
}

/// What init time froze: the per-block comm-level persistent handles plus
/// the replay shape. `aggregate` marks a pipelined decomposition that must
/// be presented as one MPI_Request.
struct PersistentRequest::Impl {
  std::vector<mpi::PersistentRequest> subs;
  mpi::MsgStatus st;
  bool aggregate{false};
};

namespace {

/// Shared body of send_init_cl_mem / recv_init_cl_mem: the init-time half of
/// the isend_cl_mem / irecv_cl_mem strategy dispatch, with `init(span, tag,
/// opts)` creating the comm-level persistent handle per wire block.
template <typename Byte, typename Init>
std::shared_ptr<PersistentRequest::Impl> init_cl_mem(std::span<Byte> data, int peer, int tag,
                                                     const xfer::Strategy& strategy,
                                                     vt::Duration deadline, Init&& init) {
  auto impl = std::make_shared<PersistentRequest::Impl>();
  impl->st = mpi::MsgStatus{peer, tag, data.size()};
  if (strategy.kind != xfer::StrategyKind::pipelined) {
    impl->subs.push_back(init(data, tag, mpi::P2POptions{.deadline = deadline}));
    return impl;
  }
  impl->aggregate = true;
  for (const auto& b : xfer::detail::wire_blocks(data.size(), tag, strategy, deadline)) {
    impl->subs.push_back(init(data.subspan(b.offset, b.size), b.tag, b.opts));
  }
  return impl;
}

}  // namespace

PersistentRequest Runtime::send_init_cl_mem(std::span<const std::byte> data, int dst, int tag,
                                            mpi::Comm& comm) {
  return PersistentRequest(init_cl_mem(
      data, dst, tag, policy(data.size()), default_deadline(),
      [&](std::span<const std::byte> block, int t, mpi::P2POptions opts) {
        return comm.send_init(block, dst, t, opts);
      }));
}

PersistentRequest Runtime::recv_init_cl_mem(std::span<std::byte> data, int src, int tag,
                                            mpi::Comm& comm) {
  return PersistentRequest(init_cl_mem(
      data, src, tag, policy(data.size()), default_deadline(),
      [&](std::span<std::byte> block, int t, mpi::P2POptions opts) {
        return comm.recv_init(block, src, t, opts);
      }));
}

mpi::Request Runtime::start(const PersistentRequest& req) {
  CLMPI_REQUIRE(req.valid(), "start of a null persistent request");
  PersistentRequest::Impl& impl = *req.impl_;
  if (!impl.aggregate) {
    // Single wire message: replay mirrors the non-pipelined isend/irecv
    // dispatch — clock-driven, call overhead charged, deadline frozen at init.
    return impl.subs.front().start(rank_->clock());
  }
  const vt::TimePoint ready = rank_->clock().now();
  std::vector<mpi::Request> live;
  live.reserve(impl.subs.size());
  for (mpi::PersistentRequest& sub : impl.subs) live.push_back(sub.start(ready));
  return join_requests(std::move(live), impl.st);
}

void Runtime::send_cl_mem(std::span<const std::byte> data, int dst, int tag,
                          mpi::Comm& comm) {
  mpi::Request req = isend_cl_mem(data, dst, tag, comm);
  req.wait(rank_->clock());
}

void Runtime::recv_cl_mem(std::span<std::byte> data, int src, int tag, mpi::Comm& comm) {
  mpi::Request req = irecv_cl_mem(data, src, tag, comm);
  req.wait(rank_->clock());
}

}  // namespace clmpi::rt
