// The clMPI runtime: the paper's contribution.
//
// clMPI extends OpenCL with inter-node communication *commands*:
//
//   * enqueue_send_buffer / enqueue_recv_buffer   (clEnqueueSendBuffer /
//     clEnqueueRecvBuffer, §IV-A): transfer a device memory region to/from a
//     remote peer as an ordinary command-queue command. Dependencies with
//     kernels and other transfers are expressed through event wait lists, so
//     the host thread never blocks to serialize MPI and OpenCL operations
//     (§IV-B, Figure 6).
//   * event_from_request (clCreateEventFromMPIRequest, §IV-C): wrap a
//     non-blocking MPI operation as an OpenCL event, so device commands can
//     depend on host-side MPI communication (Figure 7).
//   * isend_cl_mem / irecv_cl_mem (MPI_Isend/MPI_Irecv with MPI_CL_MEM,
//     §IV-C): host-memory endpoints of messages whose peer is a
//     communicator device; the runtime applies the same optimized wire
//     decomposition the device side uses.
//
// Behind all of these, the runtime hides the system-aware transfer strategy
// (xfer::select, §V-B) — the source of the paper's performance-portability
// result.
//
// Implementation note (paper §V-A): the runtime spawns one communication
// thread per rank — here a dispatcher fiber on the rank's cluster strand, so
// the runtime holds no lock; submit() checks its caller runs on that
// strand. Inter-node communication commands are represented by
// *user events* that mimic command events; the communication thread releases
// each command as soon as its wait list fires, posts the non-blocking MPI
// operations, and the completion side runs from MPI completion callbacks.
// Commands are released in enqueue order (which also preserves MPI tag-match
// order), but their transfers overlap freely with each other and with device
// work — the Figure 4(c) behaviour.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "ocl/context.hpp"
#include "ocl/queue.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/window.hpp"
#include "support/sched.hpp"
#include "transfer/strategy.hpp"

namespace clmpi::rt {

/// Persistent MPI_CL_MEM operation (MPI_Send_init / MPI_Recv_init with
/// datatype MPI_CL_MEM). Runtime::send_init_cl_mem / recv_init_cl_mem
/// resolve the transfer strategy, the pipelined wire decomposition and every
/// sub-block envelope header ONCE; Runtime::start replays the prepared posts
/// and returns a fresh MPI_Request. A replay is virtual-time- and
/// byte-identical to re-issuing the plain isend_cl_mem / irecv_cl_mem call
/// with the same arguments. The buffer bound at init time must stay valid
/// until each started request completes (the MPI persistent contract).
class PersistentRequest {
 public:
  /// A default-constructed handle is null; Runtime::start on it throws.
  PersistentRequest() = default;

  [[nodiscard]] bool valid() const noexcept { return impl_ != nullptr; }

  /// Opaque init-time state (defined in runtime.cpp).
  struct Impl;

 private:
  friend class Runtime;
  explicit PersistentRequest(std::shared_ptr<Impl> impl) : impl_(std::move(impl)) {}
  std::shared_ptr<Impl> impl_;
};

/// Per-rank clMPI runtime, binding one MPI rank to one communicator device.
class Runtime {
 public:
  /// `rank` and `device` must outlive the runtime.
  Runtime(mpi::Rank& rank, ocl::Device& device);

  /// Drains every pending communication command and waits for all posted
  /// transfers to complete before returning.
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] mpi::Rank& rank() noexcept { return *rank_; }
  [[nodiscard]] ocl::Device& device() noexcept { return *device_; }

  // --- inter-node communication commands (§IV-A) ---------------------------

  /// clEnqueueSendBuffer: enqueue a command sending buf[offset, offset+size)
  /// to `dst`. Executes in queue order once `waits` complete; returns its
  /// event. If `blocking`, also waits on the event with the rank's clock.
  /// `force` overrides the automatic strategy selection (used by ablation
  /// benches; both endpoints must then force the same strategy).
  ocl::EventPtr enqueue_send_buffer(ocl::CommandQueue& queue, const ocl::BufferPtr& buf,
                                    bool blocking, std::size_t offset, std::size_t size,
                                    int dst, int tag, mpi::Comm& comm, ocl::WaitList waits,
                                    std::optional<xfer::Strategy> force = std::nullopt);

  /// clEnqueueRecvBuffer: the receiving counterpart.
  ocl::EventPtr enqueue_recv_buffer(ocl::CommandQueue& queue, const ocl::BufferPtr& buf,
                                    bool blocking, std::size_t offset, std::size_t size,
                                    int src, int tag, mpi::Comm& comm, ocl::WaitList waits,
                                    std::optional<xfer::Strategy> force = std::nullopt);

  // --- one-sided communication commands (RMA tier) --------------------------
  //
  // MPI-3 windows lifted to the command-queue level: a window exposes a
  // device buffer region for remote Put/Get; accesses are enqueued commands
  // chained by events like any transfer, and a fence command closes the
  // epoch. The wire tier (one-sided shmem fabric vs. two-sided pinned
  // emulation) is picked per access size by xfer::select_rma and degraded by
  // xfer::resolve_rma_strategy — the same §V-B portability argument on a
  // transport the paper never had.

  /// Collective (host thread): expose buf[offset, offset+size) as an RMA
  /// window over `comm`. The device-side staging of remote accesses (H2D
  /// when a Put lands, D2H before a Get's wire leg) is charged on this
  /// device's copy engine. The buffer must outlive the window.
  mpi::Win create_window(const ocl::BufferPtr& buf, std::size_t offset, std::size_t size,
                         mpi::Comm& comm);

  /// clEnqueuePutBuffer: enqueue a one-sided put of buf[offset, offset+size)
  /// into `target`'s window region at `target_offset`. The event completes
  /// at LOCAL completion (origin staging done; the buffer is reusable) — the
  /// remote landing is only guaranteed after the next fence, where transport
  /// faults also surface. Zero-size puts are legal.
  ocl::EventPtr enqueue_put_buffer(ocl::CommandQueue& queue, const ocl::BufferPtr& buf,
                                   bool blocking, std::size_t offset, std::size_t size,
                                   int target, std::size_t target_offset, mpi::Win win,
                                   ocl::WaitList waits,
                                   std::optional<xfer::Strategy> force = std::nullopt);

  /// clEnqueueGetBuffer: enqueue a one-sided get of `size` bytes from
  /// `target`'s window region at `target_offset` into buf[offset, ...). The
  /// event completes at the closing fence (a Get's data only exists then),
  /// so `blocking` is rejected with Status::invalid_operation — a blocking
  /// get would deadlock against the fence that must still be enqueued.
  ocl::EventPtr enqueue_get_buffer(ocl::CommandQueue& queue, const ocl::BufferPtr& buf,
                                   bool blocking, std::size_t offset, std::size_t size,
                                   int target, std::size_t target_offset, mpi::Win win,
                                   ocl::WaitList waits,
                                   std::optional<xfer::Strategy> force = std::nullopt);

  /// clEnqueueWindowFence: enqueue the collective epoch fence as a command.
  /// Queue order guarantees every put/get enqueued before it is registered
  /// first; the event completes at the round's end, or fails with the typed
  /// transport error when an access involving this rank was lost.
  ocl::EventPtr enqueue_window_fence(ocl::CommandQueue& queue, mpi::Win win, bool blocking,
                                     ocl::WaitList waits);

  // --- collective communication commands (§IV-C / §VI extension) -----------

  /// Broadcast a device buffer region from `root`'s device to every rank's
  /// device, as a single enqueued command per rank. The optimized staging
  /// (pinned D2H at the root, binomial wire tree, pinned H2D at the leaves)
  /// is hidden behind the interface — the §IV-C argument that optimized
  /// collectives for device memory belong *inside* the runtime. Built on
  /// the non-blocking MPI collectives of §VI; the host thread never blocks.
  /// Collective: every rank of `comm` must enqueue it, in the same order.
  ocl::EventPtr enqueue_bcast_buffer(ocl::CommandQueue& queue, const ocl::BufferPtr& buf,
                                     bool blocking, std::size_t offset, std::size_t size,
                                     int root, mpi::Comm& comm, ocl::WaitList waits);

  // --- MPI interoperability (§IV-C) -----------------------------------------

  /// clCreateEventFromMPIRequest: an event that completes when `req` does.
  ocl::EventPtr event_from_request(mpi::Request req);

  /// MPI_Isend with datatype MPI_CL_MEM: non-blocking send of host memory to
  /// a remote communicator device. The returned request completes when every
  /// wire sub-message has been delivered.
  mpi::Request isend_cl_mem(std::span<const std::byte> data, int dst, int tag,
                            mpi::Comm& comm);

  /// MPI_Irecv with datatype MPI_CL_MEM.
  mpi::Request irecv_cl_mem(std::span<std::byte> data, int src, int tag, mpi::Comm& comm);

  /// Blocking MPI_Send / MPI_Recv with MPI_CL_MEM.
  void send_cl_mem(std::span<const std::byte> data, int dst, int tag, mpi::Comm& comm);
  void recv_cl_mem(std::span<std::byte> data, int src, int tag, mpi::Comm& comm);

  /// MPI_Send_init / MPI_Recv_init with MPI_CL_MEM: prepare the operation
  /// once — strategy selection, wire decomposition, per-block envelope
  /// headers and the current default deadline are all resolved here — for
  /// repeated replay via start().
  [[nodiscard]] PersistentRequest send_init_cl_mem(std::span<const std::byte> data, int dst,
                                                   int tag, mpi::Comm& comm);
  [[nodiscard]] PersistentRequest recv_init_cl_mem(std::span<std::byte> data, int src,
                                                   int tag, mpi::Comm& comm);

  /// MPI_Start: replay a prepared persistent operation at the rank's current
  /// clock. Each call returns an independent MPI_Request; a persistent
  /// operation may be started again once the previous request completed.
  mpi::Request start(const PersistentRequest& req);

  // --- file I/O commands (§VI: "other time-consuming tasks such as file
  // I/O would be encapsulated in other additional OpenCL commands") ---------

  /// Write buf[offset, offset+size) to `path` as an enqueued command:
  /// pinned D2H staging, then a node-storage write, chained by events like
  /// any other command. The host thread never blocks (unless `blocking`).
  ocl::EventPtr enqueue_write_file(ocl::CommandQueue& queue, const ocl::BufferPtr& buf,
                                   bool blocking, std::size_t offset, std::size_t size,
                                   std::string path, ocl::WaitList waits);

  /// Read `size` bytes from `path` into buf[offset, ...).
  ocl::EventPtr enqueue_read_file(ocl::CommandQueue& queue, const ocl::BufferPtr& buf,
                                  bool blocking, std::size_t offset, std::size_t size,
                                  std::string path, ocl::WaitList waits);

  /// The strategy the runtime would pick for a message of `size` bytes.
  [[nodiscard]] xfer::Strategy policy(std::size_t size) const;

  // --- recovery (deadlines) -------------------------------------------------

  /// Default per-operation deadline applied to every communication command
  /// enqueued after the call (clmpiSetOperationTimeout). Relative to each
  /// operation's ready time; zero (default) disables. An operation that
  /// cannot resolve by its deadline fails its event/request with
  /// CLMPI_TIMEOUT at that deadline.
  void set_default_deadline(vt::Duration deadline) noexcept { deadline_ = deadline; }
  [[nodiscard]] vt::Duration default_deadline() const noexcept { return deadline_; }

  /// Block until every communication command issued so far has completed,
  /// synchronizing `clock` to the latest completion (the communication
  /// analogue of clFinish). Then rethrows the first failed command's error,
  /// in issue order, and forgets the settled commands: a later finish
  /// reports only commands issued after this one.
  void finish(vt::Clock& clock);

 private:
  /// Posts a released command; settles its event, now or from a callback.
  using Post = std::function<void(vt::TimePoint ready, const ocl::EventPtr& event)>;
  struct Job {
    std::vector<ocl::EventPtr> waits;
    vt::TimePoint enqueue_time;
    /// Settled with the failure when release or posting fails.
    ocl::EventPtr event;
    Post post;
  };

  /// Queue a command for the dispatcher and return its event; a blocking
  /// command then waits for it, recorded as a wait span on the rank's host
  /// lane when a tracer is attached.
  ocl::EventPtr submit(ocl::CommandQueue& queue, std::string label, ocl::WaitList waits,
                       bool blocking, Post post);
  void dispatcher_loop();

  mpi::Rank* rank_;
  ocl::Device* device_;
  /// Default deadline (zero = none).
  vt::Duration deadline_{};
  /// Node-local storage; file-I/O commands of this runtime serialize on it.
  vt::Resource disk_;

  std::deque<Job> jobs_;
  std::vector<ocl::EventPtr> issued_;
  bool shutdown_{false};
  // A fiber on the rank's strand.
  sched::ServiceHandle dispatcher_;
};

}  // namespace clmpi::rt
