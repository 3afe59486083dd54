// Communicators: the MPI interface of the simulated cluster.
//
// A Comm is a lightweight per-rank handle (context id + rank group). All
// operations exist in two forms:
//  * explicit-time:  isend(data, dst, tag, ready)      — used by the clMPI
//    runtime, whose operations are gated by OpenCL event completion times
//    rather than by a host thread's clock;
//  * clock-driven:   send(data, dst, tag, clock)       — used by host code;
//    charges a small per-call overhead and synchronizes the clock on
//    blocking completion.
// Every call runs on the cluster's strand (docs/SCHEDULER.md): the rank
// fibers and the clMPI communication fiber — the paper's communication
// thread (§V-A) — take turns on one serial context, so nothing here is
// locked, and a call from another cluster's strand throws PreconditionError.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "simmpi/datatype.hpp"
#include "simmpi/request.hpp"
#include "vt/clock.hpp"

namespace clmpi::mpi {

namespace detail {
struct ClusterCore;
}

class FaultEngine;

/// Tuning knobs for a single p2p operation (runtime-facing).
struct P2POptions {
  /// Effective wire bandwidth cap in bytes/s; the mapped transfer strategy
  /// uses it to model the NIC streaming from mapped device memory.
  double wire_bw_cap{std::numeric_limits<double>::infinity()};
  /// Wire-decomposition fingerprint stamped by the transfer layer: 0 for a
  /// single full-size wire message, the block size for a pipelined
  /// decomposition, SIZE_MAX (default) when unused. Debug builds verify both
  /// endpoints of a matched message agree (detail::wire_decomp_unset).
  std::size_t wire_decomp{std::numeric_limits<std::size_t>::max()};
  /// Per-operation deadline, relative to the operation's ready time; zero
  /// (default) means none. An operation resolving after ready + deadline on
  /// the virtual timeline — or never resolving at all — fails with
  /// TimeoutError (CLMPI_TIMEOUT / MPI_ERR_TIMEOUT) at exactly that instant,
  /// before the deadlock verdict could fail its waiter.
  vt::Duration deadline{};
};

/// Persistent operation handle, the analogue of MPI_Send_init/MPI_Recv_init.
/// Created once by Comm::send_init/recv_init — peer checks, envelope header
/// assembly and destination mailbox are resolved at init time — and
/// replayed cheaply with start(), which only stamps a fresh completion state
/// and ready time. start() may be called repeatedly; each call returns an
/// independent Request, and the buffer bound at init time must stay valid
/// until that Request completes (the MPI persistent-request contract).
class PersistentRequest {
 public:
  /// A default-constructed handle is null; start() on it throws.
  PersistentRequest() = default;

  [[nodiscard]] bool valid() const noexcept { return impl_ != nullptr; }

  /// Replay the prepared operation. The clock-driven form charges the same
  /// per-call overhead as isend/irecv, so a persistent replay is
  /// virtual-time-identical (and byte-identical) to re-issuing the plain
  /// non-blocking call.
  Request start(vt::Clock& clock);
  Request start(vt::TimePoint ready);

 private:
  friend class Comm;
  struct Impl;
  explicit PersistentRequest(std::shared_ptr<Impl> impl) : impl_(std::move(impl)) {}
  std::shared_ptr<Impl> impl_;
};

class Comm {
 public:
  /// Constructed by Cluster (world) or by dup/split.
  Comm(detail::ClusterCore* core, int context, std::vector<int> group, int my_rank);

  // Copyable value handle; the copy starts from the source's collective
  // sequence position (progression fibers work on copies).
  Comm(const Comm& other) = default;
  Comm& operator=(const Comm& other) = default;

  [[nodiscard]] int rank() const noexcept { return my_rank_; }
  [[nodiscard]] int size() const noexcept { return static_cast<int>(group_.size()); }
  [[nodiscard]] int context() const noexcept { return context_; }

  /// Global node id backing a comm-relative rank.
  [[nodiscard]] int node_of(int rank_in_comm) const;

  /// The cluster's fault oracle; nullptr when fault injection is off. The
  /// transfer layer consults it for link health when deriving strategy
  /// fallbacks (gpudirect -> pinned, pipelined -> pinned).
  [[nodiscard]] FaultEngine* faults() const noexcept;

  /// Internal: the cluster backing this communicator. Used by the RMA window
  /// layer (window.cpp) to reach the network and the window registry; not
  /// part of the MPI-facing surface.
  [[nodiscard]] detail::ClusterCore* core() const noexcept { return core_; }

  /// Internal: next window-creation sequence number. Same series on every
  /// rank because window creation is collective and issued in the same order
  /// everywhere (exactly the coll_seq argument).
  int take_win_seq() { return win_seq_++; }

  // --- point-to-point, explicit ready time (runtime-facing) ---------------

  Request isend(std::span<const std::byte> data, int dst, int tag, vt::TimePoint ready,
                P2POptions opts = {});
  Request irecv(std::span<std::byte> data, int src, int tag, vt::TimePoint ready,
                P2POptions opts = {});

  // --- point-to-point, clock-driven (host-facing) --------------------------

  Request isend(std::span<const std::byte> data, int dst, int tag, vt::Clock& clock,
                P2POptions opts = {});
  Request irecv(std::span<std::byte> data, int src, int tag, vt::Clock& clock,
                P2POptions opts = {});

  /// Blocking send: returns once the buffer is reusable (eager: injected;
  /// rendezvous: delivered), with `clock` synchronized to that time.
  void send(std::span<const std::byte> data, int dst, int tag, vt::Clock& clock);
  MsgStatus recv(std::span<std::byte> data, int src, int tag, vt::Clock& clock);

  /// MPI_Sendrecv: concurrent exchange; both transfers may overlap.
  void sendrecv(std::span<const std::byte> send_data, int dst, int send_tag,
                std::span<std::byte> recv_data, int src, int recv_tag, vt::Clock& clock);

  // --- persistent point-to-point (MPI_Send_init / MPI_Recv_init) -----------

  /// Prepare a send/receive once for repeated replay via
  /// PersistentRequest::start(). Counted under progress.persistent.*.
  [[nodiscard]] PersistentRequest send_init(std::span<const std::byte> data, int dst,
                                            int tag, P2POptions opts = {});
  [[nodiscard]] PersistentRequest recv_init(std::span<std::byte> data, int src, int tag,
                                            P2POptions opts = {});

  [[nodiscard]] std::optional<MsgStatus> iprobe(int src, int tag) const;

  /// MPI_Probe: block until a matching message is pending (without
  /// receiving it); synchronizes `clock` to the message's availability.
  MsgStatus probe(int src, int tag, vt::Clock& clock);

  // --- collectives (all clock-driven, built on p2p) ------------------------

  void barrier(vt::Clock& clock);
  void bcast(std::span<std::byte> data, int root, vt::Clock& clock);
  void reduce(std::span<const std::byte> send_data, std::span<std::byte> recv_data,
              Datatype dt, ReduceOp op, int root, vt::Clock& clock);
  void allreduce(std::span<const std::byte> send_data, std::span<std::byte> recv_data,
                 Datatype dt, ReduceOp op, vt::Clock& clock);
  /// recv_data must hold size() * send_data.size() bytes (significant at
  /// root only).
  void gather(std::span<const std::byte> send_data, std::span<std::byte> recv_data, int root,
              vt::Clock& clock);
  void allgather(std::span<const std::byte> send_data, std::span<std::byte> recv_data,
                 vt::Clock& clock);
  /// send_data must hold size() * recv_data.size() bytes (at root).
  void scatter(std::span<const std::byte> send_data, std::span<std::byte> recv_data, int root,
               vt::Clock& clock);
  void alltoall(std::span<const std::byte> send_data, std::span<std::byte> recv_data,
                vt::Clock& clock);

  // --- non-blocking collectives (MPI-3.0; the paper's §VI outlook) ---------
  //
  // Each returns immediately; a progression fiber on the caller's strand
  // executes the collective algorithm and completes the request at its
  // virtual end time.
  // As everywhere in MPI, every rank must issue its collectives on a given
  // communicator in the same order, and the buffers must stay valid until
  // the request completes. clMPI's clCreateEventFromMPIRequest turns these
  // into OpenCL events, closing the loop the paper sketches in §VI.

  Request ibarrier(vt::Clock& clock);
  Request ibcast(std::span<std::byte> data, int root, vt::Clock& clock);
  Request iallreduce(std::span<const std::byte> send_data, std::span<std::byte> recv_data,
                     Datatype dt, ReduceOp op, vt::Clock& clock);
  Request igather(std::span<const std::byte> send_data, std::span<std::byte> recv_data,
                  int root, vt::Clock& clock);

  // --- communicator management --------------------------------------------

  /// Collective: same group, fresh context (tag space).
  [[nodiscard]] Comm dup(vt::Clock& clock);

  /// Collective: partition by color; ranks ordered by (key, old rank).
  [[nodiscard]] Comm split(int color, int key, vt::Clock& clock);

 private:
  /// Next collective sequence number (same series on every rank because
  /// collectives are issued in the same order everywhere).
  int take_coll_seq() { return coll_seq_++; }

  /// Run `body(comm_copy, private_clock)` on a cluster-registered
  /// progression fiber; the returned request completes at the body's final
  /// virtual time (or carries its exception).
  Request spawn_collective(vt::Clock& clock,
                           std::function<void(Comm&, vt::Clock&)> body);

  // Sequence-stamped algorithm bodies shared by the blocking and
  // non-blocking entry points.
  void barrier_seq(int seq, vt::Clock& clock);
  void bcast_seq(std::span<std::byte> data, int root, int seq, vt::Clock& clock);
  void reduce_seq(std::span<const std::byte> send_data, std::span<std::byte> recv_data,
                  Datatype dt, ReduceOp op, int root, int seq, vt::Clock& clock);
  void gather_seq(std::span<const std::byte> send_data, std::span<std::byte> recv_data,
                  int root, int seq, vt::Clock& clock);
  void scatter_seq(std::span<const std::byte> send_data, std::span<std::byte> recv_data,
                   int root, int seq, vt::Clock& clock);
  void alltoall_seq(std::span<const std::byte> send_data, std::span<std::byte> recv_data,
                    int seq, vt::Clock& clock);

  void check_peer(int peer, bool allow_any) const;
  Request post_send(std::span<const std::byte> data, int dst, int tag, vt::TimePoint ready,
                    const P2POptions& opts);
  Request post_recv(std::span<std::byte> data, int src, int tag, vt::TimePoint ready,
                    const P2POptions& opts);

  detail::ClusterCore* core_;
  int context_;
  std::vector<int> group_;  ///< group_[comm rank] = global node id
  int my_rank_;
  int coll_seq_{0};
  int win_seq_{0};
};

/// Element-wise reduction of `in` into `acc` (acc = acc op in).
void combine(std::span<std::byte> acc, std::span<const std::byte> in, Datatype dt,
             ReduceOp op);

}  // namespace clmpi::mpi
