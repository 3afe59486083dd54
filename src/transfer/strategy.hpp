// Inter-node data transfer strategies for device memory endpoints.
//
// Section III of the paper identifies three implementations of the same
// logical operation "move a device buffer to/from a remote peer":
//
//  * pinned    — stage through a page-locked host bounce buffer (fast DMA),
//                then one MPI message; DMA and wire are serialized.
//  * mapped    — map the device buffer into the host address space and hand
//                the mapping straight to MPI; lowest setup cost, but the NIC
//                streams at the mapped-access bandwidth.
//  * pipelined — split into fixed-size blocks; the PCIe stage of block k
//                overlaps the wire transfer of block k-1 (MVAPICH2-GPU
//                style [7]).
//
// Which one wins depends on the system and the message size (Figure 8); the
// clMPI runtime hides the choice behind `select()` (§V-B). Each strategy is
// implemented once, in the post-and-callback transfer engine (async.hpp) the
// runtime uses; the blocking functions below are that engine plus a wait, so
// Figure 8, the ablations and the hand-optimized Himeno measure the same
// stages the runtime runs.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "ocl/buffer.hpp"
#include "ocl/device.hpp"
#include "simmpi/comm.hpp"
#include "vt/time.hpp"

namespace clmpi::xfer {

enum class StrategyKind {
  pinned,
  mapped,
  pipelined,
  /// GPUDirect RDMA: the NIC moves device memory directly, no host staging
  /// and no PCIe copy-engine involvement (requires NicModel::rdma_direct).
  gpudirect,
  /// One-sided Put/Get through the shared-memory fabric (sys::ShmemModel) —
  /// the RMA tier's wire. Never legal for two-sided send/recv operations;
  /// selected only by select_rma / resolve_rma_strategy.
  shmem,
};

const char* to_string(StrategyKind kind) noexcept;

struct Strategy {
  StrategyKind kind{StrategyKind::pinned};
  /// Pipeline block size in bytes (pipelined only).
  std::size_t block{0};

  /// Strategies compare by wire behaviour: kind and pipeline block. The
  /// factories zero `block` for non-pipelined kinds, so default memberwise
  /// equality is exact.
  friend bool operator==(const Strategy&, const Strategy&) = default;

  static Strategy pinned() { return {StrategyKind::pinned, 0}; }
  static Strategy mapped() { return {StrategyKind::mapped, 0}; }
  static Strategy pipelined(std::size_t block_bytes) {
    return {StrategyKind::pipelined, block_bytes};
  }
  static Strategy gpudirect() { return {StrategyKind::gpudirect, 0}; }
  static Strategy shmem() { return {StrategyKind::shmem, 0}; }
};

/// One device-buffer communication endpoint.
struct DeviceEndpoint {
  mpi::Comm* comm{nullptr};
  ocl::Device* dev{nullptr};
  ocl::Buffer* buf{nullptr};
  std::size_t offset{0};
  std::size_t size{0};
  int peer{0};
  int tag{0};
  /// Per-operation deadline relative to each wire message's ready time;
  /// zero (default) means none. See mpi::P2POptions::deadline.
  vt::Duration deadline{};
};

/// Send/receive the device buffer region with the given strategy, starting
/// no earlier than `ready`: posts through the transfer engine and parks the
/// calling fiber until the transfer completes. Returns its virtual
/// completion time, or rethrows the first failure once every wire block has
/// settled.
///
/// Both endpoints of one logical message must use strategies with the same
/// wire decomposition (pipelined block size); the `select()` policy
/// guarantees this on homogeneous clusters, since it is a pure function of
/// (profile, size).
vt::TimePoint send_device(const DeviceEndpoint& ep, const Strategy& strategy,
                          vt::TimePoint ready);
vt::TimePoint recv_device(const DeviceEndpoint& ep, const Strategy& strategy,
                          vt::TimePoint ready);

/// Bidirectional halo exchange: send `send_ep` and receive `recv_ep` with
/// the same peer concurrently (full-duplex wire; the single PCIe copy engine
/// serializes the staging of the two directions, as on the paper's
/// single-copy-engine Tesla hardware). The setup stage (pinned ring, RDMA
/// registration) is charged once for both directions; each region is mapped
/// and unmapped on its own. Both sides of the exchange must use the same
/// strategy, and both endpoints must name the same peer and communicator
/// (PreconditionError before anything is posted). Returns the completion
/// time of the later direction.
vt::TimePoint exchange_device(const DeviceEndpoint& send_ep, const DeviceEndpoint& recv_ep,
                              const Strategy& strategy, vt::TimePoint ready);

/// Host-memory endpoint of an MPI_CL_MEM message (the paper's Figure 7
/// pattern: a host thread exchanging with a remote communicator device).
/// For the host side, "pipelined" means the message is carried as the same
/// block sub-messages the device side expects; pinned/mapped degrade to a
/// single plain message.
vt::TimePoint send_host(mpi::Comm& comm, std::span<const std::byte> data, int peer, int tag,
                        const Strategy& strategy, vt::TimePoint ready);
vt::TimePoint recv_host(mpi::Comm& comm, std::span<std::byte> data, int peer, int tag,
                        const Strategy& strategy, vt::TimePoint ready);

/// The clMPI runtime's automatic strategy selection (§V-B): the static
/// per-system policy of the paper's evaluation. GPUDirect where the NIC has
/// it; otherwise the profile's small-message preference below the pipeline
/// threshold and pipelined above. Pure function of (profile, size), so both
/// endpoints of a message derive the same wire decomposition. Well-defined
/// for size 0 (a zero-size transfer is carried as a single empty message
/// under every strategy).
Strategy select(const sys::SystemProfile& profile, std::size_t size);

/// Strategy for a bidirectional exchange. `select()` is a pure function of
/// size, so an exchange with unequal send/recv sizes would derive different
/// strategies per direction — and a different wire decomposition per
/// endpoint, tripping the debug wire-decomp check. Every exchange call site
/// must derive its strategy from this single agreed key: the larger of the
/// two sizes (both peers of a halo exchange see the same pair of sizes).
Strategy select_exchange(const sys::SystemProfile& profile, std::size_t send_size,
                         std::size_t recv_size);

/// Graceful degradation: resolve the strategy that will actually run for an
/// operation with `peer` on `comm`. Falls back
///  * gpudirect -> pinned when the NIC has no RDMA path (rdma_direct absent)
///    or its injected degradation reaches kGpudirectDegradationThreshold;
///  * pipelined -> pinned when the link to the peer has accumulated
///    repeated block-level delivery failures (FaultEngine::link_degraded).
/// Every input is symmetric between the two endpoints: the profile/plan
/// state is static, and each endpoint's link-failure view counts exactly
/// the failures of the operations that endpoint has completed (bumped only
/// when its OWN request fails — see FaultEngine::note_block_failure), so in
/// a lockstep workload both sides derive the identical fallback and the
/// debug wire-decomposition check still passes.
Strategy resolve_strategy(const sys::SystemProfile& profile, mpi::Comm& comm, int peer,
                          const Strategy& requested);

/// NIC degradation (FaultPlan::nic_degradation) at or above this makes the
/// direct RDMA path untrustworthy; gpudirect falls back to pinned staging.
inline constexpr double kGpudirectDegradationThreshold = 0.5;

/// The RMA selector (Fig. 8 policy extended to the one-sided tier): picks
/// between a one-sided shmem Put/Get and a two-sided emulation (single
/// pinned-staged message) for a device-resident window access of `size`
/// bytes at the profile's ShmemModel::one_sided_threshold. Pure function of
/// (profile, size): both endpoints of an access derive the same tier. On
/// profiles without a shmem fabric this always returns pinned.
Strategy select_rma(const sys::SystemProfile& profile, std::size_t size);

/// Graceful degradation for RMA accesses, mirroring resolve_strategy: shmem
/// falls back to the two-sided pinned emulation when the profile has no
/// fabric, or when injected interconnect degradation reaches
/// kShmemDegradationThreshold (the plan's nic_degradation knob models
/// platform-wide interconnect health; a half-degraded fabric is no longer
/// trusted for one-sided access). `faults` may be null (no injection).
/// Inputs are identical on every rank, so all endpoints agree on the tier.
Strategy resolve_rma_strategy(const sys::SystemProfile& profile,
                              const mpi::FaultEngine* faults, const Strategy& requested);

/// Interconnect degradation at or above this pushes RMA accesses off the
/// shared-memory fabric onto the two-sided pinned path.
inline constexpr double kShmemDegradationThreshold = 0.5;

/// Pipeline block size heuristic: grows with the message (Figure 8(b):
/// small blocks win for small messages, large blocks for large ones).
std::size_t default_pipeline_block(std::size_t size);

/// Number of blocks a pipelined transfer of `size` with block `block` uses.
/// A zero-size transfer is one empty block (never zero: a 0-block pipeline
/// would carry no message to match the peer's posted receive).
std::size_t pipeline_block_count(std::size_t size, std::size_t block);

}  // namespace clmpi::xfer
