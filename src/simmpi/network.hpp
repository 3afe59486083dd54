// Interconnect model: one full-duplex NIC per node.
//
// A wire transfer from node s to node d occupies s's TX engine and d's RX
// engine for latency + bytes/bandwidth; transfers in opposite directions
// overlap (full duplex), transfers sharing a direction serialize. Same-node
// transfers use the loopback cost on both engines.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "simmpi/fault.hpp"
#include "systems/profile.hpp"
#include "vt/resource.hpp"
#include "vt/tracer.hpp"

namespace clmpi::mpi {

class Network {
 public:
  /// `faults` (optional, may be nullptr) degrades wire bandwidth and is
  /// consulted by the mailboxes for per-message fault decisions. `shmem`
  /// (optional) describes the system's one-sided shared-memory fabric; a
  /// null pointer or `available == false` model leaves the tier absent and
  /// every shmem_transfer call a precondition error.
  Network(const sys::NicModel& model, int nnodes, vt::Tracer* tracer,
          FaultEngine* faults = nullptr, const sys::ShmemModel* shmem = nullptr);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Move `bytes` from node src to node dst starting no earlier than `ready`.
  /// Returns the occupied span on the virtual timeline (timing only; the
  /// byte copy itself is the caller's job). `bw_cap` (bytes/s) bounds the
  /// effective bandwidth below the NIC's own rate — used when an endpoint
  /// streams through a slower path such as mapped device memory. A non-null
  /// `label` prefixes the trace span's label (retransmissions tag their wire
  /// spans "retry" so recovery is visible in the Perfetto export).
  vt::Resource::Span transfer(int src, int dst, vt::TimePoint ready, std::size_t bytes,
                              double bw_cap = std::numeric_limits<double>::infinity(),
                              const char* label = nullptr);

  /// One-sided Put/Get through the shared-memory fabric (the RMA "shmem"
  /// wire tier). Each node owns one full-duplex-less fabric port: transfers
  /// touching a node serialize on its port, distinct node pairs overlap.
  /// The cost folds the per-operation window mapping latency into the link
  /// cost; fault-plan bandwidth degradation applies (the plan knob models
  /// platform-wide interconnect health, not just the NIC).
  vt::Resource::Span shmem_transfer(int src, int dst, vt::TimePoint ready,
                                    std::size_t bytes, const char* label = nullptr);

  /// Whether this system has a shared-memory tier at all.
  [[nodiscard]] bool has_shmem() const noexcept { return shmem_.available; }

  [[nodiscard]] const sys::NicModel& model() const noexcept { return model_; }
  [[nodiscard]] int nodes() const noexcept { return static_cast<int>(tx_.size()); }

  /// The cluster's fault oracle; nullptr when fault injection is off.
  [[nodiscard]] FaultEngine* faults() const noexcept { return faults_; }

  vt::Resource& tx(int node);
  vt::Resource& rx(int node);

 private:
  vt::Resource& shmem_port(int node);

  sys::NicModel model_;
  sys::ShmemModel shmem_{};
  vt::Tracer* tracer_;
  FaultEngine* faults_;
  std::vector<std::unique_ptr<vt::Resource>> tx_;
  std::vector<std::unique_ptr<vt::Resource>> rx_;
  std::vector<std::unique_ptr<vt::Resource>> shm_;  ///< empty unless has_shmem()
};

}  // namespace clmpi::mpi
