// System profiles: the evaluation machines of the paper's Table I, expressed
// as the parameter sets that drive every cost model in the simulation.
//
// The paper evaluates on two clusters (Cichlid: 4 nodes, GbE, Tesla C2070;
// RICC: 100 nodes, InfiniBand DDR via IPoIB, Tesla C1060). We encode each as
// a SystemProfile; swapping the profile re-runs any experiment "on the other
// machine", which is exactly the performance-portability axis the paper
// studies.
#pragma once

#include <cstddef>
#include <string>

#include "vt/cost.hpp"

namespace clmpi::sys {

/// Interconnect model. `wire` is the per-message cost of the network path
/// between two distinct nodes; `loopback` covers same-node transfers.
/// Messages at or below `eager_threshold` bytes are sent eagerly (buffered at
/// the receiver); larger messages rendezvous with the posted receive.
struct NicModel {
  std::string name;
  vt::LinearCost wire;
  vt::LinearCost loopback;
  std::size_t eager_threshold{64 * 1024};
  /// GPUDirect-RDMA-capable (paper §II: CUDA 5 / Kepler + a compatible
  /// InfiniBand HCA — "such devices are not available at this time"). When
  /// true, the runtime's selector uses direct NIC<->device-memory transfers
  /// with no host staging; applications benefit without a code change (§VI).
  bool rdma_direct{false};
  /// Per-message registration/setup cost of the direct path.
  vt::Duration rdma_setup{0.0};
};

/// Host<->device interconnect (PCIe) model, one cost per access style.
///  * pinned:   DMA from page-locked host memory (highest bandwidth,
///              but staging into the pinned bounce buffer costs `pin_setup`).
///  * pageable: DMA from ordinary host memory.
///  * mapped:   host-side access to a device buffer mapped into the host
///              address space (lowest setup latency, lowest bandwidth).
struct PcieModel {
  vt::LinearCost pinned;
  vt::LinearCost pageable;
  vt::LinearCost mapped;
  vt::Duration pin_setup{0.0};
  vt::Duration map_setup{0.0};
};

/// Optional one-sided shared-memory fabric (a cMPI-style CXL memory pod
/// reachable from every node) backing the RMA tier's Put/Get path. Absent
/// (`available == false`) on the paper's two evaluation systems, so the
/// stock profiles behave exactly as before; the synthetic "cxlpod" profile
/// enables it to exercise the one-sided strategy boundary.
struct ShmemModel {
  bool available{false};
  /// Per-operation cost of a one-sided Put/Get through the fabric.
  vt::LinearCost link{};
  /// Per-operation window mapping/registration latency.
  vt::Duration map_setup{};
  /// Heuristic selector boundary (Fig. 8-style per-size policy): one-sided
  /// shmem at or above this many bytes, two-sided staging below.
  std::size_t one_sided_threshold{32 * 1024};
};

/// Compute device model. `stencil_flops` is the sustained rate of the Himeno
/// Jacobi kernel on this GPU; `pair_interactions_per_s` the sustained rate of
/// the nanopowder coagulation kernel; both calibrated in profiles.cpp.
struct GpuModel {
  std::string name;
  double stencil_flops{0.0};
  double pair_interactions_per_s{0.0};
  std::size_t mem_bytes{0};
};

struct CpuModel {
  std::string name;
  int sockets{1};
  double host_flops{0.0};  ///< sustained rate of host-side (serial) phases
};

/// Which staging style the clMPI runtime prefers for small/medium messages on
/// this system (paper section V-B: mapped on Cichlid, pinned on RICC).
enum class SmallTransferPreference { mapped, pinned };

struct SystemProfile {
  std::string name;
  CpuModel cpu;
  GpuModel gpu;
  NicModel nic;
  PcieModel pcie;
  /// One-sided shared-memory wire tier (RMA windows); disabled by default.
  ShmemModel shmem;
  /// Node-local storage (checkpoint/file-I/O commands, §VI extension).
  vt::LinearCost storage;
  int max_nodes{1};

  // clMPI runtime selection policy knobs (section V-B).
  SmallTransferPreference small_preference{SmallTransferPreference::pinned};
  std::size_t pipeline_threshold{4 * 1024 * 1024};  ///< pipelined above this

  // Table I descriptive rows (no behavioural effect; printed by
  // bench_table1_systems).
  std::string os;
  std::string compiler;
  std::string driver_version;
  std::string opencl_version;
  std::string mpi_version;
};

/// The 4-node GbE + Tesla C2070 cluster of the paper.
const SystemProfile& cichlid();

/// The RIKEN Integrated Cluster of Clusters partition: InfiniBand DDR
/// (IPoIB) + Tesla C1060, up to 100 nodes.
const SystemProfile& ricc();

/// Synthetic modern cluster with a CXL-style shared-memory pod: the only
/// stock profile whose ShmemModel is available. Used by the RMA tier's
/// tests and benches; the paper's systems predate such fabrics.
const SystemProfile& cxlpod();

/// Look up a profile by case-insensitive name; throws PreconditionError for
/// unknown names. Used by bench command lines.
const SystemProfile& profile_by_name(const std::string& name);

}  // namespace clmpi::sys
