#include "transfer/strategy.hpp"

#include <algorithm>
#include <vector>

#include "obs/metrics.hpp"
#include "simmpi/datatype.hpp"
#include "simmpi/fault.hpp"
#include "support/error.hpp"
#include "support/units.hpp"
#include "transfer/wire.hpp"

namespace clmpi::xfer {

const char* to_string(StrategyKind kind) noexcept {
  switch (kind) {
    case StrategyKind::pinned: return "pinned";
    case StrategyKind::mapped: return "mapped";
    case StrategyKind::pipelined: return "pipelined";
    case StrategyKind::gpudirect: return "gpudirect";
    case StrategyKind::shmem: return "shmem";
  }
  return "?";
}

std::size_t pipeline_block_count(std::size_t size, std::size_t block) {
  CLMPI_REQUIRE(block > 0, "pipeline block size must be positive");
  // A zero-size transfer is ONE empty block: a 0-block pipeline would put
  // no message on the wire for the peer's posted receive to match.
  if (size == 0) return 1;
  return (size + block - 1) / block;
}

std::vector<detail::WireBlock> detail::wire_blocks(std::size_t size, int tag,
                                                   const Strategy& strategy,
                                                   vt::Duration deadline) {
  if (strategy.kind != StrategyKind::pipelined) {
    return {WireBlock{0, size, tag, mpi::P2POptions{.wire_decomp = 0, .deadline = deadline}}};
  }
  const std::size_t block = strategy.block;
  const std::size_t nblocks = pipeline_block_count(size, block);
  std::vector<WireBlock> blocks;
  blocks.reserve(nblocks);
  for (std::size_t k = 0; k < nblocks; ++k) {
    blocks.push_back(WireBlock{k * block, std::min(block, size - k * block),
                               mpi::detail::pipeline_subtag(tag, static_cast<int>(k)),
                               mpi::P2POptions{.wire_decomp = block, .deadline = deadline}});
  }
  return blocks;
}

Strategy resolve_strategy(const sys::SystemProfile& profile, mpi::Comm& comm, int peer,
                          const Strategy& requested) {
  const mpi::FaultEngine* faults = comm.faults();
  if (requested.kind == StrategyKind::gpudirect) {
    const bool degraded =
        faults != nullptr && faults->plan().nic_degradation >= kGpudirectDegradationThreshold;
    if (!profile.nic.rdma_direct || degraded) {
      if (obs::metrics_enabled()) {
        static auto& fallbacks = obs::Registry::instance().counter("xfer.fallbacks");
        static auto& gd = obs::Registry::instance().counter("xfer.fallback.gpudirect_to_pinned");
        fallbacks.add();
        gd.add();
      }
      return Strategy::pinned();
    }
  }
  if (requested.kind == StrategyKind::pipelined && faults != nullptr) {
    const int self = comm.node_of(comm.rank());
    const int other = comm.node_of(peer);
    if (faults->link_degraded(self, other)) {
      if (obs::metrics_enabled()) {
        static auto& fallbacks = obs::Registry::instance().counter("xfer.fallbacks");
        static auto& pp = obs::Registry::instance().counter("xfer.fallback.pipelined_to_pinned");
        fallbacks.add();
        pp.add();
      }
      return Strategy::pinned();
    }
  }
  return requested;
}

namespace {

/// `xfer.select.<kind>`: one count per select() call, by the kind chosen.
/// select() never picks shmem; that tier is select_rma's.
void count_selection(StrategyKind kind) {
  if (!obs::metrics_enabled()) return;
  auto& reg = obs::Registry::instance();
  static obs::Counter* const counters[] = {
      &reg.counter("xfer.select.pinned"), &reg.counter("xfer.select.mapped"),
      &reg.counter("xfer.select.pipelined"), &reg.counter("xfer.select.gpudirect")};
  counters[static_cast<std::size_t>(kind)]->add();
}

Strategy select_uncounted(const sys::SystemProfile& profile, std::size_t size) {
  // GPUDirect-capable hardware short-circuits the policy: the direct path
  // dominates every staged one (§VI: applications benefit from new hardware
  // without a code change).
  if (profile.nic.rdma_direct) return Strategy::gpudirect();
  if (size >= profile.pipeline_threshold) {
    return Strategy::pipelined(default_pipeline_block(size));
  }
  return profile.small_preference == sys::SmallTransferPreference::mapped
             ? Strategy::mapped()
             : Strategy::pinned();
}

}  // namespace

Strategy select(const sys::SystemProfile& profile, std::size_t size) {
  const Strategy result = select_uncounted(profile, size);
  count_selection(result.kind);
  return result;
}

Strategy select_exchange(const sys::SystemProfile& profile, std::size_t send_size,
                         std::size_t recv_size) {
  // Single agreed key: the larger of the two sizes. Both peers of an
  // exchange see the same (send, recv) pair (mirrored), so max() derives
  // the identical strategy — and wire decomposition — on both ends.
  return select(profile, std::max(send_size, recv_size));
}

Strategy select_rma(const sys::SystemProfile& profile, std::size_t size) {
  // No fabric -> the access is emulated two-sided: one pinned-staged
  // message per Put/Get, always single-message (RMA accesses are applied as
  // whole operations at the fence, so a pipelined decomposition has nothing
  // to overlap with).
  if (!profile.shmem.available) return Strategy::pinned();
  return size >= profile.shmem.one_sided_threshold ? Strategy::shmem() : Strategy::pinned();
}

Strategy resolve_rma_strategy(const sys::SystemProfile& profile,
                              const mpi::FaultEngine* faults, const Strategy& requested) {
  if (requested.kind == StrategyKind::shmem) {
    const bool degraded =
        faults != nullptr && faults->plan().nic_degradation >= kShmemDegradationThreshold;
    if (!profile.shmem.available || degraded) {
      if (obs::metrics_enabled()) {
        static auto& fallbacks = obs::Registry::instance().counter("xfer.fallbacks");
        static auto& sp = obs::Registry::instance().counter("xfer.fallback.shmem_to_pinned");
        fallbacks.add();
        sp.add();
      }
      return Strategy::pinned();
    }
  }
  return requested;
}

std::size_t default_pipeline_block(std::size_t size) {
  // Block ~ size/8, clamped to [256 KiB, 16 MiB] and rounded down to a power
  // of two. Figure 8(b): the optimal block grows with the message size.
  const std::size_t lo = 256_KiB;
  const std::size_t hi = 16_MiB;
  std::size_t target = std::clamp(size / 8, lo, hi);
  std::size_t block = lo;
  while (block * 2 <= target) block *= 2;
  return block;
}

}  // namespace clmpi::xfer
