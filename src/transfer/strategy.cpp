#include "transfer/strategy.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "simmpi/datatype.hpp"
#include "simmpi/fault.hpp"
#include "support/context.hpp"
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
  // A zero-size transfer is ONE empty block: a 0-block pipeline would
  // underflow the cost model's fill/drain terms (size - (nblocks-1)*block)
  // and put no message on the wire for the peer's posted receive to match.
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

vt::Duration predict_transfer(const sys::SystemProfile& profile, std::size_t size,
                              const Strategy& strategy) {
  const auto& pcie = profile.pcie;
  const auto& wire = profile.nic.wire;
  switch (strategy.kind) {
    case StrategyKind::pinned:
      // setup + D2H, one wire message, setup + H2D — fully serialized.
      return pcie.pin_setup + pcie.pinned.of(size) + wire.of(size) + pcie.pin_setup +
             pcie.pinned.of(size);
    case StrategyKind::mapped: {
      // NIC streams through the mapping at the capped rate; map/unmap on
      // both ends are pure latency.
      vt::LinearCost effective = wire;
      effective.bytes_per_second =
          std::min(effective.bytes_per_second, pcie.mapped.bytes_per_second);
      return pcie.map_setup * 4.0 + effective.of(size);
    }
    case StrategyKind::gpudirect:
      CLMPI_REQUIRE(profile.nic.rdma_direct,
                    "GPUDirect RDMA is not available on this system");
      return profile.nic.rdma_setup + wire.of(size);
    case StrategyKind::pipelined: {
      // Classic pipeline bound: fill (first block down) + N stages at the
      // slowest stage rate + drain (last block up).
      const std::size_t nblocks = pipeline_block_count(size, strategy.block);
      const std::size_t last = size - (nblocks - 1) * strategy.block;
      const vt::Duration d2h = pcie.pinned.of(strategy.block);
      const vt::Duration h2d = d2h;
      const vt::Duration stage = vt::max(wire.of(strategy.block), d2h);
      return pcie.pin_setup + pcie.pinned.of(std::min(strategy.block, size)) +
             stage * static_cast<double>(nblocks - 1) + wire.of(last) + pcie.pin_setup +
             h2d;
    }
    case StrategyKind::shmem:
      // One-sided Put/Get of a device-resident window region: origin-side
      // pinned staging, one fabric operation (window mapping + link), and
      // the target-side landing DMA. Matches the charges window.cpp and the
      // runtime's ingress/egress hooks make for an RMA access.
      CLMPI_REQUIRE(profile.shmem.available,
                    "shmem strategy on a system without a shared-memory tier");
      return pcie.pin_setup + pcie.pinned.of(size) + profile.shmem.map_setup +
             profile.shmem.link.of(size) + pcie.pin_setup + pcie.pinned.of(size);
  }
  throw PreconditionError("unknown transfer strategy");
}

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t double_bits(double d) noexcept {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Content fingerprint over exactly the profile fields `select()` /
/// `predict_transfer()` read. Identifying profiles by address would be
/// wrong: benches and tests run on modified copies of the stock profiles
/// (same address lifetime, different knobs).
std::uint64_t selection_fingerprint(const sys::SystemProfile& p) noexcept {
  std::uint64_t h = 0x243F6A8885A308D3ull;
  h = mix(h, p.nic.rdma_direct ? 1 : 0);
  h = mix(h, double_bits(p.nic.rdma_setup.s));
  h = mix(h, double_bits(p.nic.wire.latency.s));
  h = mix(h, double_bits(p.nic.wire.bytes_per_second));
  h = mix(h, double_bits(p.pcie.pinned.latency.s));
  h = mix(h, double_bits(p.pcie.pinned.bytes_per_second));
  h = mix(h, double_bits(p.pcie.mapped.latency.s));
  h = mix(h, double_bits(p.pcie.mapped.bytes_per_second));
  h = mix(h, double_bits(p.pcie.pin_setup.s));
  h = mix(h, double_bits(p.pcie.map_setup.s));
  h = mix(h, static_cast<std::uint64_t>(p.small_preference));
  h = mix(h, p.pipeline_threshold);
  // Not read by select() itself, but part of the eager wire behavior a
  // strategy's cost model rides on; a profile copy tuning only the inline
  // cutoff must key its own memo entries.
  h = mix(h, p.nic.eager_inline);
  // Read by select_rma / predict_transfer(shmem); a profile copy that only
  // flips the fabric knobs must not hit a stale memo entry.
  h = mix(h, p.shmem.available ? 1 : 0);
  h = mix(h, double_bits(p.shmem.link.latency.s));
  h = mix(h, double_bits(p.shmem.link.bytes_per_second));
  h = mix(h, double_bits(p.shmem.map_setup.s));
  h = mix(h, p.shmem.one_sided_threshold);
  return h;
}

/// Why select_uncached picked its strategy (published as a counter name).
enum class SelectReason { rdma_shortcut, heuristic_pipeline, heuristic_small, predictive_argmin };

const char* to_string(SelectReason reason) noexcept {
  switch (reason) {
    case SelectReason::rdma_shortcut: return "rdma_shortcut";
    case SelectReason::heuristic_pipeline: return "heuristic_pipeline";
    case SelectReason::heuristic_small: return "heuristic_small";
    case SelectReason::predictive_argmin: return "predictive_argmin";
  }
  return "?";
}

Strategy select_uncached(const sys::SystemProfile& profile, std::size_t size,
                         SelectionMode mode, SelectReason& reason) {
  // GPUDirect-capable hardware short-circuits both policies: the direct
  // path dominates every staged one (§VI: applications benefit from new
  // hardware without a code change).
  if (profile.nic.rdma_direct) {
    reason = SelectReason::rdma_shortcut;
    return Strategy::gpudirect();
  }

  if (mode == SelectionMode::heuristic) {
    if (size >= profile.pipeline_threshold) {
      reason = SelectReason::heuristic_pipeline;
      return Strategy::pipelined(default_pipeline_block(profile, size));
    }
    reason = SelectReason::heuristic_small;
    return profile.small_preference == sys::SmallTransferPreference::mapped
               ? Strategy::mapped()
               : Strategy::pinned();
  }

  // Predictive: argmin of the analytic model over the candidate set.
  reason = SelectReason::predictive_argmin;
  Strategy best = Strategy::pinned();
  vt::Duration best_cost = predict_transfer(profile, size, best);
  auto consider = [&](const Strategy& candidate) {
    const vt::Duration cost = predict_transfer(profile, size, candidate);
    if (cost < best_cost) {
      best = candidate;
      best_cost = cost;
    }
  };
  consider(Strategy::mapped());
  for (std::size_t block = 64_KiB; block <= 16_MiB; block *= 2) {
    if (block >= size) break;
    consider(Strategy::pipelined(block));
  }
  return best;
}

/// One counter per fresh (size, mode) decision, named
/// "xfer.select.<mode>.<kind>.sz<log2-size-class>.<reason>" — e.g. a 4 MiB
/// heuristic pick reads "xfer.select.heuristic.pipelined.sz22.heuristic_pipeline".
/// Registry lookups (not cached references) are fine here: decisions only
/// happen on the memoized path's misses.
void count_decision(std::size_t size, SelectionMode mode, const Strategy& result,
                    SelectReason reason) {
  std::string name = "xfer.select.";
  name += mode == SelectionMode::heuristic ? "heuristic" : "predictive";
  name += '.';
  name += to_string(result.kind);
  name += ".sz";
  name += std::to_string(std::bit_width(size));
  name += '.';
  name += to_string(reason);
  obs::Registry::instance().counter(name).add();
}

}  // namespace

Strategy select_exchange(const sys::SystemProfile& profile, std::size_t send_size,
                         std::size_t recv_size, SelectionMode mode) {
  // Single agreed key: the larger of the two sizes. Both peers of an
  // exchange see the same (send, recv) pair (mirrored), so max() derives
  // the identical strategy — and wire decomposition — on both ends.
  return select(profile, std::max(send_size, recv_size), mode);
}

Strategy select_rma(const sys::SystemProfile& profile, std::size_t size,
                    SelectionMode mode) {
  // No fabric -> the access is emulated two-sided: one pinned-staged
  // message per Put/Get, always single-message (RMA accesses are applied as
  // whole operations at the fence, so a pipelined decomposition has nothing
  // to overlap with).
  if (!profile.shmem.available) return Strategy::pinned();
  if (mode == SelectionMode::heuristic) {
    return size >= profile.shmem.one_sided_threshold ? Strategy::shmem()
                                                     : Strategy::pinned();
  }
  return predict_transfer(profile, size, Strategy::shmem()) <
                 predict_transfer(profile, size, Strategy::pinned())
             ? Strategy::shmem()
             : Strategy::pinned();
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

Strategy select(const sys::SystemProfile& profile, std::size_t size, SelectionMode mode) {
  // Memoized front-end: selection is a pure function of (profile content,
  // size, mode), so re-running the predictive argmin per message is wasted
  // work on the steady-state path where sizes repeat. A direct-mapped,
  // rank-scoped cache (execution-context slot, NOT thread_local: under the
  // fiber scheduler a rank migrates across workers mid-run and must keep its
  // memo, and two ranks time-sharing a worker must not share entries)
  // indexed by size-class and validated on the EXACT (fingerprint, size,
  // mode) key — size-class-granular keys would return the wrong strategy
  // near policy thresholds and in predictive mode, which would change wire
  // decompositions and break trace neutrality.
  struct SelectMemo {
    struct Entry {
      std::uint64_t fp{0};
      std::size_t size{0};
      SelectionMode mode{SelectionMode::heuristic};
      Strategy result{};
      bool valid{false};
    };
    std::array<Entry, 64> entries;
  };
  using MemoEntry = SelectMemo::Entry;
  auto& memo = ctx::current().slot<SelectMemo>().entries;

  const std::uint64_t fp = selection_fingerprint(profile);
  MemoEntry& e = memo[static_cast<std::size_t>(std::bit_width(size)) & 63];
  if (e.valid && e.fp == fp && e.size == size && e.mode == mode) {
    if (obs::metrics_enabled()) {
      static auto& memo_hits = obs::Registry::instance().counter("xfer.select.memo_hit");
      memo_hits.add();
    }
    return e.result;
  }
  SelectReason reason{};
  const Strategy result = select_uncached(profile, size, mode, reason);
  if (obs::metrics_enabled()) count_decision(size, mode, result, reason);
  e = MemoEntry{fp, size, mode, result, true};
  return result;
}

std::size_t default_pipeline_block(const sys::SystemProfile& /*profile*/, std::size_t size) {
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
