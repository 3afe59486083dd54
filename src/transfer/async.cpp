#include "transfer/async.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "simmpi/datatype.hpp"
#include "support/error.hpp"
#include "transfer/pool.hpp"

namespace clmpi::xfer {

namespace {

std::size_t block_bytes(std::size_t size, std::size_t block, std::size_t k) {
  return std::min(block, size - k * block);
}

/// Shared countdown for multi-request transfers: fires `done` with the
/// latest completion time once `remaining` hits zero, carrying the first
/// sub-request failure (if any). Waiting for every sub-request — even after
/// one fails — keeps bounce buffers alive until no envelope references them.
struct Countdown {
  Countdown(std::size_t n, DoneFn fn) : remaining(n), done(std::move(fn)) {}

  void arrive(vt::TimePoint when, std::exception_ptr err = nullptr) {
    latest = vt::max(latest, when);
    if (err && !error) error = std::move(err);
    if (--remaining == 0) done(latest, error);
  }

  std::size_t remaining;
  vt::TimePoint latest;
  std::exception_ptr error;
  DoneFn done;
};

void check(const DeviceEndpoint& ep) {
  CLMPI_REQUIRE(ep.comm != nullptr && ep.dev != nullptr && ep.buf != nullptr,
                "device endpoint is missing a component");
  CLMPI_REQUIRE(ep.offset + ep.size <= ep.buf->size(),
                "transfer region outside the device buffer");
}

StagingPool& pool_for(const DeviceEndpoint& ep) {
  return StagingPool::for_node(ep.comm->node_of(ep.comm->rank()));
}

mpi::P2POptions single_message_opts(vt::Duration deadline = {}) {
  return mpi::P2POptions{.wire_decomp = 0, .deadline = deadline};
}

mpi::P2POptions pipelined_opts(std::size_t block, vt::Duration deadline = {}) {
  return mpi::P2POptions{.wire_decomp = block, .deadline = deadline};
}

/// memcpy with a null-safe empty case (a zero-size transfer's bounce buffer
/// has no storage behind it).
void copy_bytes(std::byte* dst, const std::byte* src, std::size_t n) {
  if (n > 0) std::memcpy(dst, src, n);
}

}  // namespace

void send_device_async(const DeviceEndpoint& ep, const Strategy& requested,
                       vt::TimePoint ready, DoneFn done) {
  check(ep);
  const Strategy strategy = resolve_strategy(ep.dev->profile(), *ep.comm, ep.peer, requested);
  auto& dev = *ep.dev;
  auto& prof = dev.profile();

  switch (strategy.kind) {
    case StrategyKind::shmem:
      throw PreconditionError("one-sided shmem strategy on a two-sided send");
    case StrategyKind::pinned: {
      const auto setup = dev.copy_engine().acquire(ready, prof.pcie.pin_setup);
      const auto d2h =
          dev.charge_dma(setup.end, ep.size, /*to_device=*/false, /*pinned_host=*/true);
      auto bounce = std::make_shared<StagingPool::Buffer>(pool_for(ep).acquire(ep.size));
      copy_bytes(bounce->data(), ep.buf->storage().data() + ep.offset, ep.size);
      mpi::Request req = ep.comm->isend(bounce->span(), ep.peer, ep.tag, d2h.end,
                                        single_message_opts(ep.deadline));
      auto state = req.state();
      req.on_complete([bounce, state, done](vt::TimePoint t, const mpi::MsgStatus&) {
        done(t, state->error());
      });
      return;
    }

    case StrategyKind::mapped: {
      // Host-side map latency only; unmap likewise (no DMA engine).
      const vt::TimePoint mapped_at = ready + prof.pcie.map_setup;
      mpi::P2POptions opts{.wire_bw_cap = prof.pcie.mapped.bytes_per_second,
                           .wire_decomp = 0,
                           .deadline = ep.deadline};
      auto region = ep.buf->storage().subspan(ep.offset, ep.size);
      mpi::Request req = ep.comm->isend(region, ep.peer, ep.tag, mapped_at, opts);
      const vt::Duration unmap_cost = prof.pcie.map_setup;
      auto state = req.state();
      req.on_complete([unmap_cost, state, done](vt::TimePoint t, const mpi::MsgStatus&) {
        done(t + unmap_cost, state->error());
      });
      return;
    }

    case StrategyKind::pipelined: {
      const std::size_t nblocks = pipeline_block_count(ep.size, strategy.block);
      const auto setup = dev.copy_engine().acquire(ready, prof.pcie.pin_setup);
      auto countdown = std::make_shared<Countdown>(nblocks, std::move(done));
      for (std::size_t k = 0; k < nblocks; ++k) {
        const std::size_t n = block_bytes(ep.size, strategy.block, k);
        const auto dma =
            dev.charge_dma(setup.end, n, /*to_device=*/false, /*pinned_host=*/true);
        auto bounce = std::make_shared<StagingPool::Buffer>(pool_for(ep).acquire(n));
        copy_bytes(bounce->data(),
                   ep.buf->storage().data() + ep.offset + k * strategy.block, n);
        mpi::Request req = ep.comm->isend(
            bounce->span(), ep.peer, mpi::detail::pipeline_subtag(ep.tag, static_cast<int>(k)),
            dma.end, pipelined_opts(strategy.block, ep.deadline));
        auto state = req.state();
        req.on_complete([bounce, state, countdown](vt::TimePoint t, const mpi::MsgStatus&) {
          countdown->arrive(t, state->error());
        });
      }
      return;
    }

    case StrategyKind::gpudirect: {
      // resolve_strategy() already degraded gpudirect to pinned when the
      // direct path is unavailable; reaching here implies rdma_direct.
      CLMPI_REQUIRE(prof.nic.rdma_direct,
                    "GPUDirect RDMA is not available on this system");
      auto region = ep.buf->storage().subspan(ep.offset, ep.size);
      mpi::Request req = ep.comm->isend(region, ep.peer, ep.tag,
                                        ready + prof.nic.rdma_setup,
                                        single_message_opts(ep.deadline));
      auto state = req.state();
      req.on_complete([state, done](vt::TimePoint t, const mpi::MsgStatus&) {
        done(t, state->error());
      });
      return;
    }
  }
  throw PreconditionError("unknown transfer strategy");
}

void recv_device_async(const DeviceEndpoint& ep, const Strategy& requested,
                       vt::TimePoint ready, DoneFn done) {
  check(ep);
  const Strategy strategy = resolve_strategy(ep.dev->profile(), *ep.comm, ep.peer, requested);
  auto& dev = *ep.dev;
  auto& prof = dev.profile();

  switch (strategy.kind) {
    case StrategyKind::shmem:
      throw PreconditionError("one-sided shmem strategy on a two-sided recv");
    case StrategyKind::pinned: {
      const auto setup = dev.copy_engine().acquire(ready, prof.pcie.pin_setup);
      auto bounce = std::make_shared<StagingPool::Buffer>(pool_for(ep).acquire(ep.size));
      mpi::Request req = ep.comm->irecv(bounce->span(), ep.peer, ep.tag, setup.end,
                                        single_message_opts(ep.deadline));
      auto* devp = ep.dev;
      auto* buf = ep.buf;
      const std::size_t offset = ep.offset;
      const std::size_t size = ep.size;
      auto state = req.state();
      req.on_complete([devp, buf, offset, size, bounce, state, done](
                          vt::TimePoint t, const mpi::MsgStatus&) {
        if (std::exception_ptr err = state->error()) {
          done(t, err);  // nothing arrived: no up-staging DMA, no copy
          return;
        }
        const auto h2d = devp->charge_dma(t, size, /*to_device=*/true, /*pinned_host=*/true);
        copy_bytes(buf->storage().data() + offset, bounce->data(), size);
        done(h2d.end, nullptr);
      });
      return;
    }

    case StrategyKind::mapped: {
      const vt::TimePoint mapped_at = ready + prof.pcie.map_setup;
      mpi::P2POptions opts{.wire_bw_cap = prof.pcie.mapped.bytes_per_second,
                           .wire_decomp = 0,
                           .deadline = ep.deadline};
      auto region = ep.buf->storage().subspan(ep.offset, ep.size);
      mpi::Request req = ep.comm->irecv(region, ep.peer, ep.tag, mapped_at, opts);
      const vt::Duration unmap_cost = prof.pcie.map_setup;
      auto state = req.state();
      req.on_complete([unmap_cost, state, done](vt::TimePoint t, const mpi::MsgStatus&) {
        done(t + unmap_cost, state->error());
      });
      return;
    }

    case StrategyKind::pipelined: {
      const std::size_t nblocks = pipeline_block_count(ep.size, strategy.block);
      const auto setup = dev.copy_engine().acquire(ready, prof.pcie.pin_setup);
      auto countdown = std::make_shared<Countdown>(nblocks, std::move(done));
      auto* devp = ep.dev;
      auto* buf = ep.buf;
      for (std::size_t k = 0; k < nblocks; ++k) {
        const std::size_t n = block_bytes(ep.size, strategy.block, k);
        auto bounce = std::make_shared<StagingPool::Buffer>(pool_for(ep).acquire(n));
        mpi::Request req = ep.comm->irecv(
            bounce->span(), ep.peer, mpi::detail::pipeline_subtag(ep.tag, static_cast<int>(k)),
            setup.end, pipelined_opts(strategy.block, ep.deadline));
        const std::size_t offset = ep.offset + k * strategy.block;
        auto state = req.state();
        req.on_complete([devp, buf, offset, n, bounce, state, countdown](
                            vt::TimePoint t, const mpi::MsgStatus&) {
          if (std::exception_ptr err = state->error()) {
            countdown->arrive(t, err);
            return;
          }
          const auto h2d = devp->charge_dma(t, n, /*to_device=*/true, /*pinned_host=*/true);
          copy_bytes(buf->storage().data() + offset, bounce->data(), n);
          countdown->arrive(h2d.end);
        });
      }
      return;
    }

    case StrategyKind::gpudirect: {
      CLMPI_REQUIRE(prof.nic.rdma_direct,
                    "GPUDirect RDMA is not available on this system");
      auto region = ep.buf->storage().subspan(ep.offset, ep.size);
      mpi::Request req = ep.comm->irecv(region, ep.peer, ep.tag,
                                        ready + prof.nic.rdma_setup,
                                        single_message_opts(ep.deadline));
      auto state = req.state();
      req.on_complete([state, done](vt::TimePoint t, const mpi::MsgStatus&) {
        done(t, state->error());
      });
      return;
    }
  }
  throw PreconditionError("unknown transfer strategy");
}

}  // namespace clmpi::xfer
