// The transfer engine. Every strategy's stages are written once, as a post
// with completion callbacks; the blocking entry points of strategy.hpp are
// that post plus a wait.
#include "transfer/async.hpp"

#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "simmpi/datatype.hpp"
#include "support/error.hpp"
#include "support/units.hpp"
#include "transfer/staging.hpp"
#include "transfer/wire.hpp"

namespace clmpi::xfer {

namespace {

void check_endpoint(const DeviceEndpoint& ep) {
  CLMPI_REQUIRE(ep.comm != nullptr && ep.dev != nullptr && ep.buf != nullptr,
                "device endpoint is missing a component");
  CLMPI_REQUIRE(region_fits(ep.offset, ep.size, ep.buf->size()),
                "transfer region outside the device buffer");
  CLMPI_REQUIRE(ep.tag >= 0 && ep.tag <= mpi::max_user_tag,
                "transfer tag outside the user tag space");
}

/// memcpy with a null-safe empty case (a zero-size region may have no
/// storage behind it).
void copy_bytes(std::byte* dst, const std::byte* src, std::size_t n) {
  if (n > 0) std::memcpy(dst, src, n);
}

/// The stage before a strategy's first wire message: the pinned bounce
/// ring's setup on the copy engine (pinned, pipelined), the host mapping of
/// the region (mapped: a driver VM operation, pure latency, no DMA engine)
/// or the HCA's registration of device memory (gpudirect).
vt::TimePoint setup(ocl::Device& dev, const Strategy& s, vt::TimePoint ready) {
  const auto& prof = dev.profile();
  switch (s.kind) {
    case StrategyKind::pinned:
    case StrategyKind::pipelined:
      return dev.copy_engine().acquire(ready, prof.pcie.pin_setup).end;
    case StrategyKind::mapped:
      return ready + prof.pcie.map_setup;
    case StrategyKind::gpudirect:
      // resolve_strategy() already degraded gpudirect to pinned when the
      // direct path is unavailable.
      CLMPI_REQUIRE(prof.nic.rdma_direct, "GPUDirect RDMA is not available on this system");
      return ready + prof.nic.rdma_setup;
    case StrategyKind::shmem:
      throw PreconditionError("one-sided shmem strategy on a two-sided transfer");
  }
  throw PreconditionError("unknown transfer strategy");
}

enum class Direction { send, recv };

/// Whether post() charges the setup stage (and a mapped region's unmap)
/// itself, or the caller already did: an exchange charges them once for
/// both directions.
enum class Setup { charge, charged };

/// Post one direction of a device transfer with the resolved strategy `s`,
/// starting no earlier than `ready`. `done` fires once every wire block has
/// settled.
void post(const DeviceEndpoint& ep, const Strategy& s, Direction dir, vt::TimePoint ready,
          Setup stage, DoneFn done) {
  ocl::Device* dev = ep.dev;
  const vt::TimePoint at = stage == Setup::charge ? setup(*dev, s, ready) : ready;
  if (stage == Setup::charge && s.kind == StrategyKind::mapped) {
    // Unmapping is latency after the last wire message, like the map.
    done = [unmap = dev->profile().pcie.map_setup, inner = std::move(done)](
               vt::TimePoint t, const std::exception_ptr& err) { inner(t + unmap, err); };
  }
  // Pinned and pipelined stage every block through a page-locked bounce
  // buffer (pinned is the one-block case); mapped and gpudirect hand device
  // memory straight to the NIC.
  const bool staged = s.kind == StrategyKind::pinned || s.kind == StrategyKind::pipelined;
  const std::vector<detail::WireBlock> blocks =
      detail::wire_blocks(ep.size, ep.tag, s, ep.deadline);
  const vt::Join arrive(blocks.size(), std::move(done));
  for (detail::WireBlock b : blocks) {
    const std::span<std::byte> region = ep.buf->storage().subspan(ep.offset + b.offset, b.size);
    std::span<std::byte> wire = region;
    vt::TimePoint wire_ready = at;
    std::shared_ptr<StagingBuffer> bounce;
    if (staged) {
      bounce = std::make_shared<StagingBuffer>(b.size);
      wire = bounce->span();
      if (dir == Direction::send) {
        // The copy engine and the NIC each serialize only their own work,
        // so the D2H of block k overlaps the wire transfer of block k-1.
        wire_ready = dev->charge_dma(at, b.size, /*to_device=*/false, /*pinned_host=*/true).end;
        copy_bytes(wire.data(), region.data(), b.size);
      }
    } else if (s.kind == StrategyKind::mapped) {
      // The NIC streams through the mapping at the mapped-access bandwidth.
      b.opts.wire_bw_cap = dev->profile().pcie.mapped.bytes_per_second;
    }
    mpi::Request req = dir == Direction::send
                           ? ep.comm->isend(wire, ep.peer, b.tag, wire_ready, b.opts)
                           : ep.comm->irecv(wire, ep.peer, b.tag, wire_ready, b.opts);
    // The callback holds `bounce` until its envelope settles. A received
    // block is staged up as it arrives; nothing arrived on failure.
    const bool land = staged && dir == Direction::recv;
    req.on_settle([dev, region, bounce, land, arrive](vt::TimePoint t,
                                                      const std::exception_ptr& err) {
      if (land && !err) {
        t = dev->charge_dma(t, region.size(), /*to_device=*/true, /*pinned_host=*/true).end;
        copy_bytes(region.data(), bounce->data(), region.size());
      }
      arrive(t, err);
    });
  }
}

/// A blocking form is the posted operation plus a wait: park the calling
/// fiber until `post_fn`'s completion settles, then return its time or
/// rethrow its failure. The completion is shared with the callback, so a
/// wait that unwinds leaves the callback nothing dead to settle.
template <typename PostFn>
vt::TimePoint post_and_wait(PostFn&& post_fn) {
  auto out = std::make_shared<vt::Completion>();
  post_fn(DoneFn([out](vt::TimePoint when, const std::exception_ptr& error) {
    out->settle(when, error);
  }));
  return out->wait("xfer.wait");
}

/// Host endpoints have no staging; they share only the wire decomposition.
template <typename Byte>
vt::TimePoint host_transfer(mpi::Comm& comm, std::span<Byte> data, int peer, int tag,
                            const Strategy& strategy, vt::TimePoint ready) {
  return post_and_wait([&](DoneFn done) {
    const std::vector<detail::WireBlock> blocks = detail::wire_blocks(data.size(), tag, strategy);
    const vt::Join arrive(blocks.size(), std::move(done));
    for (const detail::WireBlock& b : blocks) {
      const std::span<Byte> part = data.subspan(b.offset, b.size);
      mpi::Request req;
      if constexpr (std::is_const_v<Byte>) {
        req = comm.isend(part, peer, b.tag, ready, b.opts);
      } else {
        req = comm.irecv(part, peer, b.tag, ready, b.opts);
      }
      req.on_settle(arrive);
    }
  });
}

}  // namespace

void send_device_async(const DeviceEndpoint& ep, const Strategy& requested,
                       vt::TimePoint ready, DoneFn done) {
  check_endpoint(ep);
  post(ep, resolve_strategy(ep.dev->profile(), *ep.comm, ep.peer, requested), Direction::send,
       ready, Setup::charge, std::move(done));
}

void recv_device_async(const DeviceEndpoint& ep, const Strategy& requested,
                       vt::TimePoint ready, DoneFn done) {
  check_endpoint(ep);
  post(ep, resolve_strategy(ep.dev->profile(), *ep.comm, ep.peer, requested), Direction::recv,
       ready, Setup::charge, std::move(done));
}

vt::TimePoint send_device(const DeviceEndpoint& ep, const Strategy& strategy,
                          vt::TimePoint ready) {
  return post_and_wait(
      [&](DoneFn done) { send_device_async(ep, strategy, ready, std::move(done)); });
}

vt::TimePoint recv_device(const DeviceEndpoint& ep, const Strategy& strategy,
                          vt::TimePoint ready) {
  return post_and_wait(
      [&](DoneFn done) { recv_device_async(ep, strategy, ready, std::move(done)); });
}

vt::TimePoint exchange_device(const DeviceEndpoint& send_ep, const DeviceEndpoint& recv_ep,
                              const Strategy& requested, vt::TimePoint ready) {
  check_endpoint(send_ep);
  check_endpoint(recv_ep);
  // An exchange is ONE logical operation against one peer with one wire
  // decomposition; call sites must derive it from a single agreed key
  // (select_exchange). A cross-wired pair is the classic source of the
  // wire-decomp mismatch the mailbox check exists to catch.
  CLMPI_REQUIRE(send_ep.peer == recv_ep.peer,
                "exchange endpoints disagree on the peer rank");
  CLMPI_REQUIRE(send_ep.comm->context() == recv_ep.comm->context(),
                "exchange endpoints disagree on the communicator");
  const Strategy s =
      resolve_strategy(send_ep.dev->profile(), *send_ep.comm, send_ep.peer, requested);
  ocl::Device& dev = *send_ep.dev;

  // Both directions share one pinned ring or one RDMA registration; each
  // region is mapped (and, below, unmapped) on its own.
  vt::TimePoint at = setup(dev, s, ready);
  if (s.kind == StrategyKind::mapped) at = setup(dev, s, at);
  const vt::TimePoint done = post_and_wait([&](DoneFn both) {
    const vt::Join arrive(2, std::move(both));
    // Pipelined posts every inbound block before streaming the outbound ones.
    const bool recv_first = s.kind == StrategyKind::pipelined;
    if (recv_first) post(recv_ep, s, Direction::recv, at, Setup::charged, arrive);
    post(send_ep, s, Direction::send, at, Setup::charged, arrive);
    if (!recv_first) post(recv_ep, s, Direction::recv, at, Setup::charged, arrive);
  });
  if (s.kind != StrategyKind::mapped) return done;
  return done + dev.profile().pcie.map_setup + dev.profile().pcie.map_setup;
}

vt::TimePoint send_host(mpi::Comm& comm, std::span<const std::byte> data, int peer, int tag,
                        const Strategy& strategy, vt::TimePoint ready) {
  return host_transfer(comm, data, peer, tag, strategy, ready);
}

vt::TimePoint recv_host(mpi::Comm& comm, std::span<std::byte> data, int peer, int tag,
                        const Strategy& strategy, vt::TimePoint ready) {
  return host_transfer(comm, data, peer, tag, strategy, ready);
}

}  // namespace clmpi::xfer
