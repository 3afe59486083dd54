// One-sided RMA conformance suite: the oracle for the window/fence subsystem
// and its shmem wire tier.
//
// Covers, at every layer:
//   * simmpi window semantics — fence-epoch ordering, gets-read-pre-put-state,
//     deterministic overlapping-put resolution, zero/max-size accesses,
//     self-targeted accesses, multi-epoch reuse;
//   * typed negative paths — posting outside an epoch, OOB offsets, bad
//     ranks, freed windows, free-with-pending, shmem path without a fabric;
//   * strategy selection — select_rma flips exactly at the profile
//     threshold, resolve_rma_strategy degradation fallback and its counters;
//   * the clMPI runtime — event-chained clEnqueuePutBuffer /
//     clEnqueueGetBuffer / clEnqueueWindowFence commands, blocking-get
//     rejection, RMA-vs-send/recv byte equivalence;
//   * determinism — seed-identical trace hashes under chaos fault plans;
//   * the C API — window lifecycle through clmpiCreateWindow /
//     clEnqueuePutBuffer / clEnqueueWindowFence / clmpiFreeWindow.
#include <gtest/gtest.h>

#include "test_util.hpp"

#include <cstring>
#include <span>
#include <vector>

#include "clmpi/capi.h"
#include "clmpi/runtime.hpp"
#include "obs/metrics.hpp"
#include "ocl/context.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/window.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"
#include "transfer/strategy.hpp"
#include "vt/tracer.hpp"

namespace clmpi {
namespace {

mpi::Cluster::Options opts(int nranks, const sys::SystemProfile& prof,
                           vt::Tracer* tracer = nullptr) {
  mpi::Cluster::Options o;
  o.nranks = nranks;
  o.profile = &prof;
  o.tracer = tracer;
  return o;
}

bool all_zero(std::span<const std::byte> bytes) {
  for (const std::byte b : bytes) {
    if (b != std::byte{0}) return false;
  }
  return true;
}

/// Asserts `body()` throws clmpi::Error with exactly `expected`.
template <typename Fn>
void expect_status(Status expected, Fn&& body) {
  try {
    body();
    ADD_FAILURE() << "expected Error with status " << static_cast<int>(expected);
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), expected) << e.what();
  }
}

// --- window conformance (simmpi layer) ---------------------------------------

TEST(WinConformance, PutVisibleOnlyAfterClosingFence) {
  mpi::Cluster::run(opts(2, sys::cxlpod()), [](mpi::Rank& rank) {
    std::vector<std::byte> region(4_KiB, std::byte{0});
    mpi::Win win = mpi::create_window(rank.world(), region, rank.clock());
    EXPECT_FALSE(win.epoch_open());
    win.fence(rank.clock());  // opens the first access epoch
    EXPECT_TRUE(win.epoch_open());

    if (rank.rank() == 0) {
      std::vector<std::byte> payload(1_KiB);
      fill_pattern(payload, 0xABCu);
      win.put(payload, /*target=*/1, /*target_offset=*/128, rank.clock());
      // The access is posted, not performed: the target region is untouched
      // until the closing fence.
    }
    if (rank.rank() == 1) {
      EXPECT_TRUE(all_zero(std::span<const std::byte>(region).subspan(128, 1_KiB)));
    }
    win.fence(rank.clock());  // closes the epoch: the put lands here
    if (rank.rank() == 1) {
      EXPECT_TRUE(
          check_pattern(std::span<const std::byte>(region).subspan(128, 1_KiB), 0xABCu));
    }
    EXPECT_EQ(win.epochs(), 2);
    win.free(rank.clock());
  });
}

TEST(WinConformance, GetReadsPrePutStateOfTheSameEpoch) {
  mpi::Cluster::run(opts(2, sys::cxlpod()), [](mpi::Rank& rank) {
    std::vector<std::byte> region(2_KiB, std::byte{0});
    if (rank.rank() == 1) fill_pattern(region, 0x01dF00d);
    mpi::Win win = mpi::create_window(rank.world(), region, rank.clock());
    win.fence(rank.clock());

    std::vector<std::byte> fetched(2_KiB);
    if (rank.rank() == 0) {
      // Get and put target the same remote range in the same epoch. All gets
      // of an epoch are applied before any put: the get must observe the
      // target as it stood when the epoch closed.
      win.get(fetched, 1, 0, rank.clock());
      std::vector<std::byte> payload(2_KiB);
      fill_pattern(payload, 0x2222u);
      win.put(payload, 1, 0, rank.clock());
    }
    win.fence(rank.clock());
    if (rank.rank() == 0) {
      EXPECT_TRUE(check_pattern(fetched, 0x01dF00d));  // pre-put snapshot
    }
    if (rank.rank() == 1) {
      EXPECT_TRUE(check_pattern(region, 0x2222u));  // put landed afterwards
    }
    win.free(rank.clock());
  });
}

TEST(WinConformance, OverlappingPutsResolveByOriginThenProgramOrder) {
  mpi::Cluster::run(opts(3, sys::cxlpod()), [](mpi::Rank& rank) {
    std::vector<std::byte> region(1_KiB, std::byte{0});
    mpi::Win win = mpi::create_window(rank.world(), region, rank.clock());
    win.fence(rank.clock());

    std::vector<std::byte> p0(256), p1(256), p0b(64);
    fill_pattern(p0, 0xA0u);
    fill_pattern(p1, 0xA1u);
    fill_pattern(p0b, 0xB0u);
    if (rank.rank() == 0) {
      win.put(p0, 2, 0, rank.clock());     // [0, 256)
      win.put(p0b, 2, 0, rank.clock());    // [0, 64): same origin, later index wins
    }
    if (rank.rank() == 1) {
      win.put(p1, 2, 128, rank.clock());   // [128, 384): higher origin wins overlap
    }
    win.fence(rank.clock());

    if (rank.rank() == 2) {
      // Deterministic linearization: origin 0 index 0, origin 0 index 1,
      // origin 1 index 0 — regardless of thread scheduling.
      std::vector<std::byte> expected(1_KiB, std::byte{0});
      std::memcpy(expected.data(), p0.data(), 256);
      std::memcpy(expected.data(), p0b.data(), 64);
      std::memcpy(expected.data() + 128, p1.data(), 256);
      EXPECT_EQ(0, std::memcmp(region.data(), expected.data(), region.size()));
    }
    win.free(rank.clock());
  });
}

TEST(WinConformance, DisjointConcurrentPutsAllLand) {
  constexpr int kRanks = 4;
  mpi::Cluster::run(opts(kRanks, sys::cxlpod()), [](mpi::Rank& rank) {
    std::vector<std::byte> region(kRanks * 512, std::byte{0});
    mpi::Win win = mpi::create_window(rank.world(), region, rank.clock());
    win.fence(rank.clock());
    // Every rank puts its slot into every other rank's window.
    std::vector<std::byte> payload(512);
    fill_pattern(payload, 0x5000u + static_cast<unsigned>(rank.rank()));
    for (int peer = 0; peer < rank.size(); ++peer) {
      if (peer == rank.rank()) continue;
      win.put(payload, peer, static_cast<std::size_t>(rank.rank()) * 512, rank.clock());
    }
    win.fence(rank.clock());
    for (int origin = 0; origin < rank.size(); ++origin) {
      if (origin == rank.rank()) continue;
      EXPECT_TRUE(check_pattern(
          std::span<const std::byte>(region).subspan(
              static_cast<std::size_t>(origin) * 512, 512),
          0x5000u + static_cast<unsigned>(origin)))
          << "origin " << origin << " slot on rank " << rank.rank();
    }
    win.free(rank.clock());
  });
}

TEST(WinConformance, ZeroSizeAccessesAreLegal) {
  mpi::Cluster::run(opts(2, sys::cxlpod()), [](mpi::Rank& rank) {
    std::vector<std::byte> region(64, std::byte{7});
    mpi::Win win = mpi::create_window(rank.world(), region, rank.clock());
    win.fence(rank.clock());
    if (rank.rank() == 0) {
      win.put(std::vector<std::byte>{}, 1, 64, rank.clock());  // at region end
      std::vector<std::byte> dest;
      win.get(std::span<std::byte>(dest), 1, 0, rank.clock());
    }
    win.fence(rank.clock());  // latency-only wire; completes cleanly
    EXPECT_EQ(region[0], std::byte{7});  // region untouched by a zero-size put
    win.free(rank.clock());
  });
}

TEST(WinConformance, FullRegionTransferAndSelfAccess) {
  constexpr std::size_t kRegion = 256_KiB;
  mpi::Cluster::run(opts(2, sys::cxlpod()), [](mpi::Rank& rank) {
    std::vector<std::byte> region(kRegion, std::byte{0});
    mpi::Win win = mpi::create_window(rank.world(), region, rank.clock());
    win.fence(rank.clock());
    if (rank.rank() == 0) {
      std::vector<std::byte> payload(kRegion);
      fill_pattern(payload, 0xFFu);
      win.put(payload, 1, 0, rank.clock());  // max-size: the whole region
      // Self-targeted access through the loopback shmem port.
      std::vector<std::byte> self(64);
      fill_pattern(self, 0x5E1Fu);
      win.put(self, 0, 0, rank.clock());
    }
    win.fence(rank.clock());
    if (rank.rank() == 1) {
      EXPECT_TRUE(check_pattern(region, 0xFFu));
    }
    if (rank.rank() == 0) {
      EXPECT_TRUE(check_pattern(std::span<const std::byte>(region).subspan(0, 64), 0x5E1Fu));
    }
    win.free(rank.clock());
  });
}

TEST(WinConformance, MultipleEpochsAccumulateState) {
  mpi::Cluster::run(opts(2, sys::cxlpod()), [](mpi::Rank& rank) {
    std::vector<std::byte> region(128, std::byte{0});
    mpi::Win win = mpi::create_window(rank.world(), region, rank.clock());
    win.fence(rank.clock());
    for (int e = 0; e < 4; ++e) {
      if (rank.rank() == 0) {
        std::vector<std::byte> payload(32);
        fill_pattern(payload, 0xE000u + static_cast<unsigned>(e));
        win.put(payload, 1, static_cast<std::size_t>(e) * 32, rank.clock());
      }
      win.fence(rank.clock());
      if (rank.rank() == 1) {
        // Every epoch's put so far is visible; later slots still untouched.
        for (int k = 0; k <= e; ++k) {
          EXPECT_TRUE(check_pattern(
              std::span<const std::byte>(region).subspan(
                  static_cast<std::size_t>(k) * 32, 32),
              0xE000u + static_cast<unsigned>(k)));
        }
      }
    }
    EXPECT_EQ(win.epochs(), 5);
    win.free(rank.clock());
  });
}

TEST(WinConformance, ForcedWirePathWorksOnShmemSystem) {
  // RmaPath::wire bypasses the fabric even where one exists; the access is
  // charged on the NIC and still delivers byte-exact.
  mpi::Cluster::run(opts(2, sys::cxlpod()), [](mpi::Rank& rank) {
    std::vector<std::byte> region(8_KiB, std::byte{0});
    mpi::Win win = mpi::create_window(rank.world(), region, rank.clock());
    win.fence(rank.clock());
    if (rank.rank() == 0) {
      std::vector<std::byte> payload(8_KiB);
      fill_pattern(payload, 0x31u);
      win.put(payload, 1, 0, rank.clock(), mpi::RmaOptions{mpi::RmaPath::wire, {}});
    }
    win.fence(rank.clock());
    if (rank.rank() == 1) {
      EXPECT_TRUE(check_pattern(region, 0x31u));
    }
    win.free(rank.clock());
  });
}

// --- negative paths (typed statuses) -----------------------------------------

TEST(WinNegative, TypedErrorsForEveryMisuse) {
  mpi::Cluster::run(opts(2, sys::cichlid()), [](mpi::Rank& rank) {
    std::vector<std::byte> region(256, std::byte{0});
    mpi::Win win = mpi::create_window(rank.world(), region, rank.clock());
    std::vector<std::byte> small(16);

    // 1. Posting before the first fence: no epoch is open yet.
    expect_status(Status::rma_epoch,
                  [&] { win.put(small, 1 - rank.rank(), 0, rank.clock()); });

    win.fence(rank.clock());

    // 2. Out-of-range target rank.
    expect_status(Status::invalid_rank, [&] { win.put(small, 7, 0, rank.clock()); });
    expect_status(Status::invalid_rank, [&] { win.put(small, -1, 0, rank.clock()); });

    // 3. Access past the end of the target's region.
    expect_status(Status::invalid_value,
                  [&] { win.put(small, 1 - rank.rank(), 250, rank.clock()); });
    std::vector<std::byte> dest(16);
    expect_status(Status::invalid_value, [&] {
      win.get(std::span<std::byte>(dest), 1 - rank.rank(), 512, rank.clock());
    });

    // 4. Requiring the shmem fabric on a system without one.
    expect_status(Status::invalid_operation, [&] {
      win.put(small, 1 - rank.rank(), 0, rank.clock(),
              mpi::RmaOptions{mpi::RmaPath::shmem, {}});
    });

    win.fence(rank.clock());
    win.free(rank.clock());

    // 5. Any post on a freed window.
    expect_status(Status::invalid_window,
                  [&] { win.put(small, 1 - rank.rank(), 0, rank.clock()); });
    expect_status(Status::invalid_window, [&] { (void)win.region_size(0); });
  });
}

TEST(WinNegative, FreeWithPendingAccessesFailsTyped) {
  mpi::Cluster::run(opts(2, sys::cxlpod()), [](mpi::Rank& rank) {
    std::vector<std::byte> region(256, std::byte{0});
    mpi::Win win = mpi::create_window(rank.world(), region, rank.clock());
    win.fence(rank.clock());
    bool completion_failed = false;
    if (rank.rank() == 0) {
      std::vector<std::byte> payload(64);
      fill_pattern(payload, 0xDEADu);
      win.put(std::move(payload), 1, 0, rank.clock().now(), {},
              [&](vt::TimePoint, std::exception_ptr err) {
                completion_failed = (err != nullptr);
              });
      // Freeing with the put still unfenced fails on the origin rank; the
      // peer's free completes cleanly (the collective protocol finishes).
      expect_status(Status::rma_epoch, [&] { win.free(rank.clock()); });
      EXPECT_TRUE(completion_failed);
    } else {
      win.free(rank.clock());
      // The orphaned put never landed.
      EXPECT_TRUE(all_zero(std::span<const std::byte>(region).subspan(0, 64)));
    }
  });
}

TEST(WinNegative, EmptyHandleAndRuntimeValidation) {
  mpi::Win empty;
  EXPECT_FALSE(empty.valid());

  mpi::Cluster::run(opts(2, sys::cxlpod()), [](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    rt::Runtime runtime(rank, platform.device());
    auto queue = ctx.create_queue();
    ocl::BufferPtr buf = ctx.create_buffer(4_KiB);
    mpi::Win win = runtime.create_window(buf, 0, 4_KiB, rank.world());

    // Stateless argument validation happens eagerly at enqueue time.
    mpi::Win none;
    expect_status(Status::invalid_window, [&] {
      runtime.enqueue_put_buffer(*queue, buf, false, 0, 16, 1 - rank.rank(), 0, none, {});
    });
    expect_status(Status::invalid_value, [&] {
      runtime.enqueue_put_buffer(*queue, buf, false, 0, 16, 1 - rank.rank(), 4_KiB, win, {});
    });
    expect_status(Status::invalid_value, [&] {
      runtime.enqueue_put_buffer(*queue, buf, false, 4_KiB, 16, 1 - rank.rank(), 0, win, {});
    });
    expect_status(Status::invalid_rank, [&] {
      runtime.enqueue_put_buffer(*queue, buf, false, 0, 16, 9, 0, win, {});
    });
    // A blocking get can never complete before the fence it depends on.
    expect_status(Status::invalid_operation, [&] {
      runtime.enqueue_get_buffer(*queue, buf, true, 0, 16, 1 - rank.rank(), 0, win, {});
    });

    win.free(rank.clock());
  });
}

// --- strategy selection (shmem vs. pinned per wire tier) ----------------------

TEST(RmaStrategy, HeuristicFlipsExactlyAtTheProfileThreshold) {
  const auto& p = sys::cxlpod();
  ASSERT_TRUE(p.shmem.available);
  ASSERT_EQ(p.shmem.one_sided_threshold, 32_KiB);
  EXPECT_EQ(xfer::select_rma(p, 0).kind, xfer::StrategyKind::pinned);
  EXPECT_EQ(xfer::select_rma(p, 32_KiB - 1).kind, xfer::StrategyKind::pinned);
  EXPECT_EQ(xfer::select_rma(p, 32_KiB).kind, xfer::StrategyKind::shmem);
  EXPECT_EQ(xfer::select_rma(p, 4_MiB).kind, xfer::StrategyKind::shmem);
}

TEST(RmaStrategy, SystemsWithoutAFabricAlwaysPickPinned) {
  for (const sys::SystemProfile* p : {&sys::ricc(), &sys::cichlid()}) {
    ASSERT_FALSE(p->shmem.available);
    for (std::size_t size : {std::size_t{0}, std::size_t{1}, 32_KiB, 4_MiB}) {
      EXPECT_EQ(xfer::select_rma(*p, size).kind, xfer::StrategyKind::pinned);
    }
  }
}

TEST(RmaStrategy, ResolveDegradesShmemToPinned) {
  // No fabric: the request cannot be honoured.
  EXPECT_EQ(xfer::resolve_rma_strategy(sys::ricc(), nullptr, xfer::Strategy::shmem()).kind,
            xfer::StrategyKind::pinned);
  // Healthy fabric: the request stands.
  EXPECT_EQ(xfer::resolve_rma_strategy(sys::cxlpod(), nullptr, xfer::Strategy::shmem()).kind,
            xfer::StrategyKind::shmem);

  // Degradation at/above the threshold falls back; below it does not.
  mpi::FaultPlan degraded;
  degraded.nic_degradation = xfer::kShmemDegradationThreshold;
  mpi::FaultEngine heavy(degraded);
  mpi::FaultPlan mild_plan;
  mild_plan.nic_degradation = xfer::kShmemDegradationThreshold / 2;
  mpi::FaultEngine mild(mild_plan);

  obs::set_metrics_enabled(true);
  obs::Registry::instance().reset();
  EXPECT_EQ(xfer::resolve_rma_strategy(sys::cxlpod(), &heavy, xfer::Strategy::shmem()).kind,
            xfer::StrategyKind::pinned);
  EXPECT_EQ(xfer::resolve_rma_strategy(sys::cxlpod(), &mild, xfer::Strategy::shmem()).kind,
            xfer::StrategyKind::shmem);
  // Pinned requests never bounce.
  EXPECT_EQ(xfer::resolve_rma_strategy(sys::cxlpod(), &heavy, xfer::Strategy::pinned()).kind,
            xfer::StrategyKind::pinned);

  std::uint64_t fallbacks = 0;
  EXPECT_TRUE(obs::Registry::instance().value("xfer.fallback.shmem_to_pinned", fallbacks));
  EXPECT_EQ(fallbacks, 1u);
  obs::set_metrics_enabled(false);
}

// --- runtime commands (event-chained RMA) ------------------------------------

TEST(RmaRuntime, PutFenceGetChainsThroughEvents) {
  constexpr std::size_t kSize = 64_KiB;
  mpi::Cluster::run(opts(2, sys::cxlpod()), [](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    rt::Runtime runtime(rank, platform.device());
    auto queue = ctx.create_queue();

    ocl::BufferPtr exposed = ctx.create_buffer(kSize);
    ocl::BufferPtr local = ctx.create_buffer(kSize);
    mpi::Win win = runtime.create_window(exposed, 0, kSize, rank.world());

    runtime.enqueue_window_fence(*queue, win, /*blocking=*/true, {});

    ocl::EventPtr put_ev;
    if (rank.rank() == 0) {
      fill_pattern(local->storage(), 0xCAFEu);
      const double before = rank.now_s();
      put_ev = runtime.enqueue_put_buffer(*queue, local, /*blocking=*/true, 0, kSize,
                                          /*target=*/1, 0, win, {});
      // Local completion: the origin buffer was staged out, no earlier than
      // the enqueue instant; the remote landing waits for the fence.
      EXPECT_GE(put_ev->completion_time().s, before);
    }
    runtime.enqueue_window_fence(*queue, win, /*blocking=*/true, {});
    if (rank.rank() == 1) {
      EXPECT_TRUE(check_pattern(exposed->storage(), 0xCAFEu));
    }

    // Second epoch: rank 1 reads rank 0's window back over the fabric. The
    // get's event only completes at the fence.
    ocl::EventPtr get_ev;
    if (rank.rank() == 0) fill_pattern(exposed->storage(), 0xF00Du);
    runtime.enqueue_window_fence(*queue, win, /*blocking=*/true, {});
    if (rank.rank() == 1) {
      get_ev = runtime.enqueue_get_buffer(*queue, local, /*blocking=*/false, 0, kSize,
                                          /*target=*/0, 0, win, {});
    }
    auto fence_ev = runtime.enqueue_window_fence(*queue, win, /*blocking=*/true, {});
    if (rank.rank() == 1) {
      // The get completed (at the fence, no later than the round's end) and
      // landed byte-exact.
      const vt::TimePoint got = get_ev->wait();
      EXPECT_GT(got.s, 0.0);
      EXPECT_LE(got.s, fence_ev->completion_time().s + 1e-12);
      EXPECT_TRUE(check_pattern(local->storage(), 0xF00Du));
    }
    runtime.finish(rank.clock());
    win.free(rank.clock());
  });
}

TEST(RmaRuntime, PutMatchesSendRecvByteExact) {
  // The equivalence oracle: the same payload moved once over the two-sided
  // path and once over the one-sided path must land identical bytes.
  constexpr std::size_t kSize = 96_KiB;
  mpi::Cluster::run(opts(2, sys::cxlpod()), [](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    rt::Runtime runtime(rank, platform.device());
    auto queue = ctx.create_queue();

    ocl::BufferPtr two_sided = ctx.create_buffer(kSize);
    ocl::BufferPtr one_sided = ctx.create_buffer(kSize);
    ocl::BufferPtr src = ctx.create_buffer(kSize);
    mpi::Win win = runtime.create_window(one_sided, 0, kSize, rank.world());

    if (rank.rank() == 0) {
      fill_pattern(src->storage(), 0xE0u);
      runtime.enqueue_send_buffer(*queue, src, true, 0, kSize, 1, 0, rank.world(), {});
    } else {
      runtime.enqueue_recv_buffer(*queue, two_sided, true, 0, kSize, 0, 0, rank.world(),
                                  {});
    }

    runtime.enqueue_window_fence(*queue, win, true, {});
    if (rank.rank() == 0) {
      runtime.enqueue_put_buffer(*queue, src, true, 0, kSize, 1, 0, win, {});
    }
    runtime.enqueue_window_fence(*queue, win, true, {});

    if (rank.rank() == 1) {
      EXPECT_EQ(0, std::memcmp(two_sided->storage().data(), one_sided->storage().data(),
                               kSize));
      EXPECT_TRUE(check_pattern(one_sided->storage(), 0xE0u));
    }
    runtime.finish(rank.clock());
    win.free(rank.clock());
  });
}

// --- determinism under fault injection ---------------------------------------

struct FaultRunOutcome {
  std::uint64_t trace_hash{0};
  int delivered{0};
  int failed{0};
  double makespan_s{0.0};
};

FaultRunOutcome run_faulted_rma(std::uint64_t seed, double drop_rate) {
  FaultRunOutcome out;
  std::mutex m;
  vt::Tracer tracer;
  mpi::FaultPlan plan;
  plan.seed = seed;
  plan.drop_rate = drop_rate;
  auto o = opts(2, sys::cxlpod(), &tracer);
  o.faults = plan;

  const auto res = mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    std::vector<std::byte> region(8_KiB, std::byte{0});
    mpi::Win win = mpi::create_window(rank.world(), region, rank.clock());
    win.fence(rank.clock());
    for (int e = 0; e < 4; ++e) {
      if (rank.rank() == 0) {
        std::vector<std::byte> payload(1_KiB);
        fill_pattern(payload, derive_seed(seed, static_cast<unsigned>(e)));
        win.put(payload, 1, static_cast<std::size_t>(e) * 1_KiB, rank.clock());
      }
      try {
        win.fence(rank.clock());
        if (rank.rank() == 1) {
          const bool ok = check_pattern(
              std::span<const std::byte>(region).subspan(
                  static_cast<std::size_t>(e) * 1_KiB, 1_KiB),
              derive_seed(seed, static_cast<unsigned>(e)));
          EXPECT_TRUE(ok) << "epoch " << e;
          const std::lock_guard<std::mutex> lock(m);
          ++out.delivered;
        }
      } catch (const Error& e2) {
        // A lost access surfaces as the typed transport error on BOTH
        // endpoints; the window stays usable for the next epoch.
        EXPECT_TRUE(e2.status() == Status::message_dropped ||
                    e2.status() == Status::timeout)
            << e2.what();
        const std::lock_guard<std::mutex> lock(m);
        ++out.failed;
      }
    }
    win.free(rank.clock());
  });
  out.trace_hash = tracer.hash();
  out.makespan_s = res.makespan_s;
  return out;
}

TEST(RmaDeterminism, SeedIdenticalTraceHashesUnderChaos) {
  for (const std::uint64_t seed : {11u, 4242u}) {
    const FaultRunOutcome a = run_faulted_rma(seed, 0.3);
    const FaultRunOutcome b = run_faulted_rma(seed, 0.3);
    EXPECT_EQ(a.trace_hash, b.trace_hash) << "seed " << seed;
    EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s) << "seed " << seed;
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.failed, b.failed);
    // Both endpoints see each failure; rank 1 tallies delivered+failed = 4
    // epochs, rank 0 tallies its own failed fences.
    EXPECT_GE(a.delivered + a.failed, 4);
  }
}

TEST(RmaDeterminism, FaultFreeRunsAreAlsoReproducible) {
  const FaultRunOutcome a = run_faulted_rma(7u, 0.0);
  const FaultRunOutcome b = run_faulted_rma(7u, 0.0);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.failed, 0);
  EXPECT_EQ(a.delivered, 4);
}

// --- C API lifecycle ----------------------------------------------------------

TEST(RmaCApi, WindowLifecycleThroughTheCSurface) {
  constexpr std::size_t kSize = 64_KiB;
  mpi::Cluster::run(opts(2, sys::cxlpod()), [](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context cxx_ctx(platform.device());
    rt::Runtime runtime(rank, platform.device());
    capi::ThreadBinding binding(rank, runtime);

    cl_context ctx = clmpiCreateContext(cxx_ctx);
    cl_int err = CL_SUCCESS;
    cl_command_queue cmd = clCreateCommandQueue(ctx, &err);
    ASSERT_EQ(err, CL_SUCCESS);
    cl_mem exposed = clCreateBuffer(ctx, kSize, &err);
    cl_mem local = clCreateBuffer(ctx, kSize, &err);

    clmpi_window win = clmpiCreateWindow(exposed, 0, kSize, MPI_COMM_WORLD, &err);
    ASSERT_EQ(err, CL_SUCCESS);
    ASSERT_NE(win, nullptr);

    EXPECT_EQ(clEnqueueWindowFence(cmd, win, CL_TRUE, 0, nullptr, nullptr), CL_SUCCESS);
    cl_event put_ev = nullptr;
    if (rank.rank() == 0) {
      fill_pattern(clmpiGetBuffer(local)->storage(), 0xCAB1u);
      EXPECT_EQ(clEnqueuePutBuffer(cmd, local, CL_TRUE, 0, kSize, 1, 0, win, 0, nullptr,
                                   &put_ev),
                CL_SUCCESS);
    }
    EXPECT_EQ(clEnqueueWindowFence(cmd, win, CL_TRUE, 0, nullptr, nullptr), CL_SUCCESS);
    if (rank.rank() == 1) {
      EXPECT_TRUE(check_pattern(clmpiGetBuffer(exposed)->storage(), 0xCAB1u));
    }

    // A blocking get is rejected up front: it could only deadlock.
    EXPECT_EQ(clEnqueueGetBuffer(cmd, local, CL_TRUE, 0, kSize, 1 - rank.rank(), 0, win, 0,
                                 nullptr, nullptr),
              CL_INVALID_OPERATION);

    EXPECT_EQ(clmpiFreeWindow(win), CL_SUCCESS);
    // The handle is dead: every further use reports the typed status.
    EXPECT_EQ(clmpiFreeWindow(win), CLMPI_INVALID_WINDOW);
    EXPECT_EQ(clEnqueueWindowFence(cmd, win, CL_TRUE, 0, nullptr, nullptr),
              CLMPI_INVALID_WINDOW);
    EXPECT_EQ(clEnqueuePutBuffer(cmd, local, CL_FALSE, 0, 16, 1 - rank.rank(), 0, win, 0,
                                 nullptr, nullptr),
              CLMPI_INVALID_WINDOW);

    if (put_ev != nullptr) clReleaseEvent(put_ev);
    clReleaseMemObject(local);
    clReleaseMemObject(exposed);
    clReleaseCommandQueue(cmd);
    clReleaseContext(ctx);
  });
}

}  // namespace
}  // namespace clmpi
