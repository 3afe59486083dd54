// Recovery-layer suite: acked retransmission, per-operation deadlines and
// graceful strategy degradation (plus the transfer-path bugfix sweep that
// rode along with them).
//
//  * Retry/backoff: with a retransmission budget, a lossy wire delivers
//    every payload byte-exact, and the whole recovery schedule is as
//    deterministic as the faults it repairs (seed-identical trace hashes
//    and retry counters across runs).
//  * Deadlines: an operation that can never resolve fails its request with
//    Status::timeout at its virtual deadline, before the deadlock verdict
//    could fail its waiter.
//  * Degradation: gpudirect falls back to pinned staging on incapable or
//    badly degraded NICs; pipelined falls back to pinned once a link has
//    accumulated repeated block-level failures — with both endpoints
//    deriving the identical fallback.
//  * Bugfix sweep: zero-size transfers are a single empty message under
//    every strategy, and exchanges derive their strategy from one agreed
//    size key.
#include <gtest/gtest.h>

#include "test_util.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "clmpi/runtime.hpp"
#include "ocl/context.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/fault.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/sched.hpp"
#include "support/units.hpp"
#include "transfer/strategy.hpp"
#include "vt/tracer.hpp"

namespace clmpi {
namespace {

constexpr int kOps = 6;
constexpr std::size_t kBufferBytes = 1_MiB;
constexpr std::size_t kMaxMessage = 384_KiB;

mpi::Cluster::Options opts(int nranks) {
  mpi::Cluster::Options o;
  o.nranks = nranks;
  o.profile = &sys::ricc();
  return o;
}

struct Node {
  explicit Node(mpi::Rank& rank)
      : platform(rank.profile(), rank.rank(), rank.tracer()),
        ctx(platform.device()),
        runtime(rank, platform.device()) {}

  ocl::Platform platform;
  ocl::Context ctx;
  rt::Runtime runtime;
};

struct Outcome {
  std::uint64_t trace_hash{0};
  mpi::FaultCounters counters;
  double makespan_s{0.0};
  int delivered{0};
  int failed{0};
};

/// The chaos suite's lockstep workload (randomized sizes/offsets/directions
/// derived identically on both ranks), run under `plan` with a forced
/// strategy. Failed operations must carry `expected_failure`.
Outcome run_workload(const mpi::FaultPlan& plan, const xfer::Strategy& strategy,
                     std::uint64_t seed, Status expected_failure) {
  Outcome outcome;
  std::mutex outcome_mutex;

  vt::Tracer tracer;
  mpi::Cluster::Options o = opts(2);
  o.tracer = &tracer;
  o.faults = plan;

  const mpi::RunResult res = mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    Node node(rank);
    auto queue = node.ctx.create_queue();
    ocl::BufferPtr buf = node.ctx.create_buffer(kBufferBytes);

    Rng rng(derive_seed(seed, 0x4ECu));
    for (int i = 0; i < kOps; ++i) {
      const std::size_t size = 1 + rng.below(kMaxMessage);
      const std::size_t offset = rng.below(kBufferBytes - size + 1);
      const bool rank0_sends = (rng.next_u64() & 1u) != 0;
      const std::uint64_t pattern = derive_seed(seed, 0x9A77u + static_cast<unsigned>(i));
      const bool sender = (rank.rank() == 0) == rank0_sends;
      try {
        if (sender) {
          fill_pattern(buf->storage().subspan(offset, size), pattern);
          node.runtime.enqueue_send_buffer(*queue, buf, true, offset, size, 1 - rank.rank(),
                                           i, rank.world(), {}, strategy);
        } else {
          node.runtime.enqueue_recv_buffer(*queue, buf, true, offset, size, 1 - rank.rank(),
                                           i, rank.world(), {}, strategy);
          EXPECT_TRUE(check_pattern(buf->storage().subspan(offset, size), pattern))
              << "corrupt payload, seed " << seed << " op " << i;
        }
        if (!sender) {
          const std::lock_guard<std::mutex> lock(outcome_mutex);
          ++outcome.delivered;
        }
      } catch (const Error& e) {
        EXPECT_EQ(e.status(), expected_failure)
            << "seed " << seed << " op " << i << ": " << e.what();
        if (!sender) {
          const std::lock_guard<std::mutex> lock(outcome_mutex);
          ++outcome.failed;
        }
      }
    }
  });

  outcome.trace_hash = tracer.hash();
  outcome.counters = res.faults;
  outcome.makespan_s = res.makespan_s;
  return outcome;
}

// --- acked retransmission ----------------------------------------------------

mpi::FaultPlan retry_plan(double drop_rate, int max_retries, std::uint64_t seed) {
  mpi::FaultPlan p;
  p.seed = seed;
  p.drop_rate = drop_rate;
  p.retry.max_retries = max_retries;
  return p;
}

class RetryRecovery : public ::testing::TestWithParam<int> {};

TEST_P(RetryRecovery, LossyWireDeliversByteExactAndSeedIdentically) {
  const std::uint64_t seed = derive_seed(0x4EC0BE4u, static_cast<std::uint64_t>(GetParam()));
  // drop_rate 0.3 with a 10-deep budget: per wire message the residual
  // failure probability is 0.3^11 — no scenario message exhausts it.
  const mpi::FaultPlan plan = retry_plan(0.3, 10, seed);

  for (const xfer::Strategy& strategy :
       {xfer::Strategy::pinned(), xfer::Strategy::pipelined(32_KiB)}) {
    const Outcome first = run_workload(plan, strategy, seed, Status::timeout);
    const Outcome second = run_workload(plan, strategy, seed, Status::timeout);

    // Every operation delivered, byte-exact, despite injected drops.
    EXPECT_EQ(first.delivered, kOps);
    EXPECT_EQ(first.failed, 0);
    EXPECT_GT(first.counters.drops, 0u) << "scenario injected nothing";
    EXPECT_GT(first.counters.retries, 0u);
    EXPECT_GT(first.counters.retransmit_bytes, 0u);
    EXPECT_GT(first.counters.recovered, 0u);
    EXPECT_EQ(first.counters.timeouts, 0u);

    // Recovery is exactly as deterministic as the faults it repairs:
    // seed-identical trace hashes, makespans and retry counters.
    EXPECT_EQ(first.trace_hash, second.trace_hash);
    EXPECT_DOUBLE_EQ(first.makespan_s, second.makespan_s);
    EXPECT_EQ(first.counters.retries, second.counters.retries);
    EXPECT_EQ(first.counters.retransmit_bytes, second.counters.retransmit_bytes);
    EXPECT_EQ(first.counters.recovered, second.counters.recovered);
    EXPECT_EQ(first.counters.drops, second.counters.drops);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetryRecovery, ::testing::Range(0, 3));

TEST(RetryRecovery, ExhaustedBudgetSurfacesAsTimeoutOnBothEndpoints) {
  // A fully lossy wire: every attempt of every message is dropped, so every
  // operation exhausts its budget and must fail with Status::timeout — a
  // defined error on BOTH endpoints, never a hang or a deadlock verdict.
  const std::uint64_t seed = 0xDEADBEA7u;
  const mpi::FaultPlan plan = retry_plan(1.0, 2, seed);

  const Outcome out = run_workload(plan, xfer::Strategy::pinned(), seed, Status::timeout);
  EXPECT_EQ(out.delivered, 0);
  EXPECT_EQ(out.failed, kOps);
  EXPECT_EQ(out.counters.timeouts, static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(out.counters.recovered, 0u);
  // Budget of 2 retries: every message was transmitted exactly 3 times.
  EXPECT_EQ(out.counters.retries, static_cast<std::uint64_t>(2 * kOps));
}

TEST(RetryRecovery, RetriesDisabledReproducesFirstFaultFatalBehaviour) {
  // The recovery layer fully off (default RetryPolicy) must reproduce the
  // pre-recovery behaviour: plain drops fail with Status::message_dropped
  // and nothing is retransmitted.
  const std::uint64_t seed = 0x0FFu;
  const mpi::FaultPlan plan = retry_plan(0.3, 0, seed);

  const Outcome out =
      run_workload(plan, xfer::Strategy::pinned(), seed, Status::message_dropped);
  EXPECT_EQ(out.delivered + out.failed, kOps);
  EXPECT_EQ(out.counters.retries, 0u);
  EXPECT_EQ(out.counters.retransmit_bytes, 0u);
  EXPECT_EQ(out.counters.recovered, 0u);
  EXPECT_EQ(out.counters.timeouts, 0u);
}

// --- per-operation deadlines -------------------------------------------------

/// Wall-time bound on any one deadline case: the rescue fires as soon as the
/// strand goes idle, so nothing waits out a real-time grace.
constexpr auto kDeadlineWall = std::chrono::seconds(1);

TEST(Deadline, UnmatchedRecvFailsWithTimeoutNotWatchdog) {
  const auto wall0 = std::chrono::steady_clock::now();
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Node node(rank);
    if (rank.rank() != 0) return;  // rank 1 never sends
    node.runtime.set_default_deadline(vt::milliseconds(1.0));
    auto queue = node.ctx.create_queue();
    ocl::BufferPtr buf = node.ctx.create_buffer(4_KiB);
    const double enqueued = rank.now_s();
    auto ev = node.runtime.enqueue_recv_buffer(*queue, buf, false, 0, 4_KiB, 1, 7,
                                               rank.world(), {});
    try {
      ev->wait(rank.clock());
      FAIL() << "recv with no sender completed";
    } catch (const Error& e) {
      EXPECT_EQ(e.status(), Status::timeout) << e.what();
    }
    // The outcome is fixed at the VIRTUAL deadline, not at whatever real
    // time the liveness rescue happened to fire: the timeline stays
    // schedule-independent.
    EXPECT_GE(ev->completion_time().s, enqueued + 0.001);
    EXPECT_LT(ev->completion_time().s, enqueued + 0.01);
  });
  EXPECT_LT(std::chrono::steady_clock::now() - wall0, kDeadlineWall);
}

TEST(Deadline, BlockingTransferTimesOutAtTheVirtualDeadline) {
  // The blocking transfers wait on the engine's completion rather than on a
  // request, so a receive no one matches is ended by the strand backstop's
  // deadline rescue: a typed timeout at the virtual deadline, within a
  // bounded wall time. The sends are eager (48 KiB), so only the receive
  // direction of an exchange can fail.
  constexpr std::size_t size = 48_KiB;
  const vt::Duration deadline = vt::milliseconds(1.0);
  for (const xfer::Strategy& strategy :
       {xfer::Strategy::pinned(), xfer::Strategy::pipelined(16_KiB)}) {
    for (const bool exchange : {false, true}) {
      SCOPED_TRACE(std::string(xfer::to_string(strategy.kind)) +
                   (exchange ? " exchange_device" : " recv_device"));
      const auto wall0 = std::chrono::steady_clock::now();
      mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
        if (rank.rank() != 0) return;  // rank 1 never sends
        ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
        ocl::Context ctx(platform.device());
        ocl::BufferPtr buf = ctx.create_buffer(2 * size);
        const xfer::DeviceEndpoint recv_ep{&rank.world(), &platform.device(), buf.get(), 0,
                                           size, 1, 7, deadline};
        const xfer::DeviceEndpoint send_ep{&rank.world(), &platform.device(), buf.get(), size,
                                           size, 1, 7, deadline};
        const vt::TimePoint ready{rank.now_s()};
        // Receives are posted once the staging ring's setup is charged; the
        // deadline runs from there.
        const vt::TimePoint expected = ready + rank.profile().pcie.pin_setup + deadline;
        try {
          if (exchange) {
            (void)xfer::exchange_device(send_ep, recv_ep, strategy, ready);
          } else {
            (void)xfer::recv_device(recv_ep, strategy, ready);
          }
          ADD_FAILURE() << "transfer with no sender completed";
        } catch (const Error& e) {
          EXPECT_EQ(e.status(), Status::timeout) << e.what();
          EXPECT_NE(std::string(e.what()).find(std::to_string(expected.s)), std::string::npos)
              << e.what() << " (expected deadline " << expected.s << " s)";
        }
      });
      EXPECT_LT(std::chrono::steady_clock::now() - wall0, kDeadlineWall);
    }
  }
}

TEST(Deadline, EarlierDeadlineFiresFirst) {
  // Two receives nothing matches yet: B (5 ms, registered first) and A
  // (1 ms). An idle strand rescues the earliest virtual deadline, not the
  // oldest registration, so A times out first — and its handler sends B's
  // message, which lands well before B's deadline.
  const auto wall0 = std::chrono::steady_clock::now();
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    std::vector<std::byte> buf(64);
    mpi::Comm& world = rank.world();
    if (rank.rank() == 1) {
      mpi::Request b = world.irecv(buf, 0, /*tag=*/2, rank.clock().now(),
                                   mpi::P2POptions{.deadline = vt::milliseconds(5.0)});
      EXPECT_NO_THROW(b.wait(rank.clock()));
      EXPECT_LT(rank.now_s(), 0.005);
      return;
    }
    for (int i = 0; i < 8; ++i) sched::yield();  // rank 1 registers B well ahead of A
    const vt::TimePoint posted = rank.clock().now();
    mpi::Request a = world.irecv(buf, 1, /*tag=*/1, posted,
                                 mpi::P2POptions{.deadline = vt::milliseconds(1.0)});
    try {
      a.wait(rank.clock());
      ADD_FAILURE() << "receive with no sender completed";
    } catch (const Error& e) {
      EXPECT_EQ(e.status(), Status::timeout) << e.what();
    }
    EXPECT_EQ(rank.clock().now().s, (posted + vt::milliseconds(1.0)).s);
    world.send(buf, 1, /*tag=*/2, rank.clock());
  });
  EXPECT_LT(std::chrono::steady_clock::now() - wall0, kDeadlineWall);
}

TEST(Deadline, RescuedReceiveIsWithdrawnBeforeItsBufferIsFreed) {
  // A receive the deadline rescue times out must leave the mailbox with its
  // timeout: its caller may free the buffer, and a later send on that tag
  // belongs to the next receive, not to the stale one.
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    constexpr std::size_t n = 64;
    mpi::Comm& world = rank.world();
    std::vector<std::byte> signal(1);
    if (rank.rank() == 1) {
      world.recv(signal, 0, /*tag=*/6, rank.clock());
      std::vector<std::byte> payload(n);
      for (std::size_t i = 0; i < n; ++i) payload[i] = static_cast<std::byte>(i + 1);
      world.send(payload, 0, /*tag=*/5, rank.clock());
      return;
    }
    auto stale = std::make_unique<std::byte[]>(n);
    mpi::Request r = world.irecv(std::span<std::byte>(stale.get(), n), 1, /*tag=*/5,
                                 rank.clock().now(),
                                 mpi::P2POptions{.deadline = vt::milliseconds(1.0)});
    try {
      r.wait(rank.clock());
      ADD_FAILURE() << "receive with no sender completed";
    } catch (const Error& e) {
      EXPECT_EQ(e.status(), Status::timeout) << e.what();
    }
    stale.reset();
    world.send(signal, 1, /*tag=*/6, rank.clock());
    std::vector<std::byte> fresh(n);
    world.recv(fresh, 1, /*tag=*/5, rank.clock());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(fresh[i], static_cast<std::byte>(i + 1)) << "byte " << i;
    }
  });
}

TEST(Deadline, WorkBetweenRawYieldsHoldsOffTheRescue) {
  // A fiber that advances between raw sched::yield() calls is progress even
  // though it settles nothing: the strand is not idle, so the receive's
  // deadline must not fire before the message it waits for is sent.
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    std::vector<std::byte> buf(64);
    mpi::Comm& world = rank.world();
    if (rank.rank() == 1) {
      mpi::Request r = world.irecv(buf, 0, /*tag=*/0, rank.clock().now(),
                                   mpi::P2POptions{.deadline = vt::milliseconds(1.0)});
      EXPECT_NO_THROW(r.wait(rank.clock()));
      return;
    }
    for (int i = 0; i < 200; ++i) {
      rank.clock().advance(vt::microseconds(1.0));
      sched::yield();
    }
    world.send(buf, 1, /*tag=*/0, rank.clock());
  });
}

TEST(Deadline, EnteringAWaitIsProgress) {
  // Rank 1's send releases rank 0, which is still parked in its receive,
  // and rank 1 then enters its own wait. That pass changed what rank 0 will
  // see, so the strand is not idle and the reply's deadline must hold.
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    std::vector<std::byte> buf(64);
    mpi::Comm& world = rank.world();
    if (rank.rank() == 0) {
      world.recv(buf, 1, /*tag=*/0, rank.clock());
      world.send(buf, 1, /*tag=*/1, rank.clock());
      return;
    }
    world.send(buf, 0, /*tag=*/0, rank.clock());
    mpi::Request reply = world.irecv(buf, 0, /*tag=*/1, rank.clock().now(),
                                     mpi::P2POptions{.deadline = vt::milliseconds(1.0)});
    EXPECT_NO_THROW(reply.wait(rank.clock()));
  });
}

TEST(Deadline, GenerousDeadlineDoesNotPerturbClMemTiming) {
  // MPI_CL_MEM single messages post clock-driven (call overhead charged)
  // whether or not a deadline is set, plain and persistent alike: a deadline
  // that is never hit leaves every end time bit-equal.
  const auto end_times = [](vt::Duration deadline) {
    return mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
             Node node(rank);
             node.runtime.set_default_deadline(deadline);
             std::vector<std::byte> buf(4_KiB);
             rt::Runtime& runtime = node.runtime;
             if (rank.rank() == 0) {
               runtime.send_cl_mem(buf, 1, 0, rank.world());
               const rt::PersistentRequest p = runtime.send_init_cl_mem(buf, 1, 1, rank.world());
               runtime.start(p).wait(rank.clock());
             } else {
               runtime.recv_cl_mem(buf, 0, 0, rank.world());
               const rt::PersistentRequest p = runtime.recv_init_cl_mem(buf, 0, 1, rank.world());
               runtime.start(p).wait(rank.clock());
             }
           })
        .rank_end_s;
  };
  EXPECT_EQ(end_times(vt::Duration{}), end_times(vt::Duration{10.0}));
}

TEST(Deadline, GenerousDeadlineDoesNotPerturbDelivery) {
  // A deadline that is never hit must be an observational no-op: the
  // transfer completes byte-exact with the same workload invariants.
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Node node(rank);
    node.runtime.set_default_deadline(vt::Duration{10.0});
    auto queue = node.ctx.create_queue();
    constexpr std::size_t size = 192_KiB;
    ocl::BufferPtr buf = node.ctx.create_buffer(size);
    if (rank.rank() == 0) {
      fill_pattern(buf->storage(), 21);
      node.runtime.enqueue_send_buffer(*queue, buf, true, 0, size, 1, 0, rank.world(), {});
    } else {
      node.runtime.enqueue_recv_buffer(*queue, buf, true, 0, size, 0, 0, rank.world(), {});
      EXPECT_TRUE(check_pattern(buf->storage(), 21));
    }
  });
}

// --- graceful degradation ----------------------------------------------------

sys::SystemProfile rdma_profile() {
  sys::SystemProfile p = sys::ricc();
  p.name = "RICC+GPUDirect";
  p.nic.rdma_direct = true;
  p.nic.rdma_setup = vt::microseconds(10.0);
  return p;
}

TEST(Degradation, GpudirectFallsBackToPinnedWithoutRdma) {
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {  // plain RICC: no rdma_direct
    const xfer::Strategy resolved = xfer::resolve_strategy(
        rank.profile(), rank.world(), 1 - rank.rank(), xfer::Strategy::gpudirect());
    EXPECT_EQ(resolved, xfer::Strategy::pinned());
    // Non-gpudirect strategies pass through untouched.
    EXPECT_EQ(xfer::resolve_strategy(rank.profile(), rank.world(), 1 - rank.rank(),
                                     xfer::Strategy::mapped()),
              xfer::Strategy::mapped());
  });
}

TEST(Degradation, GpudirectFallsBackToPinnedOnDegradedNic) {
  const sys::SystemProfile prof = rdma_profile();
  mpi::Cluster::Options o = opts(2);
  o.profile = &prof;
  o.faults.nic_degradation = xfer::kGpudirectDegradationThreshold;  // at threshold
  mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    EXPECT_EQ(xfer::resolve_strategy(rank.profile(), rank.world(), 1 - rank.rank(),
                                     xfer::Strategy::gpudirect()),
              xfer::Strategy::pinned());
  });

  mpi::Cluster::Options healthy = opts(2);
  healthy.profile = &prof;
  healthy.faults.nic_degradation = 0.25;  // below threshold: RDMA stays trusted
  mpi::Cluster::run(healthy, [&](mpi::Rank& rank) {
    EXPECT_EQ(xfer::resolve_strategy(rank.profile(), rank.world(), 1 - rank.rank(),
                                     xfer::Strategy::gpudirect()),
              xfer::Strategy::gpudirect());
  });
}

TEST(Degradation, PipelinedFallsBackToPinnedOnRepeatedBlockFailures) {
  mpi::Cluster::Options o = opts(2);
  o.faults.nic_degradation = 0.1;  // any enabled plan instantiates the engine
  mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    if (rank.rank() != 0) return;
    mpi::Comm& world = rank.world();
    const int self = world.node_of(rank.rank());
    const int peer_rank = 1 - rank.rank();
    const int peer = world.node_of(peer_rank);
    const xfer::Strategy pipelined = xfer::Strategy::pipelined(64_KiB);

    // Healthy link: the request passes through.
    EXPECT_EQ(xfer::resolve_strategy(rank.profile(), world, peer_rank, pipelined),
              pipelined);

    mpi::FaultEngine* faults = world.faults();
    ASSERT_NE(faults, nullptr);
    for (std::uint64_t i = 0; i + 1 < mpi::FaultEngine::kLinkFailureThreshold; ++i) {
      faults->note_block_failure(self, peer);
    }
    // One short of the threshold: still pipelined.
    EXPECT_EQ(xfer::resolve_strategy(rank.profile(), world, peer_rank, pipelined),
              pipelined);

    faults->note_block_failure(self, peer);
    EXPECT_TRUE(faults->link_degraded(self, peer));
    EXPECT_EQ(xfer::resolve_strategy(rank.profile(), world, peer_rank, pipelined),
              xfer::Strategy::pinned());
    // The view is per observer: the peer's own view of the link (it observed
    // none of these failures itself) is not affected by rank 0's.
    EXPECT_FALSE(faults->link_degraded(peer, self));
  });
}

TEST(Degradation, DegradedLinkWorkloadStillDeliversDeterministically) {
  // End-to-end: a very lossy wire with a modest retry budget drives some
  // block-level failures (exhausted messages), which flips pipelined ops to
  // the pinned path mid-workload — on BOTH endpoints, so nothing deadlocks
  // and the run stays seed-deterministic.
  const std::uint64_t seed = 0xFA11BACCu;
  const mpi::FaultPlan plan = retry_plan(0.6, 1, seed);

  const Outcome first =
      run_workload(plan, xfer::Strategy::pipelined(32_KiB), seed, Status::timeout);
  const Outcome second =
      run_workload(plan, xfer::Strategy::pipelined(32_KiB), seed, Status::timeout);
  EXPECT_EQ(first.delivered + first.failed, kOps);
  EXPECT_EQ(first.trace_hash, second.trace_hash);
  EXPECT_DOUBLE_EQ(first.makespan_s, second.makespan_s);
  EXPECT_EQ(first.counters.timeouts, second.counters.timeouts);
  EXPECT_EQ(first.counters.retries, second.counters.retries);
}

// --- transfer-path bugfix sweep ----------------------------------------------

TEST(ZeroSize, EveryStrategyCarriesASingleEmptyMessage) {
  // A zero-size transfer is one empty wire message under every strategy:
  // both endpoints complete (nothing hangs waiting for absent blocks) and
  // no formula underflows.
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    ocl::BufferPtr buf = ctx.create_buffer(4_KiB);
    const int peer = 1 - rank.rank();

    int tag = 0;
    for (const xfer::Strategy& strategy :
         {xfer::Strategy::pinned(), xfer::Strategy::mapped(),
          xfer::Strategy::pipelined(64_KiB)}) {
      const xfer::DeviceEndpoint ep{&rank.world(), &platform.device(), buf.get(),
                                    /*offset=*/0, /*size=*/0, peer, tag};
      const vt::TimePoint ready{rank.now_s()};
      if (rank.rank() == 0) {
        xfer::send_device(ep, strategy, ready);
      } else {
        xfer::recv_device(ep, strategy, ready);
      }
      ++tag;
    }

    // Host-memory endpoints take the same convention.
    for (const xfer::Strategy& strategy :
         {xfer::Strategy::pinned(), xfer::Strategy::pipelined(64_KiB)}) {
      const vt::TimePoint ready{rank.now_s()};
      if (rank.rank() == 0) {
        xfer::send_host(rank.world(), std::span<const std::byte>{}, peer, tag, strategy,
                        ready);
      } else {
        xfer::recv_host(rank.world(), std::span<std::byte>{}, peer, tag, strategy, ready);
      }
      ++tag;
    }
  });

  // A zero-size pipeline is one empty block, and the policy is defined at
  // size 0.
  EXPECT_EQ(xfer::pipeline_block_count(0, 64_KiB), 1u);
  EXPECT_EQ(xfer::select(sys::ricc(), 0).kind, xfer::StrategyKind::pinned);
}

TEST(SelectExchange, DerivesOneStrategyFromTheLargerSize) {
  const sys::SystemProfile& prof = sys::ricc();
  const std::pair<std::size_t, std::size_t> cases[] = {
      {1_KiB, 8_MiB}, {8_MiB, 1_KiB}, {0, 256_KiB}, {640_KiB, 640_KiB}};
  for (const auto& [a, b] : cases) {
    const xfer::Strategy agreed = xfer::select(prof, std::max(a, b));
    EXPECT_EQ(xfer::select_exchange(prof, a, b), agreed);
    // Symmetric: both peers of a halo exchange see the sizes swapped.
    EXPECT_EQ(xfer::select_exchange(prof, b, a), agreed);
  }
}

}  // namespace
}  // namespace clmpi
