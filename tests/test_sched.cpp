// Fiber-scheduler suite (docs/SCHEDULER.md).
//
//   * Worker-count independence: every cluster runs as one serial strand,
//     so the SAME workload run on pools of 1, 4 and 16 workers must produce
//     bit-identical virtual time — equal trace hashes, makespans and fault
//     counters — and the same fiber resume and skip counts; a failure names
//     the first differing span. Covered for a
//     mixed pure-MPI workload (p2p + probe + collectives + non-blocking
//     collectives + RMA epochs), a device-transfer workload through the
//     clMPI runtime (queue workers + dispatcher as service fibers) with and
//     without injected faults, a contended fan-in, 16-rank Himeno, and
//     512 ranks on the same pools.
//   * Context migration: rank-scoped state (the capi ThreadBinding) must
//     follow a rank's fiber across worker threads and never leak to another
//     rank time-sharing the same worker.
//   * The launcher's contract: Cluster::run from a fiber is rejected, and
//     the first rank error is rethrown while the secondary ones are counted.
//   * Single-owner cluster state: a command queue, a mailbox or a blocking
//     wait used off its strand fails typed and at once, never by racing or
//     spinning.
//   * Fiber stacks: a pool maps each stack once and reuses it, guard page
//     included, while fibers alive at once keep distinct stacks.
//   * Parked waits: the worker evaluates a parked fiber's wait predicate and
//     switches to the fiber only when the wait can return.
//   * The context switch: floating-point control state (the rounding mode)
//     belongs to a fiber, never to the worker that happens to resume it.
#include <gtest/gtest.h>

#include "test_util.hpp"

#include <sys/resource.h>

#include <array>
#include <atomic>
#include <cfenv>
#include <chrono>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "apps/himeno/himeno.hpp"
#include "clmpi/capi.h"
#include "clmpi/runtime.hpp"
#include "obs/metrics.hpp"
#include "ocl/context.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/request.hpp"
#include "simmpi/window.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/sched.hpp"
#include "transfer/strategy.hpp"
#include "vt/tracer.hpp"

namespace clmpi {
namespace {

std::span<const std::byte> bytes_of(const auto& v) { return std::as_bytes(std::span(v)); }
std::span<std::byte> mut_bytes_of(auto& v) { return std::as_writable_bytes(std::span(v)); }

mpi::Cluster::Options opts(int nranks, vt::Tracer* tracer) {
  mpi::Cluster::Options o;
  o.nranks = nranks;
  o.profile = &sys::ricc();
  o.tracer = tracer;
  return o;
}

struct Outcome {
  std::shared_ptr<vt::Tracer> tracer;
  double makespan_s{0.0};
  mpi::FaultCounters faults;
  std::uint64_t fiber_resumes{0};
  std::uint64_t fiber_skips{0};
};

void expect_equal(const Outcome& a, const Outcome& b, const std::string& what) {
  ASSERT_NE(a.tracer->hash(), 0u) << what;
  EXPECT_EQ(a.tracer->hash(), b.tracer->hash())
      << what << "\n" << testutil::divergence(*a.tracer, *b.tracer);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s) << what;
  EXPECT_EQ(a.faults.messages, b.faults.messages) << what;
  EXPECT_EQ(a.faults.drops, b.faults.drops) << what;
  EXPECT_EQ(a.faults.duplicates, b.faults.duplicates) << what;
  EXPECT_EQ(a.faults.delays, b.faults.delays) << what;
  EXPECT_EQ(a.fiber_resumes, b.fiber_resumes) << what;
  EXPECT_EQ(a.fiber_skips, b.fiber_skips) << what;
}

// --- mixed pure-MPI workload -------------------------------------------------

/// Which synchronizing collective the mixed loop interleaves between the
/// p2p phase and the RMA epoch: a blocking reduction, or a non-blocking
/// barrier progressed by a service fiber.
enum class Collective { allreduce, ibarrier };

/// Touches every blocking site the scheduler converted: request waits (send/
/// recv), mailbox probe, collective rendezvous or non-blocking collective
/// progression (aux service), window create/fence/free.
void mixed_mpi_workload(mpi::Rank& rank, int nranks, int iters, Collective coll) {
  auto& world = rank.world();
  const int next = (rank.rank() + 1) % nranks;
  const int prev = (rank.rank() + nranks - 1) % nranks;
  std::vector<double> out(32, rank.rank() + 1.0);
  std::vector<double> in(32);
  for (int iter = 0; iter < iters; ++iter) {
    mpi::Request s = world.isend(bytes_of(out), next, 7, rank.clock());
    (void)world.probe(prev, 7, rank.clock());
    world.recv(mut_bytes_of(in), prev, 7, rank.clock());
    s.wait(rank.clock());
    EXPECT_DOUBLE_EQ(in[0], prev + 1.0);

    if (coll == Collective::allreduce) {
      std::vector<double> sum(32);
      world.allreduce(bytes_of(in), mut_bytes_of(sum), mpi::Datatype::float64,
                      mpi::ReduceOp::sum, rank.clock());
    } else {
      mpi::Request b = world.ibarrier(rank.clock());
      b.wait(rank.clock());
    }

    std::vector<std::byte> region(64);
    mpi::Win win = mpi::create_window(world, region, rank.clock());
    win.fence(rank.clock());
    std::vector<std::byte> payload(16, std::byte{static_cast<unsigned char>(rank.rank())});
    win.put(payload, next, 0, rank.clock().now());
    win.fence(rank.clock());
    EXPECT_EQ(region[0], std::byte{static_cast<unsigned char>(prev)});
    win.free(rank.clock());
  }
}

/// Run `body` on a fresh pool of each gate worker count and hold every
/// outcome to the first.
template <typename Run>
void expect_worker_count_independent(Run&& run) {
  std::vector<Outcome> outcomes;
  for (const int workers : testutil::kGateWorkers) {
    const auto pool = testutil::make_pool(workers);
    outcomes.push_back(run(*pool));
  }
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    expect_equal(outcomes[0], outcomes[i],
                 std::to_string(testutil::kGateWorkers[0]) + " vs " +
                     std::to_string(testutil::kGateWorkers[i]) + " workers");
  }
}

Outcome run_mixed(sched::Scheduler& pool, int nranks, int iters, Collective coll) {
  auto tracer = std::make_shared<vt::Tracer>();
  auto o = opts(nranks, tracer.get());
  o.scheduler = &pool;
  const mpi::RunResult res = mpi::Cluster::run(
      o, [&](mpi::Rank& r) { mixed_mpi_workload(r, nranks, iters, coll); });
  return {tracer, res.makespan_s, res.faults, res.fiber_resumes, res.fiber_skips};
}

TEST(SchedModeEquality, MixedMpiWorkloadBitIdentical) {
  for (int nranks : {2, 4, 8}) {
    for (Collective coll : {Collective::allreduce, Collective::ibarrier}) {
      SCOPED_TRACE("nranks=" + std::to_string(nranks) + " coll=" +
                   (coll == Collective::allreduce ? "allreduce" : "ibarrier"));
      expect_worker_count_independent(
          [&](sched::Scheduler& pool) { return run_mixed(pool, nranks, 3, coll); });
    }
  }
}

// --- device-transfer workload (chaos subset) --------------------------------

struct Node {
  explicit Node(mpi::Rank& rank)
      : platform(rank.profile(), rank.rank(), rank.tracer()),
        ctx(platform.device()),
        runtime(rank, platform.device()) {}

  ocl::Platform platform;
  ocl::Context ctx;
  rt::Runtime runtime;
};

/// Lockstep blocking device-buffer ping-pong between two ranks, exercising
/// the command-queue worker and the clMPI dispatcher as service fibers.
Outcome run_device(sched::Scheduler& pool, const mpi::FaultPlan& plan,
                   const xfer::Strategy& strategy) {
  auto tracer = std::make_shared<vt::Tracer>();
  auto o = opts(2, tracer.get());
  o.scheduler = &pool;
  o.faults = plan;
  std::atomic<int> delivered{0};
  std::atomic<int> dropped{0};
  const mpi::RunResult res = mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    Node node(rank);
    auto queue = node.ctx.create_queue();
    constexpr std::size_t kSize = 48 * 1024;
    ocl::BufferPtr buf = node.ctx.create_buffer(kSize);
    for (int i = 0; i < 6; ++i) {
      const bool sender = (rank.rank() == i % 2);
      try {
        if (sender) {
          std::memset(buf->storage().data(), 0x40 + i, kSize);
          node.runtime.enqueue_send_buffer(*queue, buf, true, 0, kSize, 1 - rank.rank(), i,
                                           rank.world(), {}, strategy);
        } else {
          node.runtime.enqueue_recv_buffer(*queue, buf, true, 0, kSize, 1 - rank.rank(), i,
                                           rank.world(), {}, strategy);
          EXPECT_EQ(std::to_integer<int>(buf->storage()[kSize - 1]), 0x40 + i);
          ++delivered;
        }
      } catch (const Error& e) {
        EXPECT_EQ(e.status(), Status::message_dropped) << e.what();
        if (!sender) ++dropped;
      }
    }
  });
  // Each rank receives 3 of the 6 alternating transfers; every one either
  // lands or drops.
  EXPECT_EQ(delivered + dropped, 6);
  return {tracer, res.makespan_s, res.faults, res.fiber_resumes, res.fiber_skips};
}

TEST(SchedModeEquality, DeviceTransfersBitIdentical) {
  mpi::FaultPlan none;
  mpi::FaultPlan drops;
  drops.seed = 0x5EEDu;
  drops.drop_rate = 0.3;
  mpi::FaultPlan spikes;
  spikes.seed = 0x5EEDu;
  spikes.latency_spike_rate = 0.6;
  int i = 0;
  for (const mpi::FaultPlan* plan : {&none, &drops, &spikes}) {
    for (const xfer::Strategy& strategy :
         {xfer::Strategy::pinned(), xfer::Strategy::pipelined(16 * 1024)}) {
      SCOPED_TRACE("scenario " + std::to_string(i++));
      expect_worker_count_independent(
          [&](sched::Scheduler& pool) { return run_device(pool, *plan, strategy); });
    }
  }
}

// --- oversubscription --------------------------------------------------------

Outcome run_ring(sched::Scheduler& pool, int nranks) {
  auto tracer = std::make_shared<vt::Tracer>();
  auto o = opts(nranks, tracer.get());
  o.scheduler = &pool;
  const mpi::RunResult res = mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    auto& world = rank.world();
    const int next = (rank.rank() + 1) % nranks;
    const int prev = (rank.rank() + nranks - 1) % nranks;
    std::vector<std::uint64_t> out(8, static_cast<std::uint64_t>(rank.rank()));
    std::vector<std::uint64_t> in(8);
    for (int iter = 0; iter < 2; ++iter) {
      mpi::Request s = world.isend(bytes_of(out), next, iter, rank.clock());
      world.recv(mut_bytes_of(in), prev, iter, rank.clock());
      s.wait(rank.clock());
      EXPECT_EQ(in[0], static_cast<std::uint64_t>(prev));
    }
    std::vector<std::uint64_t> sum(8);
    world.allreduce(bytes_of(out), mut_bytes_of(sum), mpi::Datatype::uint64,
                    mpi::ReduceOp::sum, rank.clock());
    const std::uint64_t n = static_cast<std::uint64_t>(nranks);
    EXPECT_EQ(sum[0], n * (n - 1) / 2);
  });
  return {tracer, res.makespan_s, res.faults, res.fiber_resumes, res.fiber_skips};
}

TEST(SchedOversubscription, ManyRanksFewWorkersBitIdentical) {
  // A ring plus a 512-rank reduce tree, on pools far smaller (and one far
  // larger) than the rank count: the multiplexing degree must not leak into
  // virtual time. Contended wire backfill makes this the workload where a
  // host-dependent schedule would show first.
  expect_worker_count_independent([](sched::Scheduler& pool) { return run_ring(pool, 512); });
}

// --- contended fan-in -----------------------------------------------------------

/// Three senders race variable-size eager messages into rank 0. Which
/// sender's message gets the early slot on rank 0's RX resource follows
/// grant order (vt/resource.hpp backfill), so this is the workload where a
/// resume order that depended on the worker would show first.
Outcome run_fanin(sched::Scheduler& pool) {
  constexpr int kRanks = 4;
  constexpr int kPerSender = 24;
  auto tracer = std::make_shared<vt::Tracer>();
  auto o = opts(kRanks, tracer.get());
  o.scheduler = &pool;
  const mpi::RunResult res = mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    auto& world = rank.world();
    std::vector<std::vector<std::byte>> bufs;
    std::vector<mpi::Request> reqs;
    if (rank.rank() == 0) {
      for (int src = 1; src < kRanks; ++src) {
        Rng sizes(static_cast<std::uint64_t>(src));
        for (int i = 0; i < kPerSender; ++i) {
          bufs.emplace_back(1 + sizes.below(512));
          reqs.push_back(world.irecv(bufs.back(), src, src * 100 + i, rank.clock()));
        }
      }
    } else {
      Rng sizes(static_cast<std::uint64_t>(rank.rank()));
      for (int i = 0; i < kPerSender; ++i) {
        bufs.emplace_back(1 + sizes.below(512));
        reqs.push_back(world.isend(bufs.back(), 0, rank.rank() * 100 + i, rank.clock()));
      }
    }
    for (auto& r : reqs) r.wait(rank.clock());
  });
  return {tracer, res.makespan_s, res.faults, res.fiber_resumes, res.fiber_skips};
}

TEST(SchedWorkerCount, ContendedFanInBitIdentical) {
  expect_worker_count_independent([](sched::Scheduler& pool) { return run_fanin(pool); });
}

TEST(SchedWorkerCount, Himeno16RanksBitIdentical) {
  // The clMPI Himeno variant at 16 ranks: kernels, event-chained halo
  // planes and 48 service fibers share one strand, and overlapped halo
  // transfers contend for the NICs.
  apps::himeno::Config cfg;
  cfg.interior = 32;  // divisible by 2 * 16 ranks
  cfg.jmax = 32;
  cfg.kmax = 64;
  cfg.iterations = 2;
  expect_worker_count_independent([&](sched::Scheduler& pool) {
    auto tracer = std::make_shared<vt::Tracer>();
    auto o = opts(16, tracer.get());
    o.scheduler = &pool;
    const mpi::RunResult res =
        mpi::Cluster::run(o, [&](mpi::Rank& rank) { (void)apps::himeno::run_rank(rank, cfg); });
    return Outcome{tracer, res.makespan_s, res.faults, res.fiber_resumes, res.fiber_skips};
  });
}

// --- rank-context migration --------------------------------------------------

TEST(SchedMigration, RankScopedStateSurvivesWorkerSharing) {
  // All four ranks (and their runtimes' service fibers) time-share the
  // pool's workers, and with more than one worker a strand resumes on
  // whichever worker checks it out next. Any leftover thread_local rank
  // state — the capi binding — would be shared across ranks and trip
  // immediately: ThreadBinding construction requires an unbound task, and
  // MPI_Comm_rank must return the OWN rank after every scheduling point.
  constexpr int kRanks = 4;
  for (const int workers : testutil::kGateWorkers) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    const auto pool = testutil::make_pool(workers);
    auto o = opts(kRanks, nullptr);
    o.scheduler = pool.get();
    mpi::Cluster::run(o, [&](mpi::Rank& rank) {
      Node node(rank);
      capi::ThreadBinding binding(rank, node.runtime);
      auto& world = rank.world();
      for (int iter = 0; iter < 4; ++iter) {
        // Rendezvous: a guaranteed yield/migration point for every rank.
        world.barrier(rank.clock());
        int self = -1;
        ASSERT_EQ(MPI_Comm_rank(MPI_COMM_WORLD, &self), 0);
        EXPECT_EQ(self, rank.rank());
      }
    });
  }
}

// --- the launcher's contract ---------------------------------------------------

TEST(SchedLauncher, ClusterRunFromAFiberIsRejected) {
  // The caller of Cluster::run blocks until the run's strand closes; a rank
  // doing so would stall its own strand, so it fails typed instead.
  EXPECT_THROW(mpi::Cluster::run(opts(1, nullptr),
                                 [](mpi::Rank&) {
                                   (void)mpi::Cluster::run(opts(1, nullptr), [](mpi::Rank&) {});
                                 }),
               PreconditionError);
}

// --- single-owner cluster state ----------------------------------------------

/// Wall-clock bound on a misuse: it must fail at once, not hang.
constexpr auto kMisuseBudget = std::chrono::seconds(2);

TEST(SchedOwnership, QueueOffAStrandIsRejected) {
  const auto t0 = std::chrono::steady_clock::now();
  ocl::Platform platform(sys::cichlid(), 0, nullptr);
  ocl::Context ctx(platform.device());
  EXPECT_THROW((void)ctx.create_queue(), PreconditionError);

  cl_context cctx = clmpiCreateContext(ctx);
  cl_int err = CL_SUCCESS;
  EXPECT_EQ(clCreateCommandQueue(cctx, &err), nullptr);
  EXPECT_EQ(err, CL_INVALID_OPERATION);
  EXPECT_EQ(clReleaseContext(cctx), CL_SUCCESS);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, kMisuseBudget);
}

TEST(SchedOwnership, PendingWaitOffAStrandThrows) {
  const auto t0 = std::chrono::steady_clock::now();
  vt::Clock clock;
  mpi::Request req(mpi::detail::make_request_state());
  EXPECT_THROW(req.wait(clock), PreconditionError);
  EXPECT_FALSE(req.done());

  ocl::UserEvent ev;
  EXPECT_THROW(ev.wait(clock), PreconditionError);
  // A settled one still returns at once.
  ev.set_complete(vt::TimePoint{1.0});
  ev.wait(clock);
  EXPECT_DOUBLE_EQ(clock.now().s, 1.0);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, kMisuseBudget);
}

TEST(SchedOwnership, CrossStrandAccessIsRejected) {
  // Two concurrent clusters: the second reaches for the first one's command
  // queue and world communicator, which belong to another strand.
  std::atomic<ocl::CommandQueue*> queue{nullptr};
  std::atomic<mpi::Comm*> world{nullptr};
  std::atomic<bool> tried{false};
  std::thread owner([&] {
    mpi::Cluster::run(opts(1, nullptr), [&](mpi::Rank& rank) {
      ocl::Platform platform(rank.profile(), rank.rank(), nullptr);
      ocl::Context ctx(platform.device());
      auto q = ctx.create_queue();
      world = &rank.world();
      queue = q.get();
      while (!tried) sched::yield();
      q->finish(rank.clock());  // its owner still uses it normally
    });
  });
  mpi::Cluster::run(opts(1, nullptr), [&](mpi::Rank&) {
    while (queue == nullptr) sched::yield();
    vt::Clock clock;
    std::vector<std::byte> buf(16);
    EXPECT_THROW((void)queue.load()->enqueue_marker({}, clock), PreconditionError);
    EXPECT_THROW((void)world.load()->isend(buf, 0, 0, clock), PreconditionError);
    tried = true;
  });
  owner.join();
}

TEST(SchedOwnership, JobTagNeverBecomesAnotherRunsStrand) {
  // A service job id only names the rank fibers; the strand tag comes from
  // the process-wide series. Otherwise a job tagged with the number a
  // default-pool run drew (1 when this test has its process to itself)
  // would share that run's strand and pass its owner checks.
  std::uint64_t default_strand = 0;
  mpi::Cluster::run(opts(1, nullptr),
                    [&](mpi::Rank&) { default_strand = sched::current_strand(); });
  ASSERT_NE(default_strand, 0u);
  const auto pool = testutil::make_pool(2);
  for (const std::uint64_t tag : {std::uint64_t{1}, default_strand}) {
    auto o = opts(1, nullptr);
    o.scheduler = pool.get();
    o.job_tag = tag;
    std::uint64_t job_strand = 0;
    mpi::Cluster::run(o, [&](mpi::Rank&) { job_strand = sched::current_strand(); });
    EXPECT_NE(job_strand, 0u) << "job_tag " << tag;
    EXPECT_NE(job_strand, default_strand) << "job_tag " << tag;
  }
}

// --- error aggregation -------------------------------------------------------

std::uint64_t suppressed_counter() {
  std::uint64_t v = 0;
  (void)obs::Registry::instance().value("cluster.suppressed_errors", v);
  return v;
}

TEST(SchedErrors, SecondaryRankErrorsAreCountedNotSwallowed) {
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const std::uint64_t before = suppressed_counter();
  constexpr int kRanks = 3;
  EXPECT_THROW(
      mpi::Cluster::run(opts(kRanks, nullptr),
                        [&](mpi::Rank& rank) {
                          // Everyone reaches the barrier, then everyone
                          // throws: exactly one error wins the rethrow and
                          // kRanks - 1 are suppressed (and counted).
                          rank.world().barrier(rank.clock());
                          throw Error("boom from rank " + std::to_string(rank.rank()),
                                      Status::invalid_operation);
                        }),
      Error);
  EXPECT_EQ(suppressed_counter() - before, static_cast<std::uint64_t>(kRanks - 1));
  obs::set_metrics_enabled(was_enabled);
}

// --- fiber stacks -------------------------------------------------------------

/// Write a 2 KiB frame and report where it lies.
[[gnu::noinline]] void touch_frame(std::uintptr_t& where) {
  std::array<volatile unsigned char, 2048> frame{};
  where = reinterpret_cast<std::uintptr_t>(&frame[0]);
}

/// Recurse `depth` 1 KiB frames deep.
[[gnu::noinline]] unsigned recurse(unsigned depth) {
  std::array<volatile unsigned char, 1024> frame{};
  frame[0] = static_cast<unsigned char>(depth);
  if (depth == 0) return frame[0];
  return recurse(depth - 1) + frame[0];
}

long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

TEST(SchedStacks, SequentialStrandsReuseStacks) {
  // A finished fiber's stack serves the next one: a fresh mapping would
  // fault in at least its top page per fiber. Addresses would not show
  // reuse, since mmap may hand back the range it just unmapped.
  constexpr int kStrands = 50;
  constexpr int kFibers = 3;
  const auto pool = testutil::make_pool(1);
  std::uint64_t tag = 0;
  std::array<std::uintptr_t, kFibers> frames{};
  int shared_stacks = 0;
  const auto run_strand = [&] {
    std::vector<sched::Scheduler::Task> tasks;
    for (int i = 0; i < kFibers; ++i) {
      tasks.push_back({[&frames, i] {
                         touch_frame(frames[static_cast<std::size_t>(i)]);
                         sched::yield();  // every fiber of the strand is alive
                         sched::yield();
                       },
                       "stack" + std::to_string(i)});
    }
    pool->run(++tag, std::move(tasks), [] { return false; });
    shared_stacks += static_cast<int>(frames[0] == frames[1]) +
                     static_cast<int>(frames[1] == frames[2]) +
                     static_cast<int>(frames[0] == frames[2]);
  };
  run_strand();  // warm-up: start the worker, map the stacks
  run_strand();
  const long before = minor_faults();
  for (int i = 0; i < kStrands; ++i) run_strand();
  const long faults = minor_faults() - before;
  EXPECT_EQ(shared_stacks, 0) << "fibers alive at once shared a stack";
#ifdef CLMPI_SANITIZE_BUILD
  // Sanitizer runtimes fault pages in per fiber on their own: ASan's
  // allocator quarantine never hands a freed Fiber record straight back;
  // TSan maps per-fiber state. Only a plain build's count shows the stack
  // mappings.
  (void)faults;
#else
  EXPECT_LT(static_cast<double>(faults) / (kStrands * kFibers), 0.25)
      << faults << " minor faults over " << kStrands * kFibers << " fibers";
#endif
}

TEST(SchedStacks, GuardPageSurvivesReuse) {
#ifdef CLMPI_SANITIZE_BUILD
  GTEST_SKIP() << "the sanitizer runtime handles the overflow's SIGSEGV itself";
#else
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        sched::Scheduler pool(sched::Scheduler::Options{.workers = 1, .stack_bytes = 64 << 10});
        // Maps two stacks, the second usually right below the first; "below"
        // retires first, so the first stack is the one reused next.
        pool.run(1, {{[] { sched::yield(); }, "above"}, {[] {}, "below"}},
                 [] { return false; });
        // 96 KiB of frames: past the 64 KiB stack, short of the end of the
        // free stack below it, so only the guard page stops the overrun.
        pool.run(2, {{[] { (void)recurse(96); }, "deep"}}, [] { return false; });
      },
      testing::KilledBySignal(SIGSEGV), "");
#endif
}

TEST(SchedParking, ParkedWaitIsResumedOnlyWhenItCanReturn) {
  // One fiber waits for a flag that the other sets after yielding K times.
  // The waiter is resumed twice, to enter the wait and once it holds; each
  // of the K visits in between evaluates its predicate without a switch.
  // The yielder is resumed K + 1 times.
  for (const int k : {1, 8, 64}) {
    std::vector<sched::StrandStats> runs;
    for (const int workers : testutil::kGateWorkers) {
      const auto pool = testutil::make_pool(workers);
      bool flag = false;
      int evaluations = 0;
      runs.push_back(pool->run(
          1,
          {{[&] {
              sched::wait([&] { return ++evaluations, flag; }, "test.flag");
            },
            "waiter"},
           {[&] {
              for (int i = 0; i < k; ++i) sched::yield();
              flag = true;
            },
            "yielder"}},
          [] { return false; }));
      EXPECT_EQ(evaluations, k + 2) << "the inline check, then one per visit";
    }
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const std::string what = std::to_string(k) + " yields, " +
                               std::to_string(testutil::kGateWorkers[i]) + " workers";
      EXPECT_EQ(runs[i].resumes, 2u + static_cast<std::uint64_t>(k + 1)) << what;
      EXPECT_EQ(runs[i].skips, static_cast<std::uint64_t>(k)) << what;
    }
  }
}

TEST(SchedSwitch, FloatingPointControlStaysWithTheFiber) {
  // fegetround() reads the x87 control word on x86-64 and a division obeys
  // MXCSR, so both halves of the FP control state are checked (FPCR on
  // AArch64). Two fibers of one strand in different modes yield to each
  // other across four workers; the idle task samples the mode of whichever
  // worker holds the strand, at checkpoints while both fibers are suspended
  // and again on a probe strand after the first one closed.
  constexpr int kYields = 1000;
  constexpr int kCheckpoints = 4;
  constexpr int kProbes = 16;
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  volatile double one = 1.0;
  volatile double three = 3.0;
  const double nearest = one / three;

  struct Mode {
    int round;
    double third{0};
    int mismatches{0};
    int child_round{-1};
    double child_third{0};
  };
  std::array<Mode, 2> modes{{{FE_UPWARD}, {FE_TOWARDZERO}}};
  int checkpoint = 0;
  int worker_samples = 0;
  int worker_mismatches = 0;
  const auto sample_worker = [&] {
    ++worker_samples;
    if (std::fegetround() != FE_TONEAREST || one / three != nearest) ++worker_mismatches;
  };
  const auto pool = testutil::make_pool(4);

  std::vector<sched::Scheduler::Task> tasks;
  for (Mode& m : modes) {
    tasks.push_back({[&, mode = &m] {
                       std::fesetround(mode->round);
                       mode->third = one / three;
                       const auto check = [&] {
                         if (std::fegetround() != mode->round || one / three != mode->third) {
                           ++mode->mismatches;
                         }
                       };
                       for (int i = 1; i <= kYields; ++i) {
                         sched::yield();
                         check();
                         if (i % (kYields / kCheckpoints) != 0) continue;
                         const int target = i / (kYields / kCheckpoints);
                         sched::wait([&] { return checkpoint >= target; }, "test.checkpoint");
                         check();
                       }
                       sched::ServiceHandle child = sched::spawn_service("child", [&] {
                         mode->child_round = std::fegetround();
                         mode->child_third = one / three;
                       });
                       child.join();
                     },
                     "fp" + std::to_string(m.round)});
  }
  pool->run(1, std::move(tasks), [&] {
    sample_worker();
    ++checkpoint;
    return true;
  });

  int probes = 0;
  pool->run(2, {{[&] { sched::wait([&] { return probes >= kProbes; }, "test.probe"); }, "probe"}},
            [&] {
              sample_worker();
              ++probes;
              return true;
            });

  EXPECT_GT(modes[0].third, modes[1].third) << "the two modes must round 1/3 differently";
  for (const Mode& m : modes) {
    EXPECT_EQ(m.mismatches, 0) << "mode " << m.round << " changed across a switch";
    EXPECT_EQ(m.child_round, m.round) << "a spawned fiber must start in its creator's mode";
    EXPECT_EQ(m.child_third, m.third);
  }
  EXPECT_EQ(worker_samples, kCheckpoints + kProbes);
  EXPECT_EQ(worker_mismatches, 0) << "a worker ran in a fiber's rounding mode";
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

}  // namespace
}  // namespace clmpi
