// The deadlock verdict: a run whose strand goes idle with nothing left to
// rescue fails one blocked rank's wait per idle pass (the lowest rank first)
// with a typed status. Every case must end within a wall-clock budget, and
// give the same status, message and virtual time at 1, 4 and 16 workers.
#include <gtest/gtest.h>

#include "test_util.hpp"

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "clmpi/capi.h"
#include "clmpi/runtime.hpp"
#include "obs/metrics.hpp"
#include "ocl/context.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/window.hpp"
#include "support/error.hpp"
#include "support/sched.hpp"
#include "support/tenant.hpp"
#include "transfer/strategy.hpp"

namespace clmpi {
namespace {

/// A deadlock is decided on the first idle pass that finds nothing to
/// rescue, so a verdict costs a few scheduler passes, not a timer.
constexpr auto kVerdictBudget = std::chrono::milliseconds(50);

/// The first typed failure a rank observed, and what Cluster::run rethrew.
struct Verdict {
  std::optional<Status> status;
  std::string message;
  double virtual_s{0.0};
  std::optional<Status> rethrown;
  std::string rethrown_message;
  std::chrono::steady_clock::duration wall{};
};

/// Run `fn` as part of a rank body: record the first typed failure (status,
/// message, the rank's virtual clock) into `v`, then rethrow it.
void observe(mpi::Rank& rank, Verdict& v, const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    if (!v.status) {
      v.status = e.status();
      v.message = e.what();
      v.virtual_s = rank.now_s();
    }
    throw;
  }
}

using Body = std::function<void(mpi::Rank&, Verdict&)>;

Verdict run_on(int workers, int nranks, const Body& body, tenant::JobControl* job = nullptr) {
  const auto pool = testutil::make_pool(workers);
  mpi::Cluster::Options o;
  o.nranks = nranks;
  o.profile = &sys::ricc();
  o.scheduler = pool.get();
  o.job = job;
  Verdict v;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    mpi::Cluster::run(o, [&](mpi::Rank& rank) { body(rank, v); });
  } catch (const Error& e) {
    v.rethrown = e.status();
    v.rethrown_message = e.what();
  }
  v.wall = std::chrono::steady_clock::now() - t0;
  return v;
}

/// Runs `body` at every gate worker count; each run must end within the
/// budget with `want` observed by a rank and rethrown by Cluster::run, and
/// all runs must agree on the message and the virtual time.
Verdict expect_verdict(Status want, int nranks, const Body& body) {
  std::optional<Verdict> first;
  for (const int workers : testutil::kGateWorkers) {
    const Verdict v = run_on(workers, nranks, body);
    EXPECT_EQ(v.status, want) << workers << " workers: " << v.message;
    EXPECT_EQ(v.rethrown, want) << workers << " workers: " << v.rethrown_message;
    EXPECT_LT(v.wall, kVerdictBudget) << workers << " workers";
    if (!first) {
      first = v;
      continue;
    }
    EXPECT_EQ(v.message, first->message) << workers << " workers";
    EXPECT_EQ(v.rethrown_message, first->rethrown_message) << workers << " workers";
    EXPECT_DOUBLE_EQ(v.virtual_s, first->virtual_s) << workers << " workers";
  }
  return *first;
}

TEST(Deadlock, UnmatchedReceive) {
  const Verdict v = expect_verdict(Status::deadlock, 2, [](mpi::Rank& rank, Verdict& out) {
    std::vector<std::byte> buf(64);
    rank.compute(vt::microseconds(3));
    if (rank.rank() == 0) observe(rank, out, [&] { rank.world().recv(buf, 1, 7, rank.clock()); });
  });
  EXPECT_NE(v.message.find("failing rank 0's wait at mpi.request.wait"), std::string::npos)
      << v.message;
  EXPECT_NE(v.message.find("rank0=mpi.request.wait rank1=returned"), std::string::npos)
      << v.message;
  // 3 us of compute plus the receive's post overhead.
  EXPECT_DOUBLE_EQ(v.virtual_s, 3.5e-6);
  EXPECT_NE(v.message.find("virtual time 3.5e-06 s"), std::string::npos) << v.message;
}

TEST(Deadlock, BlockingSendCycle) {
  // Rendezvous-sized blocking sends in a ring: every rank waits for a
  // receive nobody posts. Rank 0 fails first; the others follow, one per
  // idle pass, as suppressed secondary errors.
  const Verdict v = expect_verdict(Status::deadlock, 3, [](mpi::Rank& rank, Verdict& out) {
    std::vector<std::byte> buf(1 << 20);
    observe(rank, out, [&] {
      rank.world().send(buf, (rank.rank() + 1) % rank.size(), 5, rank.clock());
    });
  });
  EXPECT_NE(v.message.find("rank0=mpi.request.wait rank1=mpi.request.wait "
                           "rank2=mpi.request.wait"),
            std::string::npos)
      << v.message;
}

TEST(Deadlock, CollectiveMissingARank) {
  expect_verdict(Status::deadlock, 3, [](mpi::Rank& rank, Verdict& out) {
    if (rank.rank() == 2) return;
    observe(rank, out, [&] { rank.world().barrier(rank.clock()); });
  });
}

TEST(Deadlock, FenceMissingARank) {
  const Verdict v = expect_verdict(Status::deadlock, 3, [](mpi::Rank& rank, Verdict& out) {
    std::vector<std::byte> region(64);
    mpi::Win win = mpi::create_window(rank.world(), region, rank.clock());
    if (rank.rank() == 2) return;
    observe(rank, out, [&] { win.fence(rank.clock()); });
  });
  EXPECT_NE(v.message.find("mpi.win.fence"), std::string::npos) << v.message;
}

TEST(Deadlock, FinishOnAnEventNobodyCompletes) {
  // The command's wait list holds a user event nobody completes. finish()
  // (clFinish) fails first; unwinding then joins the clMPI dispatcher from
  // ~Runtime, and the verdict fails the queue worker's and the dispatcher's
  // waits in turn — the run ends instead of terminating.
  const Verdict v = expect_verdict(Status::deadlock, 2, [](mpi::Rank& rank, Verdict& out) {
    if (rank.rank() == 1) return;
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    auto queue = ctx.create_queue();
    rt::Runtime runtime(rank, platform.device());
    ocl::BufferPtr buf = ctx.create_buffer(4096);
    const std::vector<ocl::EventPtr> never{ctx.create_user_event("never")};
    const std::vector<ocl::EventPtr> send{
        runtime.enqueue_send_buffer(*queue, buf, false, 0, 4096, 1, 9, rank.world(), never)};
    (void)queue->enqueue_marker(send, rank.clock());
    observe(rank, out, [&] { queue->finish(rank.clock()); });
  });
  EXPECT_NE(v.message.find("failing rank 0's wait at ocl.event.wait"), std::string::npos)
      << v.message;
}

TEST(Deadlock, RuntimeCommandGatedOnAStuckQueueCommand) {
  // The runtime is created before the queue, so the verdict reaches the
  // clMPI dispatcher's wait-list wait while the queue command it counts is
  // still pending. Failing that command later must not touch the
  // dispatcher's abandoned wait (run under ASan: ctest -L sanitize).
  const Verdict v = expect_verdict(Status::deadlock, 2, [](mpi::Rank& rank, Verdict& out) {
    if (rank.rank() == 1) return;
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    rt::Runtime runtime(rank, platform.device());
    auto queue = ctx.create_queue();
    ocl::BufferPtr buf = ctx.create_buffer(4096);
    const std::vector<ocl::EventPtr> never{ctx.create_user_event("never")};
    const std::vector<ocl::EventPtr> gate{queue->enqueue_marker(never, rank.clock())};
    (void)runtime.enqueue_send_buffer(*queue, buf, false, 0, 4096, 1, 9, rank.world(), gate);
    observe(rank, out, [&] { runtime.finish(rank.clock()); });
  });
  EXPECT_NE(v.message.find("failing rank 0's wait at rt.finish"), std::string::npos)
      << v.message;
}

TEST(Deadlock, AFailedWaitListWaitLeavesTheNextCommandAlone) {
  // This rank parks where the verdict cannot fail it, so the verdict fails
  // the clMPI dispatcher's wait for `gate`. The queue command behind `gate`
  // completes later, while the dispatcher waits for the next command's wait
  // list: that late completion must not count toward the next command.
  for (const int workers : testutil::kGateWorkers) {
    bool released_early = true;
    const Verdict v = run_on(workers, 2, [&](mpi::Rank& rank, Verdict&) {
      if (rank.rank() == 1) return;
      ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
      ocl::Context ctx(platform.device());
      rt::Runtime runtime(rank, platform.device());
      auto queue = ctx.create_queue();
      ocl::BufferPtr buf = ctx.create_buffer(64);
      const std::vector<ocl::EventPtr> late{ctx.create_user_event("late")};
      const std::vector<ocl::EventPtr> gate{queue->enqueue_marker(late, rank.clock())};
      const ocl::EventPtr first =
          runtime.enqueue_send_buffer(*queue, buf, false, 0, 64, 1, 9, rank.world(), gate);
      sched::wait([&] { return first->complete(); }, "test.park", /*interruptible=*/false);
      EXPECT_TRUE(first->failed());
      const std::vector<ocl::EventPtr> hold{ctx.create_user_event("hold")};
      const ocl::EventPtr second =
          runtime.enqueue_send_buffer(*queue, buf, false, 0, 64, 1, 10, rank.world(), hold);
      for (int i = 0; i < 8; ++i) sched::yield();  // the dispatcher parks on `hold`
      static_cast<ocl::UserEvent&>(*late[0]).set_complete(rank.clock().now());
      for (int i = 0; i < 8; ++i) sched::yield();  // the queue worker completes `gate`
      released_early = second->complete();
      static_cast<ocl::UserEvent&>(*hold[0]).set_complete(rank.clock().now());
      EXPECT_THROW(runtime.finish(rank.clock()), DeadlockError);
    });
    EXPECT_FALSE(v.rethrown) << v.rethrown_message;
    EXPECT_FALSE(released_early) << workers << " workers";
  }
}

TEST(Deadlock, AFailedReceiveIsWithdrawn) {
  // Rank 0's blocking receive fails; it frees the buffer and lets rank 1
  // send. The late message must not land in the freed buffer: it waits,
  // unexpected, for the next receive.
  for (const int workers : testutil::kGateWorkers) {
    std::vector<std::byte> got;
    Verdict first;
    const Verdict v = run_on(workers, 2, [&](mpi::Rank& rank, Verdict&) {
      mpi::Comm& world = rank.world();
      std::vector<std::byte> token(8);
      if (rank.rank() == 1) {
        world.recv(token, 0, 2, rank.clock());
        world.send(std::vector<std::byte>(64, std::byte{7}), 0, 1, rank.clock());
        return;
      }
      auto buf = std::make_unique<std::vector<std::byte>>(64);
      try {
        observe(rank, first, [&] { world.recv(*buf, 1, 1, rank.clock()); });
      } catch (const DeadlockError&) {
        buf.reset();
      }
      world.send(token, 1, 2, rank.clock());
      got.resize(64);
      world.recv(got, 1, 1, rank.clock());
    });
    EXPECT_FALSE(v.rethrown) << v.rethrown_message;
    EXPECT_EQ(first.status, Status::deadlock) << first.message;
    EXPECT_EQ(got, std::vector<std::byte>(64, std::byte{7}));
  }
}

TEST(Deadlock, AFailedRendezvousSendIsWithdrawn) {
  // Rank 0's rendezvous send fails and it frees the payload. The peer's
  // later receive must match the resent message, never read the freed one.
  constexpr std::size_t kBig = std::size_t{1} << 20;
  for (const int workers : testutil::kGateWorkers) {
    std::vector<std::byte> got(kBig);
    Verdict first;
    const Verdict v = run_on(workers, 2, [&](mpi::Rank& rank, Verdict&) {
      mpi::Comm& world = rank.world();
      std::vector<std::byte> token(8);
      if (rank.rank() == 1) {
        world.recv(token, 0, 6, rank.clock());
        world.recv(got, 0, 5, rank.clock());
        return;
      }
      auto payload = std::make_unique<std::vector<std::byte>>(kBig, std::byte{1});
      try {
        observe(rank, first, [&] { world.send(*payload, 1, 5, rank.clock()); });
      } catch (const DeadlockError&) {
        payload.reset();
      }
      world.send(token, 1, 6, rank.clock());
      world.send(std::vector<std::byte>(kBig, std::byte{2}), 1, 5, rank.clock());
    });
    EXPECT_FALSE(v.rethrown) << v.rethrown_message;
    EXPECT_EQ(first.status, Status::deadlock) << first.message;
    EXPECT_EQ(got, std::vector<std::byte>(kBig, std::byte{2}));
  }
}

TEST(Deadlock, PipelineBlockCountMismatchNamesBothDecompositions) {
  // 1 MiB in 256 KiB blocks against 512 KiB blocks: the receiver matches
  // two blocks (and fails them as a decomposition mismatch), the sender's
  // blocks 2..3 can never match.
  const Verdict v =
      expect_verdict(Status::invalid_operation, 2, [](mpi::Rank& rank, Verdict& out) {
        ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
        ocl::Context ctx(platform.device());
        constexpr std::size_t kSize = std::size_t{1} << 20;
        ocl::BufferPtr buf = ctx.create_buffer(kSize);
        const xfer::DeviceEndpoint ep{&rank.world(), &platform.device(), buf.get(), 0, kSize,
                                      1 - rank.rank(), 4};
        if (rank.rank() == 0) {
          observe(rank, out, [&] {
            (void)xfer::send_device(ep, xfer::Strategy::pipelined(256 << 10), rank.clock().now());
          });
        } else {
          EXPECT_THROW(
              (void)xfer::recv_device(ep, xfer::Strategy::pipelined(512 << 10), rank.clock().now()),
              PreconditionError);
        }
      });
  EXPECT_NE(v.message.find("block-count mismatch on tag 4 from rank 0 to rank 1"),
            std::string::npos)
      << v.message;
  EXPECT_NE(v.message.find("sender's wire decomposition is 4 pipelined blocks of 262144 B"),
            std::string::npos)
      << v.message;
  EXPECT_NE(v.message.find("receiver's has 2 block(s)"), std::string::npos) << v.message;
}

TEST(Deadlock, PipelineReceiverPostsMoreBlocksNamesBothDecompositions) {
  // The mirror case: 1 MiB sent in 512 KiB blocks, received in 256 KiB
  // blocks. The two sent blocks match (and fail) the receiver's blocks 0..1;
  // its receives 2..3 stay posted and can never match.
  const Verdict v =
      expect_verdict(Status::invalid_operation, 2, [](mpi::Rank& rank, Verdict& out) {
        ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
        ocl::Context ctx(platform.device());
        constexpr std::size_t kSize = std::size_t{1} << 20;
        ocl::BufferPtr buf = ctx.create_buffer(kSize);
        const xfer::DeviceEndpoint ep{&rank.world(), &platform.device(), buf.get(), 0, kSize,
                                      1 - rank.rank(), 4};
        if (rank.rank() == 0) {
          EXPECT_THROW(
              (void)xfer::send_device(ep, xfer::Strategy::pipelined(512 << 10), rank.clock().now()),
              PreconditionError);
        } else {
          observe(rank, out, [&] {
            (void)xfer::recv_device(ep, xfer::Strategy::pipelined(256 << 10), rank.clock().now());
          });
        }
      });
  EXPECT_NE(v.message.find("block-count mismatch on tag 4 from rank 0 to rank 1"),
            std::string::npos)
      << v.message;
  EXPECT_NE(v.message.find("receiver's wire decomposition is 4 pipelined blocks of 262144 B"),
            std::string::npos)
      << v.message;
  EXPECT_NE(v.message.find("sender's has 2 block(s)"), std::string::npos) << v.message;
}

std::uint64_t suppressed_counter() {
  std::uint64_t v = 0;
  (void)obs::Registry::instance().value("cluster.suppressed_errors", v);
  return v;
}

TEST(Deadlock, PeerOfAFailedRankIsCountedNotHung) {
  // A plain cluster has no cancel protocol: rank 1 would wait forever for
  // the message rank 0 died before sending. The verdict fails it; rank 0's
  // own error is what Cluster::run rethrows.
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  for (const int workers : testutil::kGateWorkers) {
    const std::uint64_t before = suppressed_counter();
    Verdict peer;
    const Verdict v = run_on(workers, 2, [&](mpi::Rank& rank, Verdict&) {
      std::vector<std::byte> buf(64);
      if (rank.rank() == 0) throw Error("rank 0 gives up", Status::invalid_value);
      observe(rank, peer, [&] { rank.world().recv(buf, 0, 1, rank.clock()); });
    });
    EXPECT_EQ(v.rethrown, Status::invalid_value) << v.rethrown_message;
    EXPECT_EQ(v.rethrown_message, "rank 0 gives up");
    EXPECT_EQ(peer.status, Status::deadlock) << peer.message;
    EXPECT_EQ(suppressed_counter() - before, 1u);
    EXPECT_LT(v.wall, kVerdictBudget) << workers << " workers";
  }
  obs::set_metrics_enabled(was_enabled);
}

TEST(Deadlock, AnUnwindingWaitIsNeverTheTarget) {
  // Rank 0 unwinds through a destructor that waits for rank 1, which waits
  // for a message rank 0 never sends. Only rank 1's wait may fail (a throw
  // into rank 0's would escape a destructor), even though rank 1 entered
  // it while rank 0 was suspended mid-unwind; its handler unblocks rank 0.
  for (const int workers : testutil::kGateWorkers) {
    Verdict peer;
    const Verdict v = run_on(workers, 2, [&](mpi::Rank& rank, Verdict&) {
      std::vector<std::byte> buf(64);
      if (rank.rank() == 0) {
        struct Drain {
          mpi::Rank& rank;
          std::vector<std::byte>& buf;
          ~Drain() { rank.world().recv(buf, 1, 2, rank.clock()); }
        } drain{rank, buf};
        throw Error("rank 0 gives up", Status::invalid_value);
      }
      try {
        observe(rank, peer, [&] { rank.world().recv(buf, 0, 1, rank.clock()); });
      } catch (const DeadlockError&) {
        rank.world().send(buf, 0, 2, rank.clock());
      }
    });
    EXPECT_EQ(v.rethrown, Status::invalid_value) << v.rethrown_message;
    EXPECT_EQ(peer.status, Status::deadlock) << peer.message;
    EXPECT_NE(peer.message.find("rank0=mpi.request.wait rank1=mpi.request.wait"),
              std::string::npos)
        << peer.message;
  }
}

TEST(Deadlock, ServiceJobFailsWithTheVerdict) {
  // In service-job mode the first failure cancels the job, so the peers
  // unwind cancelled; the job reports the verdict (svc::Service maps it to
  // JobState::failed with Status::deadlock).
  for (const int workers : testutil::kGateWorkers) {
    tenant::JobControl job(7, {});
    const Verdict v = run_on(
        workers, 3,
        [](mpi::Rank& rank, Verdict& out) {
          std::vector<std::byte> buf(64);
          observe(rank, out, [&] {
            rank.world().recv(buf, (rank.rank() + 1) % rank.size(), 2, rank.clock());
          });
        },
        &job);
    EXPECT_EQ(v.rethrown, Status::deadlock) << v.rethrown_message;
    EXPECT_LT(v.wall, kVerdictBudget) << workers << " workers";
  }
}

TEST(Deadlock, CApiWaitAndFinishReturnDeadlock) {
  mpi::Cluster::Options o;
  o.nranks = 2;
  o.profile = &sys::ricc();
  cl_int wait_rc = CL_SUCCESS;
  cl_int finish_rc = CL_SUCCESS;
  mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    if (rank.rank() == 1) return;
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context cxx_ctx(platform.device());
    rt::Runtime runtime(rank, platform.device());
    capi::ThreadBinding binding(rank, runtime);
    cl_context ctx = clmpiCreateContext(cxx_ctx);
    cl_int err = CL_SUCCESS;
    cl_command_queue queue = clCreateCommandQueue(ctx, &err);
    ASSERT_EQ(err, CL_SUCCESS);
    cl_mem buf = clCreateBuffer(ctx, 256, &err);
    ASSERT_EQ(err, CL_SUCCESS);
    // A device receive nobody matches; a device write waits on its event.
    // The clMPI dispatcher posts the receive, so failing this rank's waits
    // leaves it pending.
    std::vector<std::byte> host(256);
    cl_event never = nullptr;
    ASSERT_EQ(clEnqueueRecvBuffer(queue, buf, CL_FALSE, 0, 256, 1, 3, MPI_COMM_WORLD, 0, nullptr,
                                  &never),
              CL_SUCCESS);
    wait_rc = clWaitForEvents(1, &never);
    ASSERT_EQ(clEnqueueWriteBuffer(queue, buf, CL_FALSE, 0, 256, host.data(), 1, &never,
                                   nullptr),
              CL_SUCCESS);
    finish_rc = clFinish(queue);
    clReleaseEvent(never);
    clReleaseMemObject(buf);
    clReleaseCommandQueue(queue);
    clReleaseContext(ctx);
  });
  EXPECT_EQ(wait_rc, CLMPI_DEADLOCK);
  EXPECT_EQ(finish_rc, CLMPI_DEADLOCK);
}

}  // namespace
}  // namespace clmpi
