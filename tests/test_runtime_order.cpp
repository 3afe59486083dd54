// Tests for the clMPI runtime's dispatcher semantics: enqueue-order command
// release, runtime finish, and failure propagation through events.
#include <gtest/gtest.h>

#include "test_util.hpp"

#include <array>
#include <cstring>
#include <vector>

#include "clmpi/runtime.hpp"
#include "ocl/context.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "simmpi/cluster.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"

namespace clmpi::rt {
namespace {

mpi::Cluster::Options opts(int nranks, const sys::SystemProfile& prof = sys::ricc()) {
  mpi::Cluster::Options o;
  o.nranks = nranks;
  o.profile = &prof;
  return o;
}

struct Node {
  explicit Node(mpi::Rank& rank)
      : platform(rank.profile(), rank.rank(), rank.tracer()),
        ctx(platform.device()),
        runtime(rank, platform.device()) {}

  ocl::Platform platform;
  ocl::Context ctx;
  Runtime runtime;
};

TEST(Dispatcher, SameTagCommandsDeliverInEnqueueOrder) {
  // Two sends with the same tag whose wait events complete in *reverse*
  // order: the dispatcher still releases them in enqueue order, so MPI
  // matching stays FIFO and the payloads arrive unswapped.
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Node node(rank);
    auto queue = node.ctx.create_queue();
    if (rank.rank() == 0) {
      auto gate1 = node.ctx.create_user_event("gate1");
      auto gate2 = node.ctx.create_user_event("gate2");
      ocl::BufferPtr a = node.ctx.create_buffer(sizeof(int));
      ocl::BufferPtr b = node.ctx.create_buffer(sizeof(int));
      a->as<int>()[0] = 1;
      b->as<int>()[0] = 2;
      const std::array<ocl::EventPtr, 1> w1{gate1};
      const std::array<ocl::EventPtr, 1> w2{gate2};
      auto e1 = node.runtime.enqueue_send_buffer(*queue, a, false, 0, sizeof(int), 1, 7,
                                                 rank.world(), w1);
      auto e2 = node.runtime.enqueue_send_buffer(*queue, b, false, 0, sizeof(int), 1, 7,
                                                 rank.world(), w2);
      // Complete the *second* command's gate first.
      gate2->set_complete(vt::TimePoint{0.001});
      gate1->set_complete(vt::TimePoint{0.002});
      e1->wait(rank.clock());
      e2->wait(rank.clock());
    } else {
      ocl::BufferPtr first = node.ctx.create_buffer(sizeof(int));
      ocl::BufferPtr second = node.ctx.create_buffer(sizeof(int));
      node.runtime.enqueue_recv_buffer(*queue, first, true, 0, sizeof(int), 0, 7,
                                       rank.world(), {});
      node.runtime.enqueue_recv_buffer(*queue, second, true, 0, sizeof(int), 0, 7,
                                       rank.world(), {});
      EXPECT_EQ(first->as<int>()[0], 1);
      EXPECT_EQ(second->as<int>()[0], 2);
    }
  });
}

TEST(Dispatcher, CommandReadyTimeIsMaxOfWaits) {
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Node node(rank);
    auto queue = node.ctx.create_queue();
    ocl::BufferPtr buf = node.ctx.create_buffer(1_KiB);
    auto gate = node.ctx.create_user_event("gate");
    const std::array<ocl::EventPtr, 1> waits{gate};
    if (rank.rank() == 0) {
      auto ev = node.runtime.enqueue_send_buffer(*queue, buf, false, 0, 1_KiB, 1, 0,
                                                 rank.world(), waits);
      gate->set_complete(vt::TimePoint{0.5});
      ev->wait(rank.clock());
      EXPECT_GE(ev->profiling().started.s, 0.5);
      EXPECT_GE(ev->completion_time().s, 0.5);
    } else {
      auto ev = node.runtime.enqueue_recv_buffer(*queue, buf, false, 0, 1_KiB, 0, 0,
                                                 rank.world(), {});
      gate->set_complete(vt::TimePoint{0.0});
      ev->wait(rank.clock());
      // The receive completes no earlier than the (gated) send.
      EXPECT_GE(ev->completion_time().s, 0.5);
    }
  });
}

TEST(Dispatcher, FinishWaitsAllIssuedCommands) {
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Node node(rank);
    auto queue = node.ctx.create_queue();
    constexpr std::size_t size = 4_MiB;
    ocl::BufferPtr buf = node.ctx.create_buffer(size);
    std::vector<ocl::EventPtr> events;
    for (int i = 0; i < 4; ++i) {
      if (rank.rank() == 0) {
        events.push_back(node.runtime.enqueue_send_buffer(*queue, buf, false, 0, size, 1, i,
                                                          rank.world(), {}));
      } else {
        events.push_back(node.runtime.enqueue_recv_buffer(*queue, buf, false, 0, size, 0, i,
                                                          rank.world(), {}));
      }
    }
    node.runtime.finish(rank.clock());
    for (const auto& ev : events) EXPECT_TRUE(ev->complete());
    // The clock advanced to at least the last completion.
    EXPECT_GE(rank.now_s(), events.back()->completion_time().s);
  });
}

TEST(Failure, InvalidCommandRejectedAtEnqueue) {
  mpi::Cluster::run(opts(1), [&](mpi::Rank& rank) {
    Node node(rank);
    auto queue = node.ctx.create_queue();
    ocl::BufferPtr buf = node.ctx.create_buffer(64);
    // Send region exceeds the buffer: validated eagerly, before a command
    // (or its event) is ever created, with a typed status the C API maps to
    // a defined error code.
    try {
      node.runtime.enqueue_send_buffer(*queue, buf, false, 32, 64, 0, 0, rank.world(), {});
      ADD_FAILURE() << "out-of-range region was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.status(), Status::invalid_value);
    }
  });
}

TEST(Failure, KernelExceptionPropagatesToWaiters) {
  mpi::Cluster::run(opts(1), [&](mpi::Rank& rank) {
    Node node(rank);
    auto queue = node.ctx.create_queue();
    ocl::Program prog;
    prog.define(
        "boom", [](const ocl::NDRange&, const ocl::KernelArgs&) {
          throw Error("kernel exploded");
        },
        ocl::fixed_cost(vt::milliseconds(1.0)));
    auto kernel = prog.create_kernel("boom");
    auto ev = queue->enqueue_ndrange(kernel, ocl::NDRange::linear(1), {}, rank.clock());
    EXPECT_THROW(ev->wait(rank.clock()), Error);
    EXPECT_TRUE(ev->failed());
  });
}

TEST(Failure, DependentCommandIsPoisonedToo) {
  mpi::Cluster::run(opts(1), [&](mpi::Rank& rank) {
    Node node(rank);
    auto queue = node.ctx.create_queue();
    ocl::Program prog;
    prog.define(
        "boom", [](const ocl::NDRange&, const ocl::KernelArgs&) {
          throw Error("kernel exploded");
        },
        ocl::fixed_cost(vt::milliseconds(1.0)));
    prog.define("ok", [](const ocl::NDRange&, const ocl::KernelArgs&) {},
                ocl::fixed_cost(vt::milliseconds(1.0)));
    auto bad = queue->enqueue_ndrange(prog.create_kernel("boom"), ocl::NDRange::linear(1),
                                      {}, rank.clock());
    const std::array<ocl::EventPtr, 1> waits{bad};
    auto chained = queue->enqueue_ndrange(prog.create_kernel("ok"), ocl::NDRange::linear(1),
                                          waits, rank.clock());
    EXPECT_THROW(chained->wait(rank.clock()), Error);
    // The queue itself survives and keeps executing later commands.
    auto fine = queue->enqueue_ndrange(prog.create_kernel("ok"), ocl::NDRange::linear(1),
                                       {}, rank.clock());
    EXPECT_NO_THROW(fine->wait(rank.clock()));
  });
}

TEST(Failure, FailedQueueCommandDoesNotAbortFinish) {
  mpi::Cluster::run(opts(1), [&](mpi::Rank& rank) {
    Node node(rank);
    auto queue = node.ctx.create_queue();
    ocl::Program prog;
    prog.define(
        "boom", [](const ocl::NDRange&, const ocl::KernelArgs&) {
          throw Error("kernel exploded");
        },
        ocl::fixed_cost(vt::milliseconds(1.0)));
    auto bad = queue->enqueue_ndrange(prog.create_kernel("boom"), ocl::NDRange::linear(1),
                                      {}, rank.clock());
    // finish() goes through a marker gated on queue order only (no wait
    // list), so it completes; the failed event still reports its error.
    EXPECT_NO_THROW(queue->finish(rank.clock()));
    EXPECT_TRUE(bad->failed());
  });
}

TEST(Dispatcher, ShutdownDrainsPendingCommands) {
  // Commands still queued at Runtime destruction are executed, not dropped:
  // the destructor drains.
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    constexpr std::size_t size = 1_MiB;
    std::vector<std::byte> out(size);
    {
      Node node(rank);
      auto queue = node.ctx.create_queue();
      ocl::BufferPtr buf = node.ctx.create_buffer(size);
      if (rank.rank() == 0) {
        fill_pattern(buf->storage(), 5);
        node.runtime.enqueue_send_buffer(*queue, buf, false, 0, size, 1, 0, rank.world(),
                                         {});
        // No wait: the Runtime destructor must flush the send.
      } else {
        node.runtime.enqueue_recv_buffer(*queue, buf, false, 0, size, 0, 0, rank.world(),
                                         {});
        node.runtime.finish(rank.clock());
        std::memcpy(out.data(), buf->storage().data(), size);
        EXPECT_TRUE(check_pattern(out, 5));
      }
    }
  });
}

}  // namespace
}  // namespace clmpi::rt
