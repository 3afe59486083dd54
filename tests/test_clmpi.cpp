// Tests for the clMPI runtime (the paper's contribution) and the C API layer:
// inter-node communication commands, event-based dependency chaining, MPI
// interoperability (MPI_CL_MEM, clCreateEventFromMPIRequest), and the
// host-never-blocks property.
#include <gtest/gtest.h>

#include "test_util.hpp"

#include <memory>
#include <optional>
#include <vector>

#include "clmpi/capi.h"
#include "clmpi/runtime.hpp"
#include "ocl/context.hpp"
#include "ocl/platform.hpp"
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

/// Per-rank bundle used by most tests.
struct Node {
  explicit Node(mpi::Rank& rank)
      : platform(rank.profile(), rank.rank(), rank.tracer()),
        ctx(platform.device()),
        runtime(rank, platform.device()) {}

  ocl::Platform platform;
  ocl::Context ctx;
  Runtime runtime;
};

TEST(SendRecvBuffer, Fig5DeviceToDevice) {
  // Figure 5: rank 0's device sends a buffer to rank 1's device; no explicit
  // MPI calls in the application code.
  constexpr std::size_t size = 1_MiB;
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Node node(rank);
    auto queue = node.ctx.create_queue();
    ocl::BufferPtr buf = node.ctx.create_buffer(size);

    if (rank.rank() == 0) {
      fill_pattern(buf->storage(), 1);
      node.runtime.enqueue_send_buffer(*queue, buf, /*blocking=*/true, 0, size,
                                       /*dst=*/1, /*tag=*/0, rank.world(), {});
    } else {
      node.runtime.enqueue_recv_buffer(*queue, buf, /*blocking=*/true, 0, size,
                                       /*src=*/0, /*tag=*/0, rank.world(), {});
      EXPECT_TRUE(check_pattern(buf->storage(), 1));
    }
  });
}

TEST(SendRecvBuffer, ZeroSizeCompletesWithValidEvent) {
  // A zero-width halo edge reaches the runtime as a size-0 transfer. It must
  // be accepted (not rejected as invalid_value), complete as a matched no-op
  // under every strategy tier, and leave destination bytes untouched.
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Node node(rank);
    auto queue = node.ctx.create_queue();
    ocl::BufferPtr buf = node.ctx.create_buffer(256);
    fill_pattern(buf->storage(), 99);

    int tag = 20;
    for (const auto force :
         {std::optional<xfer::Strategy>{}, std::optional{xfer::Strategy::pinned()},
          std::optional{xfer::Strategy::mapped()},
          std::optional{xfer::Strategy::pipelined(64_KiB)}}) {
      ocl::EventPtr ev;
      if (rank.rank() == 0) {
        ev = node.runtime.enqueue_send_buffer(*queue, buf, false, 128, 0, 1, tag,
                                              rank.world(), {}, force);
      } else {
        ev = node.runtime.enqueue_recv_buffer(*queue, buf, false, 128, 0, 0, tag,
                                              rank.world(), {}, force);
      }
      ASSERT_NE(ev, nullptr);
      ev->wait(rank.clock());
      ++tag;
    }
    EXPECT_TRUE(check_pattern(buf->storage(), 99));
    node.runtime.finish(rank.clock());
  });
}

TEST(SendRecvBuffer, NonBlockingDoesNotBlockHost) {
  // The core claim of §IV-B: after enqueuing, the host thread is immediately
  // free; the transfer proceeds on runtime threads.
  constexpr std::size_t size = 32_MiB;
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Node node(rank);
    auto queue = node.ctx.create_queue();
    ocl::BufferPtr buf = node.ctx.create_buffer(size);

    ocl::EventPtr ev;
    if (rank.rank() == 0) {
      ev = node.runtime.enqueue_send_buffer(*queue, buf, false, 0, size, 1, 0,
                                            rank.world(), {});
    } else {
      ev = node.runtime.enqueue_recv_buffer(*queue, buf, false, 0, size, 0, 0,
                                            rank.world(), {});
    }
    EXPECT_LT(rank.now_s(), 1e-3);  // host came right back
    ev->wait(rank.clock());
    EXPECT_GT(rank.now_s(), 0.02);  // the transfer itself took real virtual time
  });
}

TEST(SendRecvBuffer, WaitListChainsKernelToSend) {
  // Figure 6 dependency pattern: the send waits on the kernel that produces
  // the data, enforced by the event — not by the host.
  constexpr std::size_t n = 1024;
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Node node(rank);
    auto queue_compute = node.ctx.create_queue("compute");
    auto queue_comm = node.ctx.create_queue("comm");
    ocl::BufferPtr buf = node.ctx.create_buffer(n * sizeof(float));

    if (rank.rank() == 0) {
      ocl::Program prog;
      prog.define(
          "fill",
          [](const ocl::NDRange& r, const ocl::KernelArgs& args) {
            auto out = args.span_of<float>(0);
            for (std::size_t i = 0; i < r.total(); ++i) out[i] = 3.0f;
          },
          ocl::flops_per_item(1.0));
      auto kernel = prog.create_kernel("fill");
      kernel->set_arg(0, buf);
      ocl::EventPtr produced =
          queue_compute->enqueue_ndrange(kernel, ocl::NDRange::linear(n), {}, rank.clock());
      std::vector<ocl::EventPtr> waits{produced};
      ocl::EventPtr sent = node.runtime.enqueue_send_buffer(
          *queue_comm, buf, false, 0, buf->size(), 1, 0, rank.world(), waits);
      sent->wait(rank.clock());
      // The send started only after the kernel completed.
      EXPECT_GE(sent->profiling().started.s, produced->completion_time().s);
    } else {
      node.runtime.enqueue_recv_buffer(*queue_comm, buf, true, 0, buf->size(), 0, 0,
                                       rank.world(), {});
      EXPECT_FLOAT_EQ(buf->as<float>()[n - 1], 3.0f);
    }
  });
}

TEST(SendRecvBuffer, InOrderQueueSerializesTwoSends) {
  // Two sends on the same queue must deliver in order (same tag).
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Node node(rank);
    auto queue = node.ctx.create_queue();
    ocl::BufferPtr a = node.ctx.create_buffer(sizeof(int));
    ocl::BufferPtr b = node.ctx.create_buffer(sizeof(int));
    if (rank.rank() == 0) {
      a->as<int>()[0] = 1;
      b->as<int>()[0] = 2;
      node.runtime.enqueue_send_buffer(*queue, a, false, 0, sizeof(int), 1, 5,
                                       rank.world(), {});
      node.runtime.enqueue_send_buffer(*queue, b, false, 0, sizeof(int), 1, 5,
                                       rank.world(), {});
      queue->finish(rank.clock());
    } else {
      node.runtime.enqueue_recv_buffer(*queue, a, true, 0, sizeof(int), 0, 5, rank.world(),
                                       {});
      node.runtime.enqueue_recv_buffer(*queue, b, true, 0, sizeof(int), 0, 5, rank.world(),
                                       {});
      EXPECT_EQ(a->as<int>()[0], 1);
      EXPECT_EQ(b->as<int>()[0], 2);
    }
  });
}

TEST(SendRecvBuffer, ForcedStrategyOverridesPolicy) {
  constexpr std::size_t size = 256_KiB;
  mpi::Cluster::run(opts(2, sys::cichlid()), [&](mpi::Rank& rank) {
    Node node(rank);
    auto queue = node.ctx.create_queue();
    ocl::BufferPtr buf = node.ctx.create_buffer(size);
    const auto forced = xfer::Strategy::pinned();  // policy would say mapped
    if (rank.rank() == 0) {
      fill_pattern(buf->storage(), 3);
      node.runtime.enqueue_send_buffer(*queue, buf, true, 0, size, 1, 0, rank.world(), {},
                                       forced);
    } else {
      node.runtime.enqueue_recv_buffer(*queue, buf, true, 0, size, 0, 0, rank.world(), {},
                                       forced);
      EXPECT_TRUE(check_pattern(buf->storage(), 3));
    }
  });
}

TEST(Runtime, PolicyMatchesTransferSelect) {
  mpi::Cluster::run(opts(1), [&](mpi::Rank& rank) {
    Node node(rank);
    for (std::size_t size : {1_KiB, 1_MiB, 64_MiB}) {
      const auto a = node.runtime.policy(size);
      const auto b = xfer::select(rank.profile(), size);
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.block, b.block);
    }
  });
}

TEST(Runtime, RejectsForeignQueue) {
  mpi::Cluster::run(opts(1), [&](mpi::Rank& rank) {
    Node node(rank);
    ocl::Platform other(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context other_ctx(other.device());
    auto foreign_queue = other_ctx.create_queue();
    ocl::BufferPtr buf = other_ctx.create_buffer(64);
    EXPECT_THROW(node.runtime.enqueue_send_buffer(*foreign_queue, buf, false, 0, 64, 0, 0,
                                                  rank.world(), {}),
                 PreconditionError);
  });
}

TEST(Runtime, FinishSettlesEveryCommandThenRethrowsTheFirstFailureOnce) {
  // A receive that times out at 1 ms must not cut finish short: finish
  // returns — by rethrowing the timeout — only once the 8 MiB send issued
  // after it has completed, with the clock at that completion. The failure
  // is reported once; a second finish has nothing left to report.
  constexpr std::size_t size = 8_MiB;
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Node node(rank);
    auto queue = node.ctx.create_queue();
    ocl::BufferPtr buf = node.ctx.create_buffer(size);
    if (rank.rank() == 1) {
      node.runtime.enqueue_recv_buffer(*queue, buf, true, 0, size, 0, 2, rank.world(), {});
      return;
    }
    ocl::BufferPtr lost_buf = node.ctx.create_buffer(4_KiB);
    node.runtime.set_default_deadline(vt::milliseconds(1.0));
    auto lost = node.runtime.enqueue_recv_buffer(*queue, lost_buf, false, 0, 4_KiB, 1, 1,
                                                 rank.world(), {});
    node.runtime.set_default_deadline(vt::Duration{});
    auto send =
        node.runtime.enqueue_send_buffer(*queue, buf, false, 0, size, 1, 2, rank.world(), {});
    try {
      node.runtime.finish(rank.clock());
      ADD_FAILURE() << "finish swallowed the timed-out receive";
    } catch (const Error& e) {
      EXPECT_EQ(e.status(), Status::timeout) << e.what();
    }
    ASSERT_TRUE(send->complete());
    EXPECT_GT(send->completion_time().s, lost->completion_time().s);
    EXPECT_EQ(rank.clock().now().s, send->completion_time().s);
    EXPECT_NO_THROW(node.runtime.finish(rank.clock()));
  });
}

TEST(Runtime, FinishReleasesSettledCommands) {
  // The runtime holds a command's event only until a finish has seen it
  // settle.
  std::weak_ptr<ocl::Event> watched;
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Node node(rank);
    auto queue = node.ctx.create_queue();
    ocl::BufferPtr buf = node.ctx.create_buffer(4_KiB);
    if (rank.rank() == 1) {
      node.runtime.enqueue_recv_buffer(*queue, buf, true, 0, 4_KiB, 0, 0, rank.world(), {});
      return;
    }
    watched = node.runtime.enqueue_send_buffer(*queue, buf, false, 0, 4_KiB, 1, 0,
                                               rank.world(), {});
    node.runtime.finish(rank.clock());
    EXPECT_TRUE(watched.expired());
  });
}

TEST(EventFromRequest, GatesDeviceCommandOnMpi) {
  // Figure 7: rank 0 posts MPI_Irecv for host data from rank 1, runs a
  // kernel meanwhile, and writes the received data to the device only after
  // the MPI request completes — all chained through the event.
  constexpr std::size_t n = 64_KiB + 4096;  // rendezvous-sized
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Node node(rank);
    auto queue = node.ctx.create_queue();
    if (rank.rank() == 0) {
      std::vector<std::byte> host(n);
      mpi::Request req = rank.world().irecv(host, 1, 0, rank.clock());
      ocl::EventPtr mpi_done = node.runtime.event_from_request(req);

      ocl::BufferPtr buf = node.ctx.create_buffer(n);
      std::vector<ocl::EventPtr> waits{mpi_done};
      ocl::EventPtr written = queue->enqueue_write_buffer(buf, false, 0, n, host.data(),
                                                          waits, rank.clock());
      written->wait(rank.clock());
      EXPECT_GE(written->profiling().started.s, mpi_done->completion_time().s);
      EXPECT_TRUE(check_pattern(buf->storage(), 12));
    } else {
      rank.compute(vt::milliseconds(5.0));  // delay the send a little
      std::vector<std::byte> host(n);
      fill_pattern(host, 12);
      rank.world().send(host, 0, 0, rank.clock());
    }
  });
}

TEST(ClMemWrappers, HostToRemoteDevicePipelined) {
  // The nanopowder pattern: rank 0 sends 42 MB of host coefficients with
  // MPI_CL_MEM; rank 1 receives straight into a device buffer.
  constexpr std::size_t size = 42 * 1000 * 1000;
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Node node(rank);
    auto queue = node.ctx.create_queue();
    if (rank.rank() == 0) {
      std::vector<std::byte> coeffs(size);
      fill_pattern(coeffs, 21);
      mpi::Request req = node.runtime.isend_cl_mem(coeffs, 1, 0, rank.world());
      EXPECT_LT(rank.now_s(), 1e-3);  // non-blocking
      req.wait(rank.clock());
      EXPECT_EQ(req.status().bytes, size);
    } else {
      ocl::BufferPtr buf = node.ctx.create_buffer(size);
      node.runtime.enqueue_recv_buffer(*queue, buf, true, 0, size, 0, 0, rank.world(), {});
      EXPECT_TRUE(check_pattern(buf->storage(), 21));
    }
  });
}

TEST(ClMemWrappers, DeviceToRemoteHostBlocking) {
  constexpr std::size_t size = 8_MiB;
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Node node(rank);
    auto queue = node.ctx.create_queue();
    if (rank.rank() == 1) {
      ocl::BufferPtr buf = node.ctx.create_buffer(size);
      fill_pattern(buf->storage(), 33);
      node.runtime.enqueue_send_buffer(*queue, buf, true, 0, size, 0, 0, rank.world(), {});
    } else {
      std::vector<std::byte> host(size);
      node.runtime.recv_cl_mem(host, 1, 0, rank.world());
      EXPECT_TRUE(check_pattern(host, 33));
    }
  });
}

TEST(ClMemWrappers, SmallMessageFallsBackToPlainPath) {
  constexpr std::size_t size = 4_KiB;  // below the pipeline threshold
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Node node(rank);
    if (rank.rank() == 0) {
      std::vector<std::byte> data(size);
      fill_pattern(data, 2);
      node.runtime.send_cl_mem(data, 1, 0, rank.world());
    } else {
      std::vector<std::byte> data(size);
      node.runtime.recv_cl_mem(data, 0, 0, rank.world());
      EXPECT_TRUE(check_pattern(data, 2));
    }
  });
}

TEST(Overlap, CommQueueOverlapsComputeQueue) {
  // The essence of Figure 6: with communication on its own queue gated by
  // events, a long kernel and a long transfer overlap; makespan ~ max.
  constexpr std::size_t size = 16_MiB;
  const auto result = mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Node node(rank);
    auto q_comp = node.ctx.create_queue("comp");
    auto q_comm = node.ctx.create_queue("comm");
    ocl::BufferPtr halo = node.ctx.create_buffer(size);
    ocl::Program prog;
    prog.define("busy", [](const ocl::NDRange&, const ocl::KernelArgs&) {},
                ocl::fixed_cost(vt::milliseconds(30.0)));
    auto kernel = prog.create_kernel("busy");

    ocl::EventPtr k = q_comp->enqueue_ndrange(kernel, ocl::NDRange::linear(1), {},
                                              rank.clock());
    ocl::EventPtr c;
    if (rank.rank() == 0) {
      c = node.runtime.enqueue_send_buffer(*q_comm, halo, false, 0, size, 1, 0,
                                           rank.world(), {});
    } else {
      c = node.runtime.enqueue_recv_buffer(*q_comm, halo, false, 0, size, 0, 0,
                                           rank.world(), {});
    }
    k->wait(rank.clock());
    c->wait(rank.clock());
  });
  // Transfer alone ~ 16MB/1.35GBps ~ 12ms; kernel 30 ms. Overlapped: ~30 ms.
  EXPECT_LT(result.makespan_s, 0.040);
  EXPECT_GT(result.makespan_s, 0.029);
}

// --- C API -----------------------------------------------------------------------

TEST(CApi, Fig5Transliteration) {
  constexpr std::size_t bufsz = 2_MiB;
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank_ctx) {
    Node node(rank_ctx);
    capi::ThreadBinding binding(rank_ctx, node.runtime);

    cl_context ctx = clmpiCreateContext(node.ctx);
    cl_int err = CL_SUCCESS;
    cl_command_queue cmd = clCreateCommandQueue(ctx, &err);
    ASSERT_EQ(err, CL_SUCCESS);
    cl_mem buf = clCreateBuffer(ctx, bufsz, &err);
    ASSERT_EQ(err, CL_SUCCESS);

    int rank = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    EXPECT_EQ(rank, rank_ctx.rank());

    if (rank == 0) {
      fill_pattern(clmpiGetBuffer(buf)->storage(), 61);
      EXPECT_EQ(clEnqueueSendBuffer(cmd, buf, CL_TRUE, 0, bufsz, 1, 0, MPI_COMM_WORLD, 0,
                                    nullptr, nullptr),
                CL_SUCCESS);
    } else {
      cl_event evt = nullptr;
      EXPECT_EQ(clEnqueueRecvBuffer(cmd, buf, CL_FALSE, 0, bufsz, 0, 0, MPI_COMM_WORLD, 0,
                                    nullptr, &evt),
                CL_SUCCESS);
      ASSERT_NE(evt, nullptr);
      EXPECT_EQ(clWaitForEvents(1, &evt), CL_SUCCESS);
      EXPECT_TRUE(check_pattern(clmpiGetBuffer(buf)->storage(), 61));
      clReleaseEvent(evt);
    }
    clFinish(cmd);
    clReleaseMemObject(buf);
    clReleaseCommandQueue(cmd);
    clReleaseContext(ctx);
  });
}

TEST(CApi, Fig7HostDeviceInterop) {
  constexpr std::size_t bufsz = 1_MiB;
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank_ctx) {
    Node node(rank_ctx);
    capi::ThreadBinding binding(rank_ctx, node.runtime);
    cl_context ctx = clmpiCreateContext(node.ctx);
    cl_int err = CL_SUCCESS;
    cl_command_queue cmd = clCreateCommandQueue(ctx, &err);

    int rank = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);

    if (rank == 0) {
      // Receiving data from a remote device into host memory, then writing
      // it to the local device after the MPI request completes.
      std::vector<std::byte> recvbuf(bufsz);
      MPI_Request req;
      MPI_Irecv(recvbuf.data(), static_cast<int>(bufsz), MPI_CL_MEM, 1, 0, MPI_COMM_WORLD,
                &req);
      cl_event evt = clCreateEventFromMPIRequest(ctx, &req, &err);
      ASSERT_EQ(err, CL_SUCCESS);
      cl_mem dev = clCreateBuffer(ctx, bufsz, &err);
      EXPECT_EQ(clEnqueueWriteBuffer(cmd, dev, CL_FALSE, 0, bufsz, recvbuf.data(), 1, &evt,
                                     nullptr),
                CL_SUCCESS);
      clFinish(cmd);
      EXPECT_TRUE(check_pattern(clmpiGetBuffer(dev)->storage(), 88));
      clReleaseEvent(evt);
      clReleaseMemObject(dev);
    } else {
      cl_mem dev = clCreateBuffer(ctx, bufsz, &err);
      fill_pattern(clmpiGetBuffer(dev)->storage(), 88);
      EXPECT_EQ(clEnqueueSendBuffer(cmd, dev, CL_TRUE, 0, bufsz, 0, 0, MPI_COMM_WORLD, 0,
                                    nullptr, nullptr),
                CL_SUCCESS);
      clReleaseMemObject(dev);
    }
    clReleaseCommandQueue(cmd);
    clReleaseContext(ctx);
  });
}

TEST(CApi, ReadWriteMapUnmapRoundTrip) {
  mpi::Cluster::run(opts(1), [&](mpi::Rank& rank_ctx) {
    Node node(rank_ctx);
    capi::ThreadBinding binding(rank_ctx, node.runtime);
    cl_context ctx = clmpiCreateContext(node.ctx);
    cl_int err = CL_SUCCESS;
    cl_command_queue cmd = clCreateCommandQueue(ctx, &err);
    cl_mem buf = clCreateBuffer(ctx, 4096, &err);

    std::vector<std::byte> out(4096), in(4096);
    fill_pattern(out, 9);
    EXPECT_EQ(clEnqueueWriteBuffer(cmd, buf, CL_TRUE, 0, 4096, out.data(), 0, nullptr,
                                   nullptr),
              CL_SUCCESS);
    EXPECT_EQ(clEnqueueReadBuffer(cmd, buf, CL_TRUE, 0, 4096, in.data(), 0, nullptr,
                                  nullptr),
              CL_SUCCESS);
    EXPECT_TRUE(check_pattern(in, 9));

    void* p = clEnqueueMapBuffer(cmd, buf, CL_TRUE, 0, 4096, 0, nullptr, nullptr, &err);
    ASSERT_EQ(err, CL_SUCCESS);
    ASSERT_NE(p, nullptr);
    static_cast<std::byte*>(p)[0] = std::byte{0xAB};
    EXPECT_EQ(clEnqueueUnmapMemObject(cmd, buf, p, 0, nullptr, nullptr), CL_SUCCESS);
    clFinish(cmd);
    EXPECT_EQ(clmpiGetBuffer(buf)->storage()[0], std::byte{0xAB});

    clReleaseMemObject(buf);
    clReleaseCommandQueue(cmd);
    clReleaseContext(ctx);
  });
}

TEST(CApi, NullHandlesReportErrors) {
  EXPECT_EQ(clFinish(nullptr), CL_INVALID_COMMAND_QUEUE);
  EXPECT_EQ(clReleaseMemObject(nullptr), CL_INVALID_MEM_OBJECT);
  EXPECT_EQ(clReleaseEvent(nullptr), CL_INVALID_EVENT);
  EXPECT_EQ(clEnqueueReadBuffer(nullptr, nullptr, CL_TRUE, 0, 0, nullptr, 0, nullptr,
                                nullptr),
            CL_INVALID_COMMAND_QUEUE);
}

TEST(CApi, DatatypeSizes) {
  EXPECT_EQ(capi::datatype_size(MPI_BYTE), 1u);
  EXPECT_EQ(capi::datatype_size(MPI_INT), sizeof(int));
  EXPECT_EQ(capi::datatype_size(MPI_FLOAT), sizeof(float));
  EXPECT_EQ(capi::datatype_size(MPI_DOUBLE), sizeof(double));
  EXPECT_EQ(capi::datatype_size(MPI_CL_MEM), 1u);
}

}  // namespace
}  // namespace clmpi::rt
