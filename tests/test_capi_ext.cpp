// C API coverage for the extension commands (collective broadcast, file
// I/O) and the remaining MPI wrapper surface.
#include <gtest/gtest.h>

#include "test_util.hpp"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "clmpi/capi.h"
#include "obs/metrics.hpp"
#include "ocl/platform.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"

namespace clmpi {
namespace {

mpi::Cluster::Options opts(int nranks) {
  mpi::Cluster::Options o;
  o.nranks = nranks;
  o.profile = &sys::ricc();
  return o;
}

/// Per-rank C-API session: platform + runtime + bound thread + context/queue.
struct Session {
  explicit Session(mpi::Rank& rank)
      : platform(rank.profile(), rank.rank(), rank.tracer()),
        cxx_ctx(platform.device()),
        runtime(rank, platform.device()),
        binding(rank, runtime) {
    ctx = clmpiCreateContext(cxx_ctx);
    cl_int err = CL_SUCCESS;
    cmd = clCreateCommandQueue(ctx, &err);
    EXPECT_EQ(err, CL_SUCCESS);
  }
  ~Session() {
    clReleaseCommandQueue(cmd);
    clReleaseContext(ctx);
  }

  ocl::Platform platform;
  ocl::Context cxx_ctx;
  rt::Runtime runtime;
  capi::ThreadBinding binding;
  cl_context ctx{nullptr};
  cl_command_queue cmd{nullptr};
};

TEST(CApiExt, BcastBufferAcrossThreeRanks) {
  constexpr std::size_t size = 1_MiB;
  mpi::Cluster::run(opts(3), [&](mpi::Rank& rank) {
    Session s(rank);
    cl_int err = CL_SUCCESS;
    cl_mem buf = clCreateBuffer(s.ctx, size, &err);
    if (rank.rank() == 1) fill_pattern(clmpiGetBuffer(buf)->storage(), 3);

    cl_event evt = nullptr;
    EXPECT_EQ(clEnqueueBcastBuffer(s.cmd, buf, CL_TRUE, 0, size, /*root=*/1,
                                   MPI_COMM_WORLD, 0, nullptr, &evt),
              CL_SUCCESS);
    EXPECT_TRUE(check_pattern(clmpiGetBuffer(buf)->storage(), 3));
    clReleaseEvent(evt);
    clReleaseMemObject(buf);
  });
}

TEST(CApiExt, FileRoundTripWithEventChain) {
  const std::string path = testing::TempDir() + "clmpi_capi_file.bin";
  constexpr std::size_t size = 512_KiB;
  mpi::Cluster::run(opts(1), [&](mpi::Rank& rank) {
    Session s(rank);
    cl_int err = CL_SUCCESS;
    cl_mem src = clCreateBuffer(s.ctx, size, &err);
    cl_mem dst = clCreateBuffer(s.ctx, size, &err);
    fill_pattern(clmpiGetBuffer(src)->storage(), 9);

    cl_event written = nullptr;
    EXPECT_EQ(clEnqueueWriteFile(s.cmd, src, CL_FALSE, 0, size, path.c_str(), 0, nullptr,
                                 &written),
              CL_SUCCESS);
    EXPECT_EQ(clEnqueueReadFile(s.cmd, dst, CL_TRUE, 0, size, path.c_str(), 1, &written,
                                nullptr),
              CL_SUCCESS);
    EXPECT_TRUE(check_pattern(clmpiGetBuffer(dst)->storage(), 9));
    clReleaseEvent(written);
    clReleaseMemObject(src);
    clReleaseMemObject(dst);
  });
}

TEST(CApiExt, FileWithNullPathRejected) {
  mpi::Cluster::run(opts(1), [&](mpi::Rank& rank) {
    Session s(rank);
    cl_int err = CL_SUCCESS;
    cl_mem buf = clCreateBuffer(s.ctx, 64, &err);
    EXPECT_EQ(clEnqueueWriteFile(s.cmd, buf, CL_TRUE, 0, 64, nullptr, 0, nullptr, nullptr),
              CL_INVALID_VALUE);
    clReleaseMemObject(buf);
  });
}

TEST(CApiExt, MpiSendrecvAndBarrier) {
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Session s(rank);
    int self = -1, size = 0;
    MPI_Comm_rank(MPI_COMM_WORLD, &self);
    MPI_Comm_size(MPI_COMM_WORLD, &size);
    EXPECT_EQ(size, 2);

    double out = 10.0 * self, in = -1.0;
    const int peer = 1 - self;
    EXPECT_EQ(MPI_Sendrecv(&out, 1, MPI_DOUBLE, peer, 4, &in, 1, MPI_DOUBLE, peer, 4,
                           MPI_COMM_WORLD),
              MPI_SUCCESS);
    EXPECT_DOUBLE_EQ(in, 10.0 * peer);
    EXPECT_EQ(MPI_Barrier(MPI_COMM_WORLD), MPI_SUCCESS);
  });
}

TEST(CApiExt, MpiWaitallOverMixedRequests) {
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Session s(rank);
    int self = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &self);
    const int peer = 1 - self;
    std::vector<float> out(1024, static_cast<float>(self));
    std::vector<float> in(1024, -1.0f);
    MPI_Request reqs[2];
    MPI_Irecv(in.data(), 1024, MPI_FLOAT, peer, 1, MPI_COMM_WORLD, &reqs[0]);
    MPI_Isend(out.data(), 1024, MPI_FLOAT, peer, 1, MPI_COMM_WORLD, &reqs[1]);
    EXPECT_EQ(MPI_Waitall(2, reqs), MPI_SUCCESS);
    EXPECT_FLOAT_EQ(in[0], static_cast<float>(peer));
  });
}

TEST(CApiExt, EventRetainReleaseRefcount) {
  mpi::Cluster::run(opts(1), [&](mpi::Rank& rank) {
    Session s(rank);
    cl_int err = CL_SUCCESS;
    cl_mem buf = clCreateBuffer(s.ctx, 64, &err);
    std::vector<std::byte> host(64);
    cl_event evt = nullptr;
    clEnqueueWriteBuffer(s.cmd, buf, CL_TRUE, 0, 64, host.data(), 0, nullptr, &evt);
    ASSERT_NE(evt, nullptr);
    EXPECT_EQ(clRetainEvent(evt), CL_SUCCESS);
    EXPECT_EQ(clReleaseEvent(evt), CL_SUCCESS);  // refcount 2 -> 1
    EXPECT_EQ(clWaitForEvents(1, &evt), CL_SUCCESS);  // still alive
    EXPECT_EQ(clReleaseEvent(evt), CL_SUCCESS);  // destroys
    clReleaseMemObject(buf);
  });
}

TEST(CApiExt, SendBufferThroughCapiUsesRuntimePolicy) {
  constexpr std::size_t size = 16_MiB;  // pipelined on RICC
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Session s(rank);
    cl_int err = CL_SUCCESS;
    cl_mem buf = clCreateBuffer(s.ctx, size, &err);
    int self = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &self);
    if (self == 0) {
      fill_pattern(clmpiGetBuffer(buf)->storage(), 51);
      EXPECT_EQ(clEnqueueSendBuffer(s.cmd, buf, CL_TRUE, 0, size, 1, 0, MPI_COMM_WORLD, 0,
                                    nullptr, nullptr),
                CL_SUCCESS);
    } else {
      EXPECT_EQ(clEnqueueRecvBuffer(s.cmd, buf, CL_TRUE, 0, size, 0, 0, MPI_COMM_WORLD, 0,
                                    nullptr, nullptr),
                CL_SUCCESS);
      EXPECT_TRUE(check_pattern(clmpiGetBuffer(buf)->storage(), 51));
    }
    clReleaseMemObject(buf);
  });
}

// --- negative paths: every invalid input returns a defined code --------------
//
// The C API must never crash, hang, or leak a C++ exception across the C
// boundary; each case below pins the exact error constant.

TEST(CApiNegative, NullHandlesOnCommunicationCommands) {
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Session s(rank);
    cl_int err = CL_SUCCESS;
    cl_mem buf = clCreateBuffer(s.ctx, 64, &err);
    EXPECT_EQ(clEnqueueSendBuffer(nullptr, buf, CL_TRUE, 0, 64, 1, 0, MPI_COMM_WORLD, 0,
                                  nullptr, nullptr),
              CL_INVALID_COMMAND_QUEUE);
    EXPECT_EQ(clEnqueueSendBuffer(s.cmd, nullptr, CL_TRUE, 0, 64, 1, 0, MPI_COMM_WORLD, 0,
                                  nullptr, nullptr),
              CL_INVALID_MEM_OBJECT);
    EXPECT_EQ(clEnqueueSendBuffer(s.cmd, buf, CL_TRUE, 0, 64, 1, 0, nullptr, 0, nullptr,
                                  nullptr),
              CLMPI_INVALID_COMMUNICATOR);
    EXPECT_EQ(clEnqueueRecvBuffer(nullptr, buf, CL_TRUE, 0, 64, 1, 0, MPI_COMM_WORLD, 0,
                                  nullptr, nullptr),
              CL_INVALID_COMMAND_QUEUE);
    EXPECT_EQ(clEnqueueRecvBuffer(s.cmd, buf, CL_TRUE, 0, 64, 1, 0, nullptr, 0, nullptr,
                                  nullptr),
              CLMPI_INVALID_COMMUNICATOR);
    clReleaseMemObject(buf);
  });
}

TEST(CApiNegative, TransferRegionAndPeerValidation) {
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Session s(rank);
    cl_int err = CL_SUCCESS;
    cl_mem buf = clCreateBuffer(s.ctx, 256, &err);
    // Region outside the buffer (offset + size overflow-safe).
    EXPECT_EQ(clEnqueueSendBuffer(s.cmd, buf, CL_TRUE, 128, 256, 1, 0, MPI_COMM_WORLD, 0,
                                  nullptr, nullptr),
              CL_INVALID_VALUE);
    EXPECT_EQ(clEnqueueSendBuffer(s.cmd, buf, CL_TRUE, 512, 1, 1, 0, MPI_COMM_WORLD, 0,
                                  nullptr, nullptr),
              CL_INVALID_VALUE);
    // offset + size wraps to 8; the OpenCL read path rejects it as misuse.
    std::byte host[16];
    EXPECT_EQ(clEnqueueReadBuffer(s.cmd, buf, CL_TRUE, SIZE_MAX - 7, 16, host, 0, nullptr,
                                  nullptr),
              CL_INVALID_OPERATION);
    // Zero-size device transfers are legal and must succeed (matched pair).
    if (rank.rank() == 0) {
      EXPECT_EQ(clEnqueueSendBuffer(s.cmd, buf, CL_TRUE, 0, 0, 1, 5, MPI_COMM_WORLD, 0,
                                    nullptr, nullptr),
                CL_SUCCESS);
    } else {
      EXPECT_EQ(clEnqueueRecvBuffer(s.cmd, buf, CL_TRUE, 0, 0, 0, 5, MPI_COMM_WORLD, 0,
                                    nullptr, nullptr),
                CL_SUCCESS);
    }
    // Peer outside the communicator.
    EXPECT_EQ(clEnqueueSendBuffer(s.cmd, buf, CL_TRUE, 0, 64, 7, 0, MPI_COMM_WORLD, 0,
                                  nullptr, nullptr),
              CLMPI_INVALID_RANK);
    EXPECT_EQ(clEnqueueRecvBuffer(s.cmd, buf, CL_TRUE, 0, 64, -1, 0, MPI_COMM_WORLD, 0,
                                  nullptr, nullptr),
              CLMPI_INVALID_RANK);
    // Tags must be in [0, max_user_tag].
    EXPECT_EQ(clEnqueueSendBuffer(s.cmd, buf, CL_TRUE, 0, 64, 1, -3, MPI_COMM_WORLD, 0,
                                  nullptr, nullptr),
              CLMPI_INVALID_TAG);
    EXPECT_EQ(clEnqueueRecvBuffer(s.cmd, buf, CL_TRUE, 0, 64, 1, 1 << 30, MPI_COMM_WORLD, 0,
                                  nullptr, nullptr),
              CLMPI_INVALID_TAG);
    clReleaseMemObject(buf);
  });
}

TEST(CApiNegative, ReleasedEventReuseIsDetected) {
  mpi::Cluster::run(opts(1), [&](mpi::Rank& rank) {
    Session s(rank);
    cl_int err = CL_SUCCESS;
    cl_mem buf = clCreateBuffer(s.ctx, 64, &err);
    std::vector<std::byte> host(64);
    cl_event evt = nullptr;
    ASSERT_EQ(clEnqueueWriteBuffer(s.cmd, buf, CL_TRUE, 0, 64, host.data(), 0, nullptr,
                                   &evt),
              CL_SUCCESS);
    ASSERT_NE(evt, nullptr);
    ASSERT_EQ(clReleaseEvent(evt), CL_SUCCESS);
    // The handle is dead: every further use fails cleanly instead of
    // dereferencing freed memory.
    EXPECT_EQ(clWaitForEvents(1, &evt), CL_INVALID_EVENT);
    EXPECT_EQ(clRetainEvent(evt), CL_INVALID_EVENT);
    EXPECT_EQ(clReleaseEvent(evt), CL_INVALID_EVENT);
    // A wait list mentioning the dead handle is rejected as a whole.
    cl_event dead_list[1] = {evt};
    EXPECT_EQ(clEnqueueWriteBuffer(s.cmd, buf, CL_TRUE, 0, 64, host.data(), 1, dead_list,
                                   nullptr),
              CL_INVALID_EVENT_WAIT_LIST);
    clReleaseMemObject(buf);
  });
}

TEST(CApiNegative, WaitForEventsArgumentValidation) {
  mpi::Cluster::run(opts(1), [&](mpi::Rank& rank) {
    Session s(rank);
    EXPECT_EQ(clWaitForEvents(0, nullptr), CL_INVALID_VALUE);
    cl_event bogus = nullptr;
    EXPECT_EQ(clWaitForEvents(1, &bogus), CL_INVALID_EVENT);
    EXPECT_EQ(clRetainEvent(nullptr), CL_INVALID_EVENT);
    EXPECT_EQ(clReleaseEvent(nullptr), CL_INVALID_EVENT);
  });
}

TEST(CApiNegative, EventFromInvalidRequest) {
  mpi::Cluster::run(opts(1), [&](mpi::Rank& rank) {
    Session s(rank);
    cl_int err = CL_SUCCESS;
    EXPECT_EQ(clCreateEventFromMPIRequest(s.ctx, nullptr, &err), nullptr);
    EXPECT_EQ(err, CLMPI_INVALID_REQUEST);
    MPI_Request empty;  // default-constructed, no operation behind it
    err = CL_SUCCESS;
    EXPECT_EQ(clCreateEventFromMPIRequest(s.ctx, &empty, &err), nullptr);
    EXPECT_EQ(err, CLMPI_INVALID_REQUEST);
  });
}

TEST(CApiNegative, MpiWrapperArgumentValidation) {
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Session s(rank);
    std::vector<int> v(16, 0);
    MPI_Request req;
    // Rank/tag/count/buffer/comm/request checks return MPI error classes.
    EXPECT_EQ(MPI_Isend(v.data(), 16, MPI_INT, 9, 0, MPI_COMM_WORLD, &req), MPI_ERR_RANK);
    EXPECT_EQ(MPI_Isend(v.data(), 16, MPI_INT, 1, -2, MPI_COMM_WORLD, &req), MPI_ERR_TAG);
    EXPECT_EQ(MPI_Isend(nullptr, 16, MPI_INT, 1, 0, MPI_COMM_WORLD, &req), MPI_ERR_BUFFER);
    EXPECT_EQ(MPI_Isend(v.data(), -1, MPI_INT, 1, 0, MPI_COMM_WORLD, &req), MPI_ERR_COUNT);
    EXPECT_EQ(MPI_Isend(v.data(), 16, MPI_INT, 1, 0, nullptr, &req), MPI_ERR_COMM);
    EXPECT_EQ(MPI_Isend(v.data(), 16, MPI_INT, 1, 0, MPI_COMM_WORLD, nullptr),
              MPI_ERR_REQUEST);
    EXPECT_EQ(MPI_Irecv(v.data(), 16, MPI_INT, 9, 0, MPI_COMM_WORLD, &req), MPI_ERR_RANK);
    EXPECT_EQ(MPI_Irecv(v.data(), 16, MPI_INT, 0, 0, MPI_COMM_WORLD, nullptr),
              MPI_ERR_REQUEST);
    EXPECT_EQ(MPI_Wait(nullptr), MPI_ERR_REQUEST);
    EXPECT_EQ(MPI_Barrier(nullptr), MPI_ERR_COMM);
    int x = 0;
    EXPECT_EQ(MPI_Comm_rank(nullptr, &x), MPI_ERR_COMM);
    EXPECT_EQ(MPI_Comm_rank(MPI_COMM_WORLD, nullptr), MPI_ERR_ARG);
    EXPECT_EQ(MPI_Comm_size(nullptr, &x), MPI_ERR_COMM);
    // A rank that only probes invalid arguments must not desync the other:
    // both ranks run the identical body, and none of the calls above posts
    // a message.
  });
}

TEST(CApiNegative, ZeroByteMessagesSucceed) {
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Session s(rank);
    int self = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &self);
    const int peer = 1 - self;
    // count == 0 is a legal empty message, even with a null buffer.
    if (self == 0) {
      EXPECT_EQ(MPI_Send(nullptr, 0, MPI_BYTE, peer, 5, MPI_COMM_WORLD), MPI_SUCCESS);
    } else {
      EXPECT_EQ(MPI_Recv(nullptr, 0, MPI_BYTE, peer, 5, MPI_COMM_WORLD), MPI_SUCCESS);
    }
  });
}

TEST(CApiExt, OperationTimeoutKnobRoundTrips) {
  mpi::Cluster::run(opts(1), [&](mpi::Rank& rank) {
    Session s(rank);
    double seconds = -1.0;
    // Deadlines are off by default.
    EXPECT_EQ(clmpiGetOperationTimeout(&seconds), CL_SUCCESS);
    EXPECT_DOUBLE_EQ(seconds, 0.0);

    EXPECT_EQ(clmpiSetOperationTimeout(0.25), CL_SUCCESS);
    EXPECT_EQ(clmpiGetOperationTimeout(&seconds), CL_SUCCESS);
    EXPECT_DOUBLE_EQ(seconds, 0.25);

    // Invalid values are rejected without disturbing the current setting.
    EXPECT_EQ(clmpiSetOperationTimeout(-1.0), CL_INVALID_VALUE);
    EXPECT_EQ(clmpiSetOperationTimeout(std::nan("")), CL_INVALID_VALUE);
    EXPECT_EQ(clmpiGetOperationTimeout(nullptr), CL_INVALID_VALUE);
    EXPECT_EQ(clmpiGetOperationTimeout(&seconds), CL_SUCCESS);
    EXPECT_DOUBLE_EQ(seconds, 0.25);

    // Zero switches deadlines back off.
    EXPECT_EQ(clmpiSetOperationTimeout(0.0), CL_SUCCESS);
    EXPECT_EQ(clmpiGetOperationTimeout(&seconds), CL_SUCCESS);
    EXPECT_DOUBLE_EQ(seconds, 0.0);
  });
}

TEST(CApiExt, ListCountersTwoCallHammerUnderRegistryGrowth) {
  auto& reg = obs::Registry::instance();
  reg.counter("hammer.base").add();

  // Deterministic stale-size truncation: the registry grows between the size
  // query and the fill call, so the stale capacity no longer suffices. The
  // fill must cut at a complete name, NUL-terminate, re-report the CURRENT
  // size, and return CLMPI_TRUNCATED — and the retry with the fresh size
  // must succeed.
  std::size_t stale = 0;
  ASSERT_EQ(clmpiListCounters(nullptr, 0, &stale), CL_SUCCESS);
  ASSERT_GT(stale, 0u);
  for (int i = 0; i < 8; ++i) {
    reg.counter("hammer.late." + std::to_string(i)).add();
  }
  std::vector<char> buf(stale);
  std::size_t fresh = 0;
  ASSERT_EQ(clmpiListCounters(buf.data(), buf.size(), &fresh), CLMPI_TRUNCATED);
  EXPECT_GT(fresh, stale);
  const char* nul = static_cast<const char*>(std::memchr(buf.data(), '\0', buf.size()));
  ASSERT_NE(nul, nullptr);
  if (nul != buf.data()) {
    EXPECT_EQ(*(nul - 1), '\n');  // cut at a complete name, never mid-name
  }
  buf.assign(fresh, '\0');
  ASSERT_EQ(clmpiListCounters(buf.data(), buf.size(), &fresh), CL_SUCCESS);
  EXPECT_NE(std::string(buf.data()).find("hammer.late.7\n"), std::string::npos);

  // Racy hammer: a registrar thread keeps registering counters while the
  // two-call pattern loops. Every fill must terminate cleanly (no overflow,
  // no partial names) whatever interleaving the race produces.
  std::atomic<bool> stop{false};
  std::thread registrar([&] {
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      obs::Registry::instance().counter("hammer.dyn." + std::to_string(i % 512)).add();
    }
  });
  for (int iter = 0; iter < 200; ++iter) {
    std::size_t needed = 0;
    ASSERT_EQ(clmpiListCounters(nullptr, 0, &needed), CL_SUCCESS);
    std::vector<char> fill(needed);
    std::size_t now = 0;
    const cl_int rc = clmpiListCounters(fill.data(), fill.size(), &now);
    ASSERT_TRUE(rc == CL_SUCCESS || rc == CLMPI_TRUNCATED) << "iteration " << iter;
    EXPECT_GE(now, needed);
    const char* end = static_cast<const char*>(std::memchr(fill.data(), '\0', fill.size()));
    ASSERT_NE(end, nullptr) << "unterminated fill, iteration " << iter;
    if (end != fill.data()) {
      EXPECT_EQ(*(end - 1), '\n');
    }
  }
  stop.store(true);
  registrar.join();

  // Degenerate capacities: no room for even the NUL, and room for only it.
  char tiny = 0x7f;
  EXPECT_EQ(clmpiListCounters(&tiny, 0, nullptr), CLMPI_TRUNCATED);
  EXPECT_EQ(tiny, 0x7f);  // cap 0: untouched
  EXPECT_EQ(clmpiListCounters(&tiny, 1, nullptr), CLMPI_TRUNCATED);
  EXPECT_EQ(tiny, '\0');  // cap 1: just the terminator
}

TEST(CApiNegative, RmaWindowTypedStatuses) {
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    Session s(rank);
    const int peer = 1 - rank.rank();
    cl_int err = CL_SUCCESS;
    cl_mem buf = clCreateBuffer(s.ctx, 4_KiB, &err);

    // Creation argument errors (reported before the collective begins, so
    // both ranks fail symmetrically and stay in lockstep).
    EXPECT_EQ(clmpiCreateWindow(nullptr, 0, 16, MPI_COMM_WORLD, &err), nullptr);
    EXPECT_EQ(err, CLMPI_INVALID_MEM_OBJECT);
    EXPECT_EQ(clmpiCreateWindow(buf, 0, 16, nullptr, &err), nullptr);
    EXPECT_EQ(err, CLMPI_INVALID_COMMUNICATOR);
    EXPECT_EQ(clmpiCreateWindow(buf, 4_KiB, 16, MPI_COMM_WORLD, &err), nullptr);
    EXPECT_EQ(err, CL_INVALID_VALUE);

    clmpi_window win = clmpiCreateWindow(buf, 0, 256, MPI_COMM_WORLD, &err);
    ASSERT_EQ(err, CL_SUCCESS);
    ASSERT_NE(win, nullptr);

    // A put posted before any fence: no access epoch is open. The failure is
    // typed and surfaces through the blocking wait on the command's event.
    EXPECT_EQ(clEnqueuePutBuffer(s.cmd, buf, CL_TRUE, 0, 16, peer, 0, win, 0, nullptr,
                                 nullptr),
              CLMPI_RMA_EPOCH);

    // Out-of-bounds accesses and bad ranks are rejected eagerly, typed.
    EXPECT_EQ(clEnqueuePutBuffer(s.cmd, buf, CL_FALSE, 0, 16, peer, 512, win, 0, nullptr,
                                 nullptr),
              CL_INVALID_VALUE);  // past the 256 B target region
    EXPECT_EQ(clEnqueueGetBuffer(s.cmd, buf, CL_FALSE, 4_KiB, 16, peer, 0, win, 0, nullptr,
                                 nullptr),
              CL_INVALID_VALUE);  // past the local buffer
    EXPECT_EQ(clEnqueuePutBuffer(s.cmd, buf, CL_FALSE, 0, 16, 5, 0, win, 0, nullptr,
                                 nullptr),
              CLMPI_INVALID_RANK);

    // Null / stale window handles.
    EXPECT_EQ(clEnqueuePutBuffer(s.cmd, buf, CL_FALSE, 0, 16, peer, 0, nullptr, 0, nullptr,
                                 nullptr),
              CLMPI_INVALID_WINDOW);
    EXPECT_EQ(clEnqueueWindowFence(s.cmd, nullptr, CL_TRUE, 0, nullptr, nullptr),
              CLMPI_INVALID_WINDOW);

    EXPECT_EQ(clmpiFreeWindow(win), CL_SUCCESS);  // collective
    EXPECT_EQ(clmpiFreeWindow(win), CLMPI_INVALID_WINDOW);
    EXPECT_EQ(clEnqueuePutBuffer(s.cmd, buf, CL_FALSE, 0, 16, peer, 0, win, 0, nullptr,
                                 nullptr),
              CLMPI_INVALID_WINDOW);
    EXPECT_EQ(clEnqueueGetBuffer(s.cmd, buf, CL_FALSE, 0, 16, peer, 0, win, 0, nullptr,
                                 nullptr),
              CLMPI_INVALID_WINDOW);

    clReleaseMemObject(buf);
  });
}

}  // namespace
}  // namespace clmpi
