// Tests for the non-blocking collectives (MPI-3.0; paper §VI future work)
// and their integration with the clMPI event machinery, including the
// device-buffer broadcast command.
#include <gtest/gtest.h>

#include "test_util.hpp"

#include <array>
#include <cstdint>
#include <numeric>
#include <vector>

#include "clmpi/runtime.hpp"
#include "ocl/context.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "simmpi/cluster.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"

namespace clmpi {
namespace {

mpi::Cluster::Options opts(int nranks, const sys::SystemProfile& prof = sys::ricc()) {
  mpi::Cluster::Options o;
  o.nranks = nranks;
  o.profile = &prof;
  return o;
}

std::span<const std::byte> bytes_of(const auto& v) { return std::as_bytes(std::span(v)); }
std::span<std::byte> mut_bytes_of(auto& v) { return std::as_writable_bytes(std::span(v)); }

class NbRanks : public ::testing::TestWithParam<int> {};

TEST_P(NbRanks, IbcastDeliversEverywhere) {
  const int n = GetParam();
  mpi::Cluster::run(opts(n), [](mpi::Rank& rank) {
    std::vector<int> data(256, rank.rank() == 1 % rank.size() ? 777 : -1);
    mpi::Request req =
        rank.world().ibcast(mut_bytes_of(data), 1 % rank.size(), rank.clock());
    req.wait(rank.clock());
    EXPECT_EQ(data[0], 777);
    EXPECT_EQ(data[255], 777);
  });
}

TEST_P(NbRanks, IallreduceSums) {
  const int n = GetParam();
  mpi::Cluster::run(opts(n), [n](mpi::Rank& rank) {
    std::vector<double> mine(16, rank.rank() + 1.0);
    std::vector<double> total(16, 0.0);
    mpi::Request req = rank.world().iallreduce(bytes_of(mine), mut_bytes_of(total),
                                               mpi::Datatype::float64, mpi::ReduceOp::sum,
                                               rank.clock());
    req.wait(rank.clock());
    EXPECT_DOUBLE_EQ(total[7], n * (n + 1) / 2.0);
  });
}

TEST_P(NbRanks, IbarrierSynchronizes) {
  const int n = GetParam();
  mpi::Cluster::run(opts(n), [](mpi::Rank& rank) {
    if (rank.rank() == 0) rank.compute(vt::milliseconds(25.0));
    mpi::Request req = rank.world().ibarrier(rank.clock());
    req.wait(rank.clock());
    if (rank.size() > 1) {
      EXPECT_GT(rank.now_s(), 0.025);
    }
  });
}

TEST_P(NbRanks, IgatherCollectsInOrder) {
  const int n = GetParam();
  mpi::Cluster::run(opts(n), [n](mpi::Rank& rank) {
    std::vector<int> mine{rank.rank() * 3};
    std::vector<int> all(static_cast<std::size_t>(n), -1);
    mpi::Request req =
        rank.world().igather(bytes_of(mine), mut_bytes_of(all), 0, rank.clock());
    req.wait(rank.clock());
    if (rank.rank() == 0) {
      for (int r = 0; r < n; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 3);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, NbRanks, ::testing::Values(1, 2, 3, 5, 8));

TEST(NonBlockingCollectives, HostIsNotBlocked) {
  mpi::Cluster::run(opts(4), [](mpi::Rank& rank) {
    std::vector<std::byte> data(8u << 20);  // a hefty broadcast
    mpi::Request req = rank.world().ibcast(data, 0, rank.clock());
    EXPECT_LT(rank.now_s(), 1e-3);  // returned immediately
    rank.compute(vt::milliseconds(2.0));
    req.wait(rank.clock());
    EXPECT_GE(rank.now_s(), 0.002);
  });
}

TEST(NonBlockingCollectives, TwoOutstandingDoNotCrossMatch) {
  // Two ibcasts in flight simultaneously, different payloads: sequence
  // stamping keeps their wire traffic apart.
  mpi::Cluster::run(opts(3), [](mpi::Rank& rank) {
    std::vector<int> a(64, rank.rank() == 0 ? 11 : -1);
    std::vector<int> b(64, rank.rank() == 0 ? 22 : -1);
    mpi::Request ra = rank.world().ibcast(mut_bytes_of(a), 0, rank.clock());
    mpi::Request rb = rank.world().ibcast(mut_bytes_of(b), 0, rank.clock());
    rb.wait(rank.clock());
    ra.wait(rank.clock());
    EXPECT_EQ(a[0], 11);
    EXPECT_EQ(b[0], 22);
  });
}

TEST(NonBlockingCollectives, MixesWithBlockingCollectives) {
  mpi::Cluster::run(opts(4), [](mpi::Rank& rank) {
    std::vector<int> x(16, rank.rank() == 0 ? 5 : -1);
    mpi::Request req = rank.world().ibcast(mut_bytes_of(x), 0, rank.clock());
    // A blocking barrier issued while the ibcast is still in flight.
    rank.world().barrier(rank.clock());
    req.wait(rank.clock());
    EXPECT_EQ(x[0], 5);
  });
}

TEST(NonBlockingCollectives, EventFromRequestChainsDeviceWork) {
  // The §VI loop closed: an OpenCL command gated on a non-blocking
  // collective through clCreateEventFromMPIRequest.
  mpi::Cluster::run(opts(3), [](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    rt::Runtime runtime(rank, platform.device());
    auto queue = ctx.create_queue();

    std::vector<float> host(1024, rank.rank() == 0 ? 1.5f : 0.0f);
    mpi::Request req = rank.world().ibcast(mut_bytes_of(host), 0, rank.clock());
    ocl::EventPtr done = runtime.event_from_request(req);

    ocl::BufferPtr buf = ctx.create_buffer(host.size() * sizeof(float));
    const std::array<ocl::EventPtr, 1> waits{done};
    ocl::EventPtr written = queue->enqueue_write_buffer(
        buf, false, 0, buf->size(), host.data(), waits, rank.clock());
    written->wait(rank.clock());
    EXPECT_GE(written->profiling().started.s, done->completion_time().s);
    EXPECT_FLOAT_EQ(buf->as<float>()[1023], 1.5f);
  });
}

TEST(NonBlockingCollectives, FailedCollectiveRethrowsOnWait) {
  mpi::Cluster::run(opts(2), [](mpi::Rank& rank) {
    std::vector<int> tiny(1);
    // Invalid root: the progression thread fails and the request carries it.
    mpi::Request req = rank.world().ibcast(mut_bytes_of(tiny), 9, rank.clock());
    try {
      req.wait(rank.clock());
      ADD_FAILURE() << "invalid root was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.status(), Status::invalid_rank);
    }
  });
}

// --- the device-buffer broadcast command --------------------------------------

class BcastBufferRanks : public ::testing::TestWithParam<int> {};

TEST_P(BcastBufferRanks, BroadcastsDeviceMemory) {
  const int n = GetParam();
  constexpr std::size_t size = 3_MiB;
  mpi::Cluster::run(opts(n), [&](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    rt::Runtime runtime(rank, platform.device());
    auto queue = ctx.create_queue();
    ocl::BufferPtr buf = ctx.create_buffer(size);
    if (rank.rank() == 0) fill_pattern(buf->storage(), 31);

    ocl::EventPtr ev = runtime.enqueue_bcast_buffer(*queue, buf, /*blocking=*/true, 0, size,
                                                    /*root=*/0, rank.world(), {});
    EXPECT_TRUE(check_pattern(buf->storage(), 31));
    EXPECT_TRUE(ev->complete());
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, BcastBufferRanks, ::testing::Values(1, 2, 4, 8));

TEST(BcastBuffer, ChainsOnKernelEvents) {
  // Root's kernel produces the data; the broadcast waits for it via the
  // event, and a dependent kernel on every rank waits for the broadcast.
  constexpr std::size_t n = 4096;
  mpi::Cluster::run(opts(3), [&](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    rt::Runtime runtime(rank, platform.device());
    auto queue = ctx.create_queue();
    ocl::BufferPtr buf = ctx.create_buffer(n * sizeof(float));

    ocl::Program prog;
    prog.define(
        "fill",
        [](const ocl::NDRange& r, const ocl::KernelArgs& args) {
          auto out = args.span_of<float>(0);
          for (std::size_t i = 0; i < r.total(); ++i) out[i] = 9.0f;
        },
        ocl::flops_per_item(1.0));

    std::vector<ocl::EventPtr> waits;
    if (rank.rank() == 0) {
      auto kernel = prog.create_kernel("fill");
      kernel->set_arg(0, buf);
      waits.push_back(queue->enqueue_ndrange(kernel, ocl::NDRange::linear(n), {},
                                             rank.clock()));
    }
    ocl::EventPtr bc = runtime.enqueue_bcast_buffer(*queue, buf, false, 0, buf->size(), 0,
                                                    rank.world(), waits);
    bc->wait(rank.clock());
    EXPECT_FLOAT_EQ(buf->as<float>()[n - 1], 9.0f);
  });
}

TEST(BcastBuffer, InvalidRegionPoisonsEvent) {
  mpi::Cluster::run(opts(1), [&](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    rt::Runtime runtime(rank, platform.device());
    auto queue = ctx.create_queue();
    ocl::BufferPtr buf = ctx.create_buffer(64);
    EXPECT_THROW(
        runtime.enqueue_bcast_buffer(*queue, buf, false, 32, 64, 0, rank.world(), {}),
        PreconditionError);
    // offset + size wraps to 8, which would pass a naive bounds check.
    EXPECT_THROW(runtime.enqueue_bcast_buffer(*queue, buf, false, SIZE_MAX - 7, 16, 0,
                                              rank.world(), {}),
                 PreconditionError);
  });
}

}  // namespace
}  // namespace clmpi
