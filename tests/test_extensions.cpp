// Tests for the extension features beyond the paper's evaluated core:
// file-I/O commands (§VI), out-of-order queues, multiple communicator
// devices per rank, and the GPUDirect RDMA upgrade path.
#include <gtest/gtest.h>

#include "test_util.hpp"

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "clmpi/runtime.hpp"
#include "ocl/context.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "simmpi/cluster.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"
#include "transfer/strategy.hpp"

namespace clmpi {
namespace {

mpi::Cluster::Options opts(int nranks, const sys::SystemProfile& prof = sys::ricc()) {
  mpi::Cluster::Options o;
  o.nranks = nranks;
  o.profile = &prof;
  return o;
}

// --- file I/O commands -----------------------------------------------------------

TEST(FileIo, WriteThenReadRoundTripsThroughDisk) {
  const std::string path = testing::TempDir() + "clmpi_checkpoint.bin";
  constexpr std::size_t size = 2_MiB;
  mpi::Cluster::run(opts(1, sys::cichlid()), [&](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    rt::Runtime runtime(rank, platform.device());
    auto queue = ctx.create_queue();

    ocl::BufferPtr src = ctx.create_buffer(size);
    fill_pattern(src->storage(), 13);
    // offset + size wraps to 8, which would pass a naive bounds check.
    EXPECT_THROW(runtime.enqueue_write_file(*queue, src, false, SIZE_MAX - 7, 16, path, {}),
                 PreconditionError);
    ocl::EventPtr written =
        runtime.enqueue_write_file(*queue, src, false, 0, size, path, {});

    ocl::BufferPtr dst = ctx.create_buffer(size);
    const std::array<ocl::EventPtr, 1> waits{written};
    EXPECT_THROW(runtime.enqueue_read_file(*queue, dst, false, SIZE_MAX - 7, 16, path, waits),
                 PreconditionError);
    ocl::EventPtr loaded = runtime.enqueue_read_file(*queue, dst, true, 0, size, path, waits);

    EXPECT_TRUE(check_pattern(dst->storage(), 13));
    // The read started only after the write completed.
    EXPECT_GE(loaded->profiling().started.s, written->completion_time().s);
    // The virtual cost covers at least two storage passes of the payload.
    const double min_io = 2.0 * rank.profile().storage.of(size).s;
    EXPECT_GE(rank.now_s(), min_io);
  });
}

TEST(FileIo, HostIsNotBlockedByCheckpoint) {
  const std::string path = testing::TempDir() + "clmpi_ckpt2.bin";
  mpi::Cluster::run(opts(1, sys::cichlid()), [&](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    rt::Runtime runtime(rank, platform.device());
    auto queue = ctx.create_queue();
    ocl::BufferPtr buf = ctx.create_buffer(8_MiB);
    runtime.enqueue_write_file(*queue, buf, false, 0, buf->size(), path, {});
    EXPECT_LT(rank.now_s(), 1e-3);  // ~90 ms of virtual disk time, host free
    runtime.finish(rank.clock());
    EXPECT_GT(rank.now_s(), 0.05);
  });
}

TEST(FileIo, EventLabelNamesThePath) {
  const std::string path = testing::TempDir() + "clmpi_label.bin";
  mpi::Cluster::run(opts(1), [&](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    rt::Runtime runtime(rank, platform.device());
    auto queue = ctx.create_queue();
    ocl::BufferPtr buf = ctx.create_buffer(64);
    ocl::EventPtr written = runtime.enqueue_write_file(*queue, buf, true, 0, 64, path, {});
    ocl::EventPtr loaded = runtime.enqueue_read_file(*queue, buf, true, 0, 64, path, {});
    EXPECT_EQ(written->label(), "clEnqueueWriteFile " + path);
    EXPECT_EQ(loaded->label(), "clEnqueueReadFile " + path);
  });
  std::remove(path.c_str());
}

TEST(FileIo, MissingFilePoisonsTheEvent) {
  mpi::Cluster::run(opts(1), [&](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    rt::Runtime runtime(rank, platform.device());
    auto queue = ctx.create_queue();
    ocl::BufferPtr buf = ctx.create_buffer(64);
    ocl::EventPtr ev = runtime.enqueue_read_file(*queue, buf, false, 0, 64,
                                                 "/nonexistent/clmpi.bin", {});
    EXPECT_THROW(ev->wait(rank.clock()), PreconditionError);
  });
}

// --- out-of-order queues ----------------------------------------------------------

TEST(OutOfOrder, IndependentCommandsOverlapInVirtualTime) {
  testutil::on_strand([&] {
    ocl::Platform platform(sys::cichlid(), 0, nullptr);
    ocl::Context ctx(platform.device());
    auto queue = ctx.create_queue("ooo", ocl::QueueOrder::out_of_order);
    vt::Clock clock;

    ocl::Program prog;
    prog.define("busy", [](const ocl::NDRange&, const ocl::KernelArgs&) {},
                ocl::fixed_cost(vt::milliseconds(10.0)));
    auto kernel = prog.create_kernel("busy");

    // A 10 ms kernel followed by a DMA on the same queue: out-of-order, they
    // overlap (different engines); in-order they would serialize.
    ocl::BufferPtr buf = ctx.create_buffer(16_MiB);
    std::vector<std::byte> host(buf->size());
    ocl::EventPtr k = queue->enqueue_ndrange(kernel, ocl::NDRange::linear(1), {}, clock);
    ocl::EventPtr w =
        queue->enqueue_write_buffer(buf, false, 0, host.size(), host.data(), {}, clock);
    k->wait(clock);
    w->wait(clock);
    EXPECT_LT(w->profiling().started.s, 0.005);  // started before the kernel ended
    EXPECT_LT(clock.now().s, 0.015);             // makespan ~ max, not sum
  });
}

TEST(OutOfOrder, WaitListsStillGate) {
  testutil::on_strand([&] {
    ocl::Platform platform(sys::cichlid(), 0, nullptr);
    ocl::Context ctx(platform.device());
    auto queue = ctx.create_queue("ooo", ocl::QueueOrder::out_of_order);
    vt::Clock clock;
    auto gate = ctx.create_user_event();
    ocl::BufferPtr buf = ctx.create_buffer(64);
    const int v = 5;
    const std::array<ocl::EventPtr, 1> waits{gate};
    ocl::EventPtr w = queue->enqueue_write_buffer(buf, false, 0, sizeof(int), &v, waits, clock);
    gate->set_complete(vt::TimePoint{0.25});
    w->wait(clock);
    EXPECT_GE(w->profiling().started.s, 0.25);
  });
}

TEST(OutOfOrder, BarrierRestoresOrdering) {
  testutil::on_strand([&] {
    ocl::Platform platform(sys::cichlid(), 0, nullptr);
    ocl::Context ctx(platform.device());
    auto queue = ctx.create_queue("ooo", ocl::QueueOrder::out_of_order);
    vt::Clock clock;
    ocl::Program prog;
    prog.define("busy", [](const ocl::NDRange&, const ocl::KernelArgs&) {},
                ocl::fixed_cost(vt::milliseconds(5.0)));
    auto k1 = prog.create_kernel("busy");
    ocl::EventPtr before = queue->enqueue_ndrange(k1, ocl::NDRange::linear(1), {}, clock);
    queue->enqueue_barrier({}, clock);
    // Post-barrier work cannot start before the pre-barrier kernel ended,
    // even with an empty wait list.
    ocl::BufferPtr buf = ctx.create_buffer(1_KiB);
    std::vector<std::byte> host(buf->size());
    ocl::EventPtr after =
        queue->enqueue_write_buffer(buf, false, 0, host.size(), host.data(), {}, clock);
    after->wait(clock);
    EXPECT_GE(after->profiling().started.s, before->completion_time().s);
  });
}

TEST(OutOfOrder, FinishDrainsEverything) {
  testutil::on_strand([&] {
    ocl::Platform platform(sys::cichlid(), 0, nullptr);
    ocl::Context ctx(platform.device());
    auto queue = ctx.create_queue("ooo", ocl::QueueOrder::out_of_order);
    vt::Clock clock;
    ocl::Program prog;
    prog.define("busy", [](const ocl::NDRange&, const ocl::KernelArgs&) {},
                ocl::fixed_cost(vt::milliseconds(3.0)));
    std::vector<ocl::EventPtr> events;
    for (int i = 0; i < 5; ++i) {
      auto k = prog.create_kernel("busy");
      events.push_back(queue->enqueue_ndrange(k, ocl::NDRange::linear(1), {}, clock));
    }
    queue->finish(clock);
    for (const auto& e : events) EXPECT_TRUE(e->complete());
    // Kernels still serialized on the single compute engine: >= 15 ms total.
    EXPECT_GE(clock.now().s, 0.0149);
  });
}

// --- multiple communicator devices per rank -----------------------------------------

TEST(MultiDevice, TwoRuntimesPerRankWithDistinctTags) {
  constexpr std::size_t size = 2_MiB;
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer(), /*num_devices=*/2);
    ocl::Context ctx0(platform.device(0));
    ocl::Context ctx1(platform.device(1));
    rt::Runtime rt0(rank, platform.device(0));
    rt::Runtime rt1(rank, platform.device(1));
    auto q0 = ctx0.create_queue("d0");
    auto q1 = ctx1.create_queue("d1");
    ocl::BufferPtr b0 = ctx0.create_buffer(size);
    ocl::BufferPtr b1 = ctx1.create_buffer(size);

    // The paper's rule: one MPI process with several communicator devices
    // gives each a unique tag.
    if (rank.rank() == 0) {
      fill_pattern(b0->storage(), 1);
      fill_pattern(b1->storage(), 2);
      auto e0 = rt0.enqueue_send_buffer(*q0, b0, false, 0, size, 1, /*tag=*/10,
                                        rank.world(), {});
      auto e1 = rt1.enqueue_send_buffer(*q1, b1, false, 0, size, 1, /*tag=*/11,
                                        rank.world(), {});
      e0->wait(rank.clock());
      e1->wait(rank.clock());
    } else {
      auto e0 = rt0.enqueue_recv_buffer(*q0, b0, false, 0, size, 0, 10, rank.world(), {});
      auto e1 = rt1.enqueue_recv_buffer(*q1, b1, false, 0, size, 0, 11, rank.world(), {});
      e0->wait(rank.clock());
      e1->wait(rank.clock());
      EXPECT_TRUE(check_pattern(b0->storage(), 1));
      EXPECT_TRUE(check_pattern(b1->storage(), 2));
    }
  });
}

TEST(MultiDevice, KernelsOnTwoDevicesOverlap) {
  mpi::Cluster::run(opts(1), [&](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer(), 2);
    ocl::Context ctx0(platform.device(0));
    ocl::Context ctx1(platform.device(1));
    auto q0 = ctx0.create_queue();
    auto q1 = ctx1.create_queue();
    ocl::Program prog;
    prog.define("busy", [](const ocl::NDRange&, const ocl::KernelArgs&) {},
                ocl::fixed_cost(vt::milliseconds(10.0)));
    auto k0 = prog.create_kernel("busy");
    auto k1 = prog.create_kernel("busy");
    ocl::EventPtr e0 = q0->enqueue_ndrange(k0, ocl::NDRange::linear(1), {}, rank.clock());
    ocl::EventPtr e1 = q1->enqueue_ndrange(k1, ocl::NDRange::linear(1), {}, rank.clock());
    e0->wait(rank.clock());
    e1->wait(rank.clock());
    // Two devices = two compute engines: ~10 ms, not 20.
    EXPECT_LT(rank.now_s(), 0.015);
  });
}

// --- GPUDirect RDMA (hardware-upgrade path, §VI) ------------------------------------

sys::SystemProfile gpudirect_profile() {
  sys::SystemProfile p = sys::ricc();
  p.name = "RICC+GPUDirect";
  p.nic.rdma_direct = true;
  p.nic.rdma_setup = vt::microseconds(10.0);
  return p;
}

TEST(GpuDirect, SelectorDiscoversTheDirectPath) {
  const auto prof = gpudirect_profile();
  for (std::size_t size : {64_KiB, 768_KiB, 64_MiB}) {
    EXPECT_EQ(xfer::select(prof, size).kind, xfer::StrategyKind::gpudirect);
  }
  // Unchanged on the historical hardware.
  EXPECT_NE(xfer::select(sys::ricc(), 64_MiB).kind, xfer::StrategyKind::gpudirect);
}

TEST(GpuDirect, TransfersStayExactAndSkipTheCopyEngine) {
  const auto prof = gpudirect_profile();
  constexpr std::size_t size = 16_MiB;
  mpi::Cluster::run(opts(2, prof), [&](mpi::Rank& rank) {
    ocl::Platform platform(prof, rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    rt::Runtime runtime(rank, platform.device());
    auto queue = ctx.create_queue();
    ocl::BufferPtr buf = ctx.create_buffer(size);
    if (rank.rank() == 0) {
      fill_pattern(buf->storage(), 44);
      runtime.enqueue_send_buffer(*queue, buf, true, 0, size, 1, 0, rank.world(), {});
    } else {
      runtime.enqueue_recv_buffer(*queue, buf, true, 0, size, 0, 0, rank.world(), {});
      EXPECT_TRUE(check_pattern(buf->storage(), 44));
    }
    // No staging: the PCIe copy engine never worked.
    EXPECT_DOUBLE_EQ(platform.device().copy_engine().busy_time().s, 0.0);
  });
}

/// Receive-side completion time (seconds) of one idle 2-rank device-to-
/// device transfer of `size` bytes with `strategy`, timed by the engine.
double engine_receive_s(const sys::SystemProfile& prof, std::size_t size,
                        const xfer::Strategy& strategy) {
  double completion = 0.0;
  mpi::Cluster::run(opts(2, prof), [&](mpi::Rank& rank) {
    ocl::Platform platform(prof, rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    ocl::BufferPtr buf = ctx.create_buffer(size);
    xfer::DeviceEndpoint ep{&rank.world(), &platform.device(), buf.get(), 0, size,
                            1 - rank.rank(), 0};
    if (rank.rank() == 0) {
      (void)xfer::send_device(ep, strategy, rank.clock().now());
    } else {
      completion = xfer::recv_device(ep, strategy, rank.clock().now()).s;
    }
  });
  return completion;
}

TEST(GpuDirect, FasterThanEveryStagedStrategy) {
  const auto prof = gpudirect_profile();
  constexpr std::size_t size = 32_MiB;
  const double direct = engine_receive_s(prof, size, xfer::Strategy::gpudirect());
  EXPECT_LT(direct, engine_receive_s(prof, size, xfer::Strategy::pinned()));
  EXPECT_LT(direct, engine_receive_s(prof, size, xfer::Strategy::mapped()));
  EXPECT_LT(direct, engine_receive_s(prof, size, xfer::Strategy::pipelined(1_MiB)));
}

TEST(GpuDirect, FallsBackToPinnedOnIncapableHardware) {
  // A forced gpudirect strategy on hardware without RDMA-capable NICs no
  // longer poisons the command: the transfer layer degrades it to the pinned
  // path on BOTH endpoints (graceful degradation) and the message arrives.
  constexpr std::size_t size = 256_KiB;
  mpi::Cluster::run(opts(2), [&](mpi::Rank& rank) {  // plain RICC: no rdma_direct
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    rt::Runtime runtime(rank, platform.device());
    auto queue = ctx.create_queue();
    ocl::BufferPtr buf = ctx.create_buffer(size);
    if (rank.rank() == 0) {
      fill_pattern(buf->storage(), 45);
      runtime.enqueue_send_buffer(*queue, buf, true, 0, size, 1, 0, rank.world(), {},
                                  xfer::Strategy::gpudirect());
    } else {
      runtime.enqueue_recv_buffer(*queue, buf, true, 0, size, 0, 0, rank.world(), {},
                                  xfer::Strategy::gpudirect());
      EXPECT_TRUE(check_pattern(buf->storage(), 45));
    }
    // The fallback staged through host memory: the PCIe copy engine worked,
    // which a true zero-copy gpudirect transfer never does.
    EXPECT_GT(platform.device().copy_engine().busy_time().s, 0.0);
  });
}

}  // namespace
}  // namespace clmpi
