// Tests for the simulated OpenCL runtime: buffers, queues, events, kernels,
// profiling, mapping, and the overlap semantics of multiple queues. Each
// test runs as a one-rank cluster: queues need a strand for their workers.
#include <gtest/gtest.h>

#include "test_util.hpp"

#include <cstdint>
#include <numeric>
#include <vector>

#include "ocl/context.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "systems/profile.hpp"
#include "vt/clock.hpp"

namespace clmpi::ocl {
namespace {

struct Fixture {
  Platform platform{sys::cichlid(), /*node=*/0, /*tracer=*/nullptr};
  Context ctx{platform.device()};
  vt::Clock clock;
};

TEST(Buffer, TypedViewsShareStorage) {
  testutil::on_strand([&] {
    Fixture f;
    BufferPtr buf = f.ctx.create_buffer(16 * sizeof(float));
    auto floats = buf->as<float>();
    ASSERT_EQ(floats.size(), 16u);
    floats[3] = 2.5f;
    EXPECT_EQ(buf->as<float>()[3], 2.5f);
  });
}

TEST(Buffer, ZeroSizeRejected) {
  testutil::on_strand([&] {
    Fixture f;
    EXPECT_THROW((void)f.ctx.create_buffer(0), PreconditionError);
  });
}

TEST(Queue, WriteThenReadRoundTrips) {
  testutil::on_strand([&] {
    Fixture f;
    auto q = f.ctx.create_queue();
    BufferPtr buf = f.ctx.create_buffer(4096);

    std::vector<std::byte> out(4096), in(4096);
    fill_pattern(out, 5);
    q->enqueue_write_buffer(buf, /*blocking=*/true, 0, out.size(), out.data(), {}, f.clock);
    q->enqueue_read_buffer(buf, /*blocking=*/true, 0, in.size(), in.data(), {}, f.clock);
    EXPECT_TRUE(check_pattern(in, 5));
  });
}

TEST(Queue, OffsetReadWrite) {
  testutil::on_strand([&] {
    Fixture f;
    auto q = f.ctx.create_queue();
    BufferPtr buf = f.ctx.create_buffer(100);
    const char data[] = "hello";
    q->enqueue_write_buffer(buf, true, 50, 5, data, {}, f.clock);
    char back[6] = {};
    q->enqueue_read_buffer(buf, true, 50, 5, back, {}, f.clock);
    EXPECT_STREQ(back, "hello");
  });
}

TEST(Queue, OutOfRangeAccessRejected) {
  testutil::on_strand([&] {
    Fixture f;
    auto q = f.ctx.create_queue();
    BufferPtr buf = f.ctx.create_buffer(64);
    std::byte tmp[128];
    EXPECT_THROW(q->enqueue_read_buffer(buf, true, 0, 128, tmp, {}, f.clock),
                 PreconditionError);
    EXPECT_THROW(q->enqueue_write_buffer(buf, true, 60, 8, tmp, {}, f.clock),
                 PreconditionError);
    // offset + size wraps to 8, which would pass a naive bounds check.
    constexpr std::size_t wrapped = SIZE_MAX - 7;
    EXPECT_THROW(q->enqueue_read_buffer(buf, true, wrapped, 16, tmp, {}, f.clock),
                 PreconditionError);
    EXPECT_THROW(q->enqueue_write_buffer(buf, true, wrapped, 16, tmp, {}, f.clock),
                 PreconditionError);
    BufferPtr other = f.ctx.create_buffer(64);
    EXPECT_THROW(q->enqueue_copy_buffer(buf, other, wrapped, 0, 16, {}, f.clock),
                 PreconditionError);
    EXPECT_THROW(q->enqueue_copy_buffer(other, buf, 0, wrapped, 16, {}, f.clock),
                 PreconditionError);
    EXPECT_THROW(q->enqueue_map_buffer(buf, true, wrapped, 16, {}, f.clock),
                 PreconditionError);
  });
}

TEST(Queue, CopyBufferMovesBytes) {
  testutil::on_strand([&] {
    Fixture f;
    auto q = f.ctx.create_queue();
    BufferPtr a = f.ctx.create_buffer(256);
    BufferPtr b = f.ctx.create_buffer(256);
    fill_pattern(a->storage(), 11);
    q->enqueue_copy_buffer(a, b, 0, 0, 256, {}, f.clock);
    q->finish(f.clock);
    EXPECT_TRUE(check_pattern(b->storage(), 11));
  });
}

TEST(Queue, InOrderExecution) {
  testutil::on_strand([&] {
    // Three writes to the same cell must apply in enqueue order.
    Fixture f;
    auto q = f.ctx.create_queue();
    BufferPtr buf = f.ctx.create_buffer(sizeof(int));
    for (int v : {1, 2, 3}) {
      const int val = v;
      q->enqueue_write_buffer(buf, false, 0, sizeof(int), &val, {}, f.clock);
      q->finish(f.clock);  // value must be applied before the next enqueue reuses &val
      EXPECT_EQ(buf->as<int>()[0], v);
    }
  });
}

TEST(Queue, NonBlockingReturnsBeforeCompletion) {
  testutil::on_strand([&] {
    Fixture f;
    auto q = f.ctx.create_queue();
    BufferPtr buf = f.ctx.create_buffer(64u << 20);  // ~23 ms of pageable DMA
    std::vector<std::byte> host(buf->size());
    const double before = f.clock.now().s;
    EventPtr ev =
        q->enqueue_write_buffer(buf, false, 0, host.size(), host.data(), {}, f.clock);
    // The host clock advanced only by the enqueue overhead, not the DMA time.
    EXPECT_LT(f.clock.now().s - before, 1e-4);
    ev->wait(f.clock);
    EXPECT_GT(f.clock.now().s, 0.02);
  });
}

TEST(Event, ProfilingTimestampsAreOrdered) {
  testutil::on_strand([&] {
    Fixture f;
    auto q = f.ctx.create_queue();
    BufferPtr buf = f.ctx.create_buffer(1u << 20);
    std::vector<std::byte> host(buf->size());
    EventPtr ev = q->enqueue_write_buffer(buf, true, 0, host.size(), host.data(), {}, f.clock);
    const auto p = ev->profiling();
    EXPECT_LE(p.queued.s, p.submitted.s);
    EXPECT_LE(p.submitted.s, p.started.s);
    EXPECT_LT(p.started.s, p.ended.s);
  });
}

TEST(Event, WaitListGatesExecution) {
  testutil::on_strand([&] {
    Fixture f;
    auto q = f.ctx.create_queue();
    BufferPtr buf = f.ctx.create_buffer(16);
    auto gate = f.ctx.create_user_event("gate");

    const int val = 77;
    std::vector<EventPtr> waits{gate};
    EventPtr ev = q->enqueue_write_buffer(buf, false, 0, sizeof(int), &val, waits, f.clock);
    EXPECT_FALSE(ev->complete());

    gate->set_complete(vt::TimePoint{1.0});  // virtual time 1 s
    ev->wait(f.clock);
    // The gated command starts no earlier than the gating event's completion.
    EXPECT_GE(ev->profiling().started.s, 1.0);
    EXPECT_EQ(buf->as<int>()[0], 77);
  });
}

TEST(Event, CallbacksFireOnCompletion) {
  testutil::on_strand([&] {
    Fixture f;
    auto ev = f.ctx.create_user_event();
    int fired = 0;
    ev->on_settle([&fired](vt::TimePoint t, const std::exception_ptr&) {
      fired = 1;
      EXPECT_DOUBLE_EQ(t.s, 2.0);
    });
    EXPECT_EQ(fired, 0);
    ev->set_complete(vt::TimePoint{2.0});
    EXPECT_EQ(fired, 1);
    // Late registration fires immediately.
    int late = 0;
    ev->on_settle([&late](vt::TimePoint, const std::exception_ptr&) { late = 1; });
    EXPECT_EQ(late, 1);
  });
}

TEST(Event, DoubleCompleteRejected) {
  testutil::on_strand([&] {
    Fixture f;
    auto ev = f.ctx.create_user_event();
    ev->set_complete(vt::TimePoint{1.0});
    EXPECT_THROW(ev->set_complete(vt::TimePoint{2.0}), PreconditionError);
  });
}

TEST(Kernel, ExecutesBodyOnBufferData) {
  testutil::on_strand([&] {
    Fixture f;
    auto q = f.ctx.create_queue();
    BufferPtr buf = f.ctx.create_buffer(100 * sizeof(float));
    Program prog;
    prog.define(
        "scale",
        [](const NDRange& range, const KernelArgs& args) {
          auto data = args.span_of<float>(0);
          const auto k = static_cast<float>(args.scalar(1));
          for (std::size_t i = 0; i < range.total(); ++i) data[i] = k * static_cast<float>(i);
        },
        flops_per_item(1.0));
    KernelPtr kernel = prog.create_kernel("scale");
    kernel->set_arg(0, buf);
    kernel->set_arg(1, 2.0);
    q->enqueue_ndrange(kernel, NDRange::linear(100), {}, f.clock);
    q->finish(f.clock);
    EXPECT_FLOAT_EQ(buf->as<float>()[10], 20.0f);
    EXPECT_FLOAT_EQ(buf->as<float>()[99], 198.0f);
  });
}

TEST(Kernel, CostChargesComputeEngine) {
  testutil::on_strand([&] {
    Fixture f;
    auto q = f.ctx.create_queue();
    Program prog;
    prog.define("busy", [](const NDRange&, const KernelArgs&) {},
                fixed_cost(vt::milliseconds(5.0)));
    KernelPtr kernel = prog.create_kernel("busy");
    EventPtr ev = q->enqueue_ndrange(kernel, NDRange::linear(1), {}, f.clock);
    ev->wait(f.clock);
    EXPECT_NEAR(f.platform.device().compute_engine().busy_time().s, 0.005, 1e-9);
    EXPECT_NEAR(ev->profiling().ended.s - ev->profiling().started.s, 0.005, 1e-9);
  });
}

TEST(Kernel, FlopsCostScalesWithRangeAndSystem) {
  testutil::on_strand([&] {
    const NDRange range = NDRange::grid3(10, 10, 10);
    const auto cost = flops_per_item(34.0);
    const double t_cichlid = cost(range, sys::cichlid()).s;
    const double t_ricc = cost(range, sys::ricc()).s;
    EXPECT_NEAR(t_cichlid, 1000.0 * 34.0 / sys::cichlid().gpu.stencil_flops, 1e-15);
    EXPECT_GT(t_ricc, t_cichlid);  // C1060 is slower than C2070
  });
}

TEST(Kernel, ArgSnapshotAtEnqueue) {
  testutil::on_strand([&] {
    Fixture f;
    auto q = f.ctx.create_queue();
    BufferPtr buf = f.ctx.create_buffer(sizeof(float));
    Program prog;
    prog.define(
        "set",
        [](const NDRange&, const KernelArgs& args) {
          args.span_of<float>(0)[0] = static_cast<float>(args.scalar(1));
        },
        flops_per_item(1.0));
    KernelPtr kernel = prog.create_kernel("set");
    kernel->set_arg(0, buf);
    kernel->set_arg(1, 1.0);
    EventPtr first = q->enqueue_ndrange(kernel, NDRange::linear(1), {}, f.clock);
    kernel->set_arg(1, 2.0);  // must not affect the already-enqueued launch
    first->wait(f.clock);
    EXPECT_FLOAT_EQ(buf->as<float>()[0], 1.0f);
  });
}

TEST(Program, UnknownKernelRejected) {
  testutil::on_strand([&] {
    Program prog;
    EXPECT_FALSE(prog.has_kernel("nope"));
    EXPECT_THROW((void)prog.create_kernel("nope"), PreconditionError);
  });
}

TEST(Map, MapWriteUnmapIsVisibleToKernels) {
  testutil::on_strand([&] {
    Fixture f;
    auto q = f.ctx.create_queue();
    BufferPtr buf = f.ctx.create_buffer(8 * sizeof(double));
    auto mapping = q->enqueue_map_buffer(buf, /*blocking=*/true, 0, buf->size(), {}, f.clock);
    ASSERT_NE(mapping.ptr, nullptr);
    EXPECT_EQ(buf->active_mappings(), 1);
    auto* vals = reinterpret_cast<double*>(mapping.ptr);
    for (int i = 0; i < 8; ++i) vals[i] = i * 1.5;
    q->enqueue_unmap(buf, mapping.ptr, {}, f.clock);
    q->finish(f.clock);
    EXPECT_EQ(buf->active_mappings(), 0);
    EXPECT_DOUBLE_EQ(buf->as<double>()[4], 6.0);
  });
}

TEST(Map, UnmapOfUnknownPointerRejected) {
  testutil::on_strand([&] {
    Fixture f;
    auto q = f.ctx.create_queue();
    BufferPtr buf = f.ctx.create_buffer(64);
    std::byte stray;
    EXPECT_THROW(q->enqueue_unmap(buf, &stray, {}, f.clock), PreconditionError);
  });
}

TEST(Overlap, TwoQueuesOverlapCopyAndCompute) {
  testutil::on_strand([&] {
    // A DMA on queue A and a kernel on queue B share no resource; together
    // they take ~max, not sum.
    Fixture f;
    auto qa = f.ctx.create_queue("a");
    auto qb = f.ctx.create_queue("b");
    BufferPtr buf = f.ctx.create_buffer(32u << 20);
    std::vector<std::byte> host(buf->size());

    Program prog;
    prog.define("busy", [](const NDRange&, const KernelArgs&) {},
                fixed_cost(vt::milliseconds(11.0)));
    KernelPtr kernel = prog.create_kernel("busy");

    EventPtr dma =
        qa->enqueue_write_buffer(buf, false, 0, host.size(), host.data(), {}, f.clock);
    EventPtr krn = qb->enqueue_ndrange(kernel, NDRange::linear(1), {}, f.clock);
    dma->wait(f.clock);
    krn->wait(f.clock);

    const double dma_time = sys::cichlid().pcie.pageable.of(32u << 20).s;
    const double makespan = f.clock.now().s;
    EXPECT_LT(makespan, std::max(dma_time, 0.011) + 2e-3);
  });
}

TEST(Overlap, KernelsSerializeAcrossQueues) {
  testutil::on_strand([&] {
    // Two kernels on different queues still share the single compute engine.
    Fixture f;
    auto qa = f.ctx.create_queue("a");
    auto qb = f.ctx.create_queue("b");
    Program prog;
    prog.define("busy", [](const NDRange&, const KernelArgs&) {},
                fixed_cost(vt::milliseconds(10.0)));
    KernelPtr ka = prog.create_kernel("busy");
    KernelPtr kb = prog.create_kernel("busy");
    EventPtr ea = qa->enqueue_ndrange(ka, NDRange::linear(1), {}, f.clock);
    EventPtr eb = qb->enqueue_ndrange(kb, NDRange::linear(1), {}, f.clock);
    ea->wait(f.clock);
    eb->wait(f.clock);
    EXPECT_GT(f.clock.now().s, 0.0199);  // ~20 ms: serialized
  });
}

TEST(Queue, FinishDrainsEverything) {
  testutil::on_strand([&] {
    Fixture f;
    auto q = f.ctx.create_queue();
    BufferPtr buf = f.ctx.create_buffer(1u << 20);
    std::vector<std::byte> host(buf->size());
    for (int i = 0; i < 10; ++i) {
      q->enqueue_write_buffer(buf, false, 0, host.size(), host.data(), {}, f.clock);
    }
    q->finish(f.clock);
    EXPECT_EQ(q->commands_executed(), 11u);  // 10 writes + the finish marker
  });
}

TEST(Queue, MarkerAggregatesWaitList) {
  testutil::on_strand([&] {
    Fixture f;
    auto q = f.ctx.create_queue();
    auto e1 = f.ctx.create_user_event();
    auto e2 = f.ctx.create_user_event();
    std::vector<EventPtr> waits{e1, e2};
    EventPtr marker = q->enqueue_marker(waits, f.clock);
    e1->set_complete(vt::TimePoint{1.0});
    EXPECT_FALSE(marker->complete());
    e2->set_complete(vt::TimePoint{3.0});
    marker->wait(f.clock);
    EXPECT_GE(marker->completion_time().s, 3.0);
  });
}

TEST(Platform, MultipleDevicesAreIndependent) {
  testutil::on_strand([&] {
    Platform platform(sys::ricc(), 0, nullptr, /*num_devices=*/2);
    EXPECT_EQ(platform.num_devices(), 2u);
    EXPECT_NE(&platform.device(0), &platform.device(1));
    EXPECT_THROW((void)platform.device(2), PreconditionError);
  });
}

}  // namespace
}  // namespace clmpi::ocl
