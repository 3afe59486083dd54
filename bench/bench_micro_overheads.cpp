// Microbenchmarks (google-benchmark) of the runtime primitives themselves:
// real wall-clock cost of enqueueing commands, completing events, matching
// messages and acquiring virtual resources. These bound the *simulator's*
// overhead (not the modelled virtual times) and guard against regressions
// that would make the figure benches slow.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <functional>

#include "clmpi/runtime.hpp"
#include "ocl/context.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "simmpi/cluster.hpp"
#include "support/rng.hpp"
#include "support/sched.hpp"
#include "vt/resource.hpp"

namespace {

using namespace clmpi;

void BM_ResourceAcquire(benchmark::State& state) {
  vt::Resource r("bench");
  vt::TimePoint ready{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.acquire(ready, vt::microseconds(1.0)));
    ready += vt::microseconds(1.0);  // append-only: the fast path
  }
}
BENCHMARK(BM_ResourceAcquire)->Iterations(100000);

void BM_ResourceBackfill(benchmark::State& state) {
  // Fragmented allocation pattern: every other slot free, acquisitions land
  // in the gaps (the slow path of the interval allocator).
  for (auto _ : state) {
    state.PauseTiming();
    vt::Resource r("bench");
    for (int i = 0; i < 128; ++i) {
      (void)r.acquire(vt::TimePoint{i * 2e-6}, vt::microseconds(1.0));
    }
    state.ResumeTiming();
    for (int i = 0; i < 128; ++i) {
      benchmark::DoNotOptimize(r.acquire(vt::TimePoint{}, vt::microseconds(1.0)));
    }
  }
}
BENCHMARK(BM_ResourceBackfill)->Iterations(200);

void BM_EventCompleteAndWait(benchmark::State& state) {
  for (auto _ : state) {
    ocl::UserEvent ev("bench");
    ev.set_complete(vt::TimePoint{1.0});
    benchmark::DoNotOptimize(ev.wait());
  }
}
BENCHMARK(BM_EventCompleteAndWait)->Iterations(100000);

/// Run `body` as the only rank of a one-rank cluster: command queues need a
/// running rank (their worker is a fiber on its strand).
void on_one_rank(const std::function<void(mpi::Rank&)>& body) {
  mpi::Cluster::Options opt;
  opt.nranks = 1;
  opt.profile = &sys::cichlid();
  mpi::Cluster::run(opt, body);
}

void BM_QueueEnqueueMarker(benchmark::State& state) {
  on_one_rank([&state](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), nullptr);
    ocl::Context ctx(platform.device());
    auto queue = ctx.create_queue();
    vt::Clock& clock = rank.clock();
    for (auto _ : state) {
      benchmark::DoNotOptimize(queue->enqueue_marker({}, clock));
    }
    queue->finish(clock);
  });
}
BENCHMARK(BM_QueueEnqueueMarker)->Iterations(50000);

void BM_EagerMessageRoundTrip(benchmark::State& state) {
  // Real cost of one matched eager message through the mailbox engine
  // (2-rank cluster amortized over many messages).
  const auto messages = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpi::Cluster::Options opt;
    opt.nranks = 2;
    opt.profile = &sys::ricc();
    mpi::Cluster::run(opt, [messages](mpi::Rank& rank) {
      std::vector<std::byte> buf(256);
      for (int i = 0; i < messages; ++i) {
        if (rank.rank() == 0) {
          rank.world().send(buf, 1, 0, rank.clock());
        } else {
          rank.world().recv(buf, 0, 0, rank.clock());
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * messages);
}
BENCHMARK(BM_EagerMessageRoundTrip)->Arg(1000)->Iterations(20)->Unit(benchmark::kMillisecond);

void BM_ClusterLaunch(benchmark::State& state) {
  // The launch layer alone, as a svc job pays it: one 4-rank cluster in
  // which each rank builds a device, a context, a runtime (dispatcher fiber)
  // and one queue (worker fiber), 12 fibers per run.
  mpi::Cluster::Options opt;
  opt.nranks = 4;
  opt.profile = &sys::cichlid();
  const auto launch = [&opt] {
    mpi::Cluster::run(opt, [](mpi::Rank& rank) {
      ocl::Platform platform(rank.profile(), rank.rank(), nullptr);
      ocl::Context ctx(platform.device());
      rt::Runtime runtime(rank, platform.device());
      auto queue = ctx.create_queue();
      benchmark::DoNotOptimize(queue.get());
    });
  };
  launch();  // the default pool and its stacks exist before timing
  for (auto _ : state) launch();
}
BENCHMARK(BM_ClusterLaunch)->Iterations(2000)->Unit(benchmark::kMicrosecond);

void BM_FiberSwitch(benchmark::State& state) {
  // One resume and one suspend per iteration: the only fiber of a strand on
  // a one-worker pool yields, and the worker resumes it again. The loop runs
  // on the fiber, so the time is wall time, not the caller's CPU time.
  sched::Scheduler pool(sched::Scheduler::Options{.workers = 1});
  pool.run(1, {{[&state] {
                  for (auto _ : state) sched::yield();
                },
                "switch"}},
           [] { return false; });
}
BENCHMARK(BM_FiberSwitch)->Iterations(1000000)->UseRealTime();

void BM_KernelLaunch(benchmark::State& state) {
  on_one_rank([&state](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), nullptr);
    ocl::Context ctx(platform.device());
    auto queue = ctx.create_queue();
    ocl::Program prog;
    prog.define("nop", [](const ocl::NDRange&, const ocl::KernelArgs&) {},
                ocl::fixed_cost(vt::microseconds(1.0)));
    auto kernel = prog.create_kernel("nop");
    vt::Clock& clock = rank.clock();
    std::size_t launched = 0;
    for (auto _ : state) {
      benchmark::DoNotOptimize(
          queue->enqueue_ndrange(kernel, ocl::NDRange::linear(1), {}, clock));
      if (++launched % 1024 == 0) queue->finish(clock);
    }
    queue->finish(clock);
  });
}
BENCHMARK(BM_KernelLaunch)->Iterations(50000);

}  // namespace

BENCHMARK_MAIN();
