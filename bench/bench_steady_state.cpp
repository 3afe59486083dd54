// Steady-state gate: the host cost of a run must not grow with the age of
// its cluster.
//
// One 4-rank cluster (RICC profile, 2x2 grid, 1 KiB halo edges) does many
// short halo-style runs back to back. A step is the step of perfbench's
// halo_small: halo::Plan start and complete, a Jacobi kernel chained on the
// unpack, a queue finish and a residual allreduce. Every virtual resource
// of the cluster (NICs, copy and compute engines) keeps the history of
// every interval it granted, so a per-operation cost that scales with that
// history makes the later runs slower than the earlier ones.
//
// Rank 0 times every run. The gate compares the mean wall of the last
// quarter of runs with the mean of the first quarter and exits 1 when the
// ratio exceeds kMaxGrowth. Runs are short (few steps) rather than few, so
// the check fits the bench-smoke time budget while the history still grows
// by thousands of intervals.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <span>
#include <vector>

#include "clmpi/runtime.hpp"
#include "halo/halo.hpp"
#include "ocl/context.hpp"
#include "ocl/kernel.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "simmpi/cluster.hpp"
#include "systems/profile.hpp"

namespace clmpi {
namespace {

constexpr int kRanks = 4;
constexpr std::size_t kLocalNx = 32;
constexpr std::size_t kLocalNy = 256;  // x-edges of 256 floats = 1 KiB
constexpr int kRuns = 240;
constexpr int kSteps = 16;
constexpr double kMaxGrowth = 1.5;

/// 5-point Jacobi sweep; args 0 src, 1 dst, 2 resid, 3 nx, 4 ny, 5 padded x.
void jacobi_body(const ocl::NDRange&, const ocl::KernelArgs& a) {
  auto src = a.buffer(0)->as<float>();
  auto dst = a.buffer(1)->as<float>();
  const auto nx = static_cast<std::size_t>(a.integer(3));
  const auto ny = static_cast<std::size_t>(a.integer(4));
  const auto px = static_cast<std::size_t>(a.integer(5));
  double acc = 0.0;
  for (std::size_t y = 1; y <= ny; ++y) {
    for (std::size_t x = 1; x <= nx; ++x) {
      const std::size_t at = y * px + x;
      const float v = 0.25f * (src[at - 1] + src[at + 1] + src[at - px] + src[at + px]);
      acc += static_cast<double>(v - src[at]) * static_cast<double>(v - src[at]);
      dst[at] = v;
    }
  }
  a.buffer(2)->as<double>()[0] = acc;
}

void rank_body(mpi::Rank& rank, std::vector<double>& walls) {
  ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
  ocl::Context ctx(platform.device());
  rt::Runtime runtime(rank, platform.device());
  auto queue = ctx.create_queue("steady_state");

  halo::Spec spec;
  spec.dims = 2;
  spec.interior = {kLocalNx, kLocalNy, 1};
  spec.grid = {2, 2, 1};
  spec.elem_size = sizeof(float);
  halo::Spec spec_nxt = spec;
  spec_nxt.tag_base = spec.tag_base + 10;
  const auto padded = halo::padded_extents(spec);

  ocl::BufferPtr cur = ctx.create_buffer(halo::field_bytes(spec));
  ocl::BufferPtr nxt = ctx.create_buffer(halo::field_bytes(spec));
  ocl::BufferPtr resid = ctx.create_buffer(sizeof(double));
  std::ranges::fill(cur->as<float>(), 1.0f);
  ocl::Program program;
  program.define("jacobi", jacobi_body, ocl::flops_per_item(7.0));
  // One plan per buffer: the buffers swap roles every step.
  halo::Plan plan_cur(runtime, ctx, rank.world(), cur, spec);
  halo::Plan plan_nxt(runtime, ctx, rank.world(), nxt, spec_nxt);

  ocl::EventPtr prev;
  for (int run = 0; run < kRuns; ++run) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int it = 0; it < kSteps; ++it) {
      const ocl::BufferPtr& src = it % 2 == 0 ? cur : nxt;
      const ocl::BufferPtr& dst = it % 2 == 0 ? nxt : cur;
      halo::Plan& plan = it % 2 == 0 ? plan_cur : plan_nxt;
      std::array<ocl::EventPtr, 1> w{prev};
      plan.start(*queue, prev ? ocl::WaitList(w) : ocl::WaitList{});
      std::array<ocl::EventPtr, 1> ready{plan.complete(*queue)};
      ocl::KernelPtr k = program.create_kernel("jacobi");
      k->set_arg(0, src);
      k->set_arg(1, dst);
      k->set_arg(2, resid);
      k->set_arg(3, static_cast<std::int64_t>(spec.interior[0]));
      k->set_arg(4, static_cast<std::int64_t>(spec.interior[1]));
      k->set_arg(5, static_cast<std::int64_t>(padded[0]));
      prev = queue->enqueue_ndrange(
          k, ocl::NDRange::grid2(spec.interior[0], spec.interior[1]), ready, rank.clock());
      queue->finish(rank.clock());
      double local = resid->as<double>()[0];
      double global = 0.0;
      rank.world().allreduce(std::as_bytes(std::span(&local, 1)),
                             std::as_writable_bytes(std::span(&global, 1)),
                             mpi::Datatype::float64, mpi::ReduceOp::sum, rank.clock());
    }
    runtime.finish(rank.clock());
    if (rank.rank() == 0) {
      walls.push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
    }
  }
}

double mean(std::span<const double> v) {
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

}  // namespace
}  // namespace clmpi

int main() {
  using namespace clmpi;
  std::vector<double> walls;
  walls.reserve(kRuns);
  mpi::Cluster::Options o;
  o.nranks = kRanks;
  o.profile = &sys::ricc();
  mpi::Cluster::run(o, [&](mpi::Rank& rank) { rank_body(rank, walls); });

  const std::size_t quarter = walls.size() / 4;
  const std::span<const double> all(walls);
  const double first = mean(all.first(quarter));
  const double last = mean(all.last(quarter));
  std::printf("%d runs x %d steps in one cluster; mean run wall per quarter:", kRuns, kSteps);
  for (int q = 0; q < 4; ++q) {
    std::printf(" %.4f", mean(all.subspan(static_cast<std::size_t>(q) * quarter, quarter)));
  }
  std::printf(" s\nlast/first quarter = %.2f (gate <= %.2f)\n", last / first, kMaxGrowth);
  if (last > kMaxGrowth * first) {
    std::fprintf(stderr, "steady-state gate FAILED: a run costs %.2fx more at the end\n",
                 last / first);
    return 1;
  }
  return 0;
}
