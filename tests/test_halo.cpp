// Conformance suite for the clmpi_halo split-phase halo-exchange library.
//
// The oracle is byte-exactness: fields are filled with a value encoding the
// *global* coordinates (plus the epoch), ghosts with a sentinel, and after an
// exchange every face ghost must hold its neighbor's boundary encoding while
// corners and open boundaries keep the sentinel. Covers 1D/2D/3D plans, the
// ISSUE 9 edge cases (neighbor-is-self edges at 1 and 2 ranks, zero-width
// edges), the RMA tier on cxlpod, multi-epoch staging reuse, and the plan's
// precondition checks.
#include <gtest/gtest.h>

#include "test_util.hpp"

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/advection/advection.hpp"
#include "apps/jacobi2d/jacobi2d.hpp"
#include "apps/overlap/overlap.hpp"
#include "clmpi/capi.h"
#include "halo/halo.hpp"
#include "ocl/context.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/fault.hpp"
#include "support/error.hpp"
#include "systems/profile.hpp"
#include "vt/tracer.hpp"

namespace clmpi {
namespace {

constexpr std::uint32_t kSentinel = 0xdeadbeefu;

mpi::Cluster::Options opts(int nranks, const sys::SystemProfile& prof,
                           vt::Tracer* tracer = nullptr) {
  mpi::Cluster::Options o;
  o.nranks = nranks;
  o.profile = &prof;
  o.tracer = tracer;
  return o;
}

std::uint32_t encode(std::array<long, 3> g, const std::array<long, 3>& G, int epoch) {
  const auto lin = (g[2] * G[1] + g[1]) * G[0] + g[0];
  return static_cast<std::uint32_t>(lin * 7 + epoch * 1000003L);
}

struct Domain {
  halo::Spec spec;
  std::array<int, 3> coords{};
  std::array<std::size_t, 3> padded{};
  std::array<long, 3> global{};  ///< global interior extents

  Domain(int rank, const halo::Spec& s) : spec(s), coords(halo::coords_of(rank, s)) {
    padded = halo::padded_extents(spec);
    for (int d = 0; d < 3; ++d) {
      global[static_cast<std::size_t>(d)] = static_cast<long>(spec.interior[static_cast<std::size_t>(d)]) *
                  spec.grid[static_cast<std::size_t>(d)];
    }
  }

  /// Interior cells get the global encoding, everything else the sentinel.
  void fill(std::uint32_t* data, int epoch) const {
    const auto w = static_cast<long>(spec.width);
    for (std::size_t z = 0; z < padded[2]; ++z) {
      for (std::size_t y = 0; y < padded[1]; ++y) {
        for (std::size_t x = 0; x < padded[0]; ++x) {
          const std::array<std::size_t, 3> p{x, y, z};
          std::array<long, 3> g{};
          bool interior = true;
          for (int d = 0; d < 3; ++d) {
            const auto dd = static_cast<std::size_t>(d);
            const long i = d < spec.dims ? static_cast<long>(p[dd]) - w
                                         : static_cast<long>(p[dd]);
            if (i < 0 || i >= static_cast<long>(spec.interior[dd])) interior = false;
            g[dd] = coords[dd] * static_cast<long>(spec.interior[dd]) + i;
          }
          data[(z * padded[1] + y) * padded[0] + x] =
              interior ? encode(g, global, epoch) : kSentinel;
        }
      }
    }
  }

  /// Post-exchange expectation for one padded cell, or the sentinel when the
  /// cell is a corner ghost or lies beyond an open boundary.
  std::uint32_t expected(std::array<std::size_t, 3> p, int epoch) const {
    const auto w = static_cast<long>(spec.width);
    std::array<long, 3> g{};
    int ghost_dims = 0;
    bool open = false;
    for (int d = 0; d < 3; ++d) {
      const auto dd = static_cast<std::size_t>(d);
      const long i =
          d < spec.dims ? static_cast<long>(p[dd]) - w : static_cast<long>(p[dd]);
      long gd = coords[dd] * static_cast<long>(spec.interior[dd]) + i;
      if (d < spec.dims && (i < 0 || i >= static_cast<long>(spec.interior[dd]))) {
        ++ghost_dims;
        if (spec.periodic[dd]) {
          gd = ((gd % global[dd]) + global[dd]) % global[dd];
        } else if (gd < 0 || gd >= global[dd]) {
          open = true;
        }
      }
      g[dd] = gd;
    }
    if (ghost_dims > 1 || open) return kSentinel;
    return encode(g, global, epoch);
  }
};

/// Run `epochs` halo exchanges of `spec` on `nranks` x `prof` and assert
/// byte-exact ghosts after each. Returns nothing; failures are gtest ones.
void run_exchange(const sys::SystemProfile& prof, int nranks, halo::Spec spec,
                  int epochs = 2, bool expect_rma = false) {
  spec.elem_size = sizeof(std::uint32_t);
  mpi::Cluster::run(opts(nranks, prof), [&](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    rt::Runtime runtime(rank, platform.device());
    const Domain dom(rank.rank(), spec);

    auto field = ctx.create_buffer(halo::field_bytes(spec), ocl::MemFlags::read_write,
                                   "field");
    halo::Plan plan(runtime, ctx, rank.world(), field, spec);
    EXPECT_EQ(plan.uses_rma(), expect_rma);
    auto queue = ctx.create_queue("halo");

    for (int e = 0; e < epochs; ++e) {
      dom.fill(field->as<std::uint32_t>().data(), e);
      plan.start(*queue);
      ocl::EventPtr done = plan.complete(*queue);
      ASSERT_NE(done, nullptr);
      done->wait(rank.clock());

      const std::uint32_t* data = field->as<std::uint32_t>().data();
      for (std::size_t z = 0; z < dom.padded[2]; ++z) {
        for (std::size_t y = 0; y < dom.padded[1]; ++y) {
          for (std::size_t x = 0; x < dom.padded[0]; ++x) {
            const std::size_t at = (z * dom.padded[1] + y) * dom.padded[0] + x;
            ASSERT_EQ(data[at], dom.expected({x, y, z}, e))
                << "rank " << rank.rank() << " epoch " << e << " cell (" << x << ","
                << y << "," << z << ")";
          }
        }
      }
    }
    EXPECT_EQ(plan.epochs(), epochs);
    queue->finish(rank.clock());
    runtime.finish(rank.clock());
  });
}

// --- byte-exact exchanges over the p2p tier ---------------------------------

TEST(HaloExchange, OneDimTwoRanks) {
  halo::Spec s;
  s.dims = 1;
  s.interior = {16, 1, 1};
  s.grid = {2, 1, 1};
  run_exchange(sys::ricc(), 2, s);
}

TEST(HaloExchange, OneDimPeriodicRing) {
  halo::Spec s;
  s.dims = 1;
  s.interior = {12, 1, 1};
  s.grid = {4, 1, 1};
  s.periodic = {true, false, false};
  s.width = 2;
  run_exchange(sys::ricc(), 4, s);
}

TEST(HaloExchange, TwoDimMixedPeriodicity) {
  halo::Spec s;
  s.dims = 2;
  s.interior = {8, 6, 1};
  s.grid = {2, 2, 1};
  s.periodic = {true, false, false};
  run_exchange(sys::ricc(), 4, s);
}

TEST(HaloExchange, ThreeDimWidthTwo) {
  halo::Spec s;
  s.dims = 3;
  s.interior = {6, 5, 4};
  s.grid = {2, 1, 2};
  s.periodic = {false, false, true};
  s.width = 2;
  run_exchange(sys::ricc(), 4, s);
}

// --- ISSUE 9 satellite: neighbor-is-self edges ------------------------------

TEST(HaloSelfEdges, OneRankPeriodicRing) {
  // nranks == 1 ring: both faces wrap onto this rank. Must be byte-exact
  // device-local copies — no send-to-self, no deadlock, no double delivery.
  halo::Spec s;
  s.dims = 1;
  s.interior = {10, 1, 1};
  s.grid = {1, 1, 1};
  s.periodic = {true, false, false};
  run_exchange(sys::ricc(), 1, s, /*epochs=*/3);
}

TEST(HaloSelfEdges, TwoRanksOneWideDimension) {
  // 2D on a 2x1 process grid with the 1-wide y dimension periodic: y edges
  // are self edges while x edges ride the wire, in the same epoch.
  halo::Spec s;
  s.dims = 2;
  s.interior = {6, 4, 1};
  s.grid = {2, 1, 1};
  s.periodic = {true, true, false};
  run_exchange(sys::ricc(), 2, s, /*epochs=*/3);
}

TEST(HaloSelfEdges, SelfEdgeFlagsReported) {
  halo::Spec s;
  s.dims = 1;
  s.interior = {4, 1, 1};
  s.grid = {1, 1, 1};
  s.periodic = {true, false, false};
  s.elem_size = 4;
  mpi::Cluster::run(opts(1, sys::ricc()), [&](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    rt::Runtime runtime(rank, platform.device());
    auto field = ctx.create_buffer(halo::field_bytes(s), ocl::MemFlags::read_write, "f");
    halo::Plan plan(runtime, ctx, rank.world(), field, s);
    ASSERT_EQ(plan.edges().size(), 2u);
    for (const halo::Edge& e : plan.edges()) {
      EXPECT_TRUE(e.self);
      EXPECT_EQ(e.neighbor, 0);
      EXPECT_GT(e.bytes, 0u);
    }
  });
}

// --- ISSUE 9 satellite: zero-width edges ------------------------------------

TEST(HaloZeroWidth, OpenBoundariesAreNoOps) {
  // Non-periodic 1D: rank 0's low face and rank N-1's high face have no
  // neighbor. They must complete as no-ops with valid events and leave the
  // ghost bytes untouched (checked via the sentinel in run_exchange).
  halo::Spec s;
  s.dims = 1;
  s.interior = {8, 1, 1};
  s.grid = {3, 1, 1};
  run_exchange(sys::ricc(), 3, s);
}

TEST(HaloZeroWidth, ZeroGhostWidthPlanIsAllNoOps) {
  halo::Spec s;
  s.dims = 2;
  s.interior = {5, 5, 1};
  s.grid = {2, 1, 1};
  s.periodic = {true, true, false};
  s.width = 0;  // every edge is zero-width, even the periodic ones
  s.elem_size = 4;
  mpi::Cluster::run(opts(2, sys::ricc()), [&](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    rt::Runtime runtime(rank, platform.device());
    auto field = ctx.create_buffer(halo::field_bytes(s), ocl::MemFlags::read_write, "f");
    auto before = std::vector<std::uint32_t>(field->as<std::uint32_t>().begin(),
                                             field->as<std::uint32_t>().end());
    halo::Plan plan(runtime, ctx, rank.world(), field, s);
    for (const halo::Edge& e : plan.edges()) EXPECT_EQ(e.bytes, 0u);
    auto queue = ctx.create_queue("halo");
    plan.start(*queue);
    ocl::EventPtr done = plan.complete(*queue);
    ASSERT_NE(done, nullptr);
    done->wait(rank.clock());
    const auto after = field->as<std::uint32_t>();
    EXPECT_TRUE(std::equal(before.begin(), before.end(), after.begin()));
    queue->finish(rank.clock());
    runtime.finish(rank.clock());
  });
}

// --- the RMA tier on cxlpod -------------------------------------------------

TEST(HaloRmaTier, LargeEdgesUseShmemWindow) {
  // x-edge bytes = width * interior_y * 4 = 16384 * 4 = 64 KiB > the cxlpod
  // one-sided threshold, so the plan must pick the window/fence path — and
  // stay byte-exact over multiple epochs.
  halo::Spec s;
  s.dims = 2;
  s.interior = {16, 16384, 1};
  s.grid = {2, 1, 1};
  s.periodic = {true, false, false};
  run_exchange(sys::cxlpod(), 2, s, /*epochs=*/3, /*expect_rma=*/true);
}

TEST(HaloRmaTier, SmallEdgesStayTwoSided) {
  halo::Spec s;
  s.dims = 1;
  s.interior = {16, 1, 1};
  s.grid = {2, 1, 1};
  run_exchange(sys::cxlpod(), 2, s, /*epochs=*/2, /*expect_rma=*/false);
}

TEST(HaloRmaTier, SelfAndOpenEdgesUnderRma) {
  // RMA-tier plan that also carries self edges (periodic 1-wide y) and open
  // boundaries (non-periodic x ends): the mixed epoch must stay byte-exact.
  halo::Spec s;
  s.dims = 2;
  s.interior = {16, 16384, 1};
  s.grid = {2, 1, 1};
  s.periodic = {false, true, false};
  run_exchange(sys::cxlpod(), 2, s, /*epochs=*/2, /*expect_rma=*/true);
}

// --- plan preconditions ------------------------------------------------------

TEST(HaloValidation, RejectsBadSpecs) {
  mpi::Cluster::run(opts(2, sys::ricc()), [&](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    rt::Runtime runtime(rank, platform.device());

    halo::Spec good;
    good.dims = 1;
    good.interior = {8, 1, 1};
    good.grid = {2, 1, 1};
    auto field = ctx.create_buffer(halo::field_bytes(good), ocl::MemFlags::read_write,
                                   "f");

    auto expect_reject = [&](halo::Spec bad) {
      EXPECT_THROW(halo::Plan(runtime, ctx, rank.world(), field, bad), Error);
    };

    halo::Spec s = good;
    s.grid = {3, 1, 1};  // grid does not cover the communicator
    expect_reject(s);

    s = good;
    s.dims = 4;
    expect_reject(s);

    s = good;
    s.width = 9;  // wider than the interior extent
    expect_reject(s);

    s = good;
    s.tag_base = mpi::max_user_tag;  // tag range spills past the user space
    expect_reject(s);

    s = good;
    s.interior = {64, 1, 1};  // field buffer now too small
    expect_reject(s);

    // And the strict start/complete alternation.
    halo::Plan plan(runtime, ctx, rank.world(), field, good);
    auto queue = ctx.create_queue("halo");
    EXPECT_THROW(plan.complete(*queue), Error);
    plan.start(*queue);
    EXPECT_THROW(plan.start(*queue), Error);
    ocl::EventPtr done = plan.complete(*queue);
    done->wait(rank.clock());
    queue->finish(rank.clock());
    runtime.finish(rank.clock());
  });
}

// --- the C API surface -------------------------------------------------------

TEST(HaloCApi, CreateStartCompleteFreeRoundTrip) {
  halo::Spec ref;
  ref.dims = 1;
  ref.interior = {8, 1, 1};
  ref.grid = {2, 1, 1};
  ref.periodic = {true, false, false};
  ref.elem_size = sizeof(std::uint32_t);
  mpi::Cluster::run(opts(2, sys::ricc()), [&](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context cxx_ctx(platform.device());
    rt::Runtime runtime(rank, platform.device());
    capi::ThreadBinding binding(rank, runtime);
    cl_context ctx = clmpiCreateContext(cxx_ctx);
    cl_int err = CL_SUCCESS;
    cl_command_queue cmd = clCreateCommandQueue(ctx, &err);
    ASSERT_EQ(err, CL_SUCCESS);
    cl_mem field = clCreateBuffer(ctx, halo::field_bytes(ref), &err);
    ASSERT_EQ(err, CL_SUCCESS);

    const Domain dom(rank.rank(), ref);
    std::vector<std::uint32_t> host(halo::field_bytes(ref) / sizeof(std::uint32_t));
    dom.fill(host.data(), 0);
    ASSERT_EQ(clEnqueueWriteBuffer(cmd, field, CL_TRUE, 0, halo::field_bytes(ref),
                                   host.data(), 0, nullptr, nullptr),
              CL_SUCCESS);

    clmpi_halo_spec spec{};
    spec.dims = ref.dims;
    for (std::size_t d = 0; d < 3; ++d) {
      spec.interior[d] = ref.interior[d];
      spec.grid[d] = ref.grid[d];
      spec.periodic[d] = ref.periodic[d] ? 1 : 0;
    }
    spec.elem_size = ref.elem_size;
    spec.width = ref.width;
    spec.tag_base = ref.tag_base;

    // Typed argument failures first.
    EXPECT_EQ(clmpiHaloCreate(nullptr, field, &spec, MPI_COMM_WORLD, &err), nullptr);
    EXPECT_EQ(err, CL_INVALID_CONTEXT);
    EXPECT_EQ(clmpiHaloCreate(ctx, nullptr, &spec, MPI_COMM_WORLD, &err), nullptr);
    EXPECT_EQ(err, CLMPI_INVALID_MEM_OBJECT);
    EXPECT_EQ(clmpiHaloCreate(ctx, field, nullptr, MPI_COMM_WORLD, &err), nullptr);
    EXPECT_EQ(err, CLMPI_INVALID_HALO);
    EXPECT_EQ(clmpiHaloCreate(ctx, field, &spec, nullptr, &err), nullptr);
    EXPECT_EQ(err, CLMPI_INVALID_COMMUNICATOR);

    clmpi_halo halo = clmpiHaloCreate(ctx, field, &spec, MPI_COMM_WORLD, &err);
    ASSERT_EQ(err, CL_SUCCESS);
    ASSERT_NE(halo, nullptr);

    // Strict phase alternation surfaces as a typed error, not a crash.
    EXPECT_NE(clmpiHaloComplete(halo, cmd, nullptr), CL_SUCCESS);

    ASSERT_EQ(clmpiHaloStart(halo, cmd, 0, nullptr), CL_SUCCESS);
    cl_event done = nullptr;
    ASSERT_EQ(clmpiHaloComplete(halo, cmd, &done), CL_SUCCESS);
    ASSERT_NE(done, nullptr);
    ASSERT_EQ(clWaitForEvents(1, &done), CL_SUCCESS);
    EXPECT_EQ(clReleaseEvent(done), CL_SUCCESS);

    ASSERT_EQ(clEnqueueReadBuffer(cmd, field, CL_TRUE, 0, halo::field_bytes(ref),
                                  host.data(), 0, nullptr, nullptr),
              CL_SUCCESS);
    for (std::size_t x = 0; x < dom.padded[0]; ++x) {
      EXPECT_EQ(host[x], dom.expected({x, 0, 0}, 0)) << "cell " << x;
    }

    EXPECT_EQ(clFinish(cmd), CL_SUCCESS);
    EXPECT_EQ(clmpiHaloFree(halo), CL_SUCCESS);
    EXPECT_EQ(clmpiHaloFree(halo), CLMPI_INVALID_HALO);  // dead handle
    EXPECT_EQ(clmpiHaloStart(halo, cmd, 0, nullptr), CLMPI_INVALID_HALO);
    clReleaseMemObject(field);
    clReleaseCommandQueue(cmd);
    clReleaseContext(ctx);
  });
}

// --- the stencil app suite ---------------------------------------------------

struct AppOutcome {
  std::shared_ptr<vt::Tracer> tracer;
  double makespan_s{0.0};
  double value{0.0};  ///< rank 0's residual / mass
  mpi::FaultCounters faults{};
};

void expect_identical(const AppOutcome& a, const AppOutcome& b, const std::string& what) {
  ASSERT_NE(a.tracer->hash(), 0u) << what;
  EXPECT_EQ(a.tracer->hash(), b.tracer->hash())
      << what << "\n" << testutil::divergence(*a.tracer, *b.tracer);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s) << what;
  EXPECT_DOUBLE_EQ(a.value, b.value) << what;
  EXPECT_EQ(a.faults.messages, b.faults.messages) << what;
  EXPECT_EQ(a.faults.drops, b.faults.drops) << what;
  EXPECT_EQ(a.faults.duplicates, b.faults.duplicates) << what;
  EXPECT_EQ(a.faults.delays, b.faults.delays) << what;
  EXPECT_EQ(a.faults.retries, b.faults.retries) << what;
  EXPECT_EQ(a.faults.timeouts, b.faults.timeouts) << what;
}

/// Run `run_rank(rank, cfg)` on every rank of a traced cluster on `pool`
/// (nullptr: the default pool); rank 0's return value is the outcome's.
template <typename RunRank, typename Cfg>
AppOutcome run_app(sched::Scheduler* pool, int nranks, RunRank run_rank, const Cfg& cfg,
                   const sys::SystemProfile& prof, const mpi::FaultPlan& plan = {}) {
  auto tracer = std::make_shared<vt::Tracer>();
  auto o = opts(nranks, prof, tracer.get());
  o.scheduler = pool;
  o.faults = plan;
  std::vector<double> values(static_cast<std::size_t>(nranks), 0.0);
  const auto run = mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    values[static_cast<std::size_t>(rank.rank())] = run_rank(rank, cfg);
  });
  return {tracer, run.makespan_s, values[0], run.faults};
}

/// Hold `run(pool)` to bit identity across a re-run on the default pool and
/// across pools of every gate worker count.
template <typename Run>
void expect_reproducible(Run&& run, const std::string& what) {
  const AppOutcome first = run(nullptr);
  expect_identical(first, run(nullptr), what + ": re-run");
  for (const int workers : testutil::kGateWorkers) {
    const auto pool = testutil::make_pool(workers);
    expect_identical(first, run(pool.get()), what + ": " + std::to_string(workers) + " workers");
  }
}

AppOutcome run_jacobi(sched::Scheduler* pool, int nranks, int px, int py) {
  apps::jacobi2d::Config cfg = apps::jacobi2d::Config::size_s();
  cfg.px = px;
  cfg.py = py;
  cfg.iterations = 6;
  return run_app(
      pool, nranks,
      [](mpi::Rank& r, const auto& c) { return apps::jacobi2d::run_rank(r, c).residual; }, cfg,
      sys::ricc());
}

AppOutcome run_advection(sched::Scheduler* pool, int nranks) {
  apps::advection::Config cfg = apps::advection::Config::size_s();
  cfg.iterations = 8;
  return run_app(
      pool, nranks,
      [](mpi::Rank& r, const auto& c) { return apps::advection::run_rank(r, c).mass; }, cfg,
      sys::ricc());
}

AppOutcome run_overlap(sched::Scheduler* pool, int nranks, int px, int py) {
  apps::overlap::Config cfg = apps::overlap::Config::size_s();
  cfg.px = px;
  cfg.py = py;
  cfg.iterations = 6;
  return run_app(
      pool, nranks,
      [](mpi::Rank& r, const auto& c) { return apps::overlap::run_rank(r, c).residual; }, cfg,
      sys::ricc());
}

TEST(HaloApps, Jacobi2dWorkerCountBitIdentical) {
  expect_reproducible([](sched::Scheduler* p) { return run_jacobi(p, 4, 2, 2); },
                      "jacobi2d 2x2");
}

TEST(HaloApps, AdvectionWorkerCountBitIdentical) {
  expect_reproducible([](sched::Scheduler* p) { return run_advection(p, 4); },
                      "advection ring of 4");
  // nranks == 1: the ring degenerates to two self edges.
  expect_reproducible([](sched::Scheduler* p) { return run_advection(p, 1); },
                      "advection self-ring");
}

TEST(HaloApps, OverlapWorkerCountBitIdentical) {
  expect_reproducible([](sched::Scheduler* p) { return run_overlap(p, 4, 2, 2); },
                      "overlap 2x2");
}

TEST(HaloApps, AdvectionConservesMassExactly) {
  // The triangular bump is dyadic-rational everywhere and the upwind update
  // with cfl=0.5 stays exactly representable, so the transported mass must
  // equal the initial mass (= n/4) bit-for-bit at every rank count.
  const double expected = 4096.0 / 4.0;
  EXPECT_DOUBLE_EQ(run_advection(nullptr, 1).value, expected);
  EXPECT_DOUBLE_EQ(run_advection(nullptr, 2).value, expected);
  EXPECT_DOUBLE_EQ(run_advection(nullptr, 4).value, expected);
}

TEST(HaloApps, ResidualsArePositiveAndDecompositionInsensitive) {
  // Pure Jacobi numerics: the residual is a sum of squares of bit-identical
  // per-cell updates, so it must be finite and positive at every layout.
  EXPECT_GT(run_jacobi(nullptr, 1, 1, 1).value, 0.0);
  EXPECT_GT(run_jacobi(nullptr, 2, 2, 1).value, 0.0);
  EXPECT_GT(run_overlap(nullptr, 2, 1, 2).value, 0.0);
}

// --- chaos-suite scenarios: seed-identical trace hashes under faults ---------

/// Delivery-preserving chaos (reordering, latency spikes, stalls): the apps
/// must stay byte-correct and the trace hash must be a pure function of the
/// fault seed — identical across re-runs AND across worker counts.
mpi::FaultPlan chaos_plan(std::uint64_t seed) {
  mpi::FaultPlan p;
  p.seed = seed;
  p.reorder_rate = 0.5;
  p.latency_spike_rate = 0.4;
  p.stall_rate = 0.2;
  return p;
}

TEST(HaloChaos, Jacobi2dSeedIdenticalAcrossRunsAndModes) {
  apps::jacobi2d::Config cfg = apps::jacobi2d::Config::size_s();
  cfg.px = 2;
  cfg.py = 1;
  cfg.iterations = 4;
  auto body = [](mpi::Rank& r, const apps::jacobi2d::Config& c) {
    return apps::jacobi2d::run_rank(r, c).residual;
  };
  for (const std::uint64_t seed : {7ull, 23ull}) {
    expect_reproducible(
        [&](sched::Scheduler* p) {
          return run_app(p, 2, body, cfg, sys::ricc(), chaos_plan(seed));
        },
        "jacobi2d chaos seed " + std::to_string(seed));
  }
}

TEST(HaloChaos, AdvectionSeedIdenticalAcrossRunsAndModes) {
  // The 4-rank periodic ring is this suite's only chaos workload with real
  // multi-sender wire contention: every rank posts both edge legs, and the
  // fault plan's reorder/spike delays skew their ready times apart. Which
  // slot such unequal-ready contenders get on a shared NIC resource follows
  // grant order (vt/resource.hpp backfill), so this is the gate a
  // host-dependent schedule would fail first.
  apps::advection::Config cfg = apps::advection::Config::size_s();
  cfg.iterations = 6;
  auto body = [](mpi::Rank& r, const apps::advection::Config& c) {
    return apps::advection::run_rank(r, c).mass;
  };
  for (const std::uint64_t seed : {5ull, 41ull}) {
    for (const int nranks : {4, 2}) {
      expect_reproducible(
          [&](sched::Scheduler* p) {
            const AppOutcome o = run_app(p, nranks, body, cfg, sys::ricc(), chaos_plan(seed));
            // Chaos must never bend the numerics, only the schedule.
            EXPECT_DOUBLE_EQ(o.value, 4096.0 / 4.0);
            return o;
          },
          "advection " + std::to_string(nranks) + "-rank chaos seed " + std::to_string(seed));
    }
  }
}

TEST(HaloChaos, OverlapSeedIdenticalAcrossRunsAndModes) {
  apps::overlap::Config cfg = apps::overlap::Config::size_s();
  cfg.px = 2;
  cfg.py = 1;
  cfg.iterations = 4;
  auto body = [](mpi::Rank& r, const apps::overlap::Config& c) {
    return apps::overlap::run_rank(r, c).residual;
  };
  for (const std::uint64_t seed : {11ull, 31ull}) {
    expect_reproducible(
        [&](sched::Scheduler* p) {
          return run_app(p, 2, body, cfg, sys::ricc(), chaos_plan(seed));
        },
        "overlap chaos seed " + std::to_string(seed));
  }
}

TEST(HaloChaos, RmaTierSeedIdentical) {
  // The halo RMA tier under delivery-preserving chaos on cxlpod.
  apps::jacobi2d::Config cfg;
  cfg.nx = 16;
  cfg.ny = 16384;
  cfg.px = 2;
  cfg.py = 1;
  cfg.iterations = 3;
  auto body = [](mpi::Rank& r, const apps::jacobi2d::Config& c) {
    return apps::jacobi2d::run_rank(r, c).residual;
  };
  expect_reproducible(
      [&](sched::Scheduler* p) { return run_app(p, 2, body, cfg, sys::cxlpod(), chaos_plan(13)); },
      "jacobi2d rma chaos");
}

}  // namespace
}  // namespace clmpi
