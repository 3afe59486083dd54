#include "workloads.hpp"

#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "apps/himeno/himeno.hpp"
#include "breakdown.hpp"
#include "clmpi/runtime.hpp"
#include "halo/halo.hpp"
#include "ocl/context.hpp"
#include "ocl/kernel.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "simmpi/cluster.hpp"
#include "support/rng.hpp"
#include "svc/service.hpp"
#include "svc/workloads.hpp"
#include "systems/profile.hpp"
#include "vt/tracer.hpp"

namespace perfbench {

using namespace clmpi;

const Clock::time_point process_start = Clock::now();

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void CallTimer::add(double ns) {
  std::lock_guard lock(mutex_);
  ns_.push_back(ns);
}

std::vector<double> CallTimer::samples() const {
  std::lock_guard lock(mutex_);
  return ns_;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
}

void Report::makespan(bool agrees) {
  ++makespans;
  if (agrees) ++makespans_agree;
}

void Report::add_run(const Run& run) {
  runs.push_back(run);
  if (runs.size() > 1) return;
  // Peak resident set (VmHWM) after set-up and one run: a fixed amount of
  // work, unlike the whole timed stretch.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      values["peak_rss_mib"] = std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
}

namespace {

/// Runs per process at the least; run.py starts several timed processes, so
/// together they give the tail percentile its ten samples beyond.
constexpr std::size_t kMinRuns = 3;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Time `fn` on `which` when the run is traced, call it plainly otherwise.
template <typename Fn>
decltype(auto) timed(Layers* layers, CallTimer Layers::*which, Fn&& fn) {
  if (layers == nullptr) return fn();
  return (layers->*which).time(std::forward<Fn>(fn));
}

double allreduce(mpi::Rank& rank, double value, mpi::ReduceOp op, Layers* layers) {
  double out = 0.0;
  timed(layers, &Layers::allreduce, [&] {
    rank.world().allreduce(std::as_bytes(std::span(&value, 1)),
                           std::as_writable_bytes(std::span(&out, 1)),
                           mpi::Datatype::float64, op, rank.clock());
  });
  return out;
}

double wire_messages(const vt::Tracer& tracer) {
  const auto spans = tracer.spans();
  return static_cast<double>(std::count_if(spans.begin(), spans.end(), [](const auto& s) {
    return s.kind == vt::SpanKind::wire;
  }));
}

/// RAII environment override; restores the previous value.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

/// Run `fn` under the launcher setting whose virtual timeline repeats
/// exactly (one fiber worker), so virtual breakdowns compare across builds.
template <typename Fn>
void deterministic(Fn&& fn) {
  ScopedEnv sched("CLMPI_SCHED", "fibers");
  ScopedEnv workers("CLMPI_FIBER_WORKERS", "1");
  fn();
}

void put_breakdown(Report& r, const std::map<int, RankBreakdown>& by_rank, int ranks) {
  for (int i = 0; i < ranks; ++i) {
    const auto it = by_rank.find(i);
    const RankBreakdown b = it == by_rank.end() ? RankBreakdown{} : it->second;
    const std::string p = "vt.r" + std::to_string(i) + ".";
    r.values[p + "compute_us"] = b.compute * 1e6;
    r.values[p + "h2d_us"] = b.h2d * 1e6;
    r.values[p + "d2h_us"] = b.d2h * 1e6;
    r.values[p + "wire_us"] = b.wire * 1e6;
    r.values[p + "wait_us"] = b.wait * 1e6;
    r.values[p + "exposed_comm_us"] = b.exposed_comm * 1e6;
  }
}

/// Cluster launch plus the per-rank objects every workload builds first.
void launch_setup_only(const sys::SystemProfile& profile, int nranks) {
  mpi::Cluster::Options o;
  o.nranks = nranks;
  o.profile = &profile;
  mpi::Cluster::run(o, [](mpi::Rank& rank) {
    ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
    ocl::Context ctx(platform.device());
    rt::Runtime runtime(rank, platform.device());
  });
}

// --- himeno_cichlid4 -----------------------------------------------------------

namespace himeno_wl {

constexpr int kRanks = 4;
/// gosa of the M-class grid after 6 iterations; every variant and launcher
/// must reproduce it bit for bit.
constexpr double kReferenceGosa = 0x1.40564e3e4f0f5p-7;

apps::himeno::Config config(apps::himeno::Variant v) {
  apps::himeno::Config c = apps::himeno::Config::size_m();
  c.iterations = 6;  // as in bench_fig9_himeno
  c.variant = v;
  return c;
}

struct Outcome {
  double wall_s{0.0};
  double makespan_s{0.0};
  double gosa{0.0};
  bool ranks_agree{true};
};

Outcome run_once(apps::himeno::Variant v, vt::Tracer* tracer, Layers* layers) {
  mpi::Cluster::Options o;
  o.nranks = kRanks;
  o.profile = &sys::cichlid();
  o.tracer = tracer;
  const apps::himeno::Config cfg = config(v);
  std::array<apps::himeno::RankResult, kRanks> results{};
  std::atomic<bool> agree{true};
  const auto t0 = Clock::now();
  mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    const apps::himeno::RankResult res = apps::himeno::run_rank(rank, cfg);
    // Every rank must hold the same reduced residual. The check runs after
    // the rank's end time is taken, so the makespan is the application's.
    const double lo = allreduce(rank, res.gosa, mpi::ReduceOp::min, layers);
    const double hi = allreduce(rank, res.gosa, mpi::ReduceOp::max, layers);
    if (!same_bits(lo, res.gosa) || !same_bits(hi, res.gosa)) agree = false;
    results[static_cast<std::size_t>(rank.rank())] = res;
  });
  Outcome out{seconds_since(t0), 0.0, results[0].gosa, agree.load()};
  for (const auto& res : results) out.makespan_s = std::max(out.makespan_s, res.elapsed_s);
  return out;
}

}  // namespace himeno_wl

// --- halo_small ----------------------------------------------------------------

namespace halo_wl {

constexpr int kRanks = 4;
constexpr std::size_t kNx = 64;    // global interior; 2x2 grid -> 32 x 1024 local,
constexpr std::size_t kNy = 2048;  // so the x-edges are 1024 floats = 4 KiB
constexpr int kBlock = 100;        // iterations per timed run

/// 5-point Jacobi sweep; args 0 src, 1 dst, 2 resid, 3 nx, 4 ny, 5 padded x.
/// Stores the local residual sum in resid[0].
void jacobi_body(const ocl::NDRange&, const ocl::KernelArgs& a) {
  auto src = a.buffer(0)->as<float>();
  auto dst = a.buffer(1)->as<float>();
  auto resid = a.buffer(2)->as<double>();
  const auto nx = static_cast<std::size_t>(a.integer(3));
  const auto ny = static_cast<std::size_t>(a.integer(4));
  const auto px = static_cast<std::size_t>(a.integer(5));
  double acc = 0.0;
  for (std::size_t y = 1; y <= ny; ++y) {
    for (std::size_t x = 1; x <= nx; ++x) {
      const std::size_t at = y * px + x;
      const float v = 0.25f * (src[at - 1] + src[at + 1] + src[at - px] + src[at + px]);
      const float d = v - src[at];
      acc += static_cast<double>(d) * static_cast<double>(d);
      dst[at] = v;
    }
  }
  resid[0] = acc;
}

struct Params {
  const Options* opt{nullptr};
  int max_blocks{-1};  ///< stop after this many runs; -1 = after opt->seconds
  int iterations{kBlock};
};

/// What rank 0 hands back; only rank 0 writes it.
struct Shared {
  Report* report{nullptr};
  Clock::time_point start{};
  std::vector<double> residuals;
  std::vector<double> block_virtual_s;
};

void rank_body(mpi::Rank& rank, const Params& p, Shared& sh) {
  Layers* layers = p.opt->layers;
  const bool root = rank.rank() == 0;

  ocl::Platform platform(rank.profile(), rank.rank(), rank.tracer());
  ocl::Context ctx(platform.device());
  rt::Runtime runtime(rank, platform.device());
  auto queue = ctx.create_queue("halo_small");

  halo::Spec spec;
  spec.dims = 2;
  spec.interior = {kNx / 2, kNy / 2, 1};
  spec.grid = {2, 2, 1};
  spec.elem_size = sizeof(float);
  halo::Spec spec_nxt = spec;
  spec_nxt.tag_base = spec.tag_base + 10;
  const auto padded = halo::padded_extents(spec);

  ocl::BufferPtr cur = ctx.create_buffer(halo::field_bytes(spec));
  ocl::BufferPtr nxt = ctx.create_buffer(halo::field_bytes(spec));
  ocl::BufferPtr resid = ctx.create_buffer(sizeof(double));
  ocl::Program program;
  program.define("jacobi", jacobi_body, ocl::flops_per_item(7.0));

  // One plan per buffer, as in apps::jacobi2d: the buffers swap roles.
  std::optional<halo::Plan> plan_cur;
  std::optional<halo::Plan> plan_nxt;
  timed(layers, &Layers::plan_create,
        [&] { plan_cur.emplace(runtime, ctx, rank.world(), cur, spec); });
  timed(layers, &Layers::plan_create,
        [&] { plan_nxt.emplace(runtime, ctx, rank.world(), nxt, spec_nxt); });

  // The seed picks the initial field; the open-boundary ghosts stay 1.
  Rng rng(derive_seed(p.opt->seed, 0x4a10));
  const auto ax = static_cast<long>(1 + rng.below(63));
  const auto ay = static_cast<long>(1 + rng.below(63));
  const auto shift = static_cast<long>(rng.below(1024));
  const auto coords = halo::coords_of(rank.rank(), spec);
  const auto base_x = static_cast<long>(static_cast<std::size_t>(coords[0]) * spec.interior[0]);
  const auto base_y = static_cast<long>(static_cast<std::size_t>(coords[1]) * spec.interior[1]);
  const auto init = [&] {
    for (const ocl::BufferPtr* buf : {&cur, &nxt}) {
      auto data = (*buf)->as<float>();
      for (std::size_t y = 0; y < padded[1]; ++y) {
        for (std::size_t x = 0; x < padded[0]; ++x) {
          const long gx = base_x + static_cast<long>(x) - 1;
          const long gy = base_y + static_cast<long>(y) - 1;
          const bool inside = gx >= 0 && gy >= 0 && gx < static_cast<long>(kNx) &&
                              gy < static_cast<long>(kNy);
          const auto h = static_cast<float>((gx * ax + gy * ay + shift) & 1023);
          data[y * padded[0] + x] = inside ? h / 1024.0f : 1.0f;
        }
      }
    }
  };
  const auto kernel = [&](const ocl::BufferPtr& src, const ocl::BufferPtr& dst) {
    ocl::KernelPtr k = program.create_kernel("jacobi");
    k->set_arg(0, src);
    k->set_arg(1, dst);
    k->set_arg(2, resid);
    k->set_arg(3, static_cast<std::int64_t>(spec.interior[0]));
    k->set_arg(4, static_cast<std::int64_t>(spec.interior[1]));
    k->set_arg(5, static_cast<std::int64_t>(padded[0]));
    return k;
  };

  for (int block = 0;; ++block) {
    // Gate: rank 0 decides whether another run follows; the max-allreduce
    // hands every rank the same answer and returns only once all ranks are
    // set up, so the first gate ends the set-up phase.
    double stop = 0.0;
    if (root) {
      const bool done = p.max_blocks >= 0
                            ? block >= p.max_blocks
                            : block >= static_cast<int>(kMinRuns) &&
                                  seconds_since(sh.start) >= p.opt->seconds;
      stop = done ? 1.0 : 0.0;
    }
    stop = allreduce(rank, stop, mpi::ReduceOp::max, layers);
    if (root && block == 0) {
      sh.report->setup_s = seconds_since(process_start);
      sh.start = Clock::now();
    }
    if (stop != 0.0) break;

    // Every run starts from the same field, so every run's residual repeats.
    init();
    ocl::BufferPtr src = cur;
    ocl::BufferPtr dst = nxt;
    ocl::EventPtr prev;
    double global = 0.0;
    const double cpu0 = process_cpu_s();
    const double virtual0 = rank.now_s();
    const auto t0 = Clock::now();
    for (int it = 0; it < p.iterations; ++it) {
      const auto step0 = Clock::now();
      halo::Plan& plan = (it % 2 == 0) ? *plan_cur : *plan_nxt;
      std::array<ocl::EventPtr, 1> w{prev};
      timed(layers, &Layers::halo_start,
            [&] { plan.start(*queue, prev ? ocl::WaitList(w) : ocl::WaitList{}); });
      ocl::EventPtr ready = timed(layers, &Layers::halo_complete, [&] { return plan.complete(*queue); });
      std::array<ocl::EventPtr, 1> kw{ready};
      prev = timed(layers, &Layers::ocl_enqueue, [&] {
        return queue->enqueue_ndrange(kernel(src, dst),
                                      ocl::NDRange::grid2(spec.interior[0], spec.interior[1]),
                                      kw, rank.clock());
      });
      timed(layers, &Layers::ocl_finish, [&] { queue->finish(rank.clock()); });
      global = allreduce(rank, resid->as<double>()[0], mpi::ReduceOp::sum, layers);
      std::swap(src, dst);
      if (root) sh.report->job_latency_s.push_back(seconds_since(step0));
    }
    timed(layers, &Layers::rt_finish, [&] { runtime.finish(rank.clock()); });
    if (root) {
      Run run;
      run.wall_s = seconds_since(t0);
      run.cpu_s = process_cpu_s() - cpu0;
      run.jobs = static_cast<double>(p.iterations);
      sh.report->add_run(run);
      sh.residuals.push_back(global);
      sh.block_virtual_s.push_back(rank.now_s() - virtual0);
    }
  }
  queue->finish(rank.clock());
  runtime.finish(rank.clock());
}

Report run(const Params& p, vt::Tracer* tracer) {
  Report r;
  Shared sh;
  sh.report = &r;
  mpi::Cluster::Options o;
  o.nranks = kRanks;
  o.profile = &sys::ricc();
  o.tracer = tracer;
  mpi::Cluster::run(o, [&](mpi::Rank& rank) { rank_body(rank, p, sh); });
  for (const double res : sh.residuals) {
    r.check(same_bits(res, sh.residuals.front()), "halo_small residual differs between runs");
  }
  for (const double v : sh.block_virtual_s) r.makespan(v == sh.block_virtual_s.front());
  return r;
}

/// Wire messages of one run: a traced one-run cluster minus a traced
/// set-up-only one.
double messages_per_run(const Options& opt) {
  Options plain = opt;
  plain.layers = nullptr;
  double count[2] = {0.0, 0.0};
  for (int blocks = 0; blocks < 2; ++blocks) {
    vt::Tracer tracer;
    run({&plain, blocks, kBlock}, &tracer);
    count[blocks] = wire_messages(tracer);
  }
  return count[1] - count[0];
}

}  // namespace halo_wl

// --- service_mixed -------------------------------------------------------------

namespace service_wl {

constexpr std::size_t kCatalog = 12;
/// Jobs per run: forty rounds of the catalog, so every run has the same mix.
constexpr std::size_t kRunJobs = 40 * kCatalog;

/// The job mix: four sizes of each kind. The seed varies the chaos message
/// streams and the submission order, never the cost of the mix. Specs repeat,
/// so the per-job trace hashes of repeats must agree.
std::vector<svc::JobSpec> catalog(std::uint64_t seed) {
  struct Shape {
    svc::JobKind kind;
    int nranks;
    int iterations;
  };
  constexpr Shape shapes[kCatalog] = {
      {svc::JobKind::himeno, 2, 1}, {svc::JobKind::halo, 2, 2}, {svc::JobKind::chaos, 2, 4},
      {svc::JobKind::himeno, 2, 2}, {svc::JobKind::halo, 4, 2}, {svc::JobKind::chaos, 2, 6},
      {svc::JobKind::himeno, 2, 1}, {svc::JobKind::halo, 2, 4}, {svc::JobKind::chaos, 2, 8},
      {svc::JobKind::himeno, 2, 2}, {svc::JobKind::halo, 4, 4}, {svc::JobKind::chaos, 2, 5},
  };
  Rng rng(derive_seed(seed, 0x5e41c0));
  std::vector<svc::JobSpec> specs;
  for (const Shape& shape : shapes) {
    svc::JobSpec s;
    s.kind = shape.kind;
    s.nranks = shape.nranks;
    s.iterations = shape.iterations;
    s.seed = 1 + rng.below(1u << 20);
    specs.push_back(std::move(s));
  }
  return specs;
}

/// Submission order: rounds that each hold every catalog entry once, in a
/// seeded order.
class Order {
 public:
  explicit Order(std::uint64_t seed) : rng_(derive_seed(seed, 0x5e41c1)) {}
  std::size_t next() {
    if (at_ == round_.size()) {
      for (std::size_t i = 0; i < round_.size(); ++i) round_[i] = i;
      for (std::size_t i = round_.size() - 1; i > 0; --i) {
        std::swap(round_[i], round_[rng_.below(i + 1)]);
      }
      at_ = 0;
    }
    return round_[at_++];
  }

 private:
  Rng rng_;
  std::array<std::size_t, kCatalog> round_{};
  std::size_t at_{kCatalog};
};

/// Closed-loop depth: one client keeps this many jobs in flight.
std::size_t in_flight() {
  const unsigned hc = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hc == 0 ? 1 : hc, 1, 4);
}

double standalone(const svc::JobSpec& spec, vt::Tracer* tracer) {
  mpi::Cluster::Options o;
  o.nranks = spec.nranks;
  o.profile = &sys::profile_by_name(spec.profile);
  o.tracer = tracer;
  return mpi::Cluster::run(o, svc::make_workload(spec)).makespan_s;
}

}  // namespace service_wl

}  // namespace

Report run_himeno(const Options& opt) {
  using apps::himeno::Variant;
  Report r;
  // apps::himeno builds its grid buffers inside every run, so set-up is the
  // cluster launch with the per-rank platform, context and runtime.
  launch_setup_only(sys::cichlid(), himeno_wl::kRanks);
  r.setup_s = seconds_since(process_start);

  std::array<double, 2> first_makespan{-1.0, -1.0};
  const auto start = Clock::now();
  while (r.runs.size() < kMinRuns || seconds_since(start) < opt.seconds) {
    const double cpu0 = process_cpu_s();
    Run run;
    std::array<double, 2> gosa{};
    for (std::size_t i = 0; i < 2; ++i) {
      const Variant v = i == 0 ? Variant::hand_optimized : Variant::clmpi;
      vt::Tracer tracer;
      const himeno_wl::Outcome out =
          himeno_wl::run_once(v, opt.layers != nullptr ? &tracer : nullptr, opt.layers);
      run.wall_s += out.wall_s;
      r.job_latency_s.push_back(out.wall_s);
      r.check(out.ranks_agree, "himeno ranks disagree on gosa");
      gosa[i] = out.gosa;
      if (first_makespan[i] < 0.0) first_makespan[i] = out.makespan_s;
      r.makespan(out.makespan_s == first_makespan[i]);
    }
    r.check(same_bits(gosa[0], gosa[1]) && same_bits(gosa[0], himeno_wl::kReferenceGosa),
            "himeno gosa differs between variants or from the reference");
    run.cpu_s = process_cpu_s() - cpu0;
    run.jobs = 2.0;
    r.add_run(run);
  }
  return r;
}

Report run_halo(const Options& opt) {
  vt::Tracer tracer;
  return halo_wl::run({&opt, -1, halo_wl::kBlock}, opt.layers != nullptr ? &tracer : nullptr);
}

Report run_service(const Options& opt) {
  Report r;
  const std::vector<svc::JobSpec> specs = service_wl::catalog(opt.seed);
  service_wl::Order order(opt.seed);
  {
    svc::Service service(svc::Service::Options{});
    r.setup_s = seconds_since(process_start);

    struct Pending {
      std::uint64_t id;
      std::size_t spec;
    };
    std::deque<Pending> pending;
    std::map<std::size_t, std::pair<std::uint64_t, double>> first;  // hash, makespan
    std::size_t submitted = 0;
    std::size_t completed = 0;
    double cpu0 = process_cpu_s();
    auto run0 = Clock::now();
    const auto start = Clock::now();
    // Submissions stop on a run boundary, so the last run is whole too.
    const auto more = [&] {
      if (submitted % service_wl::kRunJobs != 0) return true;
      return submitted / service_wl::kRunJobs < kMinRuns || seconds_since(start) < opt.seconds;
    };
    for (;;) {
      while (pending.size() < service_wl::in_flight() && more()) {
        const std::size_t idx = order.next();
        const std::uint64_t id =
            timed(opt.layers, &Layers::svc_submit, [&] { return service.submit(specs[idx]); });
        pending.push_back({id, idx});
        ++submitted;
      }
      if (pending.empty()) break;
      // The client waits in submission order, then refills the loop.
      const Pending job = pending.front();
      pending.pop_front();
      const svc::JobResult res = service.wait(job.id);
      const auto [it, fresh] = first.emplace(job.spec, std::pair{res.trace_hash, res.makespan_s});
      const bool same_hash = fresh || it->second.first == res.trace_hash;
      r.check(res.state == svc::JobState::succeeded && same_hash,
              std::string("service job ") + svc::to_string(specs[job.spec].kind) + ": " +
                  svc::to_string(res.state) + (res.error.empty() ? "" : " " + res.error) +
                  (same_hash ? "" : " (trace hash differs)"));
      if (!fresh) r.makespan(it->second.second == res.makespan_s);
      r.job_latency_s.push_back(res.queue_delay_s + res.run_wall_s);
      if (opt.layers != nullptr) {
        opt.layers->svc_queue_delay_s.push_back(res.queue_delay_s);
        opt.layers->svc_run_wall_s.push_back(res.run_wall_s);
      }
      if (++completed % service_wl::kRunJobs == 0) {
        const double cpu1 = process_cpu_s();
        Run run;
        run.wall_s = seconds_since(run0);
        run.cpu_s = cpu1 - cpu0;
        run.jobs = static_cast<double>(service_wl::kRunJobs);
        r.add_run(run);
        cpu0 = cpu1;
        run0 = Clock::now();
      }
    }
    if (opt.layers != nullptr) opt.layers->svc_rejected = service.stats().rejected;
  }
  return r;
}

double messages_per_run(const std::string& workload, const Options& opt) {
  if (workload == "himeno_cichlid4") {
    double msgs = 0.0;
    for (const auto v : {apps::himeno::Variant::hand_optimized, apps::himeno::Variant::clmpi}) {
      vt::Tracer tracer;
      himeno_wl::run_once(v, &tracer, nullptr);
      msgs += wire_messages(tracer);
    }
    return msgs;
  }
  if (workload == "halo_small") return halo_wl::messages_per_run(opt);
  // Every service run holds the same number of each catalog entry.
  double msgs = 0.0;
  for (const svc::JobSpec& spec : service_wl::catalog(opt.seed)) {
    vt::Tracer tracer;
    service_wl::standalone(spec, &tracer);
    msgs += wire_messages(tracer);
  }
  return msgs * static_cast<double>(service_wl::kRunJobs / service_wl::kCatalog);
}

void probe_layers(const std::string& workload, const Options& opt, Report& r) {
  Layers& layers = *opt.layers;
  const bool himeno = workload == "himeno_cichlid4";
  const sys::SystemProfile& profile = himeno ? sys::cichlid() : sys::ricc();

  for (int i = 0; i < 10; ++i) {
    layers.launch.time([&] { launch_setup_only(profile, 4); });
  }

  // Stand-in calls for the public functions this workload never makes from
  // benchmark code: one short halo_small run, and a handful of service jobs.
  const auto fill = [](CallTimer& into, const CallTimer& from) {
    if (!into.samples().empty()) return;
    for (const double ns : from.samples()) into.add(ns);
  };
  {
    Layers stand_in;
    Options o = opt;
    o.layers = &stand_in;
    halo_wl::run({&o, 1, 20}, nullptr);
    fill(layers.allreduce, stand_in.allreduce);
    fill(layers.plan_create, stand_in.plan_create);
    fill(layers.halo_start, stand_in.halo_start);
    fill(layers.halo_complete, stand_in.halo_complete);
    fill(layers.ocl_enqueue, stand_in.ocl_enqueue);
    fill(layers.ocl_finish, stand_in.ocl_finish);
    fill(layers.rt_finish, stand_in.rt_finish);
  }
  if (layers.svc_submit.samples().empty()) {
    svc::Service service(svc::Service::Options{});
    std::vector<std::uint64_t> ids;
    for (const svc::JobSpec& spec : service_wl::catalog(opt.seed)) {
      ids.push_back(layers.svc_submit.time([&] { return service.submit(spec); }));
    }
    for (const std::uint64_t id : ids) {
      const svc::JobResult res = service.wait(id);
      layers.svc_queue_delay_s.push_back(res.queue_delay_s);
      layers.svc_run_wall_s.push_back(res.run_wall_s);
    }
    layers.svc_rejected = service.stats().rejected;
  }

  // Per-rank virtual breakdown, on the launcher setting that repeats exactly.
  deterministic([&] {
    std::map<int, RankBreakdown> by_rank;
    double spans = 0.0;
    const auto add = [&](const vt::Tracer& tracer) {
      const auto all = tracer.spans();
      spans += static_cast<double>(all.size());
      for (const auto& [rank, b] : breakdown(all)) by_rank[rank] += b;
    };
    if (himeno) {
      vt::Tracer tracer;
      himeno_wl::run_once(apps::himeno::Variant::clmpi, &tracer, nullptr);
      add(tracer);
    } else if (workload == "halo_small") {
      Options o = opt;
      o.layers = nullptr;
      vt::Tracer tracer;
      halo_wl::run({&o, 1, halo_wl::kBlock}, &tracer);
      add(tracer);
    } else {
      for (const svc::JobSpec& spec : service_wl::catalog(opt.seed)) {
        vt::Tracer tracer;
        service_wl::standalone(spec, &tracer);
        add(tracer);
      }
    }
    put_breakdown(r, by_rank, 4);
    r.values["vt.spans"] = spans;
  });
}

Report run_fidelity() {
  using apps::himeno::Variant;
  Report r;
  std::array<himeno_wl::Outcome, 3> out;
  std::array<std::map<int, RankBreakdown>, 3> parts;
  const std::array<Variant, 3> variants{Variant::serial, Variant::hand_optimized, Variant::clmpi};
  for (std::size_t i = 0; i < variants.size(); ++i) {
    vt::Tracer tracer;
    out[i] = himeno_wl::run_once(variants[i], &tracer, nullptr);
    parts[i] = breakdown(tracer.spans());
    r.check(out[i].ranks_agree, "himeno ranks disagree on gosa");
    r.check(same_bits(out[i].gosa, himeno_wl::kReferenceGosa),
            std::string("himeno ") + apps::himeno::to_string(variants[i]) +
                " gosa differs from the reference");
  }
  // Fig. 9 reports GFLOPS; with equal work, clMPI/hand is hand/clMPI makespan.
  r.values["fig9_ratio"] = out[1].makespan_s / out[2].makespan_s;

  // comp:comm of the serial variant, as bench_fig9_himeno derives it: the
  // busiest rank's compute against the rest of the makespan.
  double compute = 0.0;
  for (const auto& [rank, b] : parts[0]) compute = std::max(compute, b.compute);
  const double comp_comm = compute / (out[0].makespan_s - compute);
  r.values["serial_comp_comm"] = comp_comm;
  r.check(std::abs(comp_comm - 0.57) < 0.005,
          "serial comp:comm at Cichlid 4 is not EXPERIMENTS.md's 0.57");
  for (std::size_t i = 1; i < 3; ++i) {
    double exposed = 0.0;
    for (const auto& [rank, b] : parts[i]) exposed = std::max(exposed, b.exposed_comm);
    r.values[std::string(i == 1 ? "hand" : "clmpi") + ".exposed_comm_us"] = exposed * 1e6;
  }
  return r;
}

}  // namespace perfbench
