// Wall-clock throughput benchmark for the host-side hot paths.
//
// Unlike the figure benches (which report *virtual* time reproduced from the
// paper's model), this harness measures how fast the simulator itself runs:
// messages per wall-clock second through the sharded mailbox, the eager
// inline fast path, the staged device transfers and the batched dispatcher. It
// is the regression gate for host-side overhead — the virtual results must
// not move at all (each scenario also records its trace hash, makespan and
// fault counters, which must be identical across builds for equal seeds).
//
// Scenarios:
//   eager_inline     64 B ping-pong        (inline eager store, shard locks)
//   eager_small      4 KiB ping-pong       (eager heap copy path)
//   rendezvous_large 256 KiB ping-pong     (rendezvous matching)
//   pinned_repeat    repeated 256 KiB pinned device transfers (bounce buffers)
//   pipelined_large  8 MiB pipelined device transfers (per-block bounce buffers)
//   mailbox_fanin    4 ranks, 3 senders fan in to rank 0 on distinct tags
//   rma_put_fanin    4 ranks, 3 peers Put 16 KiB slots into rank 0's window
//                    each fence epoch (shmem one-sided tier on cxlpod)
//   progress_starved 4-rank fan-in completed purely by on_settle
//                    continuations — zero blocking waits
//   persistent_halo  4-rank ring halo exchange; send_init/recv_init once,
//                    start() every epoch (persistent-request replay path)
//   halo_*           the clmpi_halo stencil apps (2-D Jacobi, 1-D advection,
//                    inner/boundary overlap) as edge-size curve points; the
//                    jacobi2d points straddle the cxlpod one-sided threshold
//   chaos_replay     7 fault classes x 3 strategies, one seeded scenario each
//   rank_scaling     p2p ring + reduced Himeno at 100/500/1000 ranks (16/64 in
//                    smoke); one row per rank count with RSS, fiber resumes
//                    and worker-count determinism gates
//   service_soak     multi-tenant svc::Service burst of 240 short mixed jobs
//                    (48 in smoke) x3 runs; gates per-job trace-hash
//                    stability and records p99 job latency
//
// Every row but progress_starved, chaos_replay and service_soak counts the
// fiber resumes and skipped visits of its traced run (sched.fiber_resumes,
// sched.fiber_skips).
//
// Output: a `# host {...}` metadata line (the same keys as perfbench's,
// minus its source digest) and a human-readable table on stdout, and a JSON
// document with the same host object and one entry per scenario (default
// BENCH_throughput.json, override with --out PATH). `--smoke` shrinks every
// scenario so the whole run finishes in a few seconds (the `bench-smoke`
// CTest label runs this configuration).
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <thread>
#include <functional>
#include <string>
#include <vector>

#include "apps/advection/advection.hpp"
#include "apps/himeno/himeno.hpp"
#include "apps/jacobi2d/jacobi2d.hpp"
#include "apps/overlap/overlap.hpp"
#include "bench_util.hpp"
#include "clmpi/runtime.hpp"
#include "obs/metrics.hpp"
#include "ocl/context.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/window.hpp"
#include "support/rng.hpp"
#include "support/sched.hpp"
#include "support/units.hpp"
#include "svc/service.hpp"
#include "transfer/strategy.hpp"
#include "vt/tracer.hpp"

namespace clmpi {
namespace {

struct Config {
  bool smoke{false};
  std::string out_path{"BENCH_throughput.json"};
  std::string only;  ///< when non-empty, run only the scenario with this name
  int warmup{1};
  int reps{5};
};

struct ScenarioResult {
  std::string name;
  benchutil::WallTiming wall;
  double msgs_per_rep{0.0};     ///< logical messages per repetition
  double virtual_makespan_s{0.0};
  std::uint64_t trace_hash{0};
  mpi::FaultCounters counters;
  double p99_job_latency_s{-1.0};  ///< service_soak only; -1 elsewhere
  std::vector<obs::Sample> metrics;  ///< nonzero obs counters from the timed reps
};

/// Registry counters accumulated over the timed repetitions, nonzero only.
std::vector<obs::Sample> drain_metrics() {
  std::vector<obs::Sample> kept;
  for (auto& s : obs::Registry::instance().snapshot()) {
    if (s.value != 0) kept.push_back(std::move(s));
  }
  return kept;
}

/// A run's fiber resumes and the visits that skipped a parked fiber
/// (sched::StrandStats), as row counters.
void add_fiber_counts(ScenarioResult& r, const mpi::RunResult& run) {
  r.metrics.push_back({"sched.fiber_resumes", run.fiber_resumes});
  r.metrics.push_back({"sched.fiber_skips", run.fiber_skips});
}

double msgs_per_sec(const ScenarioResult& r) {
  return r.wall.median_s > 0.0 ? r.msgs_per_rep / r.wall.median_s : 0.0;
}

/// `v` as a JSON string literal: quotes and backslashes escaped, control
/// characters dropped.
std::string json_string(const std::string& v) {
  std::string out = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// First line of a shell command's stdout, empty when it fails.
std::string command_line(const char* cmd) {
  std::string line;
  if (FILE* p = popen(cmd, "r")) {
    char buf[256];
    if (std::fgets(buf, sizeof(buf), p) != nullptr) line = buf;
    if (pclose(p) != 0) line.clear();
  }
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) line.pop_back();
  return line;
}

/// Host metadata as one JSON object with sorted keys, the same fields as
/// perfbench's `# host` line except its source digest.
std::string host_metadata() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  const char* workers_env = std::getenv("CLMPI_FIBER_WORKERS");
  const long workers = workers_env != nullptr ? std::atol(workers_env) : 0;
  std::string env = "{";
  std::vector<std::string> vars;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CLMPI_", 6) == 0) vars.emplace_back(*e);
  }
  std::sort(vars.begin(), vars.end());
  for (const std::string& kv : vars) {
    const std::size_t eq = kv.find('=');
    env += (env.size() > 1 ? ", " : "") + json_string(kv.substr(0, eq)) + ": " +
           json_string(kv.substr(eq + 1));
  }
  env += "}";
  char date[32];
  const std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%S+00:00", std::gmtime(&now));
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  const std::string rev = command_line("git -C '" CLMPI_SOURCE_DIR "' rev-parse HEAD 2>/dev/null");
  return "{\"build_type\": " + json_string(CLMPI_BUILD_TYPE) + ", \"clmpi_env\": " + env +
         ", \"compiler\": " + json_string(compiler) +
         ", \"cpus_online\": " + std::to_string(online) +
         ", \"date\": " + json_string(date) + ", \"fiber_workers_default\": " +
         std::to_string(workers > 0 ? workers : online) +
         ", \"git_rev\": " + (rev.empty() ? std::string("null") : json_string(rev)) +
         ", \"nproc\": " + std::to_string(nproc) + "}";
}

/// Run `body` once with a tracer to capture the virtual-time fingerprint
/// (hash, makespan, fault counters), then `reps` untraced timed repetitions.
ScenarioResult run_scenario(const Config& cfg, std::string name, int nranks,
                            const mpi::FaultPlan& faults, double messages,
                            const sys::SystemProfile& profile,
                            const std::function<void(mpi::Rank&)>& body) {
  ScenarioResult r;
  r.name = std::move(name);
  r.msgs_per_rep = messages;

  mpi::RunResult traced;
  {
    vt::Tracer tracer;
    mpi::Cluster::Options o;
    o.nranks = nranks;
    o.profile = &profile;
    o.tracer = &tracer;
    o.faults = faults;
    traced = mpi::Cluster::run(o, body);
    r.trace_hash = tracer.hash();
    r.virtual_makespan_s = traced.makespan_s;
    r.counters = traced.faults;
  }

  obs::Registry::instance().reset();
  r.wall = benchutil::time_wall(cfg.warmup, cfg.reps, [&] {
    mpi::Cluster::Options o;
    o.nranks = nranks;
    o.profile = &profile;
    o.faults = faults;
    mpi::Cluster::run(o, body);
  });
  r.metrics = drain_metrics();
  add_fiber_counts(r, traced);
  return r;
}

// --- p2p ping-pong (plain MPI, message-rate scenarios) -----------------------

ScenarioResult pingpong(const Config& cfg, const std::string& name, std::size_t size,
                        int rounds) {
  return run_scenario(
      cfg, name, 2, {}, 2.0 * rounds, sys::ricc(), [size, rounds](mpi::Rank& rank) {
        std::vector<std::byte> buf(size, std::byte{0x5A});
        for (int i = 0; i < rounds; ++i) {
          if (rank.rank() == 0) {
            rank.world().send(buf, 1, 7, rank.clock());
            rank.world().recv(buf, 1, 8, rank.clock());
          } else {
            rank.world().recv(buf, 0, 7, rank.clock());
            rank.world().send(buf, 0, 8, rank.clock());
          }
        }
      });
}

// --- fan-in: concurrent senders on distinct channels -------------------------

ScenarioResult fanin(const Config& cfg, int msgs_per_sender) {
  constexpr int kRanks = 4;
  constexpr std::size_t kSize = 1_KiB;
  return run_scenario(
      cfg, "mailbox_fanin", kRanks, {},
      static_cast<double>((kRanks - 1) * msgs_per_sender), sys::ricc(),
      [msgs_per_sender](mpi::Rank& rank) {
        std::vector<std::byte> buf(kSize, std::byte{0x33});
        if (rank.rank() == 0) {
          std::vector<mpi::Request> reqs;
          std::vector<std::vector<std::byte>> bufs(
              static_cast<std::size_t>((rank.size() - 1) * msgs_per_sender));
          for (auto& b : bufs) b.resize(kSize);
          std::size_t n = 0;
          for (int src = 1; src < rank.size(); ++src) {
            for (int i = 0; i < msgs_per_sender; ++i) {
              reqs.push_back(rank.world().irecv(bufs[n++], src, src * 1000 + i,
                                                rank.clock()));
            }
          }
          for (auto& req : reqs) req.wait(rank.clock());
        } else {
          std::vector<mpi::Request> reqs;
          for (int i = 0; i < msgs_per_sender; ++i) {
            reqs.push_back(
                rank.world().isend(buf, 0, rank.rank() * 1000 + i, rank.clock()));
          }
          for (auto& req : reqs) req.wait(rank.clock());
        }
      });
}

// --- one-sided fan-in: every peer Puts into rank 0's window ------------------

ScenarioResult rma_put_fanin(const Config& cfg, int epochs) {
  constexpr int kRanks = 4;
  constexpr std::size_t kSlot = 16_KiB;
  return run_scenario(
      cfg, "rma_put_fanin", kRanks, {},
      static_cast<double>((kRanks - 1) * epochs), sys::cxlpod(),
      [epochs](mpi::Rank& rank) {
        std::vector<std::byte> region(static_cast<std::size_t>(kRanks - 1) * kSlot);
        mpi::Win win = mpi::create_window(rank.world(), region, rank.clock());
        std::vector<std::byte> payload(kSlot, std::byte{0x5C});
        win.fence(rank.clock());  // open the first access epoch
        for (int e = 0; e < epochs; ++e) {
          if (rank.rank() != 0) {
            win.put(payload, 0, static_cast<std::size_t>(rank.rank() - 1) * kSlot,
                    rank.clock());
          }
          win.fence(rank.clock());
        }
        win.free(rank.clock());
      });
}

// --- progress engine: continuation-only fan-in (no blocking waits) -----------

// Same fan-in shape as mailbox_fanin, but no rank ever parks in wait():
// completion is observed purely through on_settle continuations plus a
// sched::yield() spin on an atomic remaining-count. Every send is eager, so
// its own post settles it, and each receive settles when the later of it and
// its matching send is posted — liveness never relies on the idle backstop.
// The scenario is its own determinism gate: the traced run repeats three
// times and the hashes/makespans must match exactly, and the timed reps must
// record zero progress.blocking_waits.
ScenarioResult progress_starved(const Config& cfg, int msgs_per_sender) {
  constexpr int kRanks = 4;
  constexpr std::size_t kSize = 512;  // sub-eager: sends settle at post time
  const auto body = [msgs_per_sender](mpi::Rank& rank) {
    std::vector<std::byte> buf(kSize, std::byte{0x77});
    std::vector<mpi::Request> reqs;
    std::vector<std::vector<std::byte>> bufs;
    if (rank.rank() == 0) {
      bufs.resize(static_cast<std::size_t>((rank.size() - 1) * msgs_per_sender));
      std::size_t n = 0;
      for (int src = 1; src < rank.size(); ++src) {
        for (int i = 0; i < msgs_per_sender; ++i) {
          bufs[n].resize(kSize);
          reqs.push_back(rank.world().irecv(bufs[n++], src, src * 1000 + i,
                                            rank.clock()));
        }
      }
    } else {
      for (int i = 0; i < msgs_per_sender; ++i) {
        reqs.push_back(
            rank.world().isend(buf, 0, rank.rank() * 1000 + i, rank.clock()));
      }
    }
    auto remaining = std::make_shared<std::atomic<std::size_t>>(reqs.size());
    for (auto& req : reqs) {
      req.on_settle([remaining](vt::TimePoint, const std::exception_ptr&) {
        remaining->fetch_sub(1, std::memory_order_acq_rel);
      });
    }
    // sched::yield() suspends the rank's fiber so the other ranks of its
    // strand can run — a raw std::this_thread::yield() here would livelock
    // the strand.
    while (remaining->load(std::memory_order_acquire) != 0) {
      sched::yield();
    }
    // All settled: completion fields are lock-free-readable now. Synchronize
    // the rank's clock exactly as a waitall would — to the latest completion.
    vt::TimePoint latest{};
    for (auto& req : reqs) latest = vt::max(latest, req.completion_time());
    rank.clock().sync_to(latest);
  };

  ScenarioResult r;
  r.name = "progress_starved";
  r.msgs_per_rep = static_cast<double>((kRanks - 1) * msgs_per_sender);

  // Determinism gate: three traced runs must agree bit-for-bit.
  {
    for (int run = 0; run < 3; ++run) {
      vt::Tracer tracer;
      mpi::Cluster::Options o;
      o.nranks = kRanks;
      o.profile = &sys::ricc();
      o.tracer = &tracer;
      const mpi::RunResult res = mpi::Cluster::run(o, body);
      if (run == 0) {
        r.trace_hash = tracer.hash();
        r.virtual_makespan_s = res.makespan_s;
        r.counters = res.faults;
      } else if (tracer.hash() != r.trace_hash ||
                 res.makespan_s != r.virtual_makespan_s) {
        std::fprintf(stderr,
                     "progress_starved: traced run %d diverged "
                     "(hash 0x%016llx vs 0x%016llx, makespan %.17g vs %.17g)\n",
                     run, static_cast<unsigned long long>(tracer.hash()),
                     static_cast<unsigned long long>(r.trace_hash), res.makespan_s,
                     r.virtual_makespan_s);
        std::exit(1);
      }
    }
  }

  obs::Registry::instance().reset();
  r.wall = benchutil::time_wall(cfg.warmup, cfg.reps, [&] {
    mpi::Cluster::Options o;
    o.nranks = kRanks;
    o.profile = &sys::ricc();
    mpi::Cluster::run(o, body);
  });
  r.metrics = drain_metrics();
  for (const auto& s : r.metrics) {
    if (s.name == "progress.blocking_waits") {
      std::fprintf(stderr, "progress_starved: %llu blocking waits (expected 0)\n",
                   static_cast<unsigned long long>(s.value));
      std::exit(1);
    }
  }
  return r;
}

// --- persistent halo exchange: init once, start every epoch ------------------

// A ring halo exchange where the four per-neighbor operations are prepared
// once with send_init/recv_init and replayed with start() each epoch —
// the persistent-request analogue of the mailbox_fanin hot loop. Virtual
// results are identical to re-issuing plain isend/irecv pairs (the replay
// charges the same per-call overhead); the wall number isolates how much
// init-time header assembly saves per epoch.
ScenarioResult persistent_halo(const Config& cfg, int epochs) {
  constexpr int kRanks = 4;
  constexpr std::size_t kHalo = 8_KiB;
  return run_scenario(
      cfg, "persistent_halo", kRanks, {},
      static_cast<double>(kRanks * 2 * epochs), sys::ricc(),
      [epochs](mpi::Rank& rank) {
        const int right = (rank.rank() + 1) % rank.size();
        const int left = (rank.rank() + rank.size() - 1) % rank.size();
        std::vector<std::byte> send_r(kHalo, std::byte{0x1E});
        std::vector<std::byte> send_l(kHalo, std::byte{0x2E});
        std::vector<std::byte> recv_l(kHalo);
        std::vector<std::byte> recv_r(kHalo);
        mpi::PersistentRequest ops[] = {
            rank.world().send_init(send_r, right, 11),
            rank.world().send_init(send_l, left, 12),
            rank.world().recv_init(recv_l, left, 11),
            rank.world().recv_init(recv_r, right, 12),
        };
        for (int e = 0; e < epochs; ++e) {
          mpi::Request reqs[4];
          for (int i = 0; i < 4; ++i) reqs[i] = ops[i].start(rank.clock());
          mpi::wait_all(reqs, rank.clock());
        }
      });
}

// --- device transfers through the runtime (staged scenarios) -----------------

struct Node {
  explicit Node(mpi::Rank& rank)
      : platform(rank.profile(), rank.rank(), rank.tracer()),
        ctx(platform.device()),
        runtime(rank, platform.device()) {}

  ocl::Platform platform;
  ocl::Context ctx;
  rt::Runtime runtime;
};

ScenarioResult device_repeat(const Config& cfg, const std::string& name,
                             const xfer::Strategy& strategy, std::size_t size,
                             int rounds) {
  return run_scenario(
      cfg, name, 2, {}, static_cast<double>(rounds), sys::ricc(),
      [strategy, size, rounds](mpi::Rank& rank) {
        Node node(rank);
        auto queue = node.ctx.create_queue();
        ocl::BufferPtr buf = node.ctx.create_buffer(size);
        for (int i = 0; i < rounds; ++i) {
          if (rank.rank() == 0) {
            node.runtime.enqueue_send_buffer(*queue, buf, true, 0, size, 1, i % 100,
                                             rank.world(), {}, strategy);
          } else {
            node.runtime.enqueue_recv_buffer(*queue, buf, true, 0, size, 0, i % 100,
                                             rank.world(), {}, strategy);
          }
        }
      });
}

// --- clmpi_halo stencil apps: halo-exchange curve points ---------------------

/// One curve point per (app, geometry): the three stencil apps built on the
/// halo::Plan library, sized so the jacobi2d points straddle the cxlpod
/// one-sided threshold (32 KiB edges switch the plan to the RMA tier). Each
/// point records the app's virtual makespan and compute time as metrics.
std::vector<ScenarioResult> halo_apps(const Config& cfg) {
  std::vector<ScenarioResult> out;
  const int iters = cfg.smoke ? 4 : 10;

  // 2D Jacobi, 2x2 grid on cxlpod: local x-edges of 4 KiB stay on the
  // two-sided persistent legs; 64 KiB edges cross to the one-sided window.
  struct Point {
    const char* name;
    std::size_t local_ny;
  };
  for (const Point p : {Point{"halo_jacobi2d_edge4KiB", 1024},
                        Point{"halo_jacobi2d_edge64KiB", 16384}}) {
    apps::jacobi2d::Config app;
    app.nx = 64;
    app.ny = 2 * p.local_ny;
    app.px = 2;
    app.py = 2;
    app.iterations = iters;
    ScenarioResult r = run_scenario(
        cfg, p.name, 4, {}, static_cast<double>(4 * 4 * iters), sys::cxlpod(),
        [app](mpi::Rank& rank) { (void)apps::jacobi2d::run_rank(rank, app); });
    r.metrics.push_back({"halo.edge_bytes", p.local_ny * sizeof(float)});
    out.push_back(std::move(r));
  }

  // 1D advection ring on ricc: the curve is over the global problem size
  // (tiny single-cell edges — the plan-replay overhead floor).
  for (const Point p : {Point{"halo_advection_n4096", 4096},
                        Point{"halo_advection_n65536", 65536}}) {
    apps::advection::Config app;
    app.n = p.local_ny;
    app.iterations = 2 * iters;
    ScenarioResult r = run_scenario(
        cfg, p.name, 4, {}, static_cast<double>(4 * 2 * 2 * iters), sys::ricc(),
        [app](mpi::Rank& rank) { (void)apps::advection::run_rank(rank, app); });
    r.metrics.push_back({"halo.cells", p.local_ny});
    out.push_back(std::move(r));
  }

  // Inner/boundary overlap split on ricc: same geometry as the small and a
  // taller jacobi2d point, scheduled so the wire hides under the inner sweep.
  for (const Point p : {Point{"halo_overlap_edge4KiB", 1024},
                        Point{"halo_overlap_edge16KiB", 4096}}) {
    apps::overlap::Config app;
    app.nx = 64;
    app.ny = 2 * p.local_ny;
    app.px = 2;
    app.py = 2;
    app.iterations = iters;
    ScenarioResult r = run_scenario(
        cfg, p.name, 4, {}, static_cast<double>(4 * 4 * iters), sys::ricc(),
        [app](mpi::Rank& rank) { (void)apps::overlap::run_rank(rank, app); });
    r.metrics.push_back({"halo.edge_bytes", p.local_ny * sizeof(float)});
    out.push_back(std::move(r));
  }
  return out;
}

// --- chaos replay: the PR 1 suite's workload as a wall-clock scenario --------

mpi::FaultPlan chaos_plan(int fault_class, std::uint64_t seed) {
  mpi::FaultPlan p;
  p.seed = seed;
  switch (fault_class) {
    case 0: break;
    case 1: p.drop_rate = 0.3; break;
    case 2: p.duplicate_rate = 0.5; break;
    case 3: p.reorder_rate = 0.6; break;
    case 4: p.latency_spike_rate = 0.6; break;
    case 5: p.nic_degradation = 0.4; break;
    case 6: p.stall_rate = 0.3; break;
    default: break;
  }
  return p;
}

ScenarioResult chaos_replay(const Config& cfg) {
  constexpr std::size_t kBufferBytes = 1_MiB;
  constexpr std::size_t kMaxMessage = 384_KiB;
  const int ops = cfg.smoke ? 3 : 6;

  const xfer::Strategy strategies[] = {xfer::Strategy::pinned(), xfer::Strategy::mapped(),
                                       xfer::Strategy::pipelined(32_KiB)};

  ScenarioResult r;
  r.name = "chaos_replay";
  r.msgs_per_rep = 7.0 * 3.0 * ops;

  auto run_grid = [&](vt::Tracer* tracer) {
    std::uint64_t hash_acc = 0;
    for (int fault = 0; fault < 7; ++fault) {
      for (int s = 0; s < 3; ++s) {
        const std::uint64_t seed = derive_seed(0xBE4C11u, static_cast<std::uint64_t>(
                                                              fault * 31 + s * 7));
        const xfer::Strategy strategy = strategies[s];
        vt::Tracer local;
        mpi::Cluster::Options o;
        o.nranks = 2;
        o.profile = &sys::ricc();
        o.tracer = tracer != nullptr ? &local : nullptr;
        o.faults = chaos_plan(fault, seed);
        const mpi::RunResult res =
            mpi::Cluster::run(o, [&, seed, ops](mpi::Rank& rank) {
              Node node(rank);
              auto queue = node.ctx.create_queue();
              ocl::BufferPtr buf = node.ctx.create_buffer(kBufferBytes);
              Rng rng(derive_seed(seed, 0xC4A05u));
              for (int i = 0; i < ops; ++i) {
                const std::size_t size = 1 + rng.below(kMaxMessage);
                const std::size_t offset = rng.below(kBufferBytes - size + 1);
                const bool rank0_sends = (rng.next_u64() & 1u) != 0;
                const bool sender = (rank.rank() == 0) == rank0_sends;
                try {
                  if (sender) {
                    node.runtime.enqueue_send_buffer(*queue, buf, true, offset, size,
                                                     1 - rank.rank(), i, rank.world(), {},
                                                     strategy);
                  } else {
                    node.runtime.enqueue_recv_buffer(*queue, buf, true, offset, size,
                                                     1 - rank.rank(), i, rank.world(), {},
                                                     strategy);
                  }
                } catch (const Error&) {
                  // Injected drops surface as defined errors; the chaos tests
                  // assert on them, the bench only measures.
                }
              }
            });
        if (tracer != nullptr) {
          hash_acc = derive_seed(hash_acc ^ local.hash(), seed);
          r.virtual_makespan_s += res.makespan_s;
          r.counters.messages += res.faults.messages;
          r.counters.drops += res.faults.drops;
          r.counters.duplicates += res.faults.duplicates;
          r.counters.delays += res.faults.delays;
        }
      }
    }
    return hash_acc;
  };

  vt::Tracer probe;
  r.trace_hash = run_grid(&probe);
  obs::Registry::instance().reset();
  r.wall = benchutil::time_wall(cfg.warmup, cfg.reps, [&] { run_grid(nullptr); });
  r.metrics = drain_metrics();
  return r;
}

// --- rank scaling: the fiber scheduler's headline numbers -------------------

/// Current resident set (VmRSS) in KiB, from /proc/self/status; 0 off-Linux.
std::uint64_t vm_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return static_cast<std::uint64_t>(std::strtoull(line.c_str() + 6, nullptr, 10));
    }
  }
  return 0;
}

/// A traced run's virtual fingerprint, kept with its tracer so a failed
/// gate can name the first differing span.
struct Traced {
  std::shared_ptr<vt::Tracer> tracer = std::make_shared<vt::Tracer>();
  mpi::RunResult run;
};

/// Worker counts the rank-scaling gates compare.
constexpr int kGateWorkers[] = {1, 4, 16};

/// Exit(1), like progress_starved's gate, unless every run in `runs` (one
/// per worker count in kGateWorkers) matches the first in trace hash,
/// makespan and fiber resumes, naming the first differing span.
void gate_worker_counts(const char* what, int nranks, const std::vector<Traced>& runs) {
  const mpi::RunResult& first = runs[0].run;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const mpi::RunResult& run = runs[i].run;
    if (runs[i].tracer->hash() == runs[0].tracer->hash() &&
        run.makespan_s == first.makespan_s && run.fiber_resumes == first.fiber_resumes) {
      continue;
    }
    const auto d = vt::Tracer::first_divergence(*runs[0].tracer, *runs[i].tracer);
    std::fprintf(stderr,
                 "rank_scaling: %d-rank %s differs between %d and %d workers "
                 "(0x%016llx vs 0x%016llx, makespan %.17g vs %.17g, "
                 "resumes %llu vs %llu)\n%s\n",
                 nranks, what, kGateWorkers[0], kGateWorkers[i],
                 static_cast<unsigned long long>(runs[0].tracer->hash()),
                 static_cast<unsigned long long>(runs[i].tracer->hash()), first.makespan_s,
                 run.makespan_s, static_cast<unsigned long long>(first.fiber_resumes),
                 static_cast<unsigned long long>(run.fiber_resumes),
                 d ? vt::to_string(*d).c_str() : "same spans");
    std::exit(1);
  }
}

/// Fig. 8-style scaling sweeps: a blocking p2p-bandwidth ring and a reduced
/// Himeno grid at rank counts past the paper's 100 nodes (1000+ ranks run
/// as fibers on a small worker pool in bounded memory). Each rank count
/// emits one scenario row whose counters carry the curve points: ranks,
/// post-run VmRSS and the Himeno makespan.
///
/// Determinism gates (exit(1)): the ring and Himeno each run on pools of 1,
/// 4 and 16 workers and must produce bit-identical trace hashes and
/// makespans — the worker count must never reach virtual time.
std::vector<ScenarioResult> rank_scaling(const Config& cfg) {
  const std::vector<int> rank_counts =
      cfg.smoke ? std::vector<int>{16, 64} : std::vector<int>{100, 500, 1000};

  std::vector<ScenarioResult> out;
  for (const int nranks : rank_counts) {
    const int ring_rounds = 4;
    const std::size_t ring_bytes = 64_KiB;
    auto ring_body = [nranks, ring_rounds, ring_bytes](mpi::Rank& rank) {
      auto& world = rank.world();
      const int next = (rank.rank() + 1) % nranks;
      const int prev = (rank.rank() + nranks - 1) % nranks;
      std::vector<std::byte> out_buf(ring_bytes, std::byte{0x5A});
      std::vector<std::byte> in_buf(ring_bytes);
      for (int i = 0; i < ring_rounds; ++i) {
        mpi::Request s = world.isend(out_buf, next, i, rank.clock());
        world.recv(in_buf, prev, i, rank.clock());
        s.wait(rank.clock());
      }
    };
    // Himeno, shrunk so the per-rank slab stays small at 1000 ranks: the
    // interior must divide by 2*nranks, so scale it with the rank count.
    apps::himeno::Config grid;
    grid.interior = static_cast<std::size_t>(2 * nranks);
    grid.jmax = 32;
    grid.kmax = 64;
    grid.iterations = 2;

    std::vector<Traced> rings;
    std::vector<Traced> himenos;
    for (const int workers : kGateWorkers) {
      sched::Scheduler pool(sched::Scheduler::Options{.workers = workers});
      mpi::Cluster::Options o;
      o.nranks = nranks;
      o.profile = &sys::ricc();
      o.scheduler = &pool;
      Traced& ring = rings.emplace_back();
      o.tracer = ring.tracer.get();
      ring.run = mpi::Cluster::run(o, ring_body);
      Traced& himeno = himenos.emplace_back();
      o.tracer = himeno.tracer.get();
      himeno.run = mpi::Cluster::run(
          o, [&grid](mpi::Rank& rank) { (void)apps::himeno::run_rank(rank, grid); });
    }
    gate_worker_counts("ring", nranks, rings);
    gate_worker_counts("himeno", nranks, himenos);
    const std::uint64_t rss_kb = vm_rss_kb();

    ScenarioResult r;
    r.name = "rank_scaling_" + std::to_string(nranks);
    r.msgs_per_rep = static_cast<double>(nranks) * ring_rounds;
    r.trace_hash = rings[0].tracer->hash();
    r.virtual_makespan_s = rings[0].run.makespan_s;

    // Wall reps: end to end (spawn + run + teardown) on the default pool.
    obs::Registry::instance().reset();
    const int reps = nranks >= 500 ? std::min(cfg.reps, 3) : cfg.reps;
    r.wall = benchutil::time_wall(cfg.warmup, reps, [&] {
      mpi::Cluster::Options o;
      o.nranks = nranks;
      o.profile = &sys::ricc();
      mpi::Cluster::run(o, ring_body);
    });
    r.metrics = drain_metrics();
    r.metrics.push_back({"rank_scaling.ranks", static_cast<std::uint64_t>(nranks)});
    r.metrics.push_back({"rank_scaling.rss_kb", rss_kb});
    r.metrics.push_back({"rank_scaling.himeno_makespan_us",
                         static_cast<std::uint64_t>(himenos[0].run.makespan_s * 1e6)});
    add_fiber_counts(r, rings[0].run);
    out.push_back(std::move(r));
  }
  return out;
}

// --- service soak: multi-tenant burst, per-job hash stability + p99 ----------

double latency_percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size()) - 1.0,
                       p * static_cast<double>(v.size())));
  return v[idx];
}

/// A shrunken bench_service soak as a throughput scenario: the identical
/// mixed-job burst replayed against three fresh Services, gating that every
/// job's private trace hash is bit-identical across runs (zero cross-job
/// nondeterminism) and recording the p99 submit-to-terminal latency of the
/// final (warm) run. trace_hash is the FNV fold of the per-job hashes —
/// zeroed on divergence so the JSON gate trips. voluntary_csw and
/// involuntary_csw are the process's context switches over the final run,
/// from the Service's construction to its destruction (getrusage deltas):
/// informational only, they depend on the host and its load, so nothing
/// gates on them.
ScenarioResult service_soak(const Config& cfg) {
  const int jobs = cfg.smoke ? 48 : 240;
  std::vector<svc::JobSpec> specs;
  specs.reserve(static_cast<std::size_t>(jobs));
  for (int i = 0; i < jobs; ++i) {
    svc::JobSpec spec;
    switch (i % 3) {
      case 0:
        spec.kind = svc::JobKind::himeno;
        spec.nranks = 2;
        spec.iterations = 1 + (i / 3) % 2;
        break;
      case 1:
        spec.kind = svc::JobKind::halo;
        spec.nranks = 2 + 2 * ((i / 3) % 2);
        spec.iterations = 2 + (i / 3) % 3;
        break;
      default:
        spec.kind = svc::JobKind::chaos;
        spec.nranks = 2;
        spec.iterations = 4 + (i / 3) % 5;
        break;
    }
    spec.seed = 1 + static_cast<std::uint64_t>(i);
    specs.push_back(std::move(spec));
  }

  constexpr int kRuns = 3;
  bool stable = true;
  std::uint64_t failures = 0;
  std::vector<double> walls;
  std::vector<double> latencies;
  std::vector<std::uint64_t> base_hashes;
  rusage before{};
  rusage after{};
  for (int run = 0; run < kRuns; ++run) {
    svc::Service::Options so;
    so.queue_limit = specs.size() + 8;
    so.max_active = 4;
    std::vector<std::uint64_t> hashes;
    hashes.reserve(specs.size());
    latencies.clear();
    getrusage(RUSAGE_SELF, &before);
    {
      svc::Service service(so);
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::uint64_t> ids;
      ids.reserve(specs.size());
      for (const svc::JobSpec& spec : specs) ids.push_back(service.submit(spec));
      for (std::uint64_t id : ids) {
        const svc::JobResult res = service.wait(id);
        hashes.push_back(res.trace_hash);
        latencies.push_back(res.queue_delay_s + res.run_wall_s);
        if (res.state != svc::JobState::succeeded) ++failures;
      }
      const auto t1 = std::chrono::steady_clock::now();
      walls.push_back(std::chrono::duration<double>(t1 - t0).count());
    }
    getrusage(RUSAGE_SELF, &after);
    if (run == 0) {
      base_hashes = std::move(hashes);
    } else if (hashes != base_hashes) {
      stable = false;
      std::fprintf(stderr, "service_soak: per-job hashes diverged on run %d\n",
                   run + 1);
    }
  }
  ScenarioResult r;
  r.name = "service_soak";
  r.msgs_per_rep = static_cast<double>(jobs);  // one row per completed job
  std::sort(walls.begin(), walls.end());
  r.wall.reps = kRuns;
  r.wall.min_s = walls.front();
  r.wall.max_s = walls.back();
  r.wall.median_s = walls[walls.size() / 2];
  std::uint64_t fold = 1469598103934665603ull;
  for (std::uint64_t h : base_hashes) {
    fold ^= h;
    fold *= 1099511628211ull;
  }
  r.trace_hash = (stable && failures == 0) ? fold : 0;
  r.p99_job_latency_s = latency_percentile(latencies, 0.99);
  r.metrics.push_back({"service_soak.jobs", static_cast<std::uint64_t>(jobs)});
  r.metrics.push_back({"service_soak.voluntary_csw",
                       static_cast<std::uint64_t>(after.ru_nvcsw - before.ru_nvcsw)});
  r.metrics.push_back({"service_soak.involuntary_csw",
                       static_cast<std::uint64_t>(after.ru_nivcsw - before.ru_nivcsw)});
  r.metrics.push_back({"service_soak.hash_stable", stable ? std::uint64_t{1} : 0});
  r.metrics.push_back({"service_soak.failures", failures});
  return r;
}

// --- reporting ---------------------------------------------------------------

void print_table(const std::vector<ScenarioResult>& results) {
  std::printf("%-18s %12s %12s %12s %14s\n", "scenario", "median_ms", "min_ms", "max_ms",
              "msgs/s");
  for (const auto& r : results) {
    std::printf("%-18s %12.3f %12.3f %12.3f %14.0f\n", r.name.c_str(),
                r.wall.median_s * 1e3, r.wall.min_s * 1e3, r.wall.max_s * 1e3,
                msgs_per_sec(r));
  }
}

void write_json(const std::vector<ScenarioResult>& results, const Config& cfg,
                const std::string& host) {
  std::ofstream out(cfg.out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", cfg.out_path.c_str());
    return;
  }
  out << "{\n  \"config\": {\"smoke\": " << (cfg.smoke ? "true" : "false")
      << ", \"warmup\": " << cfg.warmup << ", \"reps\": " << cfg.reps << "},\n"
      << "  \"host\": " << host << ",\n"
      << "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    char hash[19];
    std::snprintf(hash, sizeof(hash), "0x%016llx",
                  static_cast<unsigned long long>(r.trace_hash));
    out << "    {\"name\": \"" << r.name << "\", \"wall_median_s\": " << r.wall.median_s
        << ", \"wall_min_s\": " << r.wall.min_s << ", \"wall_max_s\": " << r.wall.max_s
        << ", \"reps\": " << r.wall.reps << ", \"msgs_per_s\": " << msgs_per_sec(r)
        << ", \"virtual_makespan_s\": " << r.virtual_makespan_s << ", \"trace_hash\": \""
        << hash << "\", \"fault_messages\": " << r.counters.messages
        << ", \"fault_drops\": " << r.counters.drops
        << ", \"fault_duplicates\": " << r.counters.duplicates
        << ", \"fault_delays\": " << r.counters.delays;
    if (r.p99_job_latency_s >= 0.0) {
      out << ", \"p99_job_latency_s\": " << r.p99_job_latency_s;
    }
    out << ", \"counters\": {";
    for (std::size_t c = 0; c < r.metrics.size(); ++c) {
      out << (c > 0 ? ", " : "") << "\"" << r.metrics[c].name
          << "\": " << r.metrics[c].value;
    }
    out << "}}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", cfg.out_path.c_str());
}

}  // namespace
}  // namespace clmpi

int main(int argc, char** argv) {
  using namespace clmpi;
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      cfg.out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      cfg.reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
      cfg.only = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--reps N] [--only SCENARIO] [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (cfg.smoke) cfg.reps = 3;
  const std::string host = host_metadata();
  std::printf("# host %s\n", host.c_str());

  // Counter snapshots ride along with the wall numbers: the gate compares
  // both, so a hot-path regression and a behaviour change (hit rates,
  // slow-path counts) are caught by the same artifact.
  obs::set_metrics_enabled(true);

  const int pp_rounds = cfg.smoke ? 200 : 1500;
  const int rv_rounds = cfg.smoke ? 100 : 600;
  const int dev_rounds = cfg.smoke ? 40 : 200;
  const int pipe_rounds = cfg.smoke ? 10 : 40;
  const int fanin_msgs = cfg.smoke ? 50 : 300;
  const int rma_epochs = cfg.smoke ? 30 : 150;
  const int starved_msgs = cfg.smoke ? 32 : 96;
  const int halo_epochs = cfg.smoke ? 40 : 200;

  std::vector<ScenarioResult> results;
  const auto want = [&](const char* name) {
    return cfg.only.empty() || cfg.only == name;
  };
  if (want("eager_inline")) results.push_back(pingpong(cfg, "eager_inline", 64, pp_rounds));
  if (want("eager_small")) results.push_back(pingpong(cfg, "eager_small", 4_KiB, pp_rounds));
  if (want("rendezvous_large")) {
    results.push_back(pingpong(cfg, "rendezvous_large", 256_KiB, rv_rounds));
  }
  if (want("pinned_repeat")) {
    results.push_back(
        device_repeat(cfg, "pinned_repeat", xfer::Strategy::pinned(), 256_KiB, dev_rounds));
  }
  if (want("pipelined_large")) {
    results.push_back(device_repeat(cfg, "pipelined_large",
                                    xfer::Strategy::pipelined(1_MiB), 8_MiB, pipe_rounds));
  }
  if (want("mailbox_fanin")) results.push_back(fanin(cfg, fanin_msgs));
  if (want("rma_put_fanin")) results.push_back(rma_put_fanin(cfg, rma_epochs));
  if (want("progress_starved")) results.push_back(progress_starved(cfg, starved_msgs));
  if (want("persistent_halo")) results.push_back(persistent_halo(cfg, halo_epochs));
  if (want("halo_apps")) {
    for (ScenarioResult& r : halo_apps(cfg)) results.push_back(std::move(r));
  }
  if (want("chaos_replay")) results.push_back(chaos_replay(cfg));
  if (want("rank_scaling")) {
    for (ScenarioResult& r : rank_scaling(cfg)) results.push_back(std::move(r));
  }
  if (want("service_soak")) results.push_back(service_soak(cfg));

  print_table(results);
  write_json(results, cfg, host);
  return 0;
}
