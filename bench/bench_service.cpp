// Multi-tenant service-mode soak: the cross-tenancy determinism and latency
// gate for svc::Service.
//
// One Service instance (shared persistent fiber pool, bounded admission
// queue, up to max_active jobs at once) receives a burst of short mixed jobs —
// Himeno pressure-solver runs, persistent-request halo rings, and seeded
// chaos p2p mixes — all submitted up front so they contend for the pool the
// whole run. The identical job set is replayed against a fresh Service
// `--runs` times (default 3) and the harness gates on
//
//   * zero cross-job nondeterminism: every job's OWN trace hash (its
//     private vt::Tracer digest) must be identical across runs even though
//     the co-tenant mix, job interleaving and wall-clock timing differ;
//   * zero failures/rejections: the queue is sized for the burst, quotas
//     are unlimited, so every job must succeed;
//
// and records wall throughput plus job-latency percentiles (p50/p99 of
// submit-to-terminal wall seconds) in the BENCH_throughput.json schema
// (default BENCH_service.json, override with --out PATH), followed by every
// job's trace hash and virtual makespan from the first run, so two builds'
// outputs can be compared job by job. Exit status is nonzero on any gate
// violation so CI can run it directly.
//
// `--smoke` shrinks the burst for the `bench-smoke` CTest gate; the full
// configuration drives >= 200 jobs as the acceptance soak.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "svc/service.hpp"

namespace clmpi {
namespace {

struct Config {
  bool smoke{false};
  int jobs{240};
  int runs{3};
  std::string out_path{"BENCH_service.json"};
};

/// The deterministic burst: kinds cycle, seeds and scales vary per slot so
/// the mix exercises eager/rendezvous sizes, persistent requests and the
/// full clMPI runtime path side by side.
std::vector<svc::JobSpec> make_burst(const Config& cfg) {
  std::vector<svc::JobSpec> specs;
  specs.reserve(static_cast<std::size_t>(cfg.jobs));
  for (int i = 0; i < cfg.jobs; ++i) {
    svc::JobSpec spec;
    switch (i % 3) {
      case 0:
        spec.kind = svc::JobKind::himeno;
        spec.nranks = 2;
        spec.iterations = 1 + (i / 3) % 2;
        break;
      case 1:
        spec.kind = svc::JobKind::halo;
        spec.nranks = 2 + 2 * ((i / 3) % 2);  // 2- and 4-rank rings
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
  return specs;
}

struct RunOutcome {
  std::vector<std::uint64_t> hashes;     ///< per burst slot
  std::vector<double> makespans_s;       ///< per burst slot, virtual
  std::vector<double> latencies_s;       ///< submit-to-terminal wall seconds
  std::uint64_t failed{0};
  std::uint64_t rejected{0};
  double wall_s{0.0};
};

RunOutcome run_burst(const std::vector<svc::JobSpec>& specs) {
  RunOutcome out;
  out.hashes.resize(specs.size(), 0);
  out.makespans_s.resize(specs.size(), 0.0);
  out.latencies_s.resize(specs.size(), 0.0);

  svc::Service::Options opts;
  opts.queue_limit = specs.size() + 8;  // the whole burst is concurrent
  opts.max_active = 4;
  svc::Service service(opts);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> ids;
  ids.reserve(specs.size());
  for (const svc::JobSpec& spec : specs) {
    try {
      ids.push_back(service.submit(spec));
    } catch (const RejectedError&) {
      ids.push_back(0);
      ++out.rejected;
    }
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == 0) continue;
    const svc::JobResult r = service.wait(ids[i]);
    out.hashes[i] = r.trace_hash;
    out.makespans_s[i] = r.makespan_s;
    out.latencies_s[i] = r.queue_delay_s + r.run_wall_s;
    if (r.state != svc::JobState::succeeded) {
      ++out.failed;
      std::fprintf(stderr, "job %llu (%s) %s: %s\n",
                   static_cast<unsigned long long>(ids[i]),
                   to_string(specs[i].kind), to_string(r.state),
                   r.error.c_str());
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size()) - 1.0,
                       p * static_cast<double>(v.size())));
  return v[idx];
}

void write_json(const Config& cfg, const std::vector<svc::JobSpec>& specs,
                const std::vector<RunOutcome>& runs, bool hash_stable) {
  std::ofstream out(cfg.out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", cfg.out_path.c_str());
    return;
  }
  // Latency gates read the LAST run: its pool and allocator caches are warm,
  // matching how a long-lived service behaves.
  const RunOutcome& final_run = runs.back();
  std::vector<double> walls;
  for (const RunOutcome& r : runs) walls.push_back(r.wall_s);
  std::sort(walls.begin(), walls.end());
  out << "{\n  \"config\": {\"smoke\": " << (cfg.smoke ? "true" : "false")
      << ", \"jobs\": " << cfg.jobs << ", \"runs\": " << cfg.runs << "},\n"
      << "  \"scenarios\": [\n"
      << "    {\"name\": \"service_soak\", \"jobs\": " << cfg.jobs
      << ", \"runs\": " << cfg.runs
      << ", \"hash_stable\": " << (hash_stable ? "true" : "false")
      << ", \"failed\": " << final_run.failed
      << ", \"rejected\": " << final_run.rejected
      << ", \"wall_median_s\": " << walls[walls.size() / 2]
      << ", \"jobs_per_s\": "
      << (final_run.wall_s > 0.0 ? static_cast<double>(cfg.jobs) / final_run.wall_s
                                 : 0.0)
      << ", \"p50_job_latency_s\": " << percentile(final_run.latencies_s, 0.50)
      << ", \"p99_job_latency_s\": " << percentile(final_run.latencies_s, 0.99)
      << "}\n  ],\n  \"jobs\": [\n";
  const RunOutcome& first_run = runs.front();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    char job[160];
    std::snprintf(job, sizeof(job),
                  "    {\"slot\": %zu, \"kind\": \"%s\", \"trace_hash\": \"0x%016llx\", "
                  "\"makespan_s\": %.17g}%s\n",
                  i, to_string(specs[i].kind),
                  static_cast<unsigned long long>(first_run.hashes[i]),
                  first_run.makespans_s[i], i + 1 < specs.size() ? "," : "");
    out << job;
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
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      cfg.jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) {
      cfg.runs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      cfg.out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--jobs N] [--runs N] [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (cfg.smoke && cfg.jobs == 240) cfg.jobs = 48;
  if (cfg.jobs < 1) cfg.jobs = 1;
  if (cfg.runs < 1) cfg.runs = 1;

  const std::vector<svc::JobSpec> specs = make_burst(cfg);
  std::vector<RunOutcome> runs;
  bool hash_stable = true;
  std::uint64_t failed = 0, rejected = 0;
  for (int r = 0; r < cfg.runs; ++r) {
    runs.push_back(run_burst(specs));
    const RunOutcome& cur = runs.back();
    failed += cur.failed;
    rejected += cur.rejected;
    std::printf("run %d/%d: %d jobs in %.2fs (%.1f jobs/s), p99 latency %.4fs\n",
                r + 1, cfg.runs, cfg.jobs, cur.wall_s,
                cur.wall_s > 0.0 ? cfg.jobs / cur.wall_s : 0.0,
                percentile(cur.latencies_s, 0.99));
    if (r > 0) {
      for (std::size_t i = 0; i < specs.size(); ++i) {
        if (cur.hashes[i] != runs.front().hashes[i]) {
          hash_stable = false;
          std::fprintf(stderr,
                       "HASH DIVERGENCE slot %zu (%s): run 1 0x%016llx vs run %d 0x%016llx\n",
                       i, to_string(specs[i].kind),
                       static_cast<unsigned long long>(runs.front().hashes[i]),
                       r + 1, static_cast<unsigned long long>(cur.hashes[i]));
        }
      }
    }
  }

  write_json(cfg, specs, runs, hash_stable);
  if (!hash_stable) {
    std::fprintf(stderr, "FAIL: per-job trace hashes diverged across runs\n");
    return 1;
  }
  if (failed != 0 || rejected != 0) {
    std::fprintf(stderr, "FAIL: %llu jobs failed, %llu rejected\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(rejected));
    return 1;
  }
  std::printf("service soak OK: %d jobs x %d runs, per-job hashes stable\n",
              cfg.jobs, cfg.runs);
  return 0;
}
