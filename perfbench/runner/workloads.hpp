// The benchmark's three workloads and the instrumentation they share.
//
// Every number here is taken from the benchmark's own code: host time around
// calls into the layers' public functions (CallTimer), the process-wide
// obs::Registry counters and vt::Tracer spans. Nothing inside src/ is
// instrumented for the benchmark.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Taken during static initialisation: the benchmark's "process start".
extern const Clock::time_point process_start;

double seconds_since(Clock::time_point t);

/// User plus system CPU seconds of the whole process (every thread).
double process_cpu_s();

/// Host-time samples of one layer call site, in nanoseconds. Thread-safe:
/// every rank thread of a cluster records into the same timer.
class CallTimer {
 public:
  template <typename Fn>
  decltype(auto) time(Fn&& fn) {
    struct Stop {
      CallTimer* self;
      Clock::time_point t0;
      ~Stop() { self->add(std::chrono::duration<double, std::nano>(Clock::now() - t0).count()); }
    } stop{this, Clock::now()};
    return fn();
  }
  void add(double ns);
  [[nodiscard]] std::vector<double> samples() const;

 private:
  mutable std::mutex mutex_;
  std::vector<double> ns_;
};

/// The public calls the traced run times. A null Layers* means untraced.
struct Layers {
  CallTimer launch;         ///< mpi::Cluster::run with a setup-only body
  CallTimer allreduce;      ///< mpi::Comm::allreduce
  CallTimer plan_create;    ///< halo::Plan constructor
  CallTimer halo_start;     ///< halo::Plan::start
  CallTimer halo_complete;  ///< halo::Plan::complete
  CallTimer ocl_enqueue;    ///< ocl::CommandQueue::enqueue_ndrange
  CallTimer ocl_finish;     ///< ocl::CommandQueue::finish (the wait)
  CallTimer rt_finish;      ///< rt::Runtime::finish
  CallTimer svc_submit;     ///< svc::Service::submit
  std::vector<double> svc_queue_delay_s;  ///< JobResult::queue_delay_s
  std::vector<double> svc_run_wall_s;     ///< JobResult::run_wall_s
  std::uint64_t svc_rejected{0};
};

/// One timed run: the hand+clMPI Himeno pair, 100 halo_small steps or 480
/// service jobs. Rates are per run, so their median is robust.
struct Run {
  double wall_s{0.0};
  double cpu_s{0.0};
  double jobs{0.0};  ///< jobs completed in the run
};

struct Report {
  double setup_s{0.0};
  std::vector<Run> runs;
  std::vector<double> job_latency_s;
  /// Virtual makespans of repeated identical runs, and how many equal the
  /// first one of their kind.
  std::size_t makespans{0};
  std::size_t makespans_agree{0};
  std::size_t attempted{0};
  std::size_t failed{0};
  std::vector<std::string> failures;
  /// Named values: peak memory, message counts, fidelity figures and the
  /// virtual breakdown.
  std::map<std::string, double> values;

  void check(bool ok, const std::string& what);
  void makespan(bool agrees);
  /// Record a finished run; the first also records peak_rss_mib.
  void add_run(const Run& run);
};

struct Options {
  std::uint64_t seed{1};
  double seconds{10.0};
  Layers* layers{nullptr};
};

Report run_himeno(const Options& opt);
Report run_halo(const Options& opt);
Report run_service(const Options& opt);

/// Simulated wire messages of one run, counted from the wire spans of traced
/// replays (every run of a workload sends the same messages).
double messages_per_run(const std::string& workload, const Options& opt);

/// Per-layer extras of a traced run that need their own clusters: the launch
/// probe, stand-in calls for layers the workload never calls itself, and
/// the per-rank virtual breakdown under the deterministic launcher.
void probe_layers(const std::string& workload, const Options& opt, Report& report);

/// The Fig. 9 Cichlid-4 point: serial, hand-optimized and clMPI Himeno M,
/// traced. Run it under CLMPI_SCHED=fibers CLMPI_FIBER_WORKERS=1.
Report run_fidelity();

}  // namespace perfbench
