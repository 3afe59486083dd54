// Cluster: the top-level runner of the simulated machine.
//
// Cluster::run executes the supplied body once per MPI rank (one rank per
// node, as in the paper's evaluation), each as a fiber of one serial strand
// on a fiber worker pool (support/sched.hpp), and reports per-rank virtual
// end times; Cluster::start is the same run without the wait. A
// communication deadlock (which blocks ranks exactly as it would block real
// MPI processes) ends in a typed DeadlockError at a fixed virtual time
// instead of a hang: see ClusterCore::fail_deadlocked.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "simmpi/comm.hpp"
#include "simmpi/fault.hpp"
#include "systems/profile.hpp"
#include "vt/clock.hpp"
#include "vt/tracer.hpp"

namespace clmpi::sched {
class Scheduler;  // support/sched.hpp
}
namespace clmpi::tenant {
class JobControl;  // support/tenant.hpp
}

namespace clmpi::mpi {

namespace detail {
struct ClusterCore;
}

/// Per-rank execution context handed to the user body.
class Rank {
 public:
  Rank(detail::ClusterCore* core, int id, int nranks);

  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

  [[nodiscard]] int rank() const noexcept { return id_; }
  [[nodiscard]] int size() const noexcept { return world_.size(); }

  /// MPI_COMM_WORLD for this rank.
  [[nodiscard]] Comm& world() noexcept { return world_; }

  /// The rank's host virtual clock.
  [[nodiscard]] vt::Clock& clock() noexcept { return clock_; }

  [[nodiscard]] const sys::SystemProfile& profile() const;
  [[nodiscard]] vt::Tracer* tracer() const;

  /// Internal: cluster-shared state, used by the clMPI runtime layers.
  [[nodiscard]] detail::ClusterCore* core() const noexcept { return core_; }

  /// Host-side busy work of virtual duration `d` (traced as compute).
  void compute(vt::Duration d, const std::string& label = "host");

  /// Current virtual time of this rank's host thread, in seconds.
  [[nodiscard]] double now_s() const { return clock_.now().s; }

 private:
  detail::ClusterCore* core_;
  int id_;
  vt::Clock clock_;
  Comm world_;
};

struct RunResult {
  /// Virtual end time of each rank's body.
  std::vector<double> rank_end_s;
  /// max(rank_end_s): the virtual makespan of the run.
  double makespan_s{0.0};
  /// Fault-injection tallies for the run (all zero when injection is off).
  FaultCounters faults;
  /// Fiber resumes on the run's strand, and visits that skipped a parked
  /// fiber whose wait could not return (sched::StrandStats). Deterministic:
  /// independent of the worker count.
  std::uint64_t fiber_resumes{0};
  std::uint64_t fiber_skips{0};
};

class Cluster {
 public:
  struct Options {
    int nranks{2};
    const sys::SystemProfile* profile{nullptr};  ///< required
    vt::Tracer* tracer{nullptr};
    /// Deterministic fault-injection plan; all-zero rates disable injection.
    FaultPlan faults{};

    /// Run the rank fibers on this persistent scheduler instead of the
    /// process-wide default pool (svc::Service passes its own; tests pass
    /// pools of a chosen worker count). Must be started and outlive the run.
    sched::Scheduler* scheduler{nullptr};
    /// Service job id (svc::Service passes it); nonzero names the rank
    /// fibers "job<id>.rank<r>". The strand tag is always process-unique.
    std::uint64_t job_tag{0};
    /// Quota/cancellation control block; null = standalone (no hooks). Must
    /// outlive the run.
    tenant::JobControl* job{nullptr};
  };

  /// The result of a started run, or the first exception a rank threw.
  using Done = std::function<void(RunResult, std::exception_ptr)>;

  /// Start `body` on every rank and return; bad options and the rank quota
  /// throw here. `done` runs once, on the pool worker that closed the run's
  /// strand, after the teardown: it may free what `options` points to and
  /// start the next run, but must not throw or block on the pool.
  static void start(const Options& options, std::function<void(Rank&)> body, Done done);

  /// start() and block until all ranks returned. The first exception thrown
  /// by any rank is re-thrown here after every rank ended. Must not be
  /// called from a scheduler fiber (a rank body).
  static RunResult run(const Options& options, const std::function<void(Rank&)>& body);
};

}  // namespace clmpi::mpi
