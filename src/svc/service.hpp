// svc::Service — multi-tenant service mode: many concurrent cluster
// simulations (jobs) hosted in one process.
//
// This is the ROADMAP's "millions of users" step: instead of one
// Cluster::run per process, a Service owns
//
//   * one persistent fiber-scheduler worker pool (support/sched.hpp) that
//     every job's rank fibers share, each job one serial strand in the
//     pool's round robin (so a job's schedule ignores its co-tenants),
//   * a bounded admission queue with typed rejection (Status::rejected),
//   * up to `max_active` jobs running at once, each a Cluster::start in
//     service mode (external scheduler + JobControl): submit() starts a job
//     when a slot is free, and the pool worker that finishes a job starts
//     the next queued one. The pool's workers are its only threads.
//
// Isolation story, per job:
//   * quotas — staging bytes, mailbox depth, max ranks — enforced at
//     the allocation points (transfer/staging, simmpi comm) against the job's
//     tenant::JobControl; an overrunning job fails itself with QuotaError
//     and can never starve a co-tenant;
//   * cancellation/deadline — a cancel flag observed at the
//     runtime's cancellation points, plus the cancel backstop that fails
//     the job's pending operations so blocked ranks unwind (built on PR 4's
//     timeout rescue protocol);
//   * observability — each job runs with its OWN vt::Tracer, so its trace
//     hash is computable in isolation (the soak bench's cross-tenancy
//     determinism oracle), and its counters stay in its JobResult.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/sched.hpp"
#include "support/tenant.hpp"
#include "vt/tracer.hpp"

namespace clmpi::svc {

/// Workload catalog: every job is one cluster simulation of one of these
/// kinds (see workloads.cpp for the exact bodies).
enum class JobKind {
  himeno,  ///< the paper's Jacobi pressure solver (full clMPI runtime path)
  halo,    ///< persistent-request ring halo exchange (plain MPI layer)
  chaos,   ///< seeded randomized p2p mix (the chaos suite's workload shape)
};

const char* to_string(JobKind k) noexcept;

enum class JobState {
  queued,     ///< admitted, waiting for a free slot of max_active
  running,    ///< its cluster runs on the pool
  succeeded,  ///< cluster run returned normally
  failed,     ///< cluster run threw (quota, fault, programming error)
  cancelled,  ///< explicit cancel or deadline fired before completion
};

const char* to_string(JobState s) noexcept;

/// What to run and under which limits.
struct JobSpec {
  JobKind kind{JobKind::halo};
  int nranks{4};
  std::string profile{"ricc"};  ///< systems profile name (profile_by_name)
  int iterations{4};            ///< workload scale knob
  std::uint64_t seed{1};        ///< workload variation (chaos mix, sizes)
  tenant::JobQuotas quotas{};   ///< 0 = unlimited
  /// Wall-clock job deadline measured from SUBMISSION, seconds; 0 = none.
  /// An overdue job is cancelled (queued: as wait() or counters() reads it,
  /// or as it is dequeued; running: at its next cancellation point).
  double deadline_s{0.0};
};

/// Terminal report of one job (also readable mid-run via Service::counters,
/// with the not-yet-final fields at their current values).
struct JobResult {
  JobState state{JobState::queued};
  Status status{Status::success};  ///< typed failure; success while running
  std::string error;               ///< what() of the failure, empty otherwise
  double makespan_s{0.0};          ///< virtual makespan of the cluster run
  std::uint64_t trace_hash{0};     ///< the job's own tracer digest
  tenant::JobControl::Usage usage;
  double queue_delay_s{0.0};  ///< wall seconds from submit to run start
  double run_wall_s{0.0};     ///< wall seconds of the cluster run itself
};

class Service {
 public:
  struct Options {
    /// Fiber worker threads of the shared pool; 0 = CLMPI_FIBER_WORKERS or
    /// hardware concurrency.
    int workers{0};
    /// Admission control: max jobs waiting in the queue (running jobs do
    /// not count). Submits beyond it fail with RejectedError.
    std::size_t queue_limit{64};
    /// Max jobs whose clusters run at once; further jobs queue. Not a
    /// thread count: every cluster runs on the pool's workers.
    std::size_t max_active{4};
  };

  explicit Service(Options options);
  /// Drains: waits until every admitted job reached a terminal state, then
  /// the shared pool shuts down.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Admit a job. Returns its id (monotone from 1). Throws RejectedError
  /// when the queue is at capacity or the service is shutting down; throws
  /// QuotaError immediately when spec.nranks already exceeds
  /// spec.quotas.max_ranks (nothing would ever run).
  std::uint64_t submit(JobSpec spec);

  /// Block until the job reaches a terminal state; returns its result.
  /// Throws Error(Status::invalid_job) for an unknown or retired id: the
  /// service keeps the results of its last queue_limit + max_active
  /// terminal jobs and retires older ones.
  JobResult wait(std::uint64_t id);

  /// Request cancellation. Returns true when the cancel was delivered to a
  /// queued job (cancelled at once) or a running one (which will report
  /// JobState::cancelled unless completion won the race), false when the
  /// job already reached a terminal state. Throws on an unknown or retired
  /// id.
  bool cancel(std::uint64_t id);

  /// Non-blocking snapshot of the job's result-so-far (state, usage
  /// counters; terminal fields final only once state is terminal). Throws
  /// on an unknown or retired id.
  JobResult counters(std::uint64_t id);

  /// Jobs admitted over the service lifetime / currently queued / currently
  /// running (diagnostics).
  struct Stats {
    std::uint64_t submitted{0};
    std::uint64_t rejected{0};
    std::size_t queued{0};
    std::size_t active{0};
  };
  [[nodiscard]] Stats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct JobRecord {
    std::uint64_t id{0};
    JobSpec spec;
    tenant::JobControl control;
    JobResult result;
    Clock::time_point submitted{Clock::now()};
    Clock::time_point started{};

    JobRecord(std::uint64_t job_id, JobSpec s)
        : id(job_id), spec(std::move(s)), control(job_id, spec.quotas, spec.deadline_s) {}
  };

  /// Start `rec`, which holds a slot of max_active, and each job that
  /// inherits the slot because its predecessor could not start.
  void launch(std::shared_ptr<JobRecord> rec);
  /// Publish the ended run of `rec`; returns the queued job that inherits
  /// its slot, or null once the slot is released, after which the caller
  /// must not touch the service: its destructor may already run.
  std::shared_ptr<JobRecord> finish(JobRecord& rec, const vt::Tracer& tracer, double makespan_s,
                                    const std::exception_ptr& error);
  /// Under mutex_: pop the next queued job that may run and mark it running
  /// in the caller's slot; release the slot (returning null) if none is left.
  std::shared_ptr<JobRecord> next_locked();
  /// Under mutex_: finish `rec` cancelled if it is still queued but
  /// cancelled or past its deadline.
  void drop_if_cancelled_locked(JobRecord& rec);
  /// Under mutex_: record the terminal result and retire the oldest one.
  void publish_locked(JobRecord& rec);
  std::shared_ptr<JobRecord> find(std::uint64_t id);

  Options opts_;
  sched::Scheduler pool_;

  mutable std::mutex mutex_;
  std::condition_variable state_cv_;  ///< job state transitions (wait(), ~Service)
  bool stopping_{false};
  std::uint64_t submitted_{0};
  std::uint64_t rejected_{0};
  std::size_t active_{0};
  std::deque<std::shared_ptr<JobRecord>> queue_;
  std::map<std::uint64_t, std::shared_ptr<JobRecord>> jobs_;
  /// Ids of the terminal jobs still in jobs_, oldest first; past
  /// queue_limit + max_active of them the oldest is retired.
  std::deque<std::uint64_t> finished_;
};

}  // namespace clmpi::svc
