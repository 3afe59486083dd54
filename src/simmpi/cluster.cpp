#include "simmpi/cluster.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <future>
#include <mutex>
#include <numeric>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "simmpi/cluster_core.hpp"
#include "simmpi/progress.hpp"
#include "support/context.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/sched.hpp"

namespace clmpi::mpi {

namespace detail {

bool ClusterCore::backstop() {
  const bool cancelled = fail_pending_as_cancelled();
  std::shared_ptr<RequestState> next;
  std::erase_if(pending_ops, [&next](const std::weak_ptr<RequestState>& weak) {
    auto s = weak.lock();
    if (s == nullptr || s->done()) return true;
    const auto deadline = s->deadline();
    if (deadline && (next == nullptr || *deadline < *next->deadline())) next = std::move(s);
    return false;
  });
  // Rescue after the sweep: timeout callbacks may re-enter the cluster
  // (fire events, post follow-up operations that register themselves).
  // Unlink the operation first: its caller may free the buffer once it
  // sees the timeout, so no later match may touch it.
  if (next != nullptr) {
    std::vector<std::shared_ptr<RequestState>> queued;
    for (Mailbox& m : mailboxes) m.withdraw(nullptr, next.get(), queued);
    if (next->rescue_timeout()) {
      if (obs::metrics_enabled()) progress_metrics().rescued_waits.add();
      return true;
    }
  }
  return cancelled || fail_deadlocked();
}

bool ClusterCore::fail_deadlocked() {
  ctx::ExecContext* target = sched::deadlock_target();
  if (target == nullptr) return false;
  target->interrupt = deadlock_error(*target);
  // The operations the target posted fail too: a caller that handles the
  // error may free the buffers they point into.
  fail_posted(target, target->interrupt);
  return true;
}

std::exception_ptr ClusterCore::deadlock_error(const ctx::ExecContext& target) const {
  const int r = target.rank;
  for (const Mailbox& m : mailboxes) {
    if (std::string mismatch = m.describe_block_mismatch(r); !mismatch.empty()) {
      return std::make_exception_ptr(PreconditionError(mismatch));
    }
  }
  const RankState& failed = ranks[static_cast<std::size_t>(r)];
  std::ostringstream what;
  what << "deadlock: every task of the cluster is blocked and none can complete; failing rank "
       << r << "'s " << (failed.task == &target ? "" : target.log_label + " ") << "wait at "
       << target.blocked;
  if (failed.clock != nullptr) what << ", virtual time " << failed.clock->now().s << " s";
  what << "; blocked sites:";
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    // At an idle pass every live fiber waits, so a live rank has a site.
    what << " rank" << i << '=' << (ranks[i].task != nullptr ? ranks[i].task->blocked : "returned");
  }
  return std::make_exception_ptr(DeadlockError(what.str()));
}

bool ClusterCore::fail_posted(const ctx::ExecContext* poster, const std::exception_ptr& error) {
  std::vector<std::shared_ptr<RequestState>> posted;
  for (Mailbox& m : mailboxes) m.withdraw(poster, nullptr, posted);
  // Fail after the sweep: settle callbacks may re-enter the cluster (fire
  // events, post follow-up operations).
  for (const auto& s : posted) s->cancel_now(error);
  return !posted.empty();
}

void ClusterCore::register_pending(std::shared_ptr<RequestState> state) {
  // Opportunistic pruning keeps the registry proportional to in-flight
  // operations rather than to the job's lifetime message count.
  if (pending_ops.size() >= 64 && (pending_ops.size() & (pending_ops.size() - 1)) == 0) {
    std::erase_if(pending_ops, [](const std::weak_ptr<RequestState>& weak) {
      const auto s = weak.lock();
      return s == nullptr || s->done();
    });
  }
  pending_ops.push_back(std::move(state));
}

bool ClusterCore::fail_pending_as_cancelled() {
  return job != nullptr && job->cancel_requested() &&
         fail_posted(nullptr, std::make_exception_ptr(CancelledError(
                                  "job " + std::to_string(job->id()) +
                                  " cancelled; pending operation failed by the cancel backstop")));
}

}  // namespace detail

namespace {

std::vector<int> iota_group(int n) {
  std::vector<int> g(static_cast<std::size_t>(n));
  std::iota(g.begin(), g.end(), 0);
  return g;
}

std::string describe_exception(std::exception_ptr e) {
  try {
    std::rethrow_exception(std::move(e));
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "non-std exception";
  }
}

/// CLMPI_TRACE auto-export arbitration across concurrent Cluster::run calls.
/// Each run takes a sequence number at START; only the latest-started run
/// writes the file ("last run wins", now deterministic under concurrency:
/// start order decides, not finish order), and writes are serialized so two
/// finishing runs can never interleave output in the same path.
std::mutex g_trace_export_mutex;
std::uint64_t g_trace_export_seq = 0;      // last sequence number handed out
std::uint64_t g_trace_exported_seq = 0;    // highest sequence that exported

/// The pool Cluster::run uses without Options::scheduler: sized once from
/// CLMPI_FIBER_WORKERS (or the core count), and leaked like every
/// process-wide service here — its workers park on a condition variable
/// between runs.
sched::Scheduler& default_pool() {
  static auto* pool = new sched::Scheduler(sched::Scheduler::Options{});
  return *pool;
}

/// Strand tags: process-unique across every pool, so no two runs ever share
/// a strand, and one run's owner checks reject every other run's callers.
std::uint64_t next_strand_tag() {
  static std::atomic<std::uint64_t> next{0};
  return ++next;
}

/// One started run. The rank fibers and the idle task point into it; the
/// strand's close callback owns it and tears it down before reporting.
struct ClusterRun {
  Cluster::Options options;
  std::function<void(Rank&)> body;
  std::uint64_t run_seq{0};
  detail::ClusterCore core;
  vt::Tracer env_tracer;
  RunResult result;
  std::exception_ptr first_error;
  int suppressed{0};

  void rank_main(int r) {
    detail::ClusterCore::RankState& state = core.ranks[static_cast<std::size_t>(r)];
    ctx::ExecContext& task = ctx::current();
    state.task = &task;
    task.rank = r;
    // Tenancy: the rank task (and, via spawn_service propagation, every
    // runtime service it starts) charges allocations to the job.
    task.job = options.job;
    log::set_thread_label("rank" + std::to_string(r));
    try {
      Rank rank(&core, r, options.nranks);
      state.clock = &rank.clock();
      body(rank);
      result.rank_end_s[static_cast<std::size_t>(r)] = rank.now_s();
    } catch (...) {
      if (!first_error) {
        first_error = std::current_exception();
      } else {
        // First error wins the rethrow, but secondary failures (usually the
        // cascade the first one caused in peer ranks) must not vanish
        // silently: count and log each one.
        ++suppressed;
        CLMPI_WARN("rank " << r << ": secondary error suppressed: "
                           << describe_exception(std::current_exception()));
        if (obs::metrics_enabled()) {
          static auto& c = obs::Registry::instance().counter("cluster.suppressed_errors");
          c.add();
        }
      }
      // A failed rank fails the whole job: without a runtime teardown to
      // poison them, peer ranks of a plain-MPI workload would block forever
      // on the dead rank's messages. The cancel backstop fails the job's
      // pending operations, so peers unwind (as secondary, suppressed
      // CancelledErrors — the line above already recorded the real cause).
      if (options.job != nullptr) options.job->request_cancel();
    }
    state = {};
  }

  void close() {
    // The strand closed, so every fiber — ranks, queue workers, dispatchers,
    // collective progression — finished; the handles only need releasing.
    // From here on this worker owns the core.
    core.closed = true;
    for (auto& s : core.aux_services) s.join();
    // One final cancel rescue, so a cancelled job's pending operations settle
    // (returning their mailbox quota) before `core` is torn down.
    core.fail_pending_as_cancelled();
    if (core.faults) result.faults = core.faults->counters();
    // CLMPI_TRACE=<path>: auto-export the env-attached tracer as Perfetto
    // JSON. Last run wins when a process runs several clusters — decided by
    // run START order and serialized (see g_trace_export_mutex above).
    if (core.tracer == &env_tracer && !obs::trace_export_path().empty()) {
      std::lock_guard lock(g_trace_export_mutex);
      if (run_seq > g_trace_exported_seq) {
        g_trace_exported_seq = run_seq;
        obs::write_trace_file(env_tracer, obs::trace_export_path());
      }
    }
    if (first_error && suppressed > 0) {
      CLMPI_WARN("cluster: suppressed " << suppressed
                                        << " secondary rank error(s); rethrowing the first");
    }
    for (double e : result.rank_end_s) result.makespan_s = std::max(result.makespan_s, e);
  }
};

}  // namespace

Rank::Rank(detail::ClusterCore* core, int id, int nranks)
    : core_(core), id_(id), clock_(), world_(core, /*context=*/0, iota_group(nranks), id) {}

const sys::SystemProfile& Rank::profile() const { return *core_->profile; }

vt::Tracer* Rank::tracer() const { return core_->tracer; }

void Rank::compute(vt::Duration d, const std::string& label) {
  // Cancellation point: compute loops are where a rank can go longest
  // without touching the comm layer's posts.
  if (core_->job != nullptr) core_->job->check_cancelled("compute");
  const vt::TimePoint start = clock_.now();
  clock_.advance(d);
  if (core_->tracer != nullptr) {
    core_->tracer->record("host" + std::to_string(id_), label, vt::SpanKind::compute, start,
                          clock_.now());
  }
}

void Cluster::start(const Options& options, std::function<void(Rank&)> body, Done done) {
  CLMPI_REQUIRE(options.nranks > 0, "cluster needs at least one rank");
  CLMPI_REQUIRE(options.profile != nullptr, "cluster needs a system profile");
  // Rank-count quota: checked before anything is allocated, so an oversized
  // job fails typed without having touched shared state.
  if (options.job != nullptr) options.job->check_ranks(options.nranks);

  auto run = std::make_shared<ClusterRun>();
  run->options = options;
  run->body = std::move(body);
  {
    std::lock_guard lock(g_trace_export_mutex);
    run->run_seq = ++g_trace_export_seq;
  }

  detail::ClusterCore& core = run->core;
  core.profile = options.profile;
  core.tracer = options.tracer;
  core.job = options.job;
  // CLMPI_TRACE: when the caller did not attach a tracer, attach an
  // internally owned one so clmpiDumpTrace (and the optional auto-export
  // in close()) see the run. Tracing is passive — it never advances a
  // clock — so the virtual schedule is identical either way.
  if (core.tracer == nullptr && obs::trace_enabled()) core.tracer = &run->env_tracer;
  if (options.faults.enabled()) {
    core.faults = std::make_unique<FaultEngine>(options.faults);
  }
  core.network = std::make_unique<Network>(options.profile->nic, options.nranks,
                                           core.tracer, core.faults.get(),
                                           &options.profile->shmem);
  for (int n = 0; n < options.nranks; ++n) core.mailboxes.emplace_back(core, *core.network, n);

  core.ranks.resize(static_cast<std::size_t>(options.nranks));
  run->result.rank_end_s.assign(static_cast<std::size_t>(options.nranks), 0.0);

  // The run is one strand: its rank fibers, and every service fiber they
  // spawn, execute serially in a schedule that depends on nothing but the
  // program. The strand's idle task is the cluster's liveness backstop.
  sched::Scheduler& pool = options.scheduler != nullptr ? *options.scheduler : default_pool();
  core.strand = next_strand_tag();
  const std::string prefix =
      options.job_tag != 0 ? "job" + std::to_string(options.job_tag) + ".rank" : "rank";
  std::vector<sched::Scheduler::Task> tasks;
  tasks.reserve(static_cast<std::size_t>(options.nranks));
  for (int r = 0; r < options.nranks; ++r) {
    tasks.push_back({[run = run.get(), r] { run->rank_main(r); }, prefix + std::to_string(r)});
  }
  pool.start(core.strand, std::move(tasks), [&core] { return core.backstop(); },
             [run = std::move(run),
              done = std::move(done)](const sched::StrandStats& stats) mutable {
               try {
                 run->close();
               } catch (...) {
                 if (!run->first_error) run->first_error = std::current_exception();
               }
               run->result.fiber_resumes = stats.resumes;
               run->result.fiber_skips = stats.skips;
               std::exception_ptr error = std::move(run->first_error);
               RunResult result = error ? RunResult{} : std::move(run->result);
               run.reset();  // the whole run goes before `done` may free its job
               done(std::move(result), std::move(error));
             });
}

RunResult Cluster::run(const Options& options, const std::function<void(Rank&)>& body) {
  // The caller blocks until the run's strand closes; a fiber doing so would
  // stall the strand it runs on.
  CLMPI_REQUIRE(!sched::on_fiber(), "Cluster::run called from a scheduler fiber");
  // Both move into the promise: the worker keeps no reference to the error,
  // whose last release, here, must not race the caller's use of it.
  std::promise<std::pair<RunResult, std::exception_ptr>> outcome;
  start(options, body, [&outcome](RunResult result, std::exception_ptr error) {
    outcome.set_value({std::move(result), std::move(error)});
  });
  auto [result, error] = outcome.get_future().get();
  if (error) std::rethrow_exception(error);
  return result;
}

}  // namespace clmpi::mpi
