#include "svc/service.hpp"

#include <atomic>
#include <exception>
#include <utility>

#include "simmpi/cluster.hpp"
#include "support/log.hpp"
#include "svc/workloads.hpp"
#include "systems/profile.hpp"
#include "vt/tracer.hpp"

namespace clmpi::svc {

namespace {

bool terminal(JobState s) noexcept {
  return s == JobState::succeeded || s == JobState::failed || s == JobState::cancelled;
}

/// Job ids are unique per PROCESS, not per Service: a handle kept from a
/// stopped service (the C API restarts its global one) must read as unknown,
/// never as some job of the next service.
std::atomic<std::uint64_t> g_next_job_id{1};

}  // namespace

const char* to_string(JobKind k) noexcept {
  switch (k) {
    case JobKind::himeno:
      return "himeno";
    case JobKind::halo:
      return "halo";
    case JobKind::chaos:
      return "chaos";
  }
  return "?";
}

const char* to_string(JobState s) noexcept {
  switch (s) {
    case JobState::queued:
      return "queued";
    case JobState::running:
      return "running";
    case JobState::succeeded:
      return "succeeded";
    case JobState::failed:
      return "failed";
    case JobState::cancelled:
      return "cancelled";
  }
  return "?";
}

Service::Service(Options options)
    : opts_(options),
      pool_(sched::Scheduler::Options{.workers = options.workers}) {
  if (opts_.queue_limit == 0) opts_.queue_limit = 1;
  if (opts_.max_active == 0) opts_.max_active = 1;
  runners_.reserve(opts_.max_active);
  for (std::size_t i = 0; i < opts_.max_active; ++i) {
    runners_.emplace_back([this, i] { runner_loop(static_cast<int>(i)); });
  }
  monitor_ = std::thread([this] { monitor_loop(); });
}

Service::~Service() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  monitor_cv_.notify_all();
  for (std::thread& t : runners_) t.join();
  if (monitor_.joinable()) monitor_.join();
  // pool_ (a member) is destroyed after this body and joins its workers;
  // every job's strand already closed because the runners drained.
}

std::uint64_t Service::submit(JobSpec spec) {
  std::shared_ptr<JobRecord> rec;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      ++rejected_;
      throw RejectedError("service is shutting down");
    }
    if (queue_.size() >= opts_.queue_limit) {
      ++rejected_;
      throw RejectedError("service queue full: " + std::to_string(queue_.size()) +
                          " jobs waiting (limit " + std::to_string(opts_.queue_limit) +
                          ")");
    }
    const std::uint64_t id = g_next_job_id.fetch_add(1, std::memory_order_relaxed);
    rec = std::make_shared<JobRecord>(id, std::move(spec));
    // Reject an impossible ask at the door instead of queueing a job that
    // can only ever fail at launch.
    rec->control.check_ranks(rec->spec.nranks);
    rec->submitted = std::chrono::steady_clock::now();
    if (rec->spec.deadline_s > 0.0) {
      rec->deadline = rec->submitted + std::chrono::duration_cast<
                                           std::chrono::steady_clock::duration>(
                                           std::chrono::duration<double>(
                                               rec->spec.deadline_s));
      armed_.push_back(rec);
    }
    ++submitted_;
    jobs_.emplace(id, rec);
    queue_.push_back(rec);
  }
  cv_.notify_one();
  return rec->id;
}

std::shared_ptr<Service::JobRecord> Service::find(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw Error("unknown or retired job id " + std::to_string(id), Status::invalid_job);
  }
  return it->second;
}

JobResult Service::wait(std::uint64_t id) {
  std::shared_ptr<JobRecord> rec = find(id);
  std::unique_lock<std::mutex> lock(mutex_);
  state_cv_.wait(lock, [&] { return terminal(rec->result.state); });
  return rec->result;
}

bool Service::cancel(std::uint64_t id) {
  std::shared_ptr<JobRecord> rec = find(id);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (terminal(rec->result.state)) return false;
  }
  rec->control.request_cancel();
  cv_.notify_all();  // a queued job's runner finalizes it promptly
  return true;
}

JobResult Service::counters(std::uint64_t id) {
  std::shared_ptr<JobRecord> rec = find(id);
  std::lock_guard<std::mutex> lock(mutex_);
  JobResult out = rec->result;
  if (!terminal(out.state)) out.usage = rec->control.usage();
  return out;
}

Service::Stats Service::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.submitted = submitted_;
  s.rejected = rejected_;
  s.queued = queue_.size();
  s.active = active_;
  return s;
}

void Service::runner_loop(int index) {
  (void)index;
  for (;;) {
    std::shared_ptr<JobRecord> rec;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) {
        if (stopping_) return;  // drained
        continue;
      }
      rec = queue_.front();
      queue_.pop_front();
      ++active_;
    }
    run_job(rec);
    std::lock_guard<std::mutex> lock(mutex_);
    --active_;
  }
}

void Service::monitor_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    const auto now = std::chrono::steady_clock::now();
    // A job leaves the list once terminal or once its deadline fired (the
    // cancel flag stays set), so a pass costs the live armed jobs only.
    std::erase_if(armed_, [now](const std::shared_ptr<JobRecord>& rec) {
      if (terminal(rec->result.state)) return true;
      if (now < rec->deadline) return false;
      rec->control.request_cancel();
      return true;
    });
    monitor_cv_.wait_for(lock, std::chrono::milliseconds(5));
  }
}

void Service::run_job(const std::shared_ptr<JobRecord>& rec) {
  const auto start = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rec->started = start;
    rec->result.queue_delay_s =
        std::chrono::duration<double>(start - rec->submitted).count();
    rec->result.state = JobState::running;
  }

  JobState state = JobState::succeeded;
  Status status = Status::success;
  std::string error;
  double makespan = 0.0;
  // The job's own trace namespace; only its hash outlives the run.
  vt::Tracer tracer;

  // A cancel (explicit, or a deadline that fired while queued) that landed
  // before launch finalizes without ever spinning up a cluster.
  if (rec->control.cancel_requested()) {
    state = JobState::cancelled;
    status = Status::cancelled;
    error = "job " + std::to_string(rec->id) + " cancelled before start";
  } else {
    try {
      mpi::Cluster::Options copt;
      copt.nranks = rec->spec.nranks;
      copt.profile = &sys::profile_by_name(rec->spec.profile);
      copt.tracer = &tracer;
      copt.scheduler = &pool_;
      copt.job_tag = rec->id;
      copt.job = &rec->control;
      const mpi::RunResult rr = mpi::Cluster::run(copt, make_workload(rec->spec));
      makespan = rr.makespan_s;
    } catch (const CancelledError& e) {
      state = JobState::cancelled;
      status = Status::cancelled;
      error = e.what();
    } catch (const Error& e) {
      state = (e.status() == Status::cancelled) ? JobState::cancelled : JobState::failed;
      status = e.status();
      error = e.what();
    } catch (const std::exception& e) {
      state = JobState::failed;
      status = Status::invalid_operation;
      error = e.what();
    }
  }
  // Completion beats a cancel flag that raced the final wait: a run that
  // returned cleanly reports success even if cancel() landed at the wire.

  const auto end = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rec->result.state = state;
    rec->result.status = status;
    rec->result.error = std::move(error);
    rec->result.makespan_s = makespan;
    rec->result.trace_hash = tracer.hash();
    rec->result.usage = rec->control.usage();
    rec->result.run_wall_s = std::chrono::duration<double>(end - start).count();
    // A waiter that already found a retired record keeps it alive.
    finished_.push_back(rec->id);
    if (finished_.size() > opts_.queue_limit + opts_.max_active) {
      jobs_.erase(finished_.front());
      finished_.pop_front();
    }
  }
  state_cv_.notify_all();
}

}  // namespace clmpi::svc
