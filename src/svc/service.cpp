#include "svc/service.hpp"

#include <algorithm>
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
}

Service::~Service() {
  std::unique_lock<std::mutex> lock(mutex_);
  stopping_ = true;
  // Queued jobs keep active_ above zero: a finishing job hands its slot on.
  state_cv_.wait(lock, [this] { return active_ == 0; });
  // pool_ (a member) is destroyed after this body and joins its workers,
  // which may still be returning from the last job's completion.
}

std::uint64_t Service::submit(JobSpec spec) {
  std::uint64_t id = 0;
  std::shared_ptr<JobRecord> next;
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
    id = g_next_job_id.fetch_add(1, std::memory_order_relaxed);
    auto rec = std::make_shared<JobRecord>(id, std::move(spec));
    // Reject an impossible ask at the door instead of queueing a job that
    // can only ever fail at launch.
    rec->control.check_ranks(rec->spec.nranks);
    ++submitted_;
    jobs_.emplace(id, rec);
    queue_.push_back(std::move(rec));
    // Below max_active nothing else is queued: the job starts right here.
    if (active_ < opts_.max_active) {
      ++active_;
      next = next_locked();
    }
  }
  launch(std::move(next));
  return id;
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
  if (rec->control.has_deadline()) {
    state_cv_.wait_until(lock, rec->control.deadline(),
                         [&] { return rec->result.state != JobState::queued; });
    drop_if_cancelled_locked(*rec);
  }
  state_cv_.wait(lock, [&] { return terminal(rec->result.state); });
  return rec->result;
}

bool Service::cancel(std::uint64_t id) {
  std::shared_ptr<JobRecord> rec = find(id);
  std::lock_guard<std::mutex> lock(mutex_);
  if (terminal(rec->result.state)) return false;
  rec->control.request_cancel();
  drop_if_cancelled_locked(*rec);
  return true;
}

JobResult Service::counters(std::uint64_t id) {
  std::shared_ptr<JobRecord> rec = find(id);
  std::lock_guard<std::mutex> lock(mutex_);
  drop_if_cancelled_locked(*rec);
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

void Service::launch(std::shared_ptr<JobRecord> rec) {
  while (rec != nullptr) {
    // The job's own trace namespace; only its hash outlives the run.
    auto tracer = std::make_shared<vt::Tracer>();
    try {
      mpi::Cluster::Options copt;
      copt.nranks = rec->spec.nranks;
      copt.profile = &sys::profile_by_name(rec->spec.profile);
      copt.tracer = tracer.get();
      copt.scheduler = &pool_;
      copt.job_tag = rec->id;
      copt.job = &rec->control;
      // The pool worker that closes the job's strand finishes the job and
      // starts the one that inherits its slot.
      mpi::Cluster::start(copt, make_workload(rec->spec),
                          [this, rec, tracer](mpi::RunResult run, std::exception_ptr error) {
                            launch(finish(*rec, *tracer, run.makespan_s, error));
                          });
      return;
    } catch (...) {
      rec = finish(*rec, *tracer, 0.0, std::current_exception());
    }
  }
}

std::shared_ptr<Service::JobRecord> Service::finish(JobRecord& rec, const vt::Tracer& tracer,
                                                    double makespan_s,
                                                    const std::exception_ptr& error) {
  const auto end = Clock::now();
  JobState state = JobState::succeeded;
  Status status = Status::success;
  std::string what;
  // Completion beats a cancel flag that raced the final wait: a run that
  // returned cleanly reports success even if cancel() landed at the wire.
  if (error) {
    try {
      std::rethrow_exception(error);
    } catch (const Error& e) {
      state = (e.status() == Status::cancelled) ? JobState::cancelled : JobState::failed;
      status = e.status();
      what = e.what();
    } catch (const std::exception& e) {
      state = JobState::failed;
      status = Status::invalid_operation;
      what = e.what();
    }
  }
  const std::uint64_t trace_hash = tracer.hash();

  std::lock_guard<std::mutex> lock(mutex_);
  rec.result.state = state;
  rec.result.status = status;
  rec.result.error = std::move(what);
  rec.result.makespan_s = makespan_s;
  rec.result.trace_hash = trace_hash;
  rec.result.run_wall_s = std::chrono::duration<double>(end - rec.started).count();
  publish_locked(rec);
  return next_locked();
}

std::shared_ptr<Service::JobRecord> Service::next_locked() {
  while (!queue_.empty()) {
    std::shared_ptr<JobRecord> rec = queue_.front();
    drop_if_cancelled_locked(*rec);
    if (rec->result.state != JobState::queued) continue;  // dropped from the queue
    queue_.pop_front();
    rec->started = Clock::now();
    rec->result.queue_delay_s =
        std::chrono::duration<double>(rec->started - rec->submitted).count();
    rec->result.state = JobState::running;
    return rec;
  }
  --active_;
  return nullptr;
}

void Service::drop_if_cancelled_locked(JobRecord& rec) {
  if (rec.result.state != JobState::queued || !rec.control.cancel_requested()) return;
  std::erase_if(queue_, [&rec](const std::shared_ptr<JobRecord>& q) { return q.get() == &rec; });
  rec.result.state = JobState::cancelled;
  rec.result.status = Status::cancelled;
  rec.result.error = "job " + std::to_string(rec.id) + " cancelled before start";
  rec.result.queue_delay_s = std::chrono::duration<double>(Clock::now() - rec.submitted).count();
  publish_locked(rec);
}

void Service::publish_locked(JobRecord& rec) {
  rec.result.usage = rec.control.usage();
  // A waiter that already found a retired record keeps it alive.
  finished_.push_back(rec.id);
  if (finished_.size() > opts_.queue_limit + opts_.max_active) {
    jobs_.erase(finished_.front());
    finished_.pop_front();
  }
  state_cv_.notify_all();
}

}  // namespace clmpi::svc
