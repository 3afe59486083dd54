// Execution context: per-task state that used to hide in thread_locals.
//
// Under the fiber scheduler (support/sched.hpp), a rank is a fiber that may
// migrate between worker threads, so "per-thread" state silently keyed on
// thread identity (the capi binding, the log label) would leak across ranks
// sharing a worker.
// ExecContext is the replacement: one instance per logical task — a fiber
// when the scheduler runs it, the thread itself otherwise — carrying
//
//   * the log label (support/log.cpp tags every line with it),
//   * the published blocked-site (what blocking primitive the task is parked
//     in right now) and the deadlock verdict's hook into that wait,
//   * the owners higher layers attach (the service job, the C API binding),
//     forward-declared so this lowest-layer header never learns their types.
//
// ctx::current() always returns a context: the scheduler installs the running
// fiber's around each resume, and a plain thread falls back to a thread_local
// instance — so call sites need no fiber check.
#pragma once

#include <exception>
#include <string>

namespace clmpi::tenant {
class JobControl;  // support/tenant.hpp
}
namespace clmpi::capi {
class ThreadBinding;  // clmpi/capi.h
}

namespace clmpi::ctx {

class ExecContext {
 public:
  /// Label for log lines emitted by this task ("rank12", "clmpi-comm0", ...).
  std::string log_label{"-"};

  /// The blocking site this task is currently parked in (a string literal;
  /// nullptr while running). Written by ctx::BlockedScope; read on the
  /// task's strand by the deadlock verdict.
  const char* blocked{nullptr};
  /// Whether the deadlock verdict may fail the current wait (sched::wait).
  bool interruptible{false};
  /// Set by the deadlock verdict; the blocked wait rethrows it when resumed.
  std::exception_ptr interrupt;
  /// The cluster rank this task works for (a rank fiber, or a service it
  /// spawned); -1 outside a cluster.
  int rank{-1};

  /// The service job this task runs under; null for standalone runs. Set by
  /// the cluster launcher on rank tasks and propagated by spawn_service to
  /// the runtime services a rank starts. Allocation layers below the cluster
  /// (the staging buffers) read it to charge quotas to the right tenant.
  tenant::JobControl* job{nullptr};

  /// The C API binding active on this task (set and cleared by
  /// capi::ThreadBinding); null when the task made none.
  const capi::ThreadBinding* binding{nullptr};
};

/// The calling task's context: the scheduler-installed fiber context when a
/// fiber is running, a per-thread fallback otherwise. Never null.
ExecContext& current() noexcept;

/// Install (or with nullptr, remove) a fiber's context on this thread.
/// Scheduler-internal; everyone else just calls current().
void set_current(ExecContext* c) noexcept;

/// RAII publication of a blocking site ("mpi.request.wait", ...). `site`
/// must be a string literal (or otherwise immortal).
class BlockedScope {
 public:
  BlockedScope(const char* site, bool interruptible) noexcept : ctx_(&current()) {
    ctx_->blocked = site;
    ctx_->interruptible = interruptible;
  }
  ~BlockedScope() { ctx_->blocked = nullptr; }
  BlockedScope(const BlockedScope&) = delete;
  BlockedScope& operator=(const BlockedScope&) = delete;

 private:
  ExecContext* ctx_;
};

}  // namespace clmpi::ctx
