// Cooperative rank scheduler: stackful fibers over a small worker pool.
//
// Every simulated cluster runs its rank bodies as resumable fibers, each on
// its own stack and switched by a short assembly routine that makes no
// system call (fiber_switch.S), multiplexed over a pool of worker OS
// threads. Every blocking point in the runtime — Request waits, collective
// rendezvous, window fences, mailbox probes, event waits, the dispatcher's
// and the queue workers' idle waits — goes through sched::wait /
// sched::yield, which suspends the FIBER instead of parking the OS thread.
//
// Strands: every fiber carries a strand tag (one per cluster run). A strand
// is a serial execution context: a worker checks a strand out, resumes its
// ready fibers in FIFO order for a bounded quantum, and puts it back in the
// rotation; two workers never hold the same strand at once. All parallelism
// comes from running different strands (clusters) concurrently.
//
// Blocking model: parked predicates. A fiber blocked in sched::wait stays in
// its strand's FIFO, parked with a reference to its predicate. When its turn
// comes the worker calls the predicate itself and resumes the fiber only if
// it holds (or the deadlock verdict picked the wait); otherwise the fiber
// goes back to the tail without a stack switch. Every resume is progress,
// and a full pass over a strand's fibers that resumed none is quiescence:
// nothing on the strand can change by itself, so the worker runs the
// strand's idle task (the runtime's liveness backstop), which reports
// whether it resolved anything — a cluster's ends with the deadlock verdict,
// which fails one blocked wait. If not, no wait is left to fail: the worker
// prints the strand's fibers and aborts. Workers with no runnable strand
// park on a condition variable.
//
// Determinism contract: the order in which a strand's fibers run, and the
// points at which its idle task fires, are functions of the strand alone —
// not of the worker count, of which worker holds it, or of co-tenant
// strands. The scheduler never touches virtual time, so trace hashes,
// makespans and fault counters do not depend on the worker count
// (tests/test_sched.cpp holds 1, 4 and 16 workers to that).
//
// Sanitizers: fiber stack switches are annotated for ASan
// (__sanitizer_{start,finish}_switch_fiber) and TSan (__tsan_*_fiber), so
// CLMPI_SANITIZE=address / thread builds run fibers cleanly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "support/context.hpp"

namespace clmpi::sched {

/// True when the calling code runs on a scheduler fiber.
[[nodiscard]] bool on_fiber() noexcept;

/// Cooperative reschedule point. On a fiber: suspend and hand the worker to
/// the next ready fiber (the caller resumes later, possibly on a different
/// worker). On a plain thread: std::this_thread::yield(). A yielded fiber is
/// resumed on its next visit, so a strand with a fiber spinning on yield()
/// never goes idle: a poll loop that relies on the idle task (deadlines,
/// cancels) must wait with sched::wait instead.
void yield();

/// The strand tag of the calling code (a fiber, or its strand's idle task);
/// 0 off a strand. One thread-local load: the owner checks of single-owner
/// cluster state call it on every entry.
[[nodiscard]] std::uint64_t current_strand() noexcept;

/// Park the calling fiber until `holds(pred)` returns true, then return (the
/// predicate is not evaluated again here); rethrow the deadlock verdict if it
/// picked this wait. Off a strand, throw PreconditionError naming `site`: no
/// other task there can make the awaited progress. sched::wait's slow path.
void park(bool (*holds)(const void*) noexcept, const void* pred, const char* site);

/// Fiber-aware blocking wait: returns once `pred()` holds, publishing `site`
/// as the caller's blocked site meanwhile. Off a strand it throws
/// PreconditionError unless `pred()` already holds. `site` must be a string
/// literal (or otherwise outlive the wait). The deadlock verdict may fail an
/// `interruptible` wait, which then throws its error; pass false where a
/// throw cannot be handled (a service's idle wait, a join in a destructor).
/// A wait entered while its fiber unwinds is never interruptible (each fiber
/// has its own exception state).
///
/// Predicate contract: while the fiber is parked, the worker holding its
/// strand evaluates `pred` on the worker's own stack, once per visit, with
/// the strand current (current_strand() answers for it) but no fiber (so
/// ctx::current() is the worker's, not the waiter's). A predicate therefore
/// reads only the awaited objects' state, changes nothing a resume could
/// observe besides its own captures, does not throw, and does not read
/// ctx::current(). `pred` lives on the waiting fiber's stack, which stays
/// intact while it is parked.
template <typename Pred>
void wait(const Pred& pred, const char* site, bool interruptible = true) {
  if (pred()) return;
  ctx::BlockedScope blocked(site, interruptible && std::uncaught_exceptions() == 0);
  park([](const void* p) noexcept { return (*static_cast<const Pred*>(p))(); }, &pred, site);
}

/// For the strand's idle task: the first fiber of the calling strand, in
/// creation order (a cluster's rank fibers by rank, then services), parked
/// in an interruptible wait; nullptr when none. The deadlock verdict's target.
[[nodiscard]] ctx::ExecContext* deadlock_target() noexcept;

/// A long-lived service task (command-queue worker, clMPI dispatcher,
/// collective progression): a fiber on the spawner's strand. join() waits
/// until it finished.
class ServiceHandle {
 public:
  ServiceHandle() = default;
  ServiceHandle(ServiceHandle&&) = default;
  ServiceHandle& operator=(ServiceHandle&&) = default;
  ServiceHandle(const ServiceHandle&) = delete;
  ServiceHandle& operator=(const ServiceHandle&) = delete;
  ~ServiceHandle();

  [[nodiscard]] bool joinable() const noexcept { return done_ != nullptr; }
  void join();

 private:
  friend ServiceHandle spawn_service(std::string label, std::function<void()> fn);
  /// Set by the service fiber as it finishes; read on the same strand, or
  /// by the strand's close callback.
  std::shared_ptr<bool> done_;
};

/// Spawn `fn` as a service task labelled `label` (becomes its log label) on
/// the calling fiber's strand. Throws PreconditionError off a strand.
ServiceHandle spawn_service(std::string label, std::function<void()> fn);

/// What the workers did with one strand's fibers, counted per visit: a
/// function of the strand alone, like its schedule.
struct StrandStats {
  std::uint64_t resumes{0};  ///< visits that switched to the fiber
  std::uint64_t skips{0};    ///< visits to a parked fiber whose predicate did not hold
};

/// The fiber worker pool every Cluster::run executes on: a process-wide pool
/// by default (Cluster::run), or one owned by a svc::Service or a test.
/// Workers live as long as the pool and park while no strand is runnable.
///
/// Multi-tenancy: every fiber carries the tag of the strand it was
/// submitted on (service fibers inherit their spawner's). Each strand keeps
/// its own FIFO of ready fibers; the rotation
/// holds the strands that are runnable and not checked out. A strand's
/// fibers execute in exactly the order they would with the strand alone on
/// a one-worker pool, which keeps per-job trace hashes independent of
/// co-tenancy and of the worker count.
class Scheduler {
 public:
  struct Options {
    /// Worker OS threads; 0 = CLMPI_FIBER_WORKERS or hardware concurrency.
    int workers{0};
    /// Per-fiber stack bytes; 0 = CLMPI_FIBER_STACK_KB or the built-in
    /// default (256 KiB, 1 MiB under sanitizer builds).
    std::size_t stack_bytes{0};
  };

  /// Starts the workers.
  explicit Scheduler(Options options);
  /// Waits until every strand closed and its close callback returned, joins
  /// the workers and unmaps the fiber stacks kept for reuse (each is mapped
  /// once, with a low guard page, and serves one fiber after another).
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// One fiber of a submitted strand.
  struct Task {
    std::function<void()> fn;
    std::string label;
  };

  /// Start strand `strand` — `tasks` queued in order before any of them runs
  /// — and return. `idle` is its idle task: run by the worker holding the
  /// strand, serialized with its fibers, after a full pass that resumed no
  /// fiber; it returns whether it resolved anything. If not, the strand is
  /// deadlocked: the worker prints its fibers and blocked sites and aborts.
  /// The worker that closes the strand calls `on_close` with the strand's
  /// counts, off any strand, without the pool mutex; it must not throw or
  /// block on this pool, but may start strands. The strand must not exist
  /// yet.
  void start(std::uint64_t strand, std::vector<Task> tasks, std::function<bool()> idle,
             std::function<void(const StrandStats&)> on_close);

  /// start() plus a wait until the strand closed; returns its counts.
  StrandStats run(std::uint64_t strand, std::vector<Task> tasks, std::function<bool()> idle);

  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace clmpi::sched
