// One-shot completions on the virtual timeline.
//
// An OpenCL event, an MPI request and a device transfer are the same kind of
// object: something that settles exactly once, at a virtual time, with or
// without a failure, and that others wait on or chain from. Completion is
// that object; ocl::Event and mpi::detail::RequestState are built on it, and
// Join counts several of them down into one (a pipelined transfer's wire
// blocks, an MPI_CL_MEM request's sub-requests). A completion belongs to its
// cluster's strand and holds no lock.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "vt/clock.hpp"
#include "vt/time.hpp"

namespace clmpi::vt {

class Completion {
 public:
  /// Fired once with the settle time and the failure (nullptr on success).
  using Callback = std::function<void(TimePoint, const std::exception_ptr&)>;

  [[nodiscard]] bool done() const noexcept { return done_; }
  /// The settle time; valid only once done.
  [[nodiscard]] TimePoint when() const;
  /// The carried failure (nullptr while pending or on success).
  [[nodiscard]] const std::exception_ptr& error() const noexcept { return error_; }

  /// Settle at `when`, failed when `error` is set, then fire the callbacks in
  /// registration order on the calling fiber. A second settle throws
  /// PreconditionError.
  void settle(TimePoint when, std::exception_ptr error = nullptr);

  /// Run `fn` when the completion settles, or at once if it already has.
  /// A callback may register further callbacks or settle other completions,
  /// but must not block.
  void on_settle(Callback fn);

  /// Park the calling fiber until settled (sched::wait, blocked at
  /// `site`, a string literal); return the settle time or rethrow the
  /// failure. Off a strand, waiting on a pending completion throws
  /// PreconditionError.
  TimePoint wait(const char* site) {
    if (!done_) park(site);
    if (error_) std::rethrow_exception(error_);
    return when_;
  }

  /// wait(site), then synchronize `clock` to the settle time. A failure also
  /// moves the clock to the time it was detected before it rethrows, so
  /// nothing the waiter does next is scheduled before it.
  void wait(Clock& clock, const char* site);

 private:
  /// The blocking half of wait(), out of line: sched::wait until done.
  void park(const char* site);

  bool done_{false};
  TimePoint when_{};
  std::exception_ptr error_;
  std::vector<Callback> callbacks_;
};

/// Arrival counter: a callable that fires `done(latest, first_error)` once it
/// has been called `n` times — the latest arrival time, and the first failure
/// in arrival order. It waits for every arrival even after a failure, so
/// whatever the arrivals reference (bounce buffers, a cl_mem) stays in use
/// until none is in flight. Copies share one count.
class Join {
 public:
  Join(std::size_t n, Completion::Callback done);

  void operator()(TimePoint when, const std::exception_ptr& error) const;

 private:
  struct State {
    std::size_t remaining;
    TimePoint latest;
    std::exception_ptr error;
    Completion::Callback done;
  };
  std::shared_ptr<State> state_;
};

}  // namespace clmpi::vt
