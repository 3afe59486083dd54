// Non-blocking operation handles, the analogue of MPI_Request.
//
// A Request is a shared handle to the completion state of one Isend/Irecv:
// a vt::Completion (the object an ocl::Event is built on too) plus the
// matched-message status and the deadline protocol. Completion carries a
// *virtual* timestamp; waiting synchronizes the waiting rank's virtual clock
// forward to it. The state belongs to its cluster's strand and holds no
// lock. Settle callbacks are the hook clMPI uses to implement
// clCreateEventFromMPIRequest without polling.
#pragma once

#include <exception>
#include <cstddef>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>

#include "vt/clock.hpp"
#include "vt/completion.hpp"
#include "vt/time.hpp"

namespace clmpi::mpi {

/// Matched-message metadata, the analogue of MPI_Status.
struct MsgStatus {
  int source{-1};
  int tag{-1};
  std::size_t bytes{0};
};

namespace detail {
class RequestState;
}  // namespace detail

class Request {
 public:
  /// A default-constructed Request is null; waiting on it is a no-op.
  Request() = default;

  explicit Request(std::shared_ptr<detail::RequestState> state) : state_(std::move(state)) {}

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

  /// Non-blocking completion peek (no clock synchronization).
  [[nodiscard]] bool done() const;

  /// MPI_Test: if complete, synchronize `clock` to the completion time and
  /// return true; otherwise return false without blocking.
  bool test(vt::Clock& clock);

  /// MPI_Wait: block (in real time) until complete, then synchronize `clock`.
  void wait(vt::Clock& clock);

  /// Wait without a clock; returns the virtual completion time. Used by
  /// runtime service fibers that do not own a timeline of their own.
  vt::TimePoint wait();

  /// Valid only after completion.
  [[nodiscard]] MsgStatus status() const;
  [[nodiscard]] vt::TimePoint completion_time() const;

  /// The operation's failure, if any (nullptr while pending or on success).
  [[nodiscard]] std::exception_ptr error() const;

  /// Continuation: `fn(when, error)` fires exactly once when the request
  /// settles — successfully (error == nullptr) or not — or at once if it
  /// already has; status() is readable from inside it. This is the progress
  /// engine's chaining primitive. Callbacks run on the settling fiber and
  /// must not block on other ranks' progress.
  void on_settle(vt::Completion::Callback fn);

  /// Internal: runtime-side access to the shared state.
  [[nodiscard]] const std::shared_ptr<detail::RequestState>& state() const noexcept {
    return state_;
  }

 private:
  std::shared_ptr<detail::RequestState> state_;
};

/// MPI_Waitall over an arbitrary set of requests.
void wait_all(std::initializer_list<Request*> requests, vt::Clock& clock);
void wait_all(std::span<Request> requests, vt::Clock& clock);

/// MPI_Waitany: block until at least one request completes; synchronize
/// `clock` to that completion and return its index.
std::size_t wait_any(std::span<Request> requests, vt::Clock& clock);

/// MPI_Testall: true (and clock synchronized to the latest completion) iff
/// every request is complete; false without blocking otherwise.
bool test_all(std::span<Request> requests, vt::Clock& clock);

namespace detail {

class RequestState;

/// A fresh pending RequestState; every nonblocking operation owns one.
std::shared_ptr<RequestState> make_request_state();

/// Shared completion state; created pending, completed exactly once.
/// Waits and settle callbacks are the vt::Completion's; on top of it this
/// keeps the matched status and the deadline clamp, rescue and cancel, and
/// counts progress.blocking_waits and progress.continuations.
class RequestState {
 public:
  void complete(vt::TimePoint when, const MsgStatus& st);

  /// Complete carrying a failure: waiters rethrow `error` (used by
  /// non-blocking collective progression when the algorithm throws).
  void fail(vt::TimePoint when, std::exception_ptr error);

  /// Arm a per-operation deadline on the virtual timeline. Two effects:
  ///  * deterministic clamp — a completion (or failure) resolving at a
  ///    virtual time strictly after `deadline` becomes a TimeoutError AT
  ///    the deadline, independent of fiber scheduling;
  ///  * liveness rescue — an operation that never resolves (e.g. a receive
  ///    no one will ever match) is failed with the same TimeoutError at
  ///    `deadline` by the cluster's idle backstop, before its deadlock
  ///    verdict.
  /// Must be armed before the operation can complete (i.e. before posting).
  void arm_deadline(vt::TimePoint deadline);

  /// The armed virtual deadline, if any.
  [[nodiscard]] std::optional<vt::TimePoint> deadline() const noexcept;

  /// Liveness rescue, called by the cluster's idle backstop: fail a
  /// still-pending deadline-armed operation with a TimeoutError AT its
  /// virtual deadline. Returns false (no-op) if the operation is not armed
  /// or already resolved.
  bool rescue_timeout();

  /// Job-cancellation rescue: fail a still-pending operation with `error`
  /// (a CancelledError) now, fixing its outcome — a real resolution racing
  /// the cancel is ignored, exactly like the deadline rescue. Returns false
  /// (no-op) when the operation already resolved. The failure is stamped at
  /// the virtual deadline when one is armed, else at virtual time zero
  /// (sync_to is monotone, so waiters' clocks never move backwards);
  /// cancelled jobs make no determinism claims about their timeline.
  bool cancel_now(std::exception_ptr error);

  [[nodiscard]] bool done() const noexcept { return core_.done(); }
  /// Blocks until complete, returning the completion time; rethrows the
  /// operation's exception on failure. Parks the calling fiber; off a
  /// strand a pending request throws PreconditionError (nothing there could
  /// complete it). Counts progress.blocking_waits on entry when the request
  /// is still pending.
  vt::TimePoint wait();
  /// wait(), then synchronize `clock` to the completion (or failure) time.
  void wait(vt::Clock& clock);
  /// The carried failure, if any (nullptr while pending or on success).
  [[nodiscard]] std::exception_ptr error() const { return core_.error(); }
  [[nodiscard]] MsgStatus status() const;
  [[nodiscard]] vt::TimePoint completion_time() const { return core_.when(); }
  /// Counts progress.continuations when the request is still pending.
  void on_settle(vt::Completion::Callback fn);

 private:
  /// Completion path of complete/fail: applies the deadline clamp.
  void settle(vt::TimePoint when, MsgStatus st, std::exception_ptr error);
  /// Record the status and settle the core; shared by settle and the
  /// rescue/cancel paths.
  void resolve(vt::TimePoint when, const MsgStatus& st, std::exception_ptr error);
  void count_blocking_wait() const;

  [[nodiscard]] std::exception_ptr make_timeout_error() const;

  vt::Completion core_;
  bool deadline_armed_{false};
  /// True when the request resolved as a deadline timeout (or a cancel); a
  /// late real completion after the rescue is then ignored (the operation's
  /// outcome was already fixed at the deadline).
  bool timed_out_{false};
  vt::TimePoint deadline_{};
  MsgStatus status_{};
};

}  // namespace detail
}  // namespace clmpi::mpi
