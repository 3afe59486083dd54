// OpenCL-style event objects.
//
// An Event tracks one command through queued -> submitted -> running ->
// complete, carrying virtual timestamps for each transition (the OpenCL
// profiling info). Completion releases waiters and fires callbacks
// (clSetEventCallback). An event belongs to its cluster's strand and holds
// no lock. UserEvent is the application-completed variant; the
// paper's clMPI implementation builds its communication-command events from
// user events that "mimic event objects of standard OpenCL commands" (§V-A),
// which is exactly what the shared base class provides here.
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "vt/clock.hpp"
#include "vt/time.hpp"

namespace clmpi::ocl {

class Event;
using EventPtr = std::shared_ptr<Event>;

class Event {
 public:
  enum class State { queued, submitted, running, complete };

  /// Virtual-time analogue of CL_PROFILING_COMMAND_{QUEUED,SUBMIT,START,END}.
  struct Profiling {
    vt::TimePoint queued;
    vt::TimePoint submitted;
    vt::TimePoint started;
    vt::TimePoint ended;
  };

  explicit Event(std::string label = "event");
  virtual ~Event() = default;

  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] bool complete() const noexcept { return state_ == State::complete; }
  [[nodiscard]] const std::string& label() const noexcept { return label_; }

  /// Valid only once complete.
  [[nodiscard]] vt::TimePoint completion_time() const;
  [[nodiscard]] Profiling profiling() const noexcept { return profiling_; }

  /// True when the command failed; wait() will rethrow its exception.
  [[nodiscard]] bool failed() const noexcept { return error_ != nullptr; }

  /// The failure carried by a failed event (nullptr when none). Lets
  /// continuation-style consumers — e.g. the runtime's dispatcher latch —
  /// inspect the outcome without the rethrow/catch round trip of wait().
  [[nodiscard]] std::exception_ptr error() const noexcept { return error_; }

  /// Block (poll-yield the calling fiber) until complete; returns the
  /// virtual completion time. Rethrows the command's exception if it failed
  /// (the analogue of an OpenCL event carrying a negative execution
  /// status). Off a strand, waiting on an incomplete event throws
  /// PreconditionError.
  vt::TimePoint wait();

  /// Block until complete and synchronize `clock` (clWaitForEvents).
  void wait(vt::Clock& clock);

  /// Fire `fn(completion_time)` on completion (or immediately if already
  /// complete). Callbacks run on the completing fiber.
  void on_complete(std::function<void(vt::TimePoint)> fn);

  // --- runtime-internal transitions ---------------------------------------

  void mark_queued(vt::TimePoint when);
  void mark_submitted(vt::TimePoint when);
  void mark_running(vt::TimePoint when);
  void mark_complete(vt::TimePoint when);

  /// Complete the event carrying a failure; waiters rethrow `error`.
  void mark_failed(vt::TimePoint when, std::exception_ptr error);

 private:
  std::string label_;
  State state_{State::queued};
  Profiling profiling_{};
  std::exception_ptr error_;
  std::vector<std::function<void(vt::TimePoint)>> callbacks_;
};

/// clCreateUserEvent: an event the application (or the clMPI runtime)
/// completes explicitly.
class UserEvent final : public Event {
 public:
  explicit UserEvent(std::string label = "user-event") : Event(std::move(label)) {}

  /// clSetUserEventStatus(CL_COMPLETE) with an explicit virtual timestamp.
  void set_complete(vt::TimePoint when) { mark_complete(when); }
};

}  // namespace clmpi::ocl
