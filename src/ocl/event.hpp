// OpenCL-style event objects.
//
// An Event is a vt::Completion (settle once, wait, chain callbacks — the
// clSetEventCallback hook) carrying the command's label and its virtual
// profiling stamps (queued, submitted, started; ended is the settle time).
// A failed command settles its event with the exception, the analogue of a
// negative execution status. An event belongs to its cluster's strand and
// holds no lock. UserEvent is the application-completed variant; the
// paper's clMPI implementation builds its communication-command events from
// user events that "mimic event objects of standard OpenCL commands" (§V-A),
// which is exactly what the shared base class provides here.
#pragma once

#include <memory>
#include <string>

#include "vt/clock.hpp"
#include "vt/completion.hpp"
#include "vt/time.hpp"

namespace clmpi::vt {
class Tracer;
}  // namespace clmpi::vt

namespace clmpi::ocl {

class Event;
using EventPtr = std::shared_ptr<Event>;

class Event : public vt::Completion {
 public:
  /// Virtual-time analogue of CL_PROFILING_COMMAND_{QUEUED,SUBMIT,START,END}.
  struct Profiling {
    vt::TimePoint queued;
    vt::TimePoint submitted;
    vt::TimePoint started;
    vt::TimePoint ended;
  };

  explicit Event(std::string label = "event");
  virtual ~Event() = default;

  [[nodiscard]] bool complete() const noexcept { return done(); }
  [[nodiscard]] const std::string& label() const noexcept { return label_; }

  /// Valid only once complete.
  [[nodiscard]] vt::TimePoint completion_time() const { return when(); }
  /// `ended` stays zero until the event completes.
  [[nodiscard]] Profiling profiling() const noexcept;

  /// True when the command failed; wait() will rethrow its exception.
  [[nodiscard]] bool failed() const noexcept { return error() != nullptr; }

  /// Block (park the calling fiber) until complete; returns the
  /// virtual completion time. Rethrows the command's exception if it failed.
  /// Off a strand, waiting on an incomplete event throws PreconditionError.
  vt::TimePoint wait() { return Completion::wait("ocl.event.wait"); }

  /// Block until complete and synchronize `clock` (clWaitForEvents).
  void wait(vt::Clock& clock) { Completion::wait(clock, "ocl.event.wait"); }

  // --- runtime-internal transitions (completion is settle()) ---------------

  void mark_queued(vt::TimePoint when) { stamps_.queued = when; }
  void mark_submitted(vt::TimePoint when) { stamps_.submitted = when; }
  void mark_running(vt::TimePoint when) { stamps_.started = when; }

 private:
  std::string label_;
  Profiling stamps_{};  ///< `ended` unused: it is the settle time
};

/// clCreateUserEvent: an event the application (or the clMPI runtime)
/// completes explicitly.
class UserEvent final : public Event {
 public:
  explicit UserEvent(std::string label = "user-event") : Event(std::move(label)) {}

  /// clSetUserEventStatus(CL_COMPLETE) with an explicit virtual timestamp.
  void set_complete(vt::TimePoint when) { settle(when); }
};

/// Blocking host-side wait on a command (a blocking enqueue, clFinish),
/// recorded on `tracer` (when not null) as a wait span on lane "host<node>"
/// — the time the calling thread spent stalled, Figure 4's idle segments.
/// Failed waits rethrow without recording: the failure time is
/// deterministic, so the trace stays seed-stable either way.
void traced_wait(const EventPtr& ev, vt::Clock& clock, vt::Tracer* tracer, int node,
                 std::string what);

}  // namespace clmpi::ocl
