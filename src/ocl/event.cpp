#include "ocl/event.hpp"

#include "support/error.hpp"
#include "support/sched.hpp"

namespace clmpi::ocl {

Event::Event(std::string label) : label_(std::move(label)) {}

vt::TimePoint Event::completion_time() const {
  CLMPI_REQUIRE(state_ == State::complete, "completion_time of an incomplete event");
  return profiling_.ended;
}

vt::TimePoint Event::wait() {
  sched::wait([this] { return state_ == State::complete; }, "ocl.event.wait");
  if (error_) std::rethrow_exception(error_);
  return profiling_.ended;
}

void Event::wait(vt::Clock& clock) {
  try {
    clock.sync_to(wait());
  } catch (...) {
    // Failed events carry the virtual time of the failure; the waiter's
    // timeline advances to it even though the wait rethrows. (A wait
    // refused off a strand leaves the event incomplete.)
    if (complete()) clock.sync_to(completion_time());
    throw;
  }
}

void Event::on_complete(std::function<void(vt::TimePoint)> fn) {
  if (state_ == State::complete) {
    fn(profiling_.ended);
  } else {
    callbacks_.push_back(std::move(fn));
  }
}

void Event::mark_queued(vt::TimePoint when) { profiling_.queued = when; }

void Event::mark_submitted(vt::TimePoint when) {
  state_ = State::submitted;
  profiling_.submitted = when;
}

void Event::mark_running(vt::TimePoint when) {
  state_ = State::running;
  profiling_.started = when;
}

void Event::mark_complete(vt::TimePoint when) {
  CLMPI_REQUIRE(state_ != State::complete, "event completed twice");
  state_ = State::complete;
  profiling_.ended = when;
  auto to_run = std::move(callbacks_);
  callbacks_.clear();
  for (auto& fn : to_run) fn(when);
}

void Event::mark_failed(vt::TimePoint when, std::exception_ptr error) {
  error_ = std::move(error);
  // mark_complete releases waiters and fires callbacks; wait() rethrows.
  mark_complete(when);
}

}  // namespace clmpi::ocl
