#include "vt/completion.hpp"

#include "support/error.hpp"
#include "support/sched.hpp"

namespace clmpi::vt {

TimePoint Completion::when() const {
  CLMPI_REQUIRE(done_, "settle time of a pending completion");
  return when_;
}

void Completion::settle(TimePoint when, std::exception_ptr error) {
  CLMPI_REQUIRE(!done_, "completion settled twice");
  done_ = true;
  when_ = when;
  error_ = std::move(error);
  if (callbacks_.empty()) return;
  // Callbacks run from a local list and a local copy of the outcome: one of
  // them may register more, or drop the last owner of this completion.
  const std::exception_ptr err = error_;
  const std::vector<Callback> to_run = std::move(callbacks_);
  for (const Callback& fn : to_run) fn(when, err);
}

void Completion::on_settle(Callback fn) {
  if (done_) {
    fn(when_, error_);
    return;
  }
  callbacks_.push_back(std::move(fn));
}

void Completion::park(const char* site) { sched::wait([this] { return done_; }, site); }

void Completion::wait(Clock& clock, const char* site) {
  try {
    clock.sync_to(wait(site));
  } catch (...) {
    // A wait refused off a strand leaves the completion pending.
    if (done_) clock.sync_to(when_);
    throw;
  }
}

Join::Join(std::size_t n, Completion::Callback done)
    : state_(std::make_shared<State>(State{n, {}, nullptr, std::move(done)})) {
  CLMPI_REQUIRE(n > 0, "join over zero arrivals");
}

void Join::operator()(TimePoint when, const std::exception_ptr& error) const {
  State& s = *state_;
  s.latest = max(s.latest, when);
  if (error && !s.error) s.error = error;
  if (--s.remaining == 0) s.done(s.latest, s.error);
}

}  // namespace clmpi::vt
