#include "simmpi/request.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "simmpi/progress.hpp"
#include "support/error.hpp"
#include "support/sched.hpp"

namespace clmpi::mpi {

namespace detail {

std::shared_ptr<RequestState> make_request_state() { return std::make_shared<RequestState>(); }

}  // namespace detail

bool Request::done() const { return state_ != nullptr && state_->done(); }

bool Request::test(vt::Clock& clock) {
  if (!state_) return true;
  if (!state_->done()) return false;
  clock.sync_to(state_->completion_time());
  return true;
}

void Request::wait(vt::Clock& clock) {
  if (state_) state_->wait(clock);
}

vt::TimePoint Request::wait() {
  if (!state_) return {};
  return state_->wait();
}

MsgStatus Request::status() const {
  CLMPI_REQUIRE(state_ != nullptr, "status() on a null request");
  return state_->status();
}

vt::TimePoint Request::completion_time() const {
  CLMPI_REQUIRE(state_ != nullptr, "completion_time() on a null request");
  return state_->completion_time();
}

std::exception_ptr Request::error() const {
  return state_ != nullptr ? state_->error() : nullptr;
}

void Request::on_settle(vt::Completion::Callback fn) {
  CLMPI_REQUIRE(state_ != nullptr, "on_settle() on a null request");
  state_->on_settle(std::move(fn));
}

void wait_all(std::initializer_list<Request*> requests, vt::Clock& clock) {
  for (Request* r : requests) r->wait(clock);
}

void wait_all(std::span<Request> requests, vt::Clock& clock) {
  for (Request& r : requests) r.wait(clock);
}

std::size_t wait_any(std::span<Request> requests, vt::Clock& clock) {
  CLMPI_REQUIRE(!requests.empty(), "wait_any over zero requests");
  for (const Request& r : requests) CLMPI_REQUIRE(r.valid(), "wait_any over a null request");
  sched::wait(
      [&] {
        return std::any_of(requests.begin(), requests.end(),
                           [](const Request& r) { return r.done(); });
      },
      "mpi.wait_any");
  // At least one request has completed. Pick the earliest *virtual*
  // completion among the requests that are done (lowest index on ties), not
  // the one whose callback happened to fire first in real time: whether the
  // waiter arrives before or after later completions must not change the
  // returned index.
  std::size_t winner = SIZE_MAX;
  vt::TimePoint best{};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!requests[i].done()) continue;
    const vt::TimePoint t = requests[i].completion_time();
    if (winner == SIZE_MAX || t < best) {
      winner = i;
      best = t;
    }
  }
  requests[winner].wait(clock);
  return winner;
}

bool test_all(std::span<Request> requests, vt::Clock& clock) {
  for (const Request& r : requests) {
    if (r.valid() && !r.done()) return false;
  }
  for (Request& r : requests) r.wait(clock);
  return true;
}

namespace detail {

std::exception_ptr RequestState::make_timeout_error() const {
  return std::make_exception_ptr(TimeoutError(
      "operation deadline of " + std::to_string(deadline_.s) +
      " s (virtual) exceeded"));
}

void RequestState::settle(vt::TimePoint when, MsgStatus st, std::exception_ptr error) {
  // A real resolution after the deadline rescue (or a cancel) is ignored:
  // the operation's outcome was already fixed. (A second real resolution
  // throws from the core.)
  if (core_.done() && timed_out_) return;
  if (deadline_armed_ && when > deadline_) {
    // Deterministic clamp: the operation resolved past its deadline, so the
    // observable outcome is a timeout AT the deadline — the same outcome the
    // rescue path produces, whichever fires first.
    when = deadline_;
    st = MsgStatus{};
    error = make_timeout_error();
    timed_out_ = true;
  }
  resolve(when, st, std::move(error));
}

void RequestState::resolve(vt::TimePoint when, const MsgStatus& st, std::exception_ptr error) {
  status_ = st;
  core_.settle(when, std::move(error));
}

void RequestState::complete(vt::TimePoint when, const MsgStatus& st) {
  settle(when, st, nullptr);
}

void RequestState::fail(vt::TimePoint when, std::exception_ptr error) {
  settle(when, MsgStatus{}, std::move(error));
}

void RequestState::arm_deadline(vt::TimePoint deadline) {
  CLMPI_REQUIRE(!core_.done(), "arm_deadline on a completed request");
  deadline_armed_ = true;
  deadline_ = deadline;
}

std::optional<vt::TimePoint> RequestState::deadline() const noexcept {
  if (!deadline_armed_) return std::nullopt;
  return deadline_;
}

bool RequestState::rescue_timeout() {
  // cancel_now stamps the failure at the VIRTUAL deadline, so the timeline
  // stays schedule-independent.
  return deadline_armed_ && cancel_now(make_timeout_error());
}

bool RequestState::cancel_now(std::exception_ptr error) {
  if (core_.done()) return false;
  // Fix the outcome here: a real resolution after the cancel is ignored by
  // settle() (same protocol as the deadline rescue).
  timed_out_ = true;
  resolve(deadline_armed_ ? deadline_ : vt::TimePoint{}, MsgStatus{}, std::move(error));
  return true;
}

void RequestState::count_blocking_wait() const {
  if (!core_.done() && obs::metrics_enabled()) progress_metrics().blocking_waits.add();
}

// The waiting fiber parks in its strand's rotation and is resumed once the
// request is done, so peer ranks (and the service fibers completing this
// request) keep running. A deadline that nothing will meet is rescued by the
// cluster's backstop once the strand goes idle.
vt::TimePoint RequestState::wait() {
  count_blocking_wait();
  return core_.wait("mpi.request.wait");
}

void RequestState::wait(vt::Clock& clock) {
  count_blocking_wait();
  core_.wait(clock, "mpi.request.wait");
}

MsgStatus RequestState::status() const {
  CLMPI_REQUIRE(core_.done(), "status of an incomplete request");
  return status_;
}

void RequestState::on_settle(vt::Completion::Callback fn) {
  if (!core_.done() && obs::metrics_enabled()) progress_metrics().continuations.add();
  core_.on_settle(std::move(fn));
}

}  // namespace detail
}  // namespace clmpi::mpi
