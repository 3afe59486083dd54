// Per-entity virtual clocks.
//
// Each rank (and each runtime service working on a private timeline) owns a
// Clock. Local compute advances it; blocking on an event/request
// synchronizes it forward to the completion time of the awaited operation
// (never backward). The maximum clock value across all entities at the end
// of a run is the run's makespan. Single owner: a clock belongs to one
// cluster's strand and holds no lock.
#pragma once

#include "vt/time.hpp"

namespace clmpi::vt {

class Clock {
 public:
  Clock() = default;
  explicit Clock(TimePoint start) : now_(start) {}

  [[nodiscard]] TimePoint now() const noexcept { return now_; }

  /// Local work: now += d.
  void advance(Duration d) noexcept { now_ += d; }

  /// Blocking wait semantics: now = max(now, t).
  void sync_to(TimePoint t) noexcept {
    if (now_ < t) now_ = t;
  }

  void reset(TimePoint t = {}) noexcept { now_ = t; }

 private:
  TimePoint now_{};
};

}  // namespace clmpi::vt
