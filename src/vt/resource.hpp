// Serializing virtual resources (NIC, PCIe copy engine, device compute
// engine, host core). A resource executes one operation at a time; acquiring
// it returns the [start, end) span the operation occupies on the virtual
// timeline.
//
// Allocation is *interval-based with backfill*: acquire(ready, cost) takes
// the earliest free gap at or after `ready` that fits `cost`. A cluster's
// fibers run one at a time on its strand, but not in virtual-time order, so
// grants can arrive out of virtual-time order; backfilling lets a late
// request with an early ready time use an earlier gap, keeping the schedule
// work-conserving. The history is kept whole, but a grant skips its past by
// binary search instead of walking it (earliest_fit). Single owner: a
// resource belongs to one cluster's strand and holds no lock.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "vt/time.hpp"

namespace clmpi::vt {

class Resource {
 public:
  struct Span {
    TimePoint start;
    TimePoint end;
  };

  explicit Resource(std::string name) : name_(std::move(name)) {}

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Occupy the earliest free interval of length `cost` starting no earlier
  /// than `ready`.
  Span acquire(TimePoint ready, Duration cost);

  /// Occupy two resources simultaneously (e.g. sender TX + receiver RX for a
  /// wire transfer): the earliest interval free on *both*; a and b may
  /// alias.
  static Span acquire_joint(Resource& a, Resource& b, TimePoint ready, Duration cost);

  /// End of the latest allocation (when the resource finally goes idle).
  [[nodiscard]] TimePoint free_time() const {
    return busy_.empty() ? TimePoint{} : busy_.back().end;
  }

  /// Total busy time accumulated (for utilization reporting).
  [[nodiscard]] Duration busy_time() const { return total_busy_; }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  /// Earliest start >= t with a free gap of length `cost`. O(log n) in the
  /// history to find the first interval ending after t, plus one step per
  /// interval that collides with the candidate span.
  [[nodiscard]] TimePoint earliest_fit(TimePoint t, Duration cost) const;

  /// Insert [start, start+cost) into the busy list; the interval must not
  /// overlap an existing one.
  void insert(TimePoint start, Duration cost);

  std::string name_;
  /// Sorted, disjoint busy intervals. Zero-length intervals are not stored.
  std::vector<Span> busy_;
  Duration total_busy_{};
};

}  // namespace clmpi::vt
