#include "vt/resource.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace clmpi::vt {

TimePoint Resource::earliest_fit(TimePoint t, Duration cost) const {
  // busy_ is sorted and disjoint, so its ends are sorted too: every interval
  // entirely in the past of t forms a prefix, skipped by binary search.
  auto it = std::partition_point(busy_.begin(), busy_.end(),
                                 [t](const Span& iv) { return iv.end <= t; });
  // From here on every interval ends after t; walk past those that would
  // collide with [t, t+cost).
  for (; it != busy_.end(); ++it) {
    if (it->start >= t + cost) break;  // gap before *it fits
    t = it->end;                       // collide: try right after *it
  }
  return t;
}

void Resource::insert(TimePoint start, Duration cost) {
  total_busy_ += cost;
  if (cost <= Duration{0.0}) return;  // zero-length ops occupy nothing
  const Span span{start, start + cost};
  auto it = std::lower_bound(
      busy_.begin(), busy_.end(), span,
      [](const Span& a, const Span& b) { return a.start < b.start; });
  it = busy_.insert(it, span);
  // Coalesce with neighbours that touch exactly (keeps the list small).
  if (it != busy_.begin()) {
    auto prev = it - 1;
    if (prev->end == it->start) {
      prev->end = it->end;
      it = busy_.erase(it);
      --it;
    }
  }
  if (it + 1 != busy_.end() && it->end == (it + 1)->start) {
    it->end = (it + 1)->end;
    busy_.erase(it + 1);
  }
}

Resource::Span Resource::acquire(TimePoint ready, Duration cost) {
  CLMPI_REQUIRE(cost >= Duration{0.0}, "negative-cost acquire");
  const TimePoint start = earliest_fit(ready, cost);
  insert(start, cost);
  return {start, start + cost};
}

Resource::Span Resource::acquire_joint(Resource& a, Resource& b, TimePoint ready,
                                       Duration cost) {
  if (&a == &b) return a.acquire(ready, cost);
  CLMPI_REQUIRE(cost >= Duration{0.0}, "negative-cost acquire");
  // Fixed point: the earliest instant both resources have the gap free.
  TimePoint t = ready;
  for (;;) {
    const TimePoint ta = a.earliest_fit(t, cost);
    const TimePoint tb = b.earliest_fit(ta, cost);
    if (tb == ta) {
      t = ta;
      break;
    }
    t = tb;
  }
  a.insert(t, cost);
  b.insert(t, cost);
  return {t, t + cost};
}

}  // namespace clmpi::vt
