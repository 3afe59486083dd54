// Virtual-time breakdown of a vt::Tracer span list, per rank.
//
// Lanes carry the rank they belong to: "host<r>" (host compute and blocking
// waits), "dev<r>.<i>" (kernels), "dev<r>.<i>.dma" (PCIe copies) and
// "net-><r>" / "shm-><r>" (wire transfers, keyed by the receiving rank). Per
// rank the breakdown sums the busy time of each kind, in the spirit of
// cf4ocl's per-queue aggregation, and computes how much of the
// communication (PCIe plus wire) no compute span covers: the exposed
// communication that decides Fig. 9 at Cichlid 4.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "vt/tracer.hpp"

namespace perfbench {

/// Half-open interval [first, second) on the virtual timeline, seconds.
using Interval = std::pair<double, double>;

/// Sorted, disjoint union of `v`. Empty intervals are dropped.
inline std::vector<Interval> merge(std::vector<Interval> v) {
  std::erase_if(v, [](const Interval& i) { return i.second <= i.first; });
  std::sort(v.begin(), v.end());
  std::vector<Interval> out;
  for (const Interval& i : v) {
    if (!out.empty() && i.first <= out.back().second) {
      out.back().second = std::max(out.back().second, i.second);
    } else {
      out.push_back(i);
    }
  }
  return out;
}

/// Total length of a merged interval list.
inline double length(const std::vector<Interval>& merged) {
  double total = 0.0;
  for (const Interval& i : merged) total += i.second - i.first;
  return total;
}

/// Length of `a` not covered by `b` (both merged).
inline double uncovered(const std::vector<Interval>& a, const std::vector<Interval>& b) {
  double total = 0.0;
  std::size_t j = 0;
  for (const Interval& i : a) {
    double cursor = i.first;
    while (j < b.size() && b[j].second <= cursor) ++j;
    for (std::size_t k = j; k < b.size() && b[k].first < i.second; ++k) {
      if (b[k].first > cursor) total += b[k].first - cursor;
      cursor = std::max(cursor, b[k].second);
      if (cursor >= i.second) break;
    }
    if (cursor < i.second) total += i.second - cursor;
  }
  return total;
}

/// Rank a lane belongs to, or -1 for lanes the breakdown does not know.
inline int rank_of_lane(const std::string& lane) {
  std::size_t at = 0;
  for (const char* prefix : {"host", "dev", "net->", "shm->"}) {
    const std::string p(prefix);
    if (lane.compare(0, p.size(), p) == 0) {
      at = p.size();
      break;
    }
  }
  if (at == 0 || at >= lane.size()) return -1;
  int rank = 0;
  std::size_t i = at;
  for (; i < lane.size() && lane[i] >= '0' && lane[i] <= '9'; ++i) rank = rank * 10 + (lane[i] - '0');
  return i == at ? -1 : rank;
}

/// One rank's virtual time by kind, seconds.
struct RankBreakdown {
  double compute{0.0};  ///< union of compute spans (host and device)
  double h2d{0.0};      ///< summed host-to-device copies
  double d2h{0.0};      ///< summed device-to-host copies
  double wire{0.0};     ///< summed inbound wire transfers
  double wait{0.0};     ///< summed blocking host waits
  double exposed_comm{0.0};  ///< union of PCIe and wire time outside every compute span

  RankBreakdown& operator+=(const RankBreakdown& o) {
    compute += o.compute;
    h2d += o.h2d;
    d2h += o.d2h;
    wire += o.wire;
    wait += o.wait;
    exposed_comm += o.exposed_comm;
    return *this;
  }
};

inline std::map<int, RankBreakdown> breakdown(const std::vector<clmpi::vt::TraceSpan>& spans) {
  struct Acc {
    RankBreakdown sums;
    std::vector<Interval> compute, comm;
  };
  std::map<int, Acc> acc;
  for (const auto& s : spans) {
    const int rank = rank_of_lane(s.lane);
    if (rank < 0) continue;
    Acc& a = acc[rank];
    const Interval iv{s.start.s, s.end.s};
    const double d = s.end.s - s.start.s;
    using clmpi::vt::SpanKind;
    switch (s.kind) {
      case SpanKind::compute: a.compute.push_back(iv); break;
      case SpanKind::host_to_device: a.sums.h2d += d; a.comm.push_back(iv); break;
      case SpanKind::device_to_host: a.sums.d2h += d; a.comm.push_back(iv); break;
      case SpanKind::wire: a.sums.wire += d; a.comm.push_back(iv); break;
      case SpanKind::wait: a.sums.wait += d; break;
      case SpanKind::other: break;
    }
  }
  std::map<int, RankBreakdown> out;
  for (auto& [rank, a] : acc) {
    const auto compute = merge(std::move(a.compute));
    a.sums.compute = length(compute);
    a.sums.exposed_comm = uncovered(merge(std::move(a.comm)), compute);
    out[rank] = a.sums;
  }
  return out;
}

}  // namespace perfbench
