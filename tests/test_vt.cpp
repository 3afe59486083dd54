// Unit tests for the virtual-time engine: time arithmetic, cost models,
// serializing resources, clocks, tracing.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "support/rng.hpp"
#include "vt/clock.hpp"
#include "vt/cost.hpp"
#include "vt/resource.hpp"
#include "vt/time.hpp"
#include "vt/tracer.hpp"

namespace clmpi::vt {
namespace {

TEST(Time, Arithmetic) {
  const TimePoint t0 = origin();
  const TimePoint t1 = t0 + seconds(2.0);
  EXPECT_DOUBLE_EQ((t1 - t0).s, 2.0);
  EXPECT_DOUBLE_EQ((t1 + milliseconds(500.0)).s, 2.5);
  EXPECT_TRUE(t1 > t0);
  EXPECT_EQ(max(t0, t1), t1);
  EXPECT_EQ(min(t0, t1), t0);
}

TEST(Time, DurationOps) {
  const Duration d = seconds(1.0) + microseconds(500.0) * 2.0;
  EXPECT_DOUBLE_EQ(d.s, 1.001);
  EXPECT_DOUBLE_EQ((d / 2.0).s, 0.5005);
  EXPECT_DOUBLE_EQ(seconds(3.0) / seconds(1.5), 2.0);
}

TEST(LinearCost, LatencyPlusBandwidth) {
  const LinearCost c{.latency = microseconds(10.0), .bytes_per_second = 1e9};
  EXPECT_DOUBLE_EQ(c.of(0).s, 10e-6);
  EXPECT_DOUBLE_EQ(c.of(1'000'000).s, 10e-6 + 1e-3);
}

TEST(LinearCost, FreeCostsNothing) {
  EXPECT_DOUBLE_EQ(LinearCost::free().of(1u << 30).s, 0.0);
}

TEST(LinearCost, SustainedBandwidthApproachesPeak) {
  const LinearCost c{.latency = microseconds(50.0), .bytes_per_second = 1e8};
  EXPECT_LT(c.sustained_bw(1024), 0.5e8);          // latency dominated
  EXPECT_GT(c.sustained_bw(64u << 20), 0.99e8);    // bandwidth dominated
}

TEST(Resource, SerializesBackToBack) {
  Resource r("x");
  const auto a = r.acquire(origin(), seconds(1.0));
  const auto b = r.acquire(origin(), seconds(2.0));
  EXPECT_DOUBLE_EQ(a.start.s, 0.0);
  EXPECT_DOUBLE_EQ(a.end.s, 1.0);
  EXPECT_DOUBLE_EQ(b.start.s, 1.0);  // queued behind a
  EXPECT_DOUBLE_EQ(b.end.s, 3.0);
  EXPECT_DOUBLE_EQ(r.busy_time().s, 3.0);
}

TEST(Resource, IdleGapWhenReadyIsLate) {
  Resource r("x");
  (void)r.acquire(origin(), seconds(1.0));
  const auto late = r.acquire(TimePoint{5.0}, seconds(1.0));
  EXPECT_DOUBLE_EQ(late.start.s, 5.0);
  EXPECT_DOUBLE_EQ(r.free_time().s, 6.0);
}

TEST(Resource, JointAcquireTakesMaxOfBoth) {
  Resource a("a"), b("b");
  (void)a.acquire(origin(), seconds(3.0));
  (void)b.acquire(origin(), seconds(1.0));
  const auto span = Resource::acquire_joint(a, b, TimePoint{2.0}, seconds(1.0));
  EXPECT_DOUBLE_EQ(span.start.s, 3.0);  // gated by a
  EXPECT_DOUBLE_EQ(span.end.s, 4.0);
  EXPECT_DOUBLE_EQ(a.free_time().s, 4.0);
  EXPECT_DOUBLE_EQ(b.free_time().s, 4.0);
}

TEST(Resource, JointAcquireWithSelfIsPlainAcquire) {
  Resource a("a");
  const auto span = Resource::acquire_joint(a, a, origin(), seconds(2.0));
  EXPECT_DOUBLE_EQ(span.end.s, 2.0);
  EXPECT_DOUBLE_EQ(a.busy_time().s, 2.0);
}

TEST(Resource, BackfillsEarlierGaps) {
  // An op whose ready time precedes already-granted work slots into the
  // earlier gap instead of queueing at the tail — this is what makes the
  // virtual schedule independent of the order fibers reach the resource.
  Resource r("x");
  (void)r.acquire(TimePoint{5.0}, seconds(1.0));  // busy [5,6)
  const auto early = r.acquire(origin(), seconds(2.0));
  EXPECT_DOUBLE_EQ(early.start.s, 0.0);
  EXPECT_DOUBLE_EQ(early.end.s, 2.0);
  EXPECT_DOUBLE_EQ(r.free_time().s, 6.0);  // the tail allocation stands
}

TEST(Resource, BackfillSkipsTooSmallGaps) {
  Resource r("x");
  (void)r.acquire(TimePoint{1.0}, seconds(1.0));  // [1,2)
  (void)r.acquire(TimePoint{3.0}, seconds(1.0));  // [3,4)
  // Needs 2s: gap [0,1) too small, gap [2,3) too small -> lands at 4.
  const auto span = r.acquire(origin(), seconds(2.0));
  EXPECT_DOUBLE_EQ(span.start.s, 4.0);
  // A 1s op still fits the first gap.
  const auto small = r.acquire(origin(), seconds(1.0));
  EXPECT_DOUBLE_EQ(small.start.s, 0.0);
}

TEST(Resource, BackfillIsOrderInsensitive) {
  // The same set of (ready, cost) requests produces the same total busy
  // intervals regardless of arrival order.
  const std::vector<std::pair<double, double>> ops{
      {0.0, 1.0}, {0.5, 2.0}, {4.0, 1.0}, {0.0, 0.5}, {2.0, 3.0}};
  auto run = [&](const std::vector<std::size_t>& order) {
    Resource r("x");
    for (std::size_t i : order) {
      (void)r.acquire(TimePoint{ops[i].first}, seconds(ops[i].second));
    }
    return r.free_time().s;
  };
  const double forward = run({0, 1, 2, 3, 4});
  const double backward = run({4, 3, 2, 1, 0});
  const double shuffled = run({2, 0, 4, 1, 3});
  EXPECT_DOUBLE_EQ(forward, backward);
  EXPECT_DOUBLE_EQ(forward, shuffled);
}

TEST(Resource, ZeroCostOpsOccupyNothing) {
  Resource r("x");
  for (int i = 0; i < 10; ++i) (void)r.acquire(TimePoint{1.0}, Duration{});
  EXPECT_DOUBLE_EQ(r.busy_time().s, 0.0);
  EXPECT_DOUBLE_EQ(r.free_time().s, 0.0);
  // And they never collide with real work.
  const auto span = r.acquire(origin(), seconds(1.0));
  EXPECT_DOUBLE_EQ(span.start.s, 0.0);
}

TEST(Resource, JointAcquireFindsCommonGap) {
  Resource a("a"), b("b");
  (void)a.acquire(origin(), seconds(2.0));        // a busy [0,2)
  (void)b.acquire(TimePoint{3.0}, seconds(2.0));  // b busy [3,5)
  // Needs 1s free on both: a free from 2, b busy [3,5): [2,3) fits both.
  const auto span = Resource::acquire_joint(a, b, origin(), seconds(1.0));
  EXPECT_DOUBLE_EQ(span.start.s, 2.0);
  // Needs 2s on both: [2,3) too small -> [5,7).
  const auto big = Resource::acquire_joint(a, b, origin(), seconds(2.0));
  EXPECT_DOUBLE_EQ(big.start.s, 5.0);
}

/// The gap search as it was before it started at a binary search: a scan of
/// the whole history from the front. Same insert and coalescing rules as
/// Resource, so both see the same busy list.
struct LinearScanResource {
  std::vector<Resource::Span> busy;

  TimePoint earliest_fit(TimePoint t, Duration cost) const {
    for (const Resource::Span& iv : busy) {
      if (iv.end <= t) continue;
      if (iv.start >= t + cost) break;
      t = iv.end;
    }
    return t;
  }

  void insert(TimePoint start, Duration cost) {
    if (cost <= Duration{0.0}) return;
    const Resource::Span span{start, start + cost};
    auto it = std::lower_bound(busy.begin(), busy.end(), span,
                               [](const auto& a, const auto& b) { return a.start < b.start; });
    it = busy.insert(it, span);
    if (it != busy.begin() && (it - 1)->end == it->start) {
      (it - 1)->end = it->end;
      it = busy.erase(it) - 1;
    }
    if (it + 1 != busy.end() && it->end == (it + 1)->start) {
      it->end = (it + 1)->end;
      busy.erase(it + 1);
    }
  }

  Resource::Span acquire(TimePoint ready, Duration cost) {
    const TimePoint start = earliest_fit(ready, cost);
    insert(start, cost);
    return {start, start + cost};
  }

  static Resource::Span acquire_joint(LinearScanResource& a, LinearScanResource& b,
                                      TimePoint ready, Duration cost) {
    if (&a == &b) return a.acquire(ready, cost);
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
};

TEST(Resource, EarliestFitMatchesLinearScan) {
  constexpr int kResources = 3;
  constexpr int kOps = 4000;
  std::vector<std::unique_ptr<Resource>> fast;
  std::vector<LinearScanResource> oracle(kResources);
  for (int i = 0; i < kResources; ++i) {
    fast.push_back(std::make_unique<Resource>("r" + std::to_string(i)));
  }
  Rng rng(0x5eed);
  // Half the operations sit on a 0.25 s grid, where starts and ends are
  // exact, so intervals touch and coalesce; the rest use arbitrary doubles.
  const auto pick = [&](double lo, double hi, bool grid) {
    if (!grid) return rng.uniform(lo, hi);
    const auto steps = static_cast<std::uint64_t>((hi - lo) / 0.25);
    return lo + 0.25 * static_cast<double>(steps == 0 ? 0 : rng.below(steps + 1));
  };
  const auto bits = [](TimePoint t) { return std::bit_cast<std::uint64_t>(t.s); };

  for (int op = 0; op < kOps; ++op) {
    const auto ia = static_cast<std::size_t>(rng.below(kResources));
    // One joint acquire in three, a quarter of those with aliased operands.
    const bool joint = rng.below(3) == 0;
    const std::size_t ib =
        !joint || rng.below(4) == 0 ? ia : static_cast<std::size_t>(rng.below(kResources));
    const std::vector<Resource::Span>& hist = oracle[ia].busy;
    const bool grid = rng.below(2) == 0;

    // Ready time: before, inside, exactly at the end of, or after the
    // existing intervals.
    double ready = 0.0;
    const double horizon = hist.empty() ? 0.0 : hist.back().end.s;
    const Resource::Span* iv =
        hist.empty() ? nullptr : &hist[static_cast<std::size_t>(rng.below(hist.size()))];
    switch (iv == nullptr ? 3 : rng.below(4)) {
      case 0:
        ready = pick(0.0, hist.front().start.s, grid);
        break;
      case 1:
        ready = pick(iv->start.s, iv->end.s, grid);
        break;
      case 2:
        ready = iv->end.s;
        break;
      default:
        ready = pick(horizon, horizon + 2.0, grid);
        break;
    }
    // Cost: zero, exactly the gap after a random interval (touching on both
    // sides), or an arbitrary length.
    double cost = 0.0;
    const std::uint64_t kind = rng.below(8);
    if (kind == 0) {
      cost = 0.0;
    } else if (kind == 1 && iv != nullptr && iv + 1 != hist.data() + hist.size()) {
      ready = iv->end.s;
      cost = (iv + 1)->start.s - iv->end.s;
    } else {
      cost = grid ? 0.25 * static_cast<double>(1 + rng.below(8)) : rng.uniform(1e-6, 2.0);
    }

    const Resource::Span got =
        joint ? Resource::acquire_joint(*fast[ia], *fast[ib], TimePoint{ready}, seconds(cost))
              : fast[ia]->acquire(TimePoint{ready}, seconds(cost));
    const Resource::Span want =
        joint ? LinearScanResource::acquire_joint(oracle[ia], oracle[ib], TimePoint{ready},
                                                  seconds(cost))
              : oracle[ia].acquire(TimePoint{ready}, seconds(cost));
    ASSERT_EQ(bits(got.start), bits(want.start)) << "op " << op << " ready " << ready;
    ASSERT_EQ(bits(got.end), bits(want.end)) << "op " << op << " ready " << ready;
  }
  for (int i = 0; i < kResources; ++i) {
    const auto& busy = oracle[static_cast<std::size_t>(i)].busy;
    ASSERT_EQ(bits(fast[static_cast<std::size_t>(i)]->free_time()),
              bits(busy.empty() ? TimePoint{} : busy.back().end));
    EXPECT_GT(busy.size(), 10u) << "the mix should leave gaps to search";
  }
}

TEST(Clock, AdvanceAndSync) {
  Clock c;
  c.advance(seconds(1.0));
  EXPECT_DOUBLE_EQ(c.now().s, 1.0);
  c.sync_to(TimePoint{0.5});  // never goes backward
  EXPECT_DOUBLE_EQ(c.now().s, 1.0);
  c.sync_to(TimePoint{2.0});
  EXPECT_DOUBLE_EQ(c.now().s, 2.0);
  c.reset();
  EXPECT_DOUBLE_EQ(c.now().s, 0.0);
}

TEST(Tracer, RecordsAndReportsHorizon) {
  Tracer tr;
  tr.record("host0", "a", SpanKind::compute, TimePoint{0.0}, TimePoint{1.0});
  tr.record("net", "b", SpanKind::wire, TimePoint{0.5}, TimePoint{2.5});
  EXPECT_EQ(tr.spans().size(), 2u);
  EXPECT_DOUBLE_EQ(tr.horizon().s, 2.5);
}

TEST(Tracer, GanttListsLanesByName) {
  Tracer tr;
  tr.record("zeta", "a", SpanKind::compute, TimePoint{0.0}, TimePoint{1.0});
  tr.record("alpha", "b", SpanKind::wire, TimePoint{1.0}, TimePoint{2.0});
  const std::string g = tr.gantt(40);
  const auto zeta = g.find("zeta");
  const auto alpha = g.find("alpha");
  ASSERT_NE(zeta, std::string::npos);
  ASSERT_NE(alpha, std::string::npos);
  EXPECT_LT(alpha, zeta);
  EXPECT_NE(g.find('#'), std::string::npos);  // compute glyph
  EXPECT_NE(g.find('='), std::string::npos);  // wire glyph
}

TEST(Tracer, GanttDependsOnlyOnSpanContent) {
  // Two fibers may record the same spans in either order; overlapping spans
  // on one lane and lanes first seen in different orders must not change
  // the picture.
  const std::vector<TraceSpan> spans{
      {"net", "send", SpanKind::wire, TimePoint{1.0}, TimePoint{3.0}},
      {"dev0", "k", SpanKind::compute, TimePoint{0.0}, TimePoint{2.0}},
      {"dev0", "d2h", SpanKind::device_to_host, TimePoint{1.0}, TimePoint{1.5}},
      {"dev0", "wait", SpanKind::wait, TimePoint{1.0}, TimePoint{1.5}},
      {"host0", "h2d", SpanKind::host_to_device, TimePoint{2.5}, TimePoint{4.0}},
  };
  Tracer forward;
  Tracer backward;
  for (const auto& s : spans) forward.record(s.lane, s.label, s.kind, s.start, s.end);
  for (auto it = spans.rbegin(); it != spans.rend(); ++it)
    backward.record(it->lane, it->label, it->kind, it->start, it->end);
  EXPECT_EQ(forward.gantt(40), backward.gantt(40));
}

TEST(Tracer, GanttWidthOneStillPaintsSpans) {
  Tracer tr;
  tr.record("l", "a", SpanKind::compute, TimePoint{0.0}, TimePoint{1.0});
  tr.record("l", "b", SpanKind::wire, TimePoint{1.0}, TimePoint{2.0});
  const std::string g = tr.gantt(1);
  // One column; the later span overwrites it, and nothing paints off the end.
  EXPECT_NE(g.find("|=|"), std::string::npos);
}

TEST(Tracer, GanttWidthZeroIsTreatedAsOne) {
  Tracer tr;
  tr.record("l", "a", SpanKind::compute, TimePoint{0.0}, TimePoint{1.0});
  const std::string g = tr.gantt(0);
  EXPECT_NE(g.find('#'), std::string::npos);
}

TEST(Tracer, GanttSingleInstantTracePaintsOneCell) {
  // All spans zero-length at the same timepoint: the timeline has no extent,
  // yet every span must still paint at least one cell.
  Tracer tr;
  tr.record("l", "tick", SpanKind::other, TimePoint{1.0}, TimePoint{1.0});
  tr.record("m", "tock", SpanKind::wait, TimePoint{1.0}, TimePoint{1.0});
  const std::string g = tr.gantt(10);
  EXPECT_NE(g.find('+'), std::string::npos);
  EXPECT_NE(g.find('.'), std::string::npos);
}

TEST(Tracer, GanttTinySpanAtHorizonStillPaints) {
  Tracer tr;
  tr.record("big", "a", SpanKind::compute, TimePoint{0.0}, TimePoint{1000.0});
  tr.record("tiny", "b", SpanKind::wire, TimePoint{999.9999}, TimePoint{1000.0});
  const std::string g = tr.gantt(20);
  EXPECT_NE(g.find('='), std::string::npos);  // clamped into the last column
}

TEST(Tracer, CsvHasHeaderAndRows) {
  Tracer tr;
  tr.record("l", "x", SpanKind::wait, TimePoint{0.0}, TimePoint{1.0});
  const std::string csv = tr.csv();
  EXPECT_NE(csv.find("lane,label,kind,start_s,end_s"), std::string::npos);
  EXPECT_NE(csv.find("l,x,"), std::string::npos);
}

TEST(Tracer, ChromeJsonIsWellFormed) {
  Tracer tr;
  tr.record("host0", "kernel", SpanKind::compute, TimePoint{0.001}, TimePoint{0.002});
  tr.record("net", "wire", SpanKind::wire, TimePoint{0.0015}, TimePoint{0.0030});
  const std::string json = tr.chrome_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  // Two thread-name metadata records + two complete events.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"kernel\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Microsecond timestamps: 0.001 s -> ts 1000.
  EXPECT_NE(json.find("\"ts\":1000.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1000.000"), std::string::npos);
}

TEST(Tracer, HashIsOrderIndependent) {
  // Threads race to record(); the digest must not depend on arrival order.
  Tracer fwd, rev;
  fwd.record("host0", "a", SpanKind::compute, TimePoint{0.0}, TimePoint{1.0});
  fwd.record("net", "b", SpanKind::wire, TimePoint{0.5}, TimePoint{2.5});
  rev.record("net", "b", SpanKind::wire, TimePoint{0.5}, TimePoint{2.5});
  rev.record("host0", "a", SpanKind::compute, TimePoint{0.0}, TimePoint{1.0});
  EXPECT_EQ(fwd.hash(), rev.hash());
}

TEST(Tracer, HashIsSensitiveToEveryField) {
  auto one = [](const char* lane, const char* label, SpanKind kind, double s, double e) {
    Tracer tr;
    tr.record(lane, label, kind, TimePoint{s}, TimePoint{e});
    return tr.hash();
  };
  const std::uint64_t base = one("l", "x", SpanKind::wire, 0.0, 1.0);
  EXPECT_NE(base, one("m", "x", SpanKind::wire, 0.0, 1.0));
  EXPECT_NE(base, one("l", "y", SpanKind::wire, 0.0, 1.0));
  EXPECT_NE(base, one("l", "x", SpanKind::wait, 0.0, 1.0));
  EXPECT_NE(base, one("l", "x", SpanKind::wire, 0.25, 1.0));
  EXPECT_NE(base, one("l", "x", SpanKind::wire, 0.0, 1.5));
  // The lane/label split is part of the digest, not just their concatenation.
  EXPECT_NE(one("ab", "c", SpanKind::wire, 0.0, 1.0),
            one("a", "bc", SpanKind::wire, 0.0, 1.0));
}

TEST(Tracer, EmptyTraceHashesToZeroSum) {
  Tracer tr;
  const std::uint64_t empty = tr.hash();
  tr.record("l", "x", SpanKind::other, TimePoint{0.0}, TimePoint{1.0});
  EXPECT_NE(tr.hash(), empty);
  tr.clear();
  EXPECT_EQ(tr.hash(), empty);
}

/// Two identical traces recorded in different orders, then one perturbed.
void record_pair(Tracer& a, Tracer& b) {
  for (int i = 0; i < 6; ++i) {
    const double t = 0.5 * i;
    a.record("host" + std::to_string(i % 2), "op", SpanKind::compute, TimePoint{t},
             TimePoint{t + 0.25});
  }
  for (int i = 5; i >= 0; --i) {
    const double t = 0.5 * i;
    b.record("host" + std::to_string(i % 2), "op", SpanKind::compute, TimePoint{t},
             TimePoint{t + 0.25});
  }
}

TEST(Tracer, FirstDivergenceNamesThePerturbedSpan) {
  Tracer a, b;
  record_pair(a, b);
  EXPECT_FALSE(Tracer::first_divergence(a, b).has_value());  // record order is ignored

  // Perturb one wire span's end on side b; every span sorting before it
  // (all of lane host0 and host1) still matches.
  a.record("net0>1", "msg", SpanKind::wire, TimePoint{1.0}, TimePoint{2.0});
  b.record("net0>1", "msg", SpanKind::wire, TimePoint{1.0}, TimePoint{2.5});
  a.record("net0>1", "msg", SpanKind::wire, TimePoint{3.0}, TimePoint{4.0});
  b.record("net0>1", "msg", SpanKind::wire, TimePoint{3.0}, TimePoint{4.0});
  ASSERT_NE(a.hash(), b.hash());
  const auto d = Tracer::first_divergence(a, b);
  ASSERT_TRUE(d.has_value());
  ASSERT_TRUE(d->a.has_value());
  ASSERT_TRUE(d->b.has_value());
  EXPECT_EQ(d->a->lane, "net0>1");
  EXPECT_EQ(d->a->kind, SpanKind::wire);
  EXPECT_EQ(d->a->start.s, 1.0);
  EXPECT_EQ(d->a->end.s, 2.0);
  EXPECT_EQ(d->b->end.s, 2.5);
  const std::string text = to_string(*d);
  EXPECT_NE(text.find("lane net0>1 wire [1, 2]"), std::string::npos) << text;
  EXPECT_NE(text.find("lane net0>1 wire [1, 2.5]"), std::string::npos) << text;
}

TEST(Tracer, FirstDivergenceReportsAnExtraSpan) {
  Tracer a, b;
  record_pair(a, b);
  b.record("zz", "late", SpanKind::wait, TimePoint{9.0}, TimePoint{9.5});
  const auto d = Tracer::first_divergence(a, b);
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->a.has_value());  // side a ran out of spans
  ASSERT_TRUE(d->b.has_value());
  EXPECT_EQ(d->b->lane, "zz");
  EXPECT_NE(to_string(*d).find("a: <no more spans>"), std::string::npos);
}

TEST(Tracer, ClearEmptiesTrace) {
  Tracer tr;
  tr.record("l", "x", SpanKind::other, TimePoint{0.0}, TimePoint{1.0});
  tr.clear();
  EXPECT_TRUE(tr.spans().empty());
  EXPECT_EQ(tr.gantt(), "(empty trace)\n");
}

TEST(Glyphs, AreDistinct) {
  EXPECT_NE(glyph_for(SpanKind::compute), glyph_for(SpanKind::wire));
  EXPECT_NE(glyph_for(SpanKind::host_to_device), glyph_for(SpanKind::device_to_host));
}

}  // namespace
}  // namespace clmpi::vt
