// Self-test of the benchmark's virtual-breakdown arithmetic on hand-built
// span lists. Build with the benchmark (perfbench_selftest) and run it; it
// exits nonzero on the first failed expectation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "breakdown.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::abs(got - want) > 1e-12) {
    std::fprintf(stderr, "FAIL %s: got %.17g, want %.17g\n", what, got, want);
    ++failures;
  }
}

clmpi::vt::TraceSpan span(const char* lane, clmpi::vt::SpanKind kind, double start, double end) {
  return {lane, "", kind, {start}, {end}};
}

void test_merge_and_uncovered() {
  using perfbench::Interval;
  const auto m = perfbench::merge({{5, 7}, {0, 2}, {1, 3}, {3, 4}, {6, 6}});
  expect_near(static_cast<double>(m.size()), 2, "merge joins touching and overlapping intervals");
  expect_near(perfbench::length(m), 6, "merged length");

  // a = [0,10); b covers [2,3) and [5,12): 2 + 2 uncovered.
  expect_near(perfbench::uncovered({{0, 10}}, {{2, 3}, {5, 12}}), 4, "partly covered");
  expect_near(perfbench::uncovered({{0, 1}, {4, 6}}, {}), 3, "nothing covers");
  expect_near(perfbench::uncovered({{1, 2}}, {{0, 5}}), 0, "fully covered");
  // One b interval spanning two a intervals.
  expect_near(perfbench::uncovered({{0, 2}, {3, 6}}, {{1, 4}}), 1 + 2, "b spans a gap");
}

void test_lane_ranks() {
  expect_near(perfbench::rank_of_lane("host3"), 3, "host lane");
  expect_near(perfbench::rank_of_lane("dev12.0"), 12, "device lane");
  expect_near(perfbench::rank_of_lane("dev2.0.dma"), 2, "dma lane");
  expect_near(perfbench::rank_of_lane("net->1"), 1, "wire lane");
  expect_near(perfbench::rank_of_lane("shm->0"), 0, "shmem lane");
  expect_near(perfbench::rank_of_lane("svc"), -1, "unknown lane");
  expect_near(perfbench::rank_of_lane("host"), -1, "lane without a rank");
}

void test_breakdown() {
  using K = clmpi::vt::SpanKind;
  // Rank 0: kernels [0,4) and [3,6) (union 6), a D2H copy [5,7) of which 1 is
  // exposed, an inbound wire [6,9) overlapping the copy (exposed union of
  // comm outside compute: [6,9) = 3), a host wait of 2.
  // Rank 1: host compute [0,1), H2D [2,3): fully exposed.
  const std::vector<clmpi::vt::TraceSpan> spans = {
      span("dev0.0", K::compute, 0, 4),       span("dev0.0", K::compute, 3, 6),
      span("dev0.0.dma", K::device_to_host, 5, 7), span("net->0", K::wire, 6, 9),
      span("host0", K::wait, 1, 3),           span("host1", K::compute, 0, 1),
      span("dev1.0.dma", K::host_to_device, 2, 3), span("lane", K::wire, 0, 100),
  };
  const auto b = perfbench::breakdown(spans);
  expect_near(static_cast<double>(b.size()), 2, "two ranks");
  const auto& r0 = b.at(0);
  expect_near(r0.compute, 6, "r0 compute union");
  expect_near(r0.d2h, 2, "r0 d2h");
  expect_near(r0.wire, 3, "r0 wire");
  expect_near(r0.wait, 2, "r0 wait");
  expect_near(r0.exposed_comm, 3, "r0 exposed comm");
  const auto& r1 = b.at(1);
  expect_near(r1.compute, 1, "r1 compute");
  expect_near(r1.h2d, 1, "r1 h2d");
  expect_near(r1.exposed_comm, 1, "r1 exposed comm");
}

}  // namespace

int main() {
  test_merge_and_uncovered();
  test_lane_ranks();
  test_breakdown();
  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
