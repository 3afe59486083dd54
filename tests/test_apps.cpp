// Application-level tests: the three Himeno implementations must agree
// numerically and order correctly in performance; the two nanopowder
// implementations must agree bit-for-bit and clMPI must win where the paper
// says it does.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/himeno/himeno.hpp"
#include "apps/nanopowder/nanopowder.hpp"
#include "support/error.hpp"

namespace clmpi::apps {
namespace {

himeno::Config small_himeno(himeno::Variant v, int iters = 4) {
  himeno::Config cfg;
  cfg.interior = 16;
  cfg.jmax = 18;
  cfg.kmax = 20;
  cfg.iterations = iters;
  cfg.variant = v;
  return cfg;
}

class HimenoRankCounts : public ::testing::TestWithParam<int> {};

TEST_P(HimenoRankCounts, AllVariantsComputeTheSameResidual) {
  const int P = GetParam();
  const auto serial =
      himeno::run_cluster(sys::cichlid(), P, small_himeno(himeno::Variant::serial));
  const auto hand =
      himeno::run_cluster(sys::cichlid(), P, small_himeno(himeno::Variant::hand_optimized));
  const auto cl =
      himeno::run_cluster(sys::cichlid(), P, small_himeno(himeno::Variant::clmpi));

  ASSERT_GT(serial.gosa, 0.0);
  // Identical numerics: the same kernel launches in the same per-rank order
  // over the same ghost values.
  EXPECT_DOUBLE_EQ(serial.gosa, hand.gosa);
  EXPECT_DOUBLE_EQ(serial.gosa, cl.gosa);
}

INSTANTIATE_TEST_SUITE_P(Ranks, HimenoRankCounts, ::testing::Values(1, 2, 4, 8));

TEST(Himeno, DecompositionDoesNotChangeTheAnswer) {
  const auto one = himeno::run_cluster(sys::cichlid(), 1, small_himeno(himeno::Variant::clmpi));
  const auto four =
      himeno::run_cluster(sys::cichlid(), 4, small_himeno(himeno::Variant::clmpi));
  // Per-rank partial sums reassociate across P, so allow float slack.
  EXPECT_NEAR(one.gosa / four.gosa, 1.0, 1e-5);
}

TEST(Himeno, ResidualDecreasesWithIterations) {
  // The Jacobi solver converges: more iterations => smaller last-iteration
  // residual.
  const auto few =
      himeno::run_cluster(sys::cichlid(), 2, small_himeno(himeno::Variant::serial, 2));
  const auto many =
      himeno::run_cluster(sys::cichlid(), 2, small_himeno(himeno::Variant::serial, 10));
  EXPECT_LT(many.gosa, few.gosa);
}

TEST(Himeno, OverlappedVariantsBeatSerial) {
  // S-class grid on 4 GbE nodes: communication matters, overlap pays. The
  // virtual schedule is a function of the program alone, so one run of
  // each variant decides.
  himeno::Config cfg = himeno::Config::size_s();
  cfg.iterations = 6;

  cfg.variant = himeno::Variant::serial;
  const auto serial = himeno::run_cluster(sys::cichlid(), 4, cfg);
  cfg.variant = himeno::Variant::hand_optimized;
  const auto hand = himeno::run_cluster(sys::cichlid(), 4, cfg);
  cfg.variant = himeno::Variant::clmpi;
  const auto cl = himeno::run_cluster(sys::cichlid(), 4, cfg);

  EXPECT_GT(serial.makespan_s, hand.makespan_s);
  EXPECT_GT(serial.makespan_s, cl.makespan_s);
  EXPECT_GT(hand.gflops, serial.gflops);
  EXPECT_GT(cl.gflops, serial.gflops);
}

TEST(Himeno, ClmpiMatchesHandOptimizedWhenCommunicationHides) {
  // Two RICC nodes: plenty of compute per node, communication fully
  // overlapped in both optimized variants (Figure 9(b) plateau).
  himeno::Config cfg = himeno::Config::size_m();
  cfg.iterations = 4;
  cfg.variant = himeno::Variant::hand_optimized;
  const auto hand = himeno::run_cluster(sys::ricc(), 2, cfg);
  cfg.variant = himeno::Variant::clmpi;
  const auto cl = himeno::run_cluster(sys::ricc(), 2, cfg);
  EXPECT_NEAR(cl.gflops / hand.gflops, 1.0, 0.1);
}

TEST(Himeno, GflopsScaleWithNodes) {
  himeno::Config cfg = himeno::Config::size_m();
  cfg.iterations = 4;
  cfg.variant = himeno::Variant::clmpi;
  const auto p2 = himeno::run_cluster(sys::ricc(), 2, cfg);
  const auto p8 = himeno::run_cluster(sys::ricc(), 8, cfg);
  EXPECT_GT(p8.gflops, 2.0 * p2.gflops);
}

TEST(Himeno, RejectsIndivisibleDecomposition) {
  himeno::Config cfg = small_himeno(himeno::Variant::serial);
  cfg.interior = 30;  // not divisible by 2*4
  EXPECT_THROW((void)himeno::run_cluster(sys::cichlid(), 4, cfg), PreconditionError);
}

TEST(Himeno, VariantNames) {
  EXPECT_STREQ(himeno::to_string(himeno::Variant::serial), "serial");
  EXPECT_STREQ(himeno::to_string(himeno::Variant::hand_optimized), "hand-optimized");
  EXPECT_STREQ(himeno::to_string(himeno::Variant::clmpi), "clMPI");
}

// --- nanopowder -------------------------------------------------------------------

TEST(Nanopowder, ImplementationsAgreeBitForBit) {
  nanopowder::Config cfg = nanopowder::Config::small();
  cfg.use_clmpi = false;
  const auto base = nanopowder::run_cluster(sys::ricc(), 4, cfg);
  cfg.use_clmpi = true;
  const auto cl = nanopowder::run_cluster(sys::ricc(), 4, cfg);

  ASSERT_TRUE(std::isfinite(base.distribution_checksum));
  EXPECT_DOUBLE_EQ(base.distribution_checksum, cl.distribution_checksum);
  EXPECT_DOUBLE_EQ(base.total_mass, cl.total_mass);
  EXPECT_GT(base.total_mass, 0.0);
}

TEST(Nanopowder, DecompositionDoesNotChangeTheAnswer) {
  nanopowder::Config cfg = nanopowder::Config::small();
  const auto p1 = nanopowder::run_cluster(sys::ricc(), 1, cfg);
  const auto p8 = nanopowder::run_cluster(sys::ricc(), 8, cfg);
  EXPECT_DOUBLE_EQ(p1.distribution_checksum, p8.distribution_checksum);
}

TEST(Nanopowder, ClmpiOutperformsBaselineWhenCommunicationIsExposed) {
  // The Figure 10 claim: with the 42 MB per-step coefficient distribution
  // exposed, the pipelined MPI_CL_MEM path wins at every node count.
  nanopowder::Config cfg;
  cfg.nbins = 512;  // keep the real compute small; costs are modelled
  cfg.cells = 8;
  cfg.steps = 2;
  cfg.use_clmpi = false;
  const auto base = nanopowder::run_cluster(sys::ricc(), 4, cfg);
  cfg.use_clmpi = true;
  const auto cl = nanopowder::run_cluster(sys::ricc(), 4, cfg);
  EXPECT_LT(cl.seconds_per_step, base.seconds_per_step);
}

TEST(Nanopowder, SingleNodeRunsBothPaths) {
  nanopowder::Config cfg = nanopowder::Config::small();
  cfg.use_clmpi = true;
  const auto summary = nanopowder::run_cluster(sys::ricc(), 1, cfg);
  EXPECT_GT(summary.seconds_per_step, 0.0);
  EXPECT_GT(summary.total_mass, 0.0);
}

TEST(Nanopowder, RejectsNonDivisorNodeCounts) {
  nanopowder::Config cfg = nanopowder::Config::small();  // 8 cells
  EXPECT_THROW((void)nanopowder::run_cluster(sys::ricc(), 3, cfg), PreconditionError);
}

TEST(Nanopowder, CoefficientBlobIsAbout42MBAtPaperScale) {
  nanopowder::Config cfg;  // defaults: nbins = 2290
  EXPECT_NEAR(static_cast<double>(cfg.coefficient_bytes()) / 1.0e6, 42.0, 1.0);
}

}  // namespace
}  // namespace clmpi::apps
