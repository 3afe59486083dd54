// Schedule-fuzzing chaos suite.
//
// 105 seeded scenarios: every fault class (none / drop / duplicate / reorder
// / latency spike / NIC degradation / rank stall) crossed with every transfer
// strategy (pinned, mapped, pipelined) and five seeds. Each scenario runs a
// randomized lockstep workload between two ranks and checks the suite's
// invariants:
//
//   1. every message is either delivered byte-exact or fails with a defined
//      error (Status::message_dropped) on *both* endpoints — never silent
//      corruption, never a hang (a deadlock ends in the cluster's typed
//      DeadlockError);
//   2. event completion times are monotone along each rank's blocking command
//      sequence, and no event completes before the virtual time at which its
//      command was enqueued (no causality break);
//   3. the run is deterministic: executing the identical scenario twice
//      yields the identical vt::Tracer hash.
//
// Each scenario's seed is printed on failure and every scenario appends a
// record (seed, fault class, strategy, trace hash, fault counters, makespan)
// to a JSON report — $CLMPI_CHAOS_REPORT or ./chaos_report.json — so a
// failing draw can be replayed exactly. See docs/TESTING.md.
#include <gtest/gtest.h>

#include "test_util.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "clmpi/runtime.hpp"
#include "ocl/context.hpp"
#include "ocl/platform.hpp"
#include "ocl/queue.hpp"
#include "simmpi/cluster.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/window.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"
#include "transfer/strategy.hpp"
#include "vt/tracer.hpp"

namespace clmpi {
namespace {

// --- scenario space ----------------------------------------------------------

enum class FaultClass { none, drop, duplicate, reorder, spike, degrade, stall };

const char* to_string(FaultClass c) {
  switch (c) {
    case FaultClass::none: return "none";
    case FaultClass::drop: return "drop";
    case FaultClass::duplicate: return "duplicate";
    case FaultClass::reorder: return "reorder";
    case FaultClass::spike: return "spike";
    case FaultClass::degrade: return "degrade";
    case FaultClass::stall: return "stall";
  }
  return "?";
}

mpi::FaultPlan plan_for(FaultClass c, std::uint64_t seed) {
  mpi::FaultPlan p;
  p.seed = seed;
  switch (c) {
    case FaultClass::none: break;
    case FaultClass::drop: p.drop_rate = 0.3; break;
    case FaultClass::duplicate: p.duplicate_rate = 0.5; break;
    case FaultClass::reorder: p.reorder_rate = 0.6; break;
    case FaultClass::spike: p.latency_spike_rate = 0.6; break;
    case FaultClass::degrade: p.nic_degradation = 0.4; break;
    case FaultClass::stall: p.stall_rate = 0.3; break;
  }
  return p;
}

enum class ForcedStrategy { pinned, mapped, pipelined };

const char* to_string(ForcedStrategy s) {
  switch (s) {
    case ForcedStrategy::pinned: return "pinned";
    case ForcedStrategy::mapped: return "mapped";
    case ForcedStrategy::pipelined: return "pipelined";
  }
  return "?";
}

xfer::Strategy strategy_for(ForcedStrategy s) {
  switch (s) {
    case ForcedStrategy::pinned: return xfer::Strategy::pinned();
    case ForcedStrategy::mapped: return xfer::Strategy::mapped();
    case ForcedStrategy::pipelined: return xfer::Strategy::pipelined(32_KiB);
  }
  return xfer::Strategy::pinned();
}

// --- JSON report -------------------------------------------------------------

struct ScenarioRecord {
  std::string fault;
  std::string strategy;
  std::uint64_t seed{0};
  std::uint64_t trace_hash{0};
  mpi::FaultCounters counters;
  double makespan_s{0.0};
  int delivered{0};
  int dropped{0};
};

std::vector<ScenarioRecord>& records() {
  static std::vector<ScenarioRecord> r;
  return r;
}
std::mutex g_records_mutex;

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

class ChaosReportEnv : public ::testing::Environment {
 public:
  void TearDown() override {
    const char* env = std::getenv("CLMPI_CHAOS_REPORT");
    const std::string path = (env != nullptr && *env != '\0') ? env : "chaos_report.json";
    std::ofstream out(path);
    if (!out) return;
    out << "[\n";
    const std::lock_guard<std::mutex> lock(g_records_mutex);
    for (std::size_t i = 0; i < records().size(); ++i) {
      const ScenarioRecord& r = records()[i];
      out << "  {\"fault\": \"" << r.fault << "\", \"strategy\": \"" << r.strategy
          << "\", \"seed\": " << r.seed << ", \"trace_hash\": \"" << hex64(r.trace_hash)
          << "\", \"messages\": " << r.counters.messages << ", \"drops\": "
          << r.counters.drops << ", \"duplicates\": " << r.counters.duplicates
          << ", \"delays\": " << r.counters.delays << ", \"delivered\": " << r.delivered
          << ", \"dropped\": " << r.dropped << ", \"makespan_s\": " << r.makespan_s << "}"
          << (i + 1 < records().size() ? "," : "") << "\n";
    }
    out << "]\n";
  }
};

const int g_register_report_env =
    (::testing::AddGlobalTestEnvironment(new ChaosReportEnv), 0);

// --- one scenario ------------------------------------------------------------

constexpr int kOpsPerScenario = 6;
constexpr std::size_t kBufferBytes = 1_MiB;
constexpr std::size_t kMaxMessage = 384_KiB;

struct Node {
  explicit Node(mpi::Rank& rank)
      : platform(rank.profile(), rank.rank(), rank.tracer()),
        ctx(platform.device()),
        runtime(rank, platform.device()) {}

  ocl::Platform platform;
  ocl::Context ctx;
  rt::Runtime runtime;
};

struct ScenarioOutcome {
  std::uint64_t trace_hash{0};
  mpi::FaultCounters counters;
  double makespan_s{0.0};
  int delivered{0};
  int dropped{0};
};

/// Runs one seeded workload: a lockstep sequence of blocking device-buffer
/// transfers with randomized sizes, offsets and directions, all derived from
/// `seed` identically on both ranks.
ScenarioOutcome run_scenario(FaultClass fault, ForcedStrategy forced, std::uint64_t seed) {
  ScenarioOutcome outcome;
  std::mutex outcome_mutex;

  vt::Tracer tracer;
  mpi::Cluster::Options o;
  o.nranks = 2;
  o.profile = &sys::ricc();
  o.tracer = &tracer;
  o.faults = plan_for(fault, seed);

  const xfer::Strategy strategy = strategy_for(forced);

  const mpi::RunResult res = mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    Node node(rank);
    auto queue = node.ctx.create_queue();
    ocl::BufferPtr buf = node.ctx.create_buffer(kBufferBytes);

    // Both ranks derive the identical op sequence from the scenario seed.
    Rng rng(derive_seed(seed, 0xC4A05u));
    double last_completion = 0.0;
    for (int i = 0; i < kOpsPerScenario; ++i) {
      const std::size_t size = 1 + rng.below(kMaxMessage);
      const std::size_t offset = rng.below(kBufferBytes - size + 1);
      const bool rank0_sends = (rng.next_u64() & 1u) != 0;
      const std::uint64_t pattern = derive_seed(seed, 0x9A77u + static_cast<unsigned>(i));
      const bool sender = (rank.rank() == 0) == rank0_sends;
      const double enqueue_now = rank.now_s();
      try {
        ocl::EventPtr ev;
        if (sender) {
          fill_pattern(buf->storage().subspan(offset, size), pattern);
          ev = node.runtime.enqueue_send_buffer(*queue, buf, true, offset, size,
                                                1 - rank.rank(), i, rank.world(), {},
                                                strategy);
        } else {
          ev = node.runtime.enqueue_recv_buffer(*queue, buf, true, offset, size,
                                                1 - rank.rank(), i, rank.world(), {},
                                                strategy);
          // Invariant 1: delivered payloads are byte-exact.
          EXPECT_TRUE(check_pattern(buf->storage().subspan(offset, size), pattern))
              << "corrupt payload, scenario seed " << seed << " op " << i;
        }
        // Invariant 2: no causality break, monotone completion order.
        const double done = ev->completion_time().s;
        EXPECT_GE(done, enqueue_now) << "scenario seed " << seed << " op " << i;
        EXPECT_GE(done, last_completion) << "scenario seed " << seed << " op " << i;
        last_completion = done;
        if (!sender) {
          const std::lock_guard<std::mutex> lock(outcome_mutex);
          ++outcome.delivered;
        }
      } catch (const Error& e) {
        // Invariant 1: the only acceptable failure is a *defined* dropped-
        // message error, and only when drops are actually being injected.
        EXPECT_EQ(e.status(), Status::message_dropped)
            << "scenario seed " << seed << " op " << i << ": " << e.what();
        EXPECT_EQ(fault, FaultClass::drop)
            << "unexpected failure under fault class " << to_string(fault);
        if (!sender) {
          const std::lock_guard<std::mutex> lock(outcome_mutex);
          ++outcome.dropped;
        }
      }
    }
  });

  outcome.trace_hash = tracer.hash();
  outcome.counters = res.faults;
  outcome.makespan_s = res.makespan_s;
  return outcome;
}

// --- the suite ---------------------------------------------------------------

using ChaosParam = std::tuple<FaultClass, ForcedStrategy, int>;

class Chaos : public ::testing::TestWithParam<ChaosParam> {};

TEST_P(Chaos, DeliversOrFailsCleanlyAndDeterministically) {
  const auto [fault, forced, seed_index] = GetParam();
  const std::uint64_t seed =
      derive_seed(0xC4A05EEDu, static_cast<std::uint64_t>(seed_index) * 971u +
                                   static_cast<std::uint64_t>(fault) * 131u +
                                   static_cast<std::uint64_t>(forced) * 17u);
  SCOPED_TRACE("scenario seed " + std::to_string(seed));

  const ScenarioOutcome first = run_scenario(fault, forced, seed);
  const ScenarioOutcome second = run_scenario(fault, forced, seed);

  // Invariant 3: identical seed, identical trace — schedule fuzzing must not
  // leak real-thread nondeterminism into virtual time.
  EXPECT_EQ(first.trace_hash, second.trace_hash);
  EXPECT_DOUBLE_EQ(first.makespan_s, second.makespan_s);
  EXPECT_EQ(first.counters.messages, second.counters.messages);
  EXPECT_EQ(first.counters.drops, second.counters.drops);
  EXPECT_EQ(first.counters.duplicates, second.counters.duplicates);
  EXPECT_EQ(first.counters.delays, second.counters.delays);

  // Every op settled one way or the other (receiver-side tally).
  EXPECT_EQ(first.delivered + first.dropped, kOpsPerScenario);
  if (fault != FaultClass::drop) {
    EXPECT_EQ(first.dropped, 0);
    EXPECT_EQ(first.counters.drops, 0u);
  }
  if (fault == FaultClass::none) {
    EXPECT_EQ(first.counters.messages, 0u);  // injection fully disabled
  }

  ScenarioRecord rec;
  rec.fault = to_string(fault);
  rec.strategy = to_string(forced);
  rec.seed = seed;
  rec.trace_hash = first.trace_hash;
  rec.counters = first.counters;
  rec.makespan_s = first.makespan_s;
  rec.delivered = first.delivered;
  rec.dropped = first.dropped;
  {
    const std::lock_guard<std::mutex> lock(g_records_mutex);
    records().push_back(rec);
  }
}

// --- one-sided RMA scenarios -------------------------------------------------
//
// The same invariants, driven through the window/fence subsystem on the
// shmem-fabric profile: every Put/Get epoch either delivers byte-exact or
// fails with the typed transport error at the closing fence on BOTH
// endpoints — never a silent corruption, never a hang — and the identical
// seed replays to the identical trace hash. Both ranks track a shadow model
// of both regions (updatable symmetrically because failures surface on both
// endpoints), so Get payloads are checked against expected remote state, not
// just Put landings.

constexpr std::size_t kRmaRegion = 64_KiB;

ScenarioOutcome run_rma_scenario(FaultClass fault, std::uint64_t seed) {
  ScenarioOutcome outcome;
  std::mutex outcome_mutex;

  vt::Tracer tracer;
  mpi::Cluster::Options o;
  o.nranks = 2;
  o.profile = &sys::cxlpod();
  o.tracer = &tracer;
  o.faults = plan_for(fault, seed);

  const mpi::RunResult res = mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    std::vector<std::byte> region(kRmaRegion, std::byte{0});
    mpi::Win win = mpi::create_window(rank.world(), region, rank.clock());
    // Shadow of BOTH regions; kept in lockstep on both ranks.
    std::vector<std::vector<std::byte>> shadow(
        2, std::vector<std::byte>(kRmaRegion, std::byte{0}));

    Rng rng(derive_seed(seed, 0x44AAu));
    win.fence(rank.clock());
    for (int e = 0; e < kOpsPerScenario; ++e) {
      const std::size_t size = 1 + rng.below(48_KiB);
      const std::size_t offset = rng.below(kRmaRegion - size + 1);
      const bool is_put = (rng.next_u64() & 1u) != 0;
      const int origin = static_cast<int>(rng.below(2));
      const int target = 1 - origin;
      const std::uint64_t pattern = derive_seed(seed, 0x7A11u + static_cast<unsigned>(e));

      std::vector<std::byte> fetched(size);
      if (rank.rank() == origin) {
        if (is_put) {
          std::vector<std::byte> payload(size);
          fill_pattern(payload, pattern);
          win.put(payload, target, offset, rank.clock());
        } else {
          win.get(std::span<std::byte>(fetched), target, offset, rank.clock());
        }
      }
      try {
        win.fence(rank.clock());
        // Success: the access landed. Check byte-exactness against the
        // shadow, then fold the put into it.
        if (is_put) {
          if (rank.rank() == target) {
            EXPECT_TRUE(check_pattern(
                std::span<const std::byte>(region).subspan(offset, size), pattern))
                << "corrupt RMA put, scenario seed " << seed << " epoch " << e;
          }
          std::vector<std::byte> payload(size);
          fill_pattern(payload, pattern);
          std::copy(payload.begin(), payload.end(),
                    shadow[static_cast<std::size_t>(target)].begin() +
                        static_cast<std::ptrdiff_t>(offset));
        } else if (rank.rank() == origin) {
          const auto& tgt = shadow[static_cast<std::size_t>(target)];
          EXPECT_EQ(0, std::memcmp(fetched.data(), tgt.data() + offset, size))
              << "corrupt RMA get, scenario seed " << seed << " epoch " << e;
        }
        if (rank.rank() == target) {
          const std::lock_guard<std::mutex> lock(outcome_mutex);
          ++outcome.delivered;
        }
      } catch (const Error& err) {
        // Invariant 1: only the defined transport errors, and only when the
        // plan actually injects loss. The failed access never landed, so the
        // shadow is NOT updated — on either endpoint.
        EXPECT_TRUE(err.status() == Status::message_dropped ||
                    err.status() == Status::timeout)
            << "scenario seed " << seed << " epoch " << e << ": " << err.what();
        EXPECT_EQ(fault, FaultClass::drop)
            << "unexpected RMA failure under fault class " << to_string(fault);
        if (rank.rank() == target) {
          const std::lock_guard<std::mutex> lock(outcome_mutex);
          ++outcome.dropped;
        }
      }
      // The region must always equal the shadow: delivered accesses land
      // exactly, failed ones not at all (no partial writes).
      EXPECT_EQ(0, std::memcmp(region.data(),
                               shadow[static_cast<std::size_t>(rank.rank())].data(),
                               kRmaRegion))
          << "shadow divergence, scenario seed " << seed << " epoch " << e;
    }
    win.free(rank.clock());
  });

  outcome.trace_hash = tracer.hash();
  outcome.counters = res.faults;
  outcome.makespan_s = res.makespan_s;
  return outcome;
}

using RmaChaosParam = std::tuple<FaultClass, int>;

class RmaChaos : public ::testing::TestWithParam<RmaChaosParam> {};

TEST_P(RmaChaos, PutGetDeliverOrFailCleanlyAndDeterministically) {
  const auto [fault, seed_index] = GetParam();
  const std::uint64_t seed =
      derive_seed(0x12A5EEDu, static_cast<std::uint64_t>(seed_index) * 883u +
                                  static_cast<std::uint64_t>(fault) * 101u);
  SCOPED_TRACE("rma scenario seed " + std::to_string(seed));

  const ScenarioOutcome first = run_rma_scenario(fault, seed);
  const ScenarioOutcome second = run_rma_scenario(fault, seed);

  EXPECT_EQ(first.trace_hash, second.trace_hash);
  EXPECT_DOUBLE_EQ(first.makespan_s, second.makespan_s);
  EXPECT_EQ(first.counters.messages, second.counters.messages);
  EXPECT_EQ(first.counters.drops, second.counters.drops);
  EXPECT_EQ(first.counters.duplicates, second.counters.duplicates);
  EXPECT_EQ(first.counters.delays, second.counters.delays);

  // Every epoch settled one way or the other on the target side.
  EXPECT_EQ(first.delivered + first.dropped, kOpsPerScenario);
  if (fault != FaultClass::drop) {
    EXPECT_EQ(first.dropped, 0);
    EXPECT_EQ(first.counters.drops, 0u);
  }
  if (fault == FaultClass::none) {
    EXPECT_EQ(first.counters.messages, 0u);
  }

  ScenarioRecord rec;
  rec.fault = to_string(fault);
  rec.strategy = "rma";
  rec.seed = seed;
  rec.trace_hash = first.trace_hash;
  rec.counters = first.counters;
  rec.makespan_s = first.makespan_s;
  rec.delivered = first.delivered;
  rec.dropped = first.dropped;
  {
    const std::lock_guard<std::mutex> lock(g_records_mutex);
    records().push_back(rec);
  }
}

std::string rma_chaos_name(const ::testing::TestParamInfo<RmaChaosParam>& info) {
  const auto [fault, seed_index] = info.param;
  return std::string(to_string(fault)) + "_s" + std::to_string(seed_index);
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultsOneSided, RmaChaos,
    ::testing::Combine(::testing::Values(FaultClass::none, FaultClass::drop,
                                         FaultClass::duplicate, FaultClass::reorder,
                                         FaultClass::spike, FaultClass::degrade,
                                         FaultClass::stall),
                       ::testing::Range(0, 2)),
    rma_chaos_name);

std::string chaos_name(const ::testing::TestParamInfo<ChaosParam>& info) {
  const auto [fault, forced, seed_index] = info.param;
  return std::string(to_string(fault)) + "_" + to_string(forced) + "_s" +
         std::to_string(seed_index);
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultsAllStrategies, Chaos,
    ::testing::Combine(::testing::Values(FaultClass::none, FaultClass::drop,
                                         FaultClass::duplicate, FaultClass::reorder,
                                         FaultClass::spike, FaultClass::degrade,
                                         FaultClass::stall),
                       ::testing::Values(ForcedStrategy::pinned, ForcedStrategy::mapped,
                                         ForcedStrategy::pipelined),
                       ::testing::Range(0, 5)),
    chaos_name);

}  // namespace
}  // namespace clmpi
