// Hot-path regression suite: eager fast-path boundary sizes, mailbox
// matching (specific, wildcard, probe, nested-settle order), strategy
// equality / wire-decomposition agreement, and a determinism regression
// pinning seed-identical trace hashes. Everything here is wall-clock-only
// machinery whose virtual-time behaviour must be indistinguishable from a
// single-queue engine.
#include <gtest/gtest.h>

#include "test_util.hpp"

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "simmpi/cluster.hpp"
#include "simmpi/cluster_core.hpp"
#include "simmpi/datatype.hpp"
#include "simmpi/fault.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"
#include "transfer/strategy.hpp"
#include "vt/tracer.hpp"

namespace clmpi {
namespace {

// --- strategy equality -------------------------------------------------------

TEST(Strategy, EqualityComparesKindAndBlock) {
  EXPECT_EQ(xfer::Strategy::pinned(), xfer::Strategy::pinned());
  EXPECT_EQ(xfer::Strategy::pipelined(64_KiB), xfer::Strategy::pipelined(64_KiB));
  EXPECT_NE(xfer::Strategy::pipelined(64_KiB), xfer::Strategy::pipelined(128_KiB));
  EXPECT_NE(xfer::Strategy::pinned(), xfer::Strategy::mapped());
  EXPECT_NE(xfer::Strategy::pinned(), xfer::Strategy::pipelined(64_KiB));
}

TEST(Strategy, SelectIsStableUnderMemoization) {
  // select() must return exactly what the policy dictates for repeated and
  // for alternating (profile, size) queries, exactly at the pipeline
  // threshold and for a profile copy with different knobs.
  const sys::SystemProfile& ricc = sys::ricc();
  sys::SystemProfile modified = ricc;  // same sizes, different knobs
  modified.pipeline_threshold = 1_MiB;
  ASSERT_EQ(ricc.pipeline_threshold, 512_KiB);
  ASSERT_EQ(ricc.small_preference, sys::SmallTransferPreference::pinned);

  const std::size_t at = ricc.pipeline_threshold;
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(xfer::select(ricc, at - 1).kind, xfer::StrategyKind::pinned);
    EXPECT_EQ(xfer::select(ricc, at).kind, xfer::StrategyKind::pipelined);
    // The two profiles' policies disagree at 768 KiB: selection reads the
    // profile's content, not its identity.
    EXPECT_EQ(xfer::select(ricc, 768_KiB).kind, xfer::StrategyKind::pipelined);
    EXPECT_EQ(xfer::select(modified, 768_KiB).kind, xfer::StrategyKind::pinned);
  }
}

// --- eager fast-path boundaries ----------------------------------------------

/// Byte-exact delivery at the inline-store boundary (256 B) and the
/// eager/rendezvous threshold, on both sides of each edge.
TEST(EagerBoundaries, ByteExactDeliveryAcrossThresholds) {
  const std::size_t eager = sys::ricc().nic.eager_threshold;
  const std::vector<std::size_t> sizes = {1,         255,       256, 257,
                                          eager - 1, eager,     eager + 1};

  mpi::Cluster::Options o;
  o.nranks = 2;
  o.profile = &sys::ricc();
  mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const std::size_t n = sizes[i];
      const std::uint64_t pattern = derive_seed(0xEA6E4u, i);
      std::vector<std::byte> buf(n);
      if (rank.rank() == 0) {
        fill_pattern(buf, pattern);
        rank.world().send(buf, 1, static_cast<int>(i), rank.clock());
      } else {
        const mpi::MsgStatus st =
            rank.world().recv(buf, 0, static_cast<int>(i), rank.clock());
        EXPECT_EQ(st.bytes, n);
        EXPECT_TRUE(check_pattern(buf, pattern)) << "size " << n;
      }
    }
  });
}

/// Sender buffer reuse after an eager send: the payload must have been
/// copied out (inline store below 256 B, heap above) before send() returns.
TEST(EagerBoundaries, SenderBufferReusableAfterEagerSend) {
  mpi::Cluster::Options o;
  o.nranks = 2;
  o.profile = &sys::ricc();
  const std::vector<std::size_t> sizes = {64, 256, 4096};
  mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const std::size_t n = sizes[i];
      const std::uint64_t pattern = derive_seed(0x5E4Du, i);
      if (rank.rank() == 0) {
        std::vector<std::byte> buf(n);
        fill_pattern(buf, pattern);
        rank.world().send(buf, 1, static_cast<int>(i), rank.clock());
        // Eager: the send completes once injected; scribbling over the
        // buffer must not affect what the receiver sees.
        fill_pattern(buf, ~pattern);
      } else {
        rank.compute(vt::microseconds(200.0));  // let the scribble race run
        std::vector<std::byte> buf(n);
        rank.world().recv(buf, 0, static_cast<int>(i), rank.clock());
        EXPECT_TRUE(check_pattern(buf, pattern)) << "size " << n;
      }
    }
  });
}

// --- mailbox matching ----------------------------------------------------------

/// Many channels at once, then wildcard receives draining in global arrival
/// order.
TEST(Mailbox, SpecificAndWildcardMatching) {
  constexpr int kMsgs = 48;
  mpi::Cluster::Options o;
  o.nranks = 2;
  o.profile = &sys::ricc();
  mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    if (rank.rank() == 0) {
      std::vector<std::vector<std::byte>> bufs(kMsgs, std::vector<std::byte>(64));
      std::vector<mpi::Request> reqs;
      for (int i = 0; i < kMsgs; ++i) {
        fill_pattern(bufs[static_cast<std::size_t>(i)],
                     derive_seed(0xABCu, static_cast<std::uint64_t>(i)));
        reqs.push_back(rank.world().isend(bufs[static_cast<std::size_t>(i)], 1, i,
                                          rank.clock()));
      }
      for (auto& r : reqs) r.wait(rank.clock());
      rank.world().barrier(rank.clock());
    } else {
      rank.world().barrier(rank.clock());  // all sends posted (and eager-buffered)
      // Wildcard receives drain the unexpected queues in arrival order,
      // which for a single sender thread is tag order.
      for (int i = 0; i < kMsgs; ++i) {
        std::vector<std::byte> buf(64);
        const mpi::MsgStatus st =
            rank.world().recv(buf, mpi::any_source, mpi::any_tag, rank.clock());
        EXPECT_EQ(st.tag, i);
        EXPECT_TRUE(
            check_pattern(buf, derive_seed(0xABCu, static_cast<std::uint64_t>(st.tag))));
      }
    }
  });
}

TEST(Mailbox, ProbeAndIprobeSeeUnexpectedMessages) {
  mpi::Cluster::Options o;
  o.nranks = 2;
  o.profile = &sys::ricc();
  mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    if (rank.rank() == 0) {
      std::vector<std::byte> buf(128, std::byte{0x7C});
      rank.world().send(buf, 1, 42, rank.clock());
    } else {
      // Blocking probe: returns the status without consuming the message.
      const mpi::MsgStatus st = rank.world().probe(mpi::any_source, mpi::any_tag,
                                                   rank.clock());
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 42);
      EXPECT_EQ(st.bytes, 128u);
      // iprobe agrees, and the message is still there.
      const auto peek = rank.world().iprobe(0, 42);
      ASSERT_TRUE(peek.has_value());
      EXPECT_EQ(peek->bytes, 128u);
      std::vector<std::byte> buf(128);
      rank.world().recv(buf, 0, 42, rank.clock());
      EXPECT_FALSE(rank.world().iprobe(0, 42).has_value());
    }
  });
}

/// A completion callback that posts a follow-up matching on the same
/// mailbox: the follow-up's completions fire after the current batch, so the
/// order is send 1, recv 1, send 2, recv 2. This order fixes which settle
/// charges a virtual resource first, and with it the grant order.
TEST(Mailbox, NestedSettleFiresAfterTheCurrentBatch) {
  mpi::Cluster::Options o;
  o.nranks = 1;
  o.profile = &sys::ricc();
  mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    mpi::detail::Mailbox& box = rank.core()->mailboxes[0];
    std::vector<std::string> order;
    const auto record = [&order](std::string name) {
      return [&order, name](vt::TimePoint, const std::exception_ptr&) {
        order.push_back(name);
      };
    };
    std::vector<std::byte> out1(8), out2(8), in1(8), in2(8);
    const auto post_recv = [&](int tag, std::span<std::byte> buf, std::string name) {
      mpi::detail::PostedRecv pr;
      pr.src_rank = 0;
      pr.tag = tag;
      pr.buffer = buf;
      pr.post_time = rank.clock().now();
      pr.rreq = mpi::detail::make_request_state();
      pr.rreq->on_settle(record(std::move(name)));
      box.post_recv(std::move(pr));
    };
    const auto post_send = [&](int tag, std::span<const std::byte> buf,
                               std::shared_ptr<mpi::detail::RequestState> sreq) {
      mpi::detail::Envelope env{};
      env.tag = tag;
      env.bytes = buf.size();
      env.payload = buf;
      env.eager = true;
      env.post_time = rank.clock().now();
      env.sreq = std::move(sreq);
      box.post_send(std::move(env));
    };
    post_recv(1, in1, "recv1");
    post_recv(2, in2, "recv2");
    auto send2 = mpi::detail::make_request_state();
    send2->on_settle(record("send2"));
    auto send1 = mpi::detail::make_request_state();
    send1->on_settle([&](vt::TimePoint, const std::exception_ptr&) {
      order.push_back("send1");
      post_send(2, out2, send2);  // matches recv2 from inside send 1's settle
    });
    post_send(1, out1, send1);
    EXPECT_EQ(order, (std::vector<std::string>{"send1", "recv1", "send2", "recv2"}));
  });
}

// --- determinism regression --------------------------------------------------

struct Fingerprint {
  std::uint64_t trace_hash{0};
  double makespan_s{0.0};
  mpi::FaultCounters counters;
};

/// A mixed workload exercising every mailbox path: eager inline, eager heap,
/// rendezvous, wildcards, multiple channels, four ranks — with and without
/// fault injection. Identical seeds must fingerprint identically.
Fingerprint run_mixed_workload(std::uint64_t seed, bool faults) {
  vt::Tracer tracer;
  mpi::Cluster::Options o;
  o.nranks = 4;
  o.profile = &sys::ricc();
  o.tracer = &tracer;
  if (faults) {
    o.faults.seed = seed;
    o.faults.duplicate_rate = 0.3;
    o.faults.latency_spike_rate = 0.4;
  }
  const mpi::RunResult res = mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    Rng rng(derive_seed(seed, static_cast<std::uint64_t>(0xD15Cu)));
    // Ring traffic: every rank sends to the next, receives from the
    // previous; sizes sweep the eager-inline / eager-heap / rendezvous
    // regimes. Identical rng draws on every rank keep the ranks lockstep.
    for (int i = 0; i < 12; ++i) {
      const std::size_t n = 1 + rng.below(128_KiB);
      const int to = (rank.rank() + 1) % rank.size();
      const int from = (rank.rank() + rank.size() - 1) % rank.size();
      std::vector<std::byte> out(n);
      std::vector<std::byte> in(n);
      fill_pattern(out, derive_seed(seed, static_cast<std::uint64_t>(i)));
      const bool wildcard = (rng.next_u64() & 1u) != 0;
      mpi::Request rr = wildcard
                            ? rank.world().irecv(in, mpi::any_source, i, rank.clock())
                            : rank.world().irecv(in, from, i, rank.clock());
      mpi::Request sr = rank.world().isend(out, to, i, rank.clock());
      try {
        sr.wait(rank.clock());
        rr.wait(rank.clock());
        EXPECT_TRUE(check_pattern(in, derive_seed(seed, static_cast<std::uint64_t>(i))));
      } catch (const Error& e) {
        ADD_FAILURE() << "unexpected failure: " << e.what();
      }
    }
    rank.world().barrier(rank.clock());
  });
  Fingerprint f;
  f.trace_hash = tracer.hash();
  f.makespan_s = res.makespan_s;
  f.counters = res.faults;
  return f;
}

TEST(DeterminismRegression, SeedIdenticalTraceHashes) {
  for (std::uint64_t seed : {0x1111u, 0xBEEFu}) {
    const Fingerprint a = run_mixed_workload(seed, /*faults=*/false);
    const Fingerprint b = run_mixed_workload(seed, /*faults=*/false);
    EXPECT_EQ(a.trace_hash, b.trace_hash) << "seed " << seed;
    EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s) << "seed " << seed;
  }
}

TEST(DeterminismRegression, SeedIdenticalUnderFaultInjection) {
  const Fingerprint a = run_mixed_workload(0xFA57u, /*faults=*/true);
  const Fingerprint b = run_mixed_workload(0xFA57u, /*faults=*/true);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.counters.messages, b.counters.messages);
  EXPECT_EQ(a.counters.duplicates, b.counters.duplicates);
  EXPECT_EQ(a.counters.delays, b.counters.delays);
}

// --- wire-decomposition agreement --------------------------------------------

/// Forced pipelined strategies with different block sizes on the two
/// endpoints: the match-time check fails both sides with a defined
/// PreconditionError naming the mismatch, instead of an obscure truncation.
/// Block sizes are chosen so both decompositions have the SAME sub-message
/// count (the check can only fire on messages that tag-match).
TEST(WireDecomposition, ForcedStrategyMismatchFailsBothEndpoints) {
  constexpr std::size_t kTotal = 256_KiB;
  mpi::Cluster::Options o;
  o.nranks = 2;
  o.profile = &sys::ricc();
  std::mutex mu;
  int failures = 0;
  mpi::Cluster::run(o, [&](mpi::Rank& rank) {
    std::vector<std::byte> data(kTotal, std::byte{0x11});
    try {
      if (rank.rank() == 0) {
        xfer::send_host(rank.world(), data, 1, 3, xfer::Strategy::pipelined(192_KiB),
                        rank.clock().now());
      } else {
        xfer::recv_host(rank.world(), data, 0, 3, xfer::Strategy::pipelined(224_KiB),
                        rank.clock().now());
      }
      ADD_FAILURE() << "mismatched wire decomposition was not diagnosed";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("wire decomposition mismatch"),
                std::string::npos);
      const std::lock_guard<std::mutex> lock(mu);
      ++failures;
    }
  });
  EXPECT_EQ(failures, 2);  // both endpoints diagnosed
}

}  // namespace
}  // namespace clmpi
