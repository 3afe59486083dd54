// Deterministic fault injection for the simulated interconnect.
//
// A FaultPlan turns the simulator into an adversarial correctness harness:
// seeded, reproducible message drops, retransmissions (duplicates), wire
// reordering delays, latency spikes, NIC bandwidth degradation and rank
// stalls. Every decision is a pure function of (plan seed, channel, message
// sequence number), never of wall-clock thread scheduling, so a chaos run
// with the same seed injects the same faults at the same virtual times.
//
// Fault semantics follow what a reliable transport can actually report:
//  * drop       — the wire transfer happens (the NIC only detects the loss
//                 when the transfer window times out), then BOTH endpoints'
//                 requests fail with MessageDroppedError at that virtual
//                 time. Nothing is silently lost and nothing hangs: waiters
//                 observe a defined negative status.
//  * duplicate  — the message is retransmitted: the wire is occupied twice
//                 and delivery completes at the end of the second pass.
//  * reorder    — the message is held back long enough for later traffic to
//                 overtake it on the wire (matching order is unaffected, as
//                 in MPI; only wire/completion times shift).
//  * spike      — a one-off latency spike is added to the message.
//  * stall      — the sending rank hiccups: its post is delayed.
//  * degradation— every wire transfer runs at a fraction of the NIC rate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "vt/time.hpp"

namespace clmpi::mpi {

/// Acked-retransmission policy. When `max_retries > 0` a dropped wire
/// transmission is retransmitted after an exponential backoff in VIRTUAL
/// time: retransmission k (1-based) waits min(rto * factor^(k-1),
/// max_backoff) after the previous attempt's loss was detected. The whole
/// retransmission schedule is decided up front from the same per-message
/// RNG stream as the original verdict, so recovery is exactly as
/// deterministic as the faults it repairs. `max_retries == 0` (default)
/// disables recovery and reproduces the first-fault-fatal behaviour.
struct RetryPolicy {
  int max_retries{0};
  vt::Duration rto{vt::microseconds(200.0)};
  double backoff_factor{2.0};
  vt::Duration max_backoff{vt::milliseconds(5.0)};

  [[nodiscard]] bool enabled() const noexcept { return max_retries > 0; }

  /// Backoff gap preceding retransmission `attempt` (1-based).
  [[nodiscard]] vt::Duration backoff(int attempt) const noexcept {
    vt::Duration gap = rto;
    for (int i = 1; i < attempt; ++i) {
      gap = gap * backoff_factor;
      if (gap >= max_backoff) return max_backoff;
    }
    return gap < max_backoff ? gap : max_backoff;
  }
};

/// Seeded fault-injection configuration, set on Cluster::Options. All rates
/// are per-message probabilities in [0, 1]; the default plan injects nothing.
struct FaultPlan {
  std::uint64_t seed{0};

  double drop_rate{0.0};
  double duplicate_rate{0.0};

  double reorder_rate{0.0};
  vt::Duration reorder_delay{vt::microseconds(500.0)};

  double latency_spike_rate{0.0};
  vt::Duration latency_spike{vt::microseconds(80.0)};

  double stall_rate{0.0};
  vt::Duration stall{vt::milliseconds(2.0)};

  /// Wire bandwidth is multiplied by (1 - nic_degradation); 0 = healthy NIC.
  double nic_degradation{0.0};

  /// Recovery layer: acked retransmission of dropped messages. Off by
  /// default, so existing plans reproduce PR 1-3 behaviour bit-exactly.
  RetryPolicy retry{};

  [[nodiscard]] bool enabled() const noexcept {
    return drop_rate > 0.0 || duplicate_rate > 0.0 || reorder_rate > 0.0 ||
           latency_spike_rate > 0.0 || stall_rate > 0.0 || nic_degradation > 0.0;
  }
};

/// Per-message verdict of the engine. With retries enabled the verdict
/// carries the FULL retransmission schedule, decided once at decide() time:
/// the delivery loop never re-consults the engine, so retries cannot
/// perturb the per-channel sequence numbering of fresh traffic.
struct FaultDecision {
  bool drop{false};
  bool duplicate{false};
  /// Extra hold-back before the message reaches the wire (stall + reorder +
  /// latency spike, whichever fired).
  vt::Duration delay{};

  /// Total wire transmissions to charge (1 = clean first attempt; k > 1
  /// means attempts 1..k-1 were lost and retransmitted).
  int wire_attempts{1};
  /// Whether the payload ultimately arrives. False only when `drop` fired
  /// and either retries are disabled or every retransmission was also lost.
  bool delivered{true};
  /// When !delivered: true if failure is retry-budget exhaustion (surface
  /// as TimeoutError) rather than an unrecovered plain drop.
  bool retries_exhausted{false};
};

/// Totals accumulated over a run, reported through RunResult for chaos-suite
/// summaries.
struct FaultCounters {
  std::uint64_t messages{0};
  std::uint64_t drops{0};
  std::uint64_t duplicates{0};
  std::uint64_t delays{0};
  /// Retransmissions performed (wire_attempts - 1 summed over messages).
  std::uint64_t retries{0};
  /// Payload bytes re-sent by those retransmissions.
  std::uint64_t retransmit_bytes{0};
  /// Messages recovered by retransmission (dropped, then delivered).
  std::uint64_t recovered{0};
  /// Messages whose retry budget was exhausted (surface as CLMPI_TIMEOUT).
  std::uint64_t timeouts{0};
};

/// Deterministic fault oracle. One per cluster, owned by its strand; the
/// mailboxes consult it once per posted send.
class FaultEngine {
 public:
  explicit FaultEngine(const FaultPlan& plan) : plan_(plan) {}

  FaultEngine(const FaultEngine&) = delete;
  FaultEngine& operator=(const FaultEngine&) = delete;

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// Decide the fate of the next message on channel (src_node, dst_node,
  /// context, tag). Deterministic: the n-th call for a given channel always
  /// returns the same verdict for the same plan seed, regardless of which
  /// rank asks or when. `bytes` is the payload size, used only for
  /// retransmission accounting.
  FaultDecision decide(int src_node, int dst_node, int context, int tag,
                       std::size_t bytes = 0);

  /// Multiplier applied to the NIC's bytes-per-second rate.
  [[nodiscard]] double bandwidth_derate() const noexcept {
    return 1.0 - plan_.nic_degradation;
  }

  /// Record a block-level delivery failure AS OBSERVED BY `observer_node` on
  /// its link to `peer_node`. The count is per observer (directed), and the
  /// caller must only bump it when the observer's OWN request completed with
  /// the failure — never when the failure merely became known to the engine.
  /// That discipline is what keeps the two ends of a lockstep exchange in
  /// agreement: at every operation boundary each endpoint has observed
  /// exactly the failures of the operations it has completed, and an
  /// endpoint can never see the current operation's own in-flight failures
  /// at strategy-resolution time (its resolve precedes its posts, and its
  /// matches follow its resolve).
  void note_block_failure(int observer_node, int peer_node);

  /// Whether `self_node`'s view of its link to `peer_node` has degraded past
  /// the pipelined-fallback threshold. Monotonic within a run: once
  /// degraded, a link stays degraded.
  [[nodiscard]] bool link_degraded(int self_node, int peer_node) const;

  static constexpr std::uint64_t kLinkFailureThreshold = 3;

  [[nodiscard]] FaultCounters counters() const { return counters_; }

 private:
  FaultPlan plan_;
  /// Per-channel message sequence numbers (channel key -> next seq).
  std::unordered_map<std::uint64_t, std::uint64_t> channel_seq_;
  /// Block-level failure counts per (observer node, peer node) directed pair.
  std::unordered_map<std::uint64_t, std::uint64_t> link_failures_;
  FaultCounters counters_;
};

}  // namespace clmpi::mpi
