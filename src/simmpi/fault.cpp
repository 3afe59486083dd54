#include "simmpi/fault.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "support/rng.hpp"

namespace clmpi::mpi {

namespace {

/// Stable channel key: independent of thread scheduling, sensitive to every
/// field. splitmix-style avalanche over the packed fields.
std::uint64_t channel_key(int src_node, int dst_node, int context, int tag) {
  std::uint64_t s = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src_node)) << 32) |
                    static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst_node));
  s = derive_seed(s, static_cast<std::uint64_t>(static_cast<std::uint32_t>(context)));
  return derive_seed(s, static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)));
}

}  // namespace

FaultDecision FaultEngine::decide(int src_node, int dst_node, int context, int tag,
                                  std::size_t bytes) {
  const std::uint64_t key = channel_key(src_node, dst_node, context, tag);

  const std::uint64_t seq = channel_seq_[key]++;
  ++counters_.messages;

  // One independent stream per (channel, message): the verdict of message n
  // on a channel does not depend on traffic elsewhere.
  Rng rng(derive_seed(derive_seed(plan_.seed, key), seq));

  FaultDecision d;
  d.drop = rng.next_double() < plan_.drop_rate;
  d.duplicate = rng.next_double() < plan_.duplicate_rate;
  if (rng.next_double() < plan_.stall_rate) d.delay += plan_.stall;
  if (rng.next_double() < plan_.reorder_rate) {
    // Scale the hold-back so consecutive reordered messages do not all shift
    // by the same amount (which would preserve relative wire order).
    d.delay += plan_.reorder_delay * (0.5 + rng.next_double());
  }
  if (rng.next_double() < plan_.latency_spike_rate) d.delay += plan_.latency_spike;

  // Acked retransmission: decide the whole schedule now, continuing the SAME
  // per-message stream (the extra draws are private to this message, so they
  // cannot perturb any other message's verdict). Each retransmission re-rolls
  // against drop_rate; the first clean attempt delivers.
  std::uint64_t lost_attempts = d.drop ? 1 : 0;
  if (d.drop) {
    d.delivered = false;
    for (int k = 1; k <= plan_.retry.max_retries; ++k) {
      d.wire_attempts = k + 1;
      if (rng.next_double() >= plan_.drop_rate) {
        d.delivered = true;
        break;
      }
      ++lost_attempts;
    }
    d.retries_exhausted = !d.delivered && plan_.retry.enabled();
  }

  const std::uint64_t retries = static_cast<std::uint64_t>(d.wire_attempts - 1);
  const std::uint64_t rebytes = retries * static_cast<std::uint64_t>(bytes);
  if (d.drop || d.duplicate || d.delay > vt::Duration{}) {
    if (d.drop) counters_.drops += lost_attempts;
    if (d.duplicate) ++counters_.duplicates;
    if (d.delay > vt::Duration{}) ++counters_.delays;
    counters_.retries += retries;
    counters_.retransmit_bytes += rebytes;
    if (d.drop && d.delivered) ++counters_.recovered;
    if (d.retries_exhausted) ++counters_.timeouts;
  }
  if (obs::metrics_enabled()) {
    static auto& messages = obs::Registry::instance().counter("fault.messages");
    static auto& drops = obs::Registry::instance().counter("fault.drops");
    static auto& duplicates = obs::Registry::instance().counter("fault.duplicates");
    static auto& delays = obs::Registry::instance().counter("fault.delays");
    static auto& retries_c = obs::Registry::instance().counter("fault.retries");
    static auto& rebytes_c = obs::Registry::instance().counter("fault.retransmit_bytes");
    static auto& recovered_c = obs::Registry::instance().counter("fault.recovered");
    static auto& timeouts_c = obs::Registry::instance().counter("fault.timeouts");
    messages.add();
    if (d.drop) drops.add(lost_attempts);
    if (d.duplicate) duplicates.add();
    if (d.delay > vt::Duration{}) delays.add();
    if (retries != 0) retries_c.add(retries);
    if (rebytes != 0) rebytes_c.add(rebytes);
    if (d.drop && d.delivered) recovered_c.add();
    if (d.retries_exhausted) timeouts_c.add();
  }
  return d;
}

namespace {

std::uint64_t directed_link_key(int observer_node, int peer_node) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(observer_node)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(peer_node));
}

}  // namespace

void FaultEngine::note_block_failure(int observer_node, int peer_node) {
  ++link_failures_[directed_link_key(observer_node, peer_node)];
}

bool FaultEngine::link_degraded(int self_node, int peer_node) const {
  const auto it = link_failures_.find(directed_link_key(self_node, peer_node));
  return it != link_failures_.end() && it->second >= kLinkFailureThreshold;
}

}  // namespace clmpi::mpi
