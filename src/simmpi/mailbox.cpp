#include "simmpi/mailbox.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "simmpi/cluster_core.hpp"
#include "support/context.hpp"
#include "support/error.hpp"
#include "support/sched.hpp"

namespace clmpi::mpi::detail {

namespace {

/// Producer-side metric handles, resolved once (metric addresses are stable
/// for the process lifetime). Leaked so completion callbacks running during
/// static destruction still find them.
struct MailboxMetrics {
  obs::Counter& shard_hit = obs::Registry::instance().counter("simmpi.mailbox.shard_hit");
  obs::Counter& wildcard_slowpath =
      obs::Registry::instance().counter("simmpi.mailbox.wildcard_slowpath");
  obs::Counter& eager_inline =
      obs::Registry::instance().counter("simmpi.mailbox.eager_inline");
  obs::Counter& unexpected = obs::Registry::instance().counter("simmpi.mailbox.unexpected");
};

MailboxMetrics& metrics() {
  static auto* m = new MailboxMetrics();
  return *m;
}

std::exception_ptr drop_error(const Envelope& env) {
  return std::make_exception_ptr(MessageDroppedError(
      "injected fault: message from rank " + std::to_string(env.src_rank) + " tag " +
      std::to_string(env.tag) + " (" + std::to_string(env.bytes) + " B) lost in transit"));
}

/// Error for an undelivered envelope: TimeoutError when the retry budget
/// was exhausted, MessageDroppedError for an unrecovered plain drop.
std::exception_ptr fail_error(const Envelope& env) {
  if (env.fault_timeout) {
    return std::make_exception_ptr(TimeoutError(
        "retransmission budget exhausted: message from rank " +
        std::to_string(env.src_rank) + " tag " + std::to_string(env.tag) + " (" +
        std::to_string(env.bytes) + " B) lost after " +
        std::to_string(env.fault_attempts) + " attempts"));
  }
  return drop_error(env);
}

/// Feed the link-health estimate behind the pipelined->pinned fallback.
/// CRITICAL: the observer's directed count is bumped only at the moment the
/// observer's OWN request completes with the failure — the sender when its
/// send request fails, the receiver when its receive fails. An endpoint's
/// view then reflects exactly the operations it has completed, so in a
/// lockstep workload both ends of a channel agree at every operation
/// boundary, and neither can observe the current operation's in-flight
/// losses at strategy-resolution time (resolve precedes the posts). Bumping
/// at decide()/post time instead would let an eager sender that runs ahead
/// publish losses the receiver sees mid-operation — the two ends would then
/// derive different fallbacks and deadlock on mismatched wire tags.
void note_link_failure(Network* net, const Envelope& env, int dst_node, bool sender_observed,
                       bool receiver_observed) {
  if (env.wire_decomp == wire_decomp_unset || env.wire_decomp == 0) return;
  FaultEngine* faults = net->faults();
  if (faults == nullptr) return;
  if (sender_observed) faults->note_block_failure(env.src_node, dst_node);
  if (receiver_observed) faults->note_block_failure(dst_node, env.src_node);
}

std::string describe_decomp(std::size_t decomp) {
  if (decomp == wire_decomp_unset) return "unset";
  if (decomp == 0) return "single message";
  return "pipelined blocks of " + std::to_string(decomp) + " B";
}

}  // namespace

// --- CompletionQueue --------------------------------------------------------

void CompletionQueue::fire(Completion& c) {
  if (c.error) {
    c.req->fail(c.when, std::move(c.error));
  } else {
    c.req->complete(c.when, c.st);
  }
}

void CompletionQueue::settle_batch(std::vector<Completion>& batch) {
  if (draining_) {
    // Re-entered from a callback of the batch being fired: fire after it.
    for (Completion& c : batch) queue_.push_back(std::move(c));
    return;
  }
  draining_ = true;
  for (Completion& c : batch) fire(c);
  while (!queue_.empty()) {
    Completion c = std::move(queue_.front());
    queue_.pop_front();
    fire(c);
  }
  draining_ = false;
}

// --- Mailbox ----------------------------------------------------------------

bool Mailbox::matches(const Envelope& env, const PostedRecv& pr) {
  return env.context == pr.context &&
         (pr.src_rank == any_source || pr.src_rank == env.src_rank) &&
         (pr.tag == any_tag || pr.tag == env.tag);
}

bool Mailbox::key_matches(const ChannelKey& k, int src_rank, int tag,
                          int context) noexcept {
  return k.context == context && (src_rank == any_source || src_rank == k.src_rank) &&
         (tag == any_tag || tag == k.tag);
}

std::size_t Mailbox::ChannelHash::operator()(const ChannelKey& k) const noexcept {
  std::uint64_t h = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.src_rank)) << 32) ^
                    static_cast<std::uint32_t>(k.tag);
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.context)) << 13;
  h *= 0x9E3779B97F4A7C15ull;
  h ^= h >> 32;
  return static_cast<std::size_t>(h);
}

namespace {

/// Pipeline blocks k = first..last of one channel, still pending on one
/// side while block 0 is not: the other side matched blocks 0..first-1 and
/// has no more.
struct OrphanBlocks {
  int src_rank;
  int base;  ///< subtag of block 0
  int first;
  int last;
  std::size_t decomp;  ///< the pending side's wire decomposition
};

/// The first orphan run among `queues` (unexpected sends or posted
/// receives, keyed by exact channel) whose head `involved` accepts.
template <typename Queues, typename Involved>
std::optional<OrphanBlocks> find_orphan_blocks(const Queues& queues, Involved&& involved) {
  constexpr int kFirst = pipeline_subtag(0, 0);
  for (const auto& [key, fifo] : queues) {
    if (fifo.empty() || key.tag < kFirst || !involved(fifo.front())) continue;
    const int base = key.tag - (key.tag - kFirst) % 64;
    const auto pending = [&](int k) {
      if (k >= 64) return false;
      const auto it = queues.find(typename Queues::key_type{key.src_rank, base + k, key.context});
      return it != queues.end() && !it->second.empty();
    };
    if (pending(0)) continue;
    int first = key.tag - base;
    int last = first;
    while (pending(first - 1)) --first;
    while (pending(last + 1)) ++last;
    return OrphanBlocks{key.src_rank, base, first, last, fifo.front().wire_decomp};
  }
  return std::nullopt;
}

}  // namespace

std::string Mailbox::describe_block_mismatch(int node) const {
  // Sends left unexpected: the receiver posted fewer blocks. Receives left
  // posted: the sender sent fewer blocks.
  const char* longer = "sender";
  const char* shorter = "receiver";
  std::optional<OrphanBlocks> run = find_orphan_blocks(
      unexpected_, [&](const Envelope& env) { return node_ == node || env.src_node == node; });
  if (!run) {
    std::swap(longer, shorter);
    run = find_orphan_blocks(posted_, [&](const PostedRecv&) { return node_ == node; });
  }
  if (!run) return {};
  return "pipelined block-count mismatch on tag " +
         std::to_string((run->base - pipeline_subtag(0, 0)) / 64) + " from rank " +
         std::to_string(run->src_rank) + " to rank " + std::to_string(node_) + ": the " +
         longer + "'s wire decomposition is " + std::to_string(run->last + 1) + " " +
         describe_decomp(run->decomp) + ", the " + shorter + "'s has " +
         std::to_string(run->first) + " block(s); blocks " + std::to_string(run->first) +
         ".." + std::to_string(run->last) + " can never match";
}

void Mailbox::withdraw(const ctx::ExecContext* poster, const RequestState* req,
                       std::vector<std::shared_ptr<RequestState>>& out) {
  const auto take = [&](const ctx::ExecContext* by, const std::shared_ptr<RequestState>& r) {
    if ((poster != nullptr && by != poster) || (req != nullptr && r.get() != req) ||
        r->done()) {
      return false;
    }
    out.push_back(r);
    return true;
  };
  const auto recv = [&](const PostedRecv& pr) { return take(pr.poster, pr.rreq); };
  for (auto& [key, fifo] : posted_) fifo.erase_if(recv);
  std::erase_if(wild_posted_, recv);
  for (auto& [key, fifo] : unexpected_) {
    fifo.erase_if([&](const Envelope& env) { return take(env.poster, env.sreq); });
  }
}

void Mailbox::require_owner() const {
  CLMPI_REQUIRE(core_->closed || sched::current_strand() == core_->strand,
                "mailbox touched from outside its cluster's strand");
}

Mailbox::Fifo<Envelope>* Mailbox::find_unexpected(int src_rank, int tag, int context) {
  if (src_rank != any_source && tag != any_tag) {
    auto it = unexpected_.find(ChannelKey{src_rank, tag, context});
    return (it != unexpected_.end() && !it->second.empty()) ? &it->second : nullptr;
  }
  // Wildcard: the oldest arrival across every matching channel.
  if (obs::metrics_enabled()) metrics().wildcard_slowpath.add();
  Fifo<Envelope>* best = nullptr;
  for (auto& [key, q] : unexpected_) {
    if (q.empty() || !key_matches(key, src_rank, tag, context)) continue;
    if (best == nullptr || q.front().seq < best->front().seq) best = &q;
  }
  return best;
}

void Mailbox::settle(std::vector<Completion>& batch) {
  if (batch.empty()) return;
  completions_.settle_batch(batch);
}

vt::Resource::Span Mailbox::charge_attempts(const Envelope& env, vt::TimePoint ready,
                                            double bw_cap) {
  auto span = net_->transfer(env.src_node, node_, ready, env.bytes, bw_cap);
  if (env.fault_attempts > 1) {
    // Acked retransmission: attempt k goes out after an exponential backoff
    // in virtual time from the previous attempt's loss detection (the close
    // of its transfer window). Each retransmission occupies the wire again
    // and is visible in the trace as a "retry" span.
    const RetryPolicy& retry = net_->faults()->plan().retry;
    for (int k = 1; k < env.fault_attempts; ++k) {
      span = net_->transfer(env.src_node, node_, span.end + retry.backoff(k), env.bytes,
                            bw_cap, "retry");
    }
  }
  if (env.fault_dup) {
    // Spurious retransmission: the wire carries the payload again back-to-back.
    span = net_->transfer(env.src_node, node_, span.end, env.bytes, bw_cap);
  }
  return span;
}

void Mailbox::inject_eager(Envelope& env, std::vector<Completion>& out) {
  // Eager protocol: inject onto the wire immediately; the sender's buffer is
  // reusable after injection, so copy the payload out first. Small payloads
  // go to the envelope's inline store (no allocation).
  if (env.fault_delivered && env.bytes > 0) {
    if (env.bytes <= Envelope::kInlineEagerBytes) {
      std::memcpy(env.inline_store.data(), env.payload.data(), env.bytes);
      env.inlined = true;
      if (obs::metrics_enabled()) metrics().eager_inline.add();
    } else {
      env.eager_copy.assign(env.payload.begin(), env.payload.end());
    }
  }
  env.payload = {};
  const auto span = charge_attempts(env, env.post_time, env.bw_cap);
  env.arrival = span.end;
  env.injected = true;
  if (!env.fault_delivered) {
    note_link_failure(net_, env, node_, /*sender_observed=*/true, /*receiver_observed=*/false);
    out.push_back({env.sreq, span.end, MsgStatus{}, fail_error(env)});
  } else {
    out.push_back({env.sreq, span.end, MsgStatus{env.src_rank, env.tag, env.bytes}, nullptr});
  }
}

void Mailbox::post_send(Envelope env) {
  require_owner();
  if (FaultEngine* faults = net_->faults()) {
    const FaultDecision d =
        faults->decide(env.src_node, node_, env.context, env.tag, env.bytes);
    env.post_time += d.delay;
    env.fault_drop = d.drop;
    env.fault_dup = d.duplicate;
    env.fault_attempts = d.wire_attempts;
    env.fault_delivered = d.delivered;
    env.fault_timeout = d.retries_exhausted;
    // Block-level losses feed the link-health estimate behind the
    // pipelined->pinned fallback, but the bump is deferred to the moment
    // each endpoint's own request fails (see note_link_failure) — never
    // here, where an eager sender running ahead of its receiver would
    // publish the loss mid-operation and desynchronize the two ends'
    // fallback decisions.
  }

  std::vector<Completion> batch;
  const ChannelKey key{env.src_rank, env.tag, env.context};
  auto sit = posted_.find(key);
  Fifo<PostedRecv>* sq = (sit != posted_.end() && !sit->second.empty()) ? &sit->second : nullptr;
  // The earliest-posted matching receive wins: a wildcard one when its
  // stamp precedes the channel FIFO's head.
  auto wit = std::find_if(wild_posted_.begin(), wild_posted_.end(),
                          [&](const PostedRecv& p) { return matches(env, p); });
  if (wit != wild_posted_.end() && (sq == nullptr || wit->seq < sq->front().seq)) {
    PostedRecv pr = std::move(*wit);
    wild_posted_.erase(wit);
    if (obs::metrics_enabled()) metrics().shard_hit.add();
    deliver(env, pr, batch);
  } else if (sq != nullptr) {
    PostedRecv pr = sq->pop_front();
    if (obs::metrics_enabled()) metrics().shard_hit.add();
    deliver(env, pr, batch);
  } else {
    // The eager wire charge is recorded before the envelope becomes
    // visible, so a later receive never charges it again.
    if (env.eager) inject_eager(env, batch);
    env.seq = seq_++;
    unexpected_[key].push_back(std::move(env));
    if (obs::metrics_enabled()) metrics().unexpected.add();
  }
  settle(batch);
}

void Mailbox::post_recv(PostedRecv pr) {
  require_owner();
  const bool wildcard = pr.src_rank == any_source || pr.tag == any_tag;
  Fifo<Envelope>* q = find_unexpected(pr.src_rank, pr.tag, pr.context);
  if (q == nullptr) {
    pr.seq = seq_++;
    if (wildcard) {
      wild_posted_.push_back(std::move(pr));
    } else {
      const ChannelKey key{pr.src_rank, pr.tag, pr.context};
      posted_[key].push_back(std::move(pr));
    }
    return;
  }
  if (!wildcard && obs::metrics_enabled()) metrics().shard_hit.add();
  Envelope env = q->pop_front();
  std::vector<Completion> batch;
  deliver(env, pr, batch);
  settle(batch);
}

std::pair<MsgStatus, vt::TimePoint> Mailbox::probe(int src_rank, int tag, int context) {
  require_owner();
  Fifo<Envelope>* q = nullptr;
  sched::wait([&] { return (q = find_unexpected(src_rank, tag, context)) != nullptr; },
              "mpi.probe");
  // Read before this fiber yields again: nothing can consume it meanwhile.
  const Envelope& e = q->front();
  const vt::TimePoint available = (e.eager && e.injected) ? e.arrival : e.post_time;
  return {MsgStatus{e.src_rank, e.tag, e.bytes}, available};
}

std::optional<MsgStatus> Mailbox::iprobe(int src_rank, int tag, int context) {
  require_owner();
  const Fifo<Envelope>* q = find_unexpected(src_rank, tag, context);
  if (q == nullptr) return std::nullopt;
  const Envelope& e = q->front();
  return MsgStatus{e.src_rank, e.tag, e.bytes};
}

void Mailbox::deliver(Envelope& env, PostedRecv& pr, std::vector<Completion>& out) {
  const MsgStatus st{env.src_rank, env.tag, env.bytes};
  if (env.eager && !env.injected) {
    // The receive was posted first, so the eager injection was not
    // recorded in post_send. Charge the wire exactly as
    // post_send would have — at the *send's* post time with the sender's
    // cap — so the virtual timeline does not depend on which side arrived
    // at the mailbox first.
    const auto span = charge_attempts(env, env.post_time, env.bw_cap);
    env.arrival = span.end;
    env.injected = true;
    if (!env.fault_delivered) {
      note_link_failure(net_, env, node_, /*sender_observed=*/true,
                        /*receiver_observed=*/false);
      out.push_back({env.sreq, span.end, MsgStatus{}, fail_error(env)});
    } else {
      out.push_back({env.sreq, span.end, st, nullptr});
    }
  }

  // A matched pair that cannot be delivered is a user error. It fails as
  // typed completions, never as a throw: deliver runs on whichever task
  // posted second, so a throw would unwind that task and leave the other
  // endpoint's request pending forever.
  std::exception_ptr mismatch;
  if (env.wire_decomp != wire_decomp_unset && pr.wire_decomp != wire_decomp_unset &&
      env.wire_decomp != pr.wire_decomp) {
    // Both endpoints of a transfer-layer message must agree on the wire
    // decomposition; a forced-strategy mismatch would otherwise surface as
    // an obscure truncation (or short read) below.
    mismatch = std::make_exception_ptr(PreconditionError(
        "wire decomposition mismatch between forced transfer strategies: sender uses " +
        describe_decomp(env.wire_decomp) + ", receiver expects " +
        describe_decomp(pr.wire_decomp) + " (tag " + std::to_string(env.tag) + ", " +
        std::to_string(env.bytes) + " B)"));
  } else if (env.bytes > pr.buffer.size()) {
    mismatch = std::make_exception_ptr(PreconditionError(
        "message truncation: received message (" + std::to_string(env.bytes) +
        " B) larger than the posted buffer (" + std::to_string(pr.buffer.size()) + " B)"));
  }
  if (mismatch) {
    // The receive fails when it would have completed. An eager sender
    // already completed at injection; a rendezvous sender waits on this
    // match, so it fails with the receive.
    const vt::TimePoint when =
        env.eager ? vt::max(env.arrival, pr.post_time) : vt::max(env.post_time, pr.post_time);
    if (!env.eager) out.push_back({env.sreq, when, MsgStatus{}, mismatch});
    out.push_back({pr.rreq, when, MsgStatus{}, mismatch});
    return;
  }

  if (env.eager) {
    // The receive completes at max(arrival, recv post time).
    const vt::TimePoint when = vt::max(env.arrival, pr.post_time);
    if (!env.fault_delivered) {
      note_link_failure(net_, env, node_, /*sender_observed=*/false,
                        /*receiver_observed=*/true);
      out.push_back({pr.rreq, when, MsgStatus{}, fail_error(env)});
      return;
    }
    if (env.bytes > 0) {
      const std::byte* src = !env.payload.empty() ? env.payload.data()
                             : env.inlined       ? env.inline_store.data()
                                                 : env.eager_copy.data();
      std::memcpy(pr.buffer.data(), src, env.bytes);
    }
    out.push_back({pr.rreq, when, st, nullptr});
    return;
  }

  // Rendezvous: the transfer starts once both sides are ready; either
  // endpoint's bandwidth cap limits the effective rate.
  const vt::TimePoint ready = vt::max(env.post_time, pr.post_time);
  const auto span = charge_attempts(env, ready, std::min(env.bw_cap, pr.bw_cap));
  if (!env.fault_delivered) {
    // The loss surfaces when the final transfer window closes: a defined
    // error on BOTH endpoints at that virtual time, never a hang.
    note_link_failure(net_, env, node_, /*sender_observed=*/true, /*receiver_observed=*/true);
    out.push_back({env.sreq, span.end, MsgStatus{}, fail_error(env)});
    out.push_back({pr.rreq, span.end, MsgStatus{}, fail_error(env)});
    return;
  }
  if (env.bytes > 0) {
    const std::byte* src = !env.payload.empty() ? env.payload.data()
                           : env.inlined       ? env.inline_store.data()
                                               : env.eager_copy.data();
    std::memcpy(pr.buffer.data(), src, env.bytes);
  }
  out.push_back({env.sreq, span.end, st, nullptr});
  out.push_back({pr.rreq, span.end, st, nullptr});
}

}  // namespace clmpi::mpi::detail
