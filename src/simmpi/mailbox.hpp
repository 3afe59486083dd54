// Message matching engine (internal).
//
// One Mailbox per node holds the two classic MPI queues: posted receives and
// unexpected sends, matched FIFO on (context, source, tag) with wildcard
// support — which gives the MPI non-overtaking guarantee per (src,dst,tag)
// pair. Small messages are sent eagerly (wire transfer at send time, payload
// buffered at the receiver); large messages rendezvous with the posted
// receive, so their wire transfer starts at max(send time, recv time).
//
// Ownership: a mailbox belongs to its cluster's strand — the rank, service
// and dispatcher fibers that post to it run one at a time — so it holds no
// lock. Every entry point checks the caller is on that strand (or that the
// strand has closed, for the teardown backstop); a cross-strand access
// fails with PreconditionError instead of racing.
//
// Hot-path structure. The queues are indexed by the exact channel key
// (src_rank, tag, context) — specific matching is a hash lookup plus a pop
// from that channel's FIFO, never a linear scan. This is exact because
// matching is key-uniform: whether an envelope matches a *specific* receive
// depends only on the (src, tag, context) triple, so every entry of a
// channel FIFO matches the same receives and the head is always the first
// match in arrival order. Wildcard receives (any_source / any_tag) take a
// slow path that matches in global posting/arrival order via sequence
// stamps — taking the minimum stamp over the heads of the matching channel
// FIFOs, exactly as a single-queue full scan would.
//
// Matched deliveries fire their request completions (DMA charges, event
// completions) after the queues are updated. A settle started from inside
// a completion callback is queued and fires after the current batch, in
// FIFO order — this fixes the completion order, and with it the grant order
// of the virtual resources the callbacks charge.
//
// Small eager payloads (<= kInlineEagerBytes) are stored inline in the
// envelope instead of a heap-allocated copy — the eager fast path. All of
// this is wall-clock-only: virtual timings, traces and fault decisions are
// identical to a single-queue engine.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "simmpi/datatype.hpp"
#include "simmpi/network.hpp"
#include "simmpi/request.hpp"
#include "support/context.hpp"

namespace clmpi::mpi::detail {

/// Wire-decomposition fingerprint carried by both endpoints of a transfer-
/// layer message: 0 for a single full-size wire message, the block size for
/// a pipelined decomposition, `wire_decomp_unset` when the endpoint did not
/// come through the transfer layer. Debug builds verify that both endpoints
/// of a matched message agree (a forced-strategy mismatch otherwise fails
/// obscurely as truncation deep in the mailbox).
inline constexpr std::size_t wire_decomp_unset = std::numeric_limits<std::size_t>::max();

struct Envelope {
  int src_rank{0};   ///< comm-relative sender rank (matching key)
  int src_node{0};   ///< global node id (network timing)
  int tag{0};
  int context{0};
  std::size_t bytes{0};
  /// Rendezvous payload view: the sender's buffer, valid until sreq
  /// completes (the MPI buffer-reuse contract).
  std::span<const std::byte> payload;
  /// Eager payload storage: bytes copied out at send time. Payloads at or
  /// below kInlineEagerBytes land in `inline_store` (no allocation); larger
  /// eager payloads in `eager_copy`.
  std::vector<std::byte> eager_copy;
  static constexpr std::size_t kInlineEagerBytes = 256;
  std::array<std::byte, kInlineEagerBytes> inline_store;
  bool inlined{false};
  bool eager{false};
  /// True once the eager wire injection has been charged (in post_send);
  /// deliver must not charge it again.
  bool injected{false};
  vt::TimePoint post_time;  ///< sender-side ready time
  vt::TimePoint arrival;    ///< eager only: wire arrival time
  /// Effective wire bandwidth cap (bytes/s). Used by the mapped transfer
  /// strategy, where the NIC streams directly from mapped device memory and
  /// is limited by the mapped-access bandwidth.
  double bw_cap{std::numeric_limits<double>::infinity()};
  std::shared_ptr<RequestState> sreq;
  const ctx::ExecContext* poster{nullptr};  ///< posting task (Mailbox::withdraw)
  /// Fault-injection verdict (set by Mailbox::post_send when a FaultEngine
  /// is active). A dropped message still occupies the wire — the loss is
  /// detected when the transfer window closes. With retries disabled it then
  /// fails BOTH endpoints' requests with MessageDroppedError; with retries
  /// enabled the sender retransmits after an exponential backoff in virtual
  /// time, up to the retry budget. A duplicated message is retransmitted
  /// once more: the wire is charged an extra time.
  bool fault_drop{false};
  bool fault_dup{false};
  /// Total wire transmissions to charge (1 = clean; >1 = retransmissions).
  int fault_attempts{1};
  /// Whether the payload ultimately arrives (false = all attempts lost).
  bool fault_delivered{true};
  /// When !fault_delivered: the retry budget was exhausted, so the failure
  /// surfaces as TimeoutError rather than MessageDroppedError.
  bool fault_timeout{false};
  /// Global arrival-order stamp (wildcard matching across channels).
  std::uint64_t seq{0};
  std::size_t wire_decomp{wire_decomp_unset};
};

struct PostedRecv {
  int src_rank{any_source};  ///< expected comm-relative rank or any_source
  int tag{any_tag};
  int context{0};
  std::span<std::byte> buffer;
  vt::TimePoint post_time;
  /// Receiver-side wire bandwidth cap (see Envelope::bw_cap).
  double bw_cap{std::numeric_limits<double>::infinity()};
  std::shared_ptr<RequestState> rreq;
  const ctx::ExecContext* poster{nullptr};  ///< posting task (Mailbox::withdraw)
  /// Global posting-order stamp (ordering specific vs wildcard receives).
  std::uint64_t seq{0};
  std::size_t wire_decomp{wire_decomp_unset};
};

/// One settled endpoint of a matched (or eagerly injected) message.
struct Completion {
  std::shared_ptr<RequestState> req;
  vt::TimePoint when;
  MsgStatus st;
  std::exception_ptr error;  ///< null on success
};

/// Per-mailbox completion order. settle_batch fires `batch` in place; a
/// settle re-entered from one of its callbacks (a callback posting a
/// follow-up that matches on the same mailbox) is queued instead and fires
/// after the current batch, in FIFO order.
class CompletionQueue {
 public:
  void settle_batch(std::vector<Completion>& batch);

 private:
  static void fire(Completion& c);

  std::deque<Completion> queue_;
  bool draining_{false};
};

struct ClusterCore;

class Mailbox {
 public:
  /// `core` owns the mailbox: its strand is the only caller (see above).
  Mailbox(const ClusterCore& core, Network& net, int owner_node)
      : core_(&core), net_(&net), node_(owner_node) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Sender side: called by the source rank (or a service fiber acting for
  /// it) on the cluster's strand.
  void post_send(Envelope env);

  /// Receiver side.
  void post_recv(PostedRecv pr);

  /// MPI_Iprobe: peek at the unexpected queue without receiving.
  [[nodiscard]] std::optional<MsgStatus> iprobe(int src_rank, int tag, int context);

  /// MPI_Probe: block until a matching message is pending; returns its
  /// status and the virtual time at which it became observable (eager:
  /// wire arrival; rendezvous: the sender's post, when its envelope/header
  /// reaches the receiver).
  std::pair<MsgStatus, vt::TimePoint> probe(int src_rank, int tag, int context);

  /// Deadlock diagnosis: a pipelined send queued here, from or to `node`,
  /// whose receiver split it into fewer blocks, or a pipelined receive
  /// posted here, on `node`, whose sender split it into fewer blocks, so
  /// the later blocks can never match. Names both wire decompositions; empty
  /// when there is none.
  [[nodiscard]] std::string describe_block_mismatch(int node) const;

  /// Unlink every pending receive and rendezvous send `poster` (any task
  /// when null) queued here, or only `req` when given, and append their
  /// requests to `out`, for the caller to fail: no later match may touch
  /// the buffers of an operation the backstop failed. Queued eager sends
  /// already completed and stay.
  void withdraw(const ctx::ExecContext* poster, const RequestState* req,
                std::vector<std::shared_ptr<RequestState>>& out);

 private:
  /// Exact-match channel identity: the full matching key of a specific
  /// (no-wildcard) operation.
  struct ChannelKey {
    int src_rank;
    int tag;
    int context;
    bool operator==(const ChannelKey&) const = default;
  };
  struct ChannelHash {
    std::size_t operator()(const ChannelKey& k) const noexcept;
  };

  /// FIFO over a vector: O(1) amortized push_back/pop_front with the
  /// consumed prefix compacted lazily. A channel's queue is tiny (usually
  /// 0–2 entries) and reused across the channel's lifetime, so this beats a
  /// deque's per-queue block allocation by a wide margin.
  template <typename T>
  struct Fifo {
    std::vector<T> items;
    std::size_t head{0};

    [[nodiscard]] bool empty() const noexcept { return head >= items.size(); }
    [[nodiscard]] T& front() { return items[head]; }
    [[nodiscard]] const T& front() const { return items[head]; }
    void push_back(T v) { items.push_back(std::move(v)); }
    T pop_front() {
      T v = std::move(items[head++]);
      if (head >= items.size()) {
        items.clear();
        head = 0;
      } else if (head >= 32 && head * 2 >= items.size()) {
        // Bound the consumed prefix so a queue that never drains to empty
        // still releases its dead storage.
        items.erase(items.begin(),
                    items.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
      return v;
    }
    /// Unlink every queued entry `pred` selects, keeping the others' order.
    template <typename Pred>
    void erase_if(Pred pred) {
      const auto first = items.begin() + static_cast<std::ptrdiff_t>(head);
      items.erase(std::remove_if(first, items.end(), pred), items.end());
    }
  };

  static bool matches(const Envelope& env, const PostedRecv& pr);
  /// Key-uniform wildcard test: does every operation on channel `k` match a
  /// receive pattern of (src_rank, tag, context)?
  static bool key_matches(const ChannelKey& k, int src_rank, int tag,
                          int context) noexcept;

  /// Complete a matched pair: compute wire timing, copy bytes, queue both
  /// endpoints' completions onto `out`. The pair is already unlinked from
  /// the queues.
  void deliver(Envelope& env, PostedRecv& pr, std::vector<Completion>& out);

  /// Charge every wire transmission of the envelope — the first attempt,
  /// backoff-spaced retransmissions, and the duplicate retransmission —
  /// starting at `ready`; returns the span of the final transmission.
  vt::Resource::Span charge_attempts(const Envelope& env, vt::TimePoint ready,
                                     double bw_cap);

  /// Charge the eager wire injection of an unmatched send, before the
  /// envelope becomes visible to receivers; queues the sender completion.
  void inject_eager(Envelope& env, std::vector<Completion>& out);

  /// Fire `batch` (if non-empty) through the completion queue.
  void settle(std::vector<Completion>& batch);

  /// Owner check of every entry point: the caller runs on the cluster's
  /// strand, or the strand has closed (teardown backstop).
  void require_owner() const;

  /// The unexpected FIFO whose head is the first queued send a receive
  /// pattern matches: the channel's own FIFO for a specific pattern, the
  /// matching channel with the oldest head for a wildcard one (counted as
  /// simmpi.mailbox.wildcard_slowpath); nullptr when none.
  Fifo<Envelope>* find_unexpected(int src_rank, int tag, int context);

  const ClusterCore* core_;
  Network* net_;
  int node_;

  /// Channel-keyed FIFOs of unexpected sends and specific posted receives.
  /// Empty FIFOs are left in place — a reused channel (ping-pong,
  /// persistent replay) then never reallocates, and the wildcard scans skip
  /// them with one branch.
  std::unordered_map<ChannelKey, Fifo<Envelope>, ChannelHash> unexpected_;
  std::unordered_map<ChannelKey, Fifo<PostedRecv>, ChannelHash> posted_;

  /// Wildcard receives, ordered by posting stamp.
  std::deque<PostedRecv> wild_posted_;

  /// Global posting/arrival order stamps (monotone, not dense).
  std::uint64_t seq_{0};

  CompletionQueue completions_;
};

}  // namespace clmpi::mpi::detail
