// One-sided communication: MPI-3 style windows with fence synchronization.
//
// A Win exposes a region of each rank's memory for remote Put/Get. The
// consistency model is the classic active-target fence discipline:
//
//   fence();           // opens an access epoch on every rank
//   win.put(...);      // accesses are POSTED, not performed
//   win.get(...);
//   fence();           // closes the epoch: all accesses complete here
//
// Accesses are deferred: posting records the operation (Put payloads are
// captured by value) and the closing fence applies every pending access of
// the epoch. Application order is deterministic — operations are sorted by
// (origin rank, per-origin program order), all Gets are applied first
// (reading the window as it stood when the epoch closed, before any Put of
// the same epoch lands), then all Puts (so overlapping Puts resolve to the
// highest (origin, index), independent of thread scheduling). This is a
// legal linearization of the MPI fence model, chosen for reproducibility.
//
// Faults: the wire leg of each access consults the cluster's FaultEngine
// (same deterministic per-channel verdicts as two-sided traffic; RMA uses a
// reserved negative tag space so it cannot perturb send/recv sequences). A
// lost access surfaces as MessageDroppedError / TimeoutError at the CLOSING
// FENCE on BOTH endpoints — never earlier, so every rank always reaches its
// fence and the protocol cannot hang on an injected fault.
//
// Wire tiers: on systems with a shared-memory fabric (sys::ShmemModel) the
// access travels one-sided through the fabric ports; otherwise it is charged
// on the NIC like a two-sided message. RmaOptions::path selects explicitly;
// the default follows the profile.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "vt/clock.hpp"
#include "vt/completion.hpp"
#include "vt/resource.hpp"
#include "vt/time.hpp"

namespace clmpi::mpi {

class Comm;

namespace detail {
struct WindowShared;
}

/// Which wire tier carries an RMA access.
enum class RmaPath {
  automatic,  ///< shmem when the profile has it, NIC otherwise
  shmem,      ///< require the shared-memory fabric (post fails without one)
  wire,       ///< force the NIC path even when shmem exists
};

struct RmaOptions {
  RmaPath path{RmaPath::automatic};
  /// Per-access deadline relative to the access's ready time; zero = none.
  /// An access completing later on the virtual timeline fails with
  /// TimeoutError at exactly ready + deadline (surfaced at the fence).
  vt::Duration deadline{};
};

/// Charged on the target side of an access against target-local resources:
/// `ingress(ready, bytes)` lands a Put into the target's real storage (e.g.
/// an H2D DMA when the window lives in device memory); `egress` stages a
/// Get's bytes out before the wire. Return the occupied span.
using StageHook = std::function<vt::Resource::Span(vt::TimePoint ready, std::size_t bytes)>;

/// Origin-side landing of a Get: receives the fetched bytes and the wire's
/// end time, performs the copy (plus any origin-local staging cost), and
/// returns the time the data is usable at the origin.
using RmaSink = std::function<vt::TimePoint(vt::TimePoint wire_end,
                                            std::span<const std::byte> data)>;

/// Invoked when a posted access completes at the closing fence: `end` is its
/// completion time; `error` is null on success, or carries the typed failure
/// (MessageDroppedError / TimeoutError / Error with Status::rma_epoch when
/// the window was freed underneath the access).
using RmaCompletion = vt::Completion::Callback;

/// Per-rank handle to a window (copyable, shared-state). Obtain from
/// create_window; all ranks of the communicator must participate in every
/// fence and in free (both are collective).
class Win {
 public:
  Win() = default;  ///< empty handle; valid() == false

  [[nodiscard]] bool valid() const noexcept { return shared_ != nullptr; }
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const;
  /// Completed fence rounds so far (the first fence opens epoch 1's access
  /// period and completes round 1).
  [[nodiscard]] int epochs() const;
  /// Whether an access epoch is currently open on this window.
  [[nodiscard]] bool epoch_open() const;
  /// Size in bytes of `target`'s exposed region. Throws the same typed
  /// errors as posting (Status::invalid_rank / invalid_window), which lets
  /// callers validate access bounds eagerly at enqueue time.
  [[nodiscard]] std::size_t region_size(int target) const;

  // --- posting accesses (explicit ready time; runtime-facing) --------------
  //
  // Both forms record the access and return immediately; the wire happens at
  // the closing fence. Posting outside an open epoch, past the end of the
  // target's region, to an out-of-range rank, or on a freed window throws a
  // typed Error (Status::rma_epoch / invalid_value / invalid_rank /
  // invalid_window). Zero-size accesses are legal (latency-only wire).

  /// Put: `payload` is captured by value (the origin buffer is reusable as
  /// soon as the call returns). `on_complete` (optional) fires at the
  /// closing fence with the access's completion time or typed error.
  void put(std::vector<std::byte> payload, int target, std::size_t target_offset,
           vt::TimePoint ready, RmaOptions opts = {}, RmaCompletion on_complete = nullptr);

  /// Get: at the closing fence, `sink` receives the fetched bytes (read from
  /// the target's region BEFORE any Put of the same epoch lands) and returns
  /// the origin-side landing time.
  void get(RmaSink sink, std::size_t size, int target, std::size_t target_offset,
           vt::TimePoint ready, RmaOptions opts = {}, RmaCompletion on_complete = nullptr);

  // --- posting accesses (clock-driven; host-facing) ------------------------

  /// Put from a host buffer (copied at post time).
  void put(std::span<const std::byte> data, int target, std::size_t target_offset,
           vt::Clock& clock, RmaOptions opts = {});

  /// Get into a host buffer. `dest` must stay valid until the closing fence,
  /// which performs the copy.
  void get(std::span<std::byte> dest, int target, std::size_t target_offset,
           vt::Clock& clock, RmaOptions opts = {});

  // --- synchronization ------------------------------------------------------

  /// Collective fence: blocks until every rank of the window has fenced,
  /// applies all accesses posted since the previous fence, and opens the
  /// next epoch. Returns the round's completion time (the max over the
  /// rendezvous point and every applied access). Throws
  /// MessageDroppedError / TimeoutError if any access this rank originated
  /// OR was targeted by failed — after the protocol completed, so the window
  /// stays usable and every rank stays in lockstep.
  vt::TimePoint fence(vt::TimePoint ready);

  /// Clock-driven fence: fence(clock.now()) then sync the clock forward.
  void fence(vt::Clock& clock);

  /// Collective teardown. Pending (unfenced) accesses fail with
  /// Status::rma_epoch through their completions. After free the handle is
  /// invalid and further posts throw Status::invalid_window.
  void free(vt::Clock& clock);

 private:
  friend Win create_window(Comm& comm, std::span<std::byte> region, vt::Clock& clock,
                           StageHook ingress, StageHook egress);

  Win(std::shared_ptr<detail::WindowShared> shared, int rank)
      : shared_(std::move(shared)), rank_(rank) {}

  std::shared_ptr<detail::WindowShared> shared_;
  int rank_{-1};
};

/// Collective window creation: every rank of `comm` exposes `region` (may be
/// empty) and optionally provides target-side staging hooks (see StageHook).
/// Acts as a barrier; the first epoch is opened by the first fence.
Win create_window(Comm& comm, std::span<std::byte> region, vt::Clock& clock,
                  StageHook ingress = nullptr, StageHook egress = nullptr);

}  // namespace clmpi::mpi
