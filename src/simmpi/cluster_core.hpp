// Shared state of a running simulated cluster (internal).
//
// Single owner: everything here belongs to the run's strand. Its rank,
// dispatcher, queue-worker and collective-progression fibers never run at
// the same time, so nothing below is locked; the mailboxes, command queues
// and runtimes check at their entry points that the caller runs on
// `strand`. The only exception is the teardown after the strand closed,
// which runs with `closed` set on the worker that closed it, off any strand.
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <unordered_map>
#include <vector>

#include "simmpi/fault.hpp"
#include "simmpi/mailbox.hpp"
#include "simmpi/network.hpp"
#include "simmpi/request.hpp"
#include "support/sched.hpp"
#include "support/tenant.hpp"
#include "systems/profile.hpp"
#include "vt/clock.hpp"
#include "vt/tracer.hpp"

namespace clmpi::mpi::detail {

struct WindowShared;  // window.cpp: shared state of one RMA window

struct ClusterCore {
  const sys::SystemProfile* profile{nullptr};
  vt::Tracer* tracer{nullptr};
  /// Tenancy control block when this cluster runs as a service job; null in
  /// standalone mode (every hook below is then skipped). Quotas are charged
  /// at the comm/pool allocation points; the cancel flag is observed at
  /// cancellation points and enforced on blocked operations via
  /// fail_pending_as_cancelled.
  tenant::JobControl* job{nullptr};
  /// Fault oracle; null unless Cluster::Options::faults is enabled. Must
  /// outlive `network`, which holds a raw pointer to it.
  std::unique_ptr<FaultEngine> faults;
  std::unique_ptr<Network> network;
  std::deque<Mailbox> mailboxes;  ///< one per node, indexed by global node id
  int next_context{1};

  /// The run's strand tag, set before the strand opens; `closed` is set once
  /// it closed (every fiber finished) and its worker tears the run down.
  std::uint64_t strand{0};
  bool closed{false};

  /// The cluster's liveness backstop, run as the idle task of the run's
  /// strand: serialized with the rank fibers, after a pass in which none of
  /// them made progress, so nothing but a rescue can settle a pending
  /// operation. It fails a cancelled job's pending operations, then the
  /// pending deadline-armed operation with the earliest virtual deadline
  /// (ties: registration order) — the next event on the virtual timeline,
  /// one per idle pass; failing both, the deadlock verdict
  /// (fail_deadlocked). Returns whether it resolved anything.
  bool backstop();

  /// Fail the wait of sched::deadlock_target(), and the operations that
  /// task posted, with deadlock_error(). False when no wait can be failed.
  bool fail_deadlocked();

  /// A PreconditionError when a pipelined send of the target's rank has
  /// mismatched block counts, else a DeadlockError naming every rank's
  /// blocked site and the failed rank's virtual time.
  [[nodiscard]] std::exception_ptr deadlock_error(const ctx::ExecContext& target) const;

  /// Withdraw the pending operations `poster` (every task when null) queued
  /// in the mailboxes and fail them with `error`; whether there were any.
  bool fail_posted(const ctx::ExecContext* poster, const std::exception_ptr& error);

  /// RMA window-creation rendezvous slots, keyed (context << 32) | win_seq.
  /// A slot only lives for the duration of one collective create_window call
  /// (the participating ranks erase it once all have their shared pointer).
  std::unordered_map<std::uint64_t, std::shared_ptr<WindowShared>> windows;

  /// Auxiliary runtime services (non-blocking collective progression),
  /// fibers on the run's strand. Registered here so the teardown joins them
  /// before tearing the cluster down — a progression task must never
  /// outlive the mailboxes.
  std::vector<sched::ServiceHandle> aux_services;

  void register_aux_service(sched::ServiceHandle s) { aux_services.push_back(std::move(s)); }

  /// Per rank, for the deadlock verdict: its fiber's context and its clock,
  /// both null once the body returned. Sized by Cluster::start.
  struct RankState {
    const ctx::ExecContext* task{nullptr};
    const vt::Clock* clock{nullptr};
  };
  std::vector<RankState> ranks;

  /// Every deadline-armed point-to-point operation registers its request
  /// state at post time, so the backstop fails it as CLMPI_TIMEOUT at its
  /// VIRTUAL deadline even when no task waits on it.
  void register_pending(std::shared_ptr<RequestState> state);
  /// When the job's cancel flag is up, withdraw every pending operation
  /// from the mailboxes and fail it with CancelledError, so blocked waiters
  /// wake instead of hanging on peers that already unwound (the
  /// cancellation points in the post paths do the prompt part). Returns
  /// whether it failed any.
  bool fail_pending_as_cancelled();

  std::vector<std::weak_ptr<RequestState>> pending_ops;
};

}  // namespace clmpi::mpi::detail
