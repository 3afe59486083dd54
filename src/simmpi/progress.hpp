// Progress engine (internal): counters.
//
// Progress is driven by the code that needs it, and none of it may move a
// single virtual timestamp:
//
//   * Continuations (request.hpp): completion callbacks chain async stages
//     without a fiber parked in wait(); the blocking waits are thin shims.
//   * Backstop (ClusterCore::backstop): the idle task of the run's strand
//     fires cancel and deadline rescues whenever a pass over the rank fibers
//     made no progress, so an operation nothing blocks on still resolves.
//   * Persistent requests (comm.hpp): send_init/recv_init resolve a p2p
//     operation once; start() replays it as a plain isend/irecv would.
//
// Every send is posted straight to the destination mailbox.
#pragma once

#include "obs/metrics.hpp"

namespace clmpi::mpi::detail {

/// progress.* counter handles, resolved once and leaked (same pattern as the
/// mailbox metrics: completion callbacks may run during static destruction).
struct ProgressMetrics {
  obs::Counter& continuations =
      obs::Registry::instance().counter("progress.continuations");
  obs::Counter& blocking_waits =
      obs::Registry::instance().counter("progress.blocking_waits");
  obs::Counter& rescued_waits =
      obs::Registry::instance().counter("progress.rescued_waits");
  obs::Counter& persistent_inits =
      obs::Registry::instance().counter("progress.persistent.inits");
  obs::Counter& persistent_starts =
      obs::Registry::instance().counter("progress.persistent.starts");
};

ProgressMetrics& progress_metrics();

}  // namespace clmpi::mpi::detail
