// Shared helpers for the test suites.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string>

#include "simmpi/cluster.hpp"
#include "support/sched.hpp"
#include "systems/profile.hpp"
#include "vt/tracer.hpp"

namespace clmpi::testutil {

/// Worker counts of the worker-count gates: the same workload must give the
/// same trace hash, makespan and fault counters on each.
inline constexpr std::array<int, 3> kGateWorkers{1, 4, 16};

/// A fiber pool of `workers` workers, to hand to
/// Cluster::Options::scheduler.
inline std::unique_ptr<sched::Scheduler> make_pool(int workers) {
  return std::make_unique<sched::Scheduler>(sched::Scheduler::Options{.workers = workers});
}

/// Run `body` as the only rank of a one-rank cluster, so it executes on a
/// scheduler strand — where command queues, their worker fibers and
/// blocking event waits live. An exception escaping `body` is rethrown.
inline void on_strand(const std::function<void()>& body) {
  mpi::Cluster::Options o;
  o.nranks = 1;
  o.profile = &sys::cichlid();
  mpi::Cluster::run(o, [&](mpi::Rank&) { body(); });
}

/// Failure message naming the first span at which two traces differ.
inline std::string divergence(const vt::Tracer& a, const vt::Tracer& b) {
  const auto d = vt::Tracer::first_divergence(a, b);
  return d ? "first divergence:\n" + vt::to_string(*d) : "traces hold the same spans";
}

}  // namespace clmpi::testutil
