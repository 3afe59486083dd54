// Per-job tenancy control block: quotas, cancellation, usage accounting.
//
// One JobControl exists per service-hosted job (svc::Service owns it for the
// job's whole lifetime). It is deliberately a *support*-layer type: the
// staging buffers (transfer), the mailbox/comm layer (simmpi) and the cluster
// launcher all enforce against it at their allocation points, and none of
// them may depend on the service layer above. A null JobControl* anywhere
// means "not a service job" — every hook is skipped and behaviour is exactly
// the pre-service runtime.
//
// Quota semantics: limits are per job (not per rank). A limit of 0 means
// unlimited. Enforcement throws the typed QuotaError on the allocating
// task's own thread/fiber, so a job that overruns fails itself — it can
// never starve a co-tenant job or the service process.
//
// Everything here is wall-clock-only bookkeeping on relaxed atomics: charging
// a quota never touches virtual time, so a job's trace hash and makespan are
// identical with quotas armed (and under the limit) or not armed at all.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "support/error.hpp"

namespace clmpi::tenant {

/// Per-job resource limits; 0 = unlimited. Enforced at allocation points
/// (see JobControl) with typed Status::quota_exceeded failures.
struct JobQuotas {
  /// Max staging bytes in flight for the job: the exact bytes of the host
  /// bounce buffers its transfers hold.
  std::size_t staging_bytes{0};
  /// Max pending point-to-point operations (posted sends + receives not yet
  /// settled) across all ranks of the job.
  std::size_t mailbox_depth{0};
  /// Max simulated ranks the job may ask for; checked at cluster launch.
  int max_ranks{0};
};

namespace detail {
/// Monotone high-water publication on a relaxed atomic.
inline void raise_hwm(std::atomic<std::size_t>& hwm, std::size_t v) noexcept {
  std::size_t seen = hwm.load(std::memory_order_relaxed);
  while (seen < v && !hwm.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// Shared control block of one service job. The service sets `cancelled`
/// (explicit cancel) and the wall-clock deadline; the runtime charges usage
/// and observes both at its cancellation points.
class JobControl {
 public:
  using Clock = std::chrono::steady_clock;

  /// `deadline_s`: wall seconds from now until the job is overdue; 0 = none.
  JobControl(std::uint64_t job_id, JobQuotas q, double deadline_s = 0.0)
      : id_(job_id),
        quotas_(q),
        deadline_(deadline_s > 0.0 ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                         std::chrono::duration<double>(deadline_s))
                                   : Clock::time_point::max()) {}

  JobControl(const JobControl&) = delete;
  JobControl& operator=(const JobControl&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] const JobQuotas& quotas() const noexcept { return quotas_; }

  // --- cancellation ---------------------------------------------------------

  /// Request cancellation. Idempotent; returns true on the first call (the
  /// one that flipped the flag).
  bool request_cancel() noexcept { return !cancelled_.exchange(true, std::memory_order_relaxed); }

  /// Cancelled, or past the deadline (the clock is read only if one is set).
  [[nodiscard]] bool cancel_requested() const noexcept {
    return cancelled_.load(std::memory_order_relaxed) ||
           (has_deadline() && Clock::now() >= deadline_);
  }

  [[nodiscard]] bool has_deadline() const noexcept { return deadline_ != Clock::time_point::max(); }
  [[nodiscard]] Clock::time_point deadline() const noexcept { return deadline_; }

  /// Cancellation point: throw CancelledError when cancellation was
  /// requested. `where` names the point for the error message.
  void check_cancelled(const char* where) const {
    if (cancel_requested()) {
      throw CancelledError(std::string("job ") + std::to_string(id_) + " cancelled at " +
                           where);
    }
  }

  // --- staging bytes --------------------------------------------------------

  /// Reserve `bytes` of staging quota; throws QuotaError (and counts the
  /// denial) when the reservation would exceed the limit.
  void charge_staging(std::size_t bytes) {
    const std::size_t now =
        staging_in_use_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (quotas_.staging_bytes != 0 && now > quotas_.staging_bytes) {
      staging_in_use_.fetch_sub(bytes, std::memory_order_relaxed);
      staging_denials_.fetch_add(1, std::memory_order_relaxed);
      throw QuotaError("job " + std::to_string(id_) + " staging quota exceeded: " +
                       std::to_string(now) + " > " + std::to_string(quotas_.staging_bytes) +
                       " bytes");
    }
    detail::raise_hwm(staging_hwm_, now);
  }
  void credit_staging(std::size_t bytes) noexcept {
    staging_in_use_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  // --- mailbox depth (pending p2p operations) -------------------------------

  void charge_mailbox() {
    const std::size_t now = mailbox_depth_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (quotas_.mailbox_depth != 0 && now > quotas_.mailbox_depth) {
      mailbox_depth_.fetch_sub(1, std::memory_order_relaxed);
      mailbox_denials_.fetch_add(1, std::memory_order_relaxed);
      throw QuotaError("job " + std::to_string(id_) + " mailbox quota exceeded: " +
                       std::to_string(now) + " > " +
                       std::to_string(quotas_.mailbox_depth) + " pending operations");
    }
    detail::raise_hwm(mailbox_hwm_, now);
    messages_.fetch_add(1, std::memory_order_relaxed);
  }
  void credit_mailbox() noexcept {
    mailbox_depth_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Rank-count quota, checked once at cluster launch.
  void check_ranks(int nranks) const {
    if (quotas_.max_ranks != 0 && nranks > quotas_.max_ranks) {
      throw QuotaError("job " + std::to_string(id_) + " rank quota exceeded: " +
                       std::to_string(nranks) + " > " + std::to_string(quotas_.max_ranks) +
                       " ranks");
    }
  }

  // --- usage snapshot (service reporting / clmpiJobCounters) ----------------

  struct Usage {
    std::size_t staging_in_use{0};
    std::size_t staging_hwm{0};
    std::uint64_t staging_denials{0};
    std::size_t mailbox_depth{0};
    std::size_t mailbox_hwm{0};
    std::uint64_t mailbox_denials{0};
    std::uint64_t messages{0};  ///< p2p operations posted over the job's life
  };
  [[nodiscard]] Usage usage() const noexcept {
    Usage u;
    u.staging_in_use = staging_in_use_.load(std::memory_order_relaxed);
    u.staging_hwm = staging_hwm_.load(std::memory_order_relaxed);
    u.staging_denials = staging_denials_.load(std::memory_order_relaxed);
    u.mailbox_depth = mailbox_depth_.load(std::memory_order_relaxed);
    u.mailbox_hwm = mailbox_hwm_.load(std::memory_order_relaxed);
    u.mailbox_denials = mailbox_denials_.load(std::memory_order_relaxed);
    u.messages = messages_.load(std::memory_order_relaxed);
    return u;
  }

 private:
  std::uint64_t id_;
  JobQuotas quotas_;
  Clock::time_point deadline_;
  std::atomic<bool> cancelled_{false};
  std::atomic<std::size_t> staging_in_use_{0};
  std::atomic<std::size_t> staging_hwm_{0};
  std::atomic<std::uint64_t> staging_denials_{0};
  std::atomic<std::size_t> mailbox_depth_{0};
  std::atomic<std::size_t> mailbox_hwm_{0};
  std::atomic<std::uint64_t> mailbox_denials_{0};
  std::atomic<std::uint64_t> messages_{0};
};

}  // namespace clmpi::tenant
