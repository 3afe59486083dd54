// Error handling primitives shared by every clmpi module.
//
// Two regimes, following the C++ Core Guidelines (E.2, I.10):
//  * programming errors (precondition violations) -> Error exceptions,
//    raised through CLMPI_REQUIRE so the message carries location info;
//  * expected runtime failures at the C API boundary -> Status codes,
//    mirroring OpenCL's cl_int convention (see clmpi/clmpi_c.h).
#pragma once

#include <stdexcept>
#include <string>

namespace clmpi {

/// Status codes returned by the C-style API layer. Values chosen to match
/// the corresponding OpenCL error codes where one exists.
enum class Status : int {
  success = 0,
  invalid_value = -30,
  invalid_event_wait_list = -57,
  invalid_command_queue = -36,
  invalid_context = -34,
  invalid_mem_object = -38,
  invalid_operation = -59,
  out_of_resources = -5,
  // clMPI extension error space (outside the OpenCL reserved range).
  invalid_rank = -1001,
  invalid_tag = -1002,
  invalid_communicator = -1003,
  invalid_request = -1004,
  runtime_shutdown = -1005,
  /// A message was lost in transit (fault injection / NIC failure); both
  /// endpoints' operations complete with this negative status.
  message_dropped = -1006,
  /// An operation exceeded its deadline, or acked retransmission exhausted
  /// its retry budget. Both endpoints' operations complete with this status.
  timeout = -1007,
  /// A query filled the caller's buffer to capacity but more data existed;
  /// the output is valid as far as it goes and the required size is reported.
  truncated = -1008,
  /// An RMA window handle that was never valid or has been freed.
  invalid_window = -1009,
  /// An RMA access posted outside an open fence epoch, or an epoch-protocol
  /// violation (e.g. freeing a window with accesses still pending).
  rma_epoch = -1010,
  /// A halo-plan handle that was never valid or has been freed.
  invalid_halo = -1011,
  /// Service admission control refused the job: the pending queue is at
  /// capacity, or the service is shutting down. The job never ran.
  rejected = -1012,
  /// A per-job quota (staging bytes, mailbox depth, max ranks) was
  /// exceeded at an allocation point; the allocating operation fails typed
  /// instead of starving co-tenant jobs.
  quota_exceeded = -1013,
  /// A job handle that was never valid or refers to a reaped job.
  invalid_job = -1014,
  /// The job was cancelled (explicitly, or by its job-level deadline); ranks
  /// unwind at their next cancellation point with this status.
  cancelled = -1015,
  /// A wait failed by the deadlock verdict (DeadlockError).
  deadlock = -1016,
};

/// Human-readable name of a status code ("CL_SUCCESS", ...).
const char* to_string(Status s) noexcept;

/// Base class of all exceptions thrown by clmpi libraries.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what_arg, Status status = Status::invalid_operation)
      : std::runtime_error(what_arg), status_(status) {}

  [[nodiscard]] Status status() const noexcept { return status_; }

 private:
  Status status_;
};

/// Precondition violation (misuse of an API).
class PreconditionError : public Error {
 public:
  using Error::Error;
};

/// Carried by requests/events whose message was lost in transit (injected
/// by simmpi fault plans, or any transport-level loss the NIC detects).
class MessageDroppedError : public Error {
 public:
  explicit MessageDroppedError(const std::string& what_arg)
      : Error(what_arg, Status::message_dropped) {}
};

/// Carried by requests/events that exceeded a per-operation deadline, or
/// whose transport retries were exhausted without an ack.
class TimeoutError : public Error {
 public:
  explicit TimeoutError(const std::string& what_arg)
      : Error(what_arg, Status::timeout) {}
};

/// Raised by service admission control when a job cannot be accepted (the
/// pending queue is full, or the service stopped admitting). The job never
/// started; nothing needs cleanup.
class RejectedError : public Error {
 public:
  explicit RejectedError(const std::string& what_arg)
      : Error(what_arg, Status::rejected) {}
};

/// Raised at an allocation point (staging-buffer allocation, mailbox post, rank
/// spawn) when the operation would exceed the owning job's quota.
class QuotaError : public Error {
 public:
  explicit QuotaError(const std::string& what_arg)
      : Error(what_arg, Status::quota_exceeded) {}
};

/// Raised at a cancellation point of a job whose cancel flag is set (explicit
/// clmpiCancelJob, or the job-level deadline). Every rank of the job unwinds
/// with this error; the service reports the job as cancelled.
class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& what_arg)
      : Error(what_arg, Status::cancelled) {}
};

/// The deadlock verdict: the cluster's strand went idle with nothing left to
/// rescue, so the failed wait could never have completed.
class DeadlockError : public Error {
 public:
  explicit DeadlockError(const std::string& what_arg)
      : Error(what_arg, Status::deadlock) {}
};

namespace detail {
[[noreturn]] void throw_precondition(const char* expr, const char* file, int line,
                                     const std::string& msg);
}  // namespace detail

}  // namespace clmpi

/// Check a precondition; throws clmpi::PreconditionError with location info.
#define CLMPI_REQUIRE(expr, msg)                                              \
  do {                                                                        \
    if (!(expr)) {                                                            \
      ::clmpi::detail::throw_precondition(#expr, __FILE__, __LINE__, (msg));  \
    }                                                                         \
  } while (false)
