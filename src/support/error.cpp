#include "support/error.hpp"

#include <sstream>

namespace clmpi {

const char* to_string(Status s) noexcept {
  switch (s) {
    case Status::success: return "CL_SUCCESS";
    case Status::invalid_value: return "CL_INVALID_VALUE";
    case Status::invalid_event_wait_list: return "CL_INVALID_EVENT_WAIT_LIST";
    case Status::invalid_command_queue: return "CL_INVALID_COMMAND_QUEUE";
    case Status::invalid_context: return "CL_INVALID_CONTEXT";
    case Status::invalid_mem_object: return "CL_INVALID_MEM_OBJECT";
    case Status::invalid_operation: return "CL_INVALID_OPERATION";
    case Status::out_of_resources: return "CL_OUT_OF_RESOURCES";
    case Status::invalid_rank: return "CLMPI_INVALID_RANK";
    case Status::invalid_tag: return "CLMPI_INVALID_TAG";
    case Status::invalid_communicator: return "CLMPI_INVALID_COMMUNICATOR";
    case Status::invalid_request: return "CLMPI_INVALID_REQUEST";
    case Status::runtime_shutdown: return "CLMPI_RUNTIME_SHUTDOWN";
    case Status::message_dropped: return "CLMPI_MESSAGE_DROPPED";
    case Status::timeout: return "CLMPI_TIMEOUT";
    case Status::truncated: return "CLMPI_TRUNCATED";
    case Status::invalid_window: return "CLMPI_INVALID_WINDOW";
    case Status::rma_epoch: return "CLMPI_RMA_EPOCH";
    case Status::invalid_halo: return "CLMPI_INVALID_HALO";
    case Status::rejected: return "CLMPI_REJECTED";
    case Status::quota_exceeded: return "CLMPI_QUOTA_EXCEEDED";
    case Status::invalid_job: return "CLMPI_INVALID_JOB";
    case Status::cancelled: return "CLMPI_CANCELLED";
    case Status::deadlock: return "CLMPI_DEADLOCK";
  }
  return "CLMPI_UNKNOWN_STATUS";
}

namespace detail {

void throw_precondition(const char* expr, const char* file, int line,
                        const std::string& msg) {
  std::ostringstream os;
  os << "precondition failed: " << msg << " [" << expr << "] at " << file << ':' << line;
  throw PreconditionError(os.str());
}

}  // namespace detail
}  // namespace clmpi
