// C-style API layer mirroring the paper's function signatures.
//
// The paper presents clMPI as an OpenCL extension with C entry points
// (clEnqueueSendBuffer, clEnqueueRecvBuffer, clCreateEventFromMPIRequest)
// plus MPI wrappers accepting the MPI_CL_MEM datatype. This header exposes
// that exact surface on top of the C++ core, so the paper's code listings
// (Figures 1, 5, 6 and 7) port with only mechanical changes. Consumers are
// C++ translation units; handles are opaque pointers with OpenCL-style
// retain/release lifetimes.
//
// Threading model: each MPI rank binds its thread once via
// clmpi::capi::ThreadBinding; all C API calls on that thread then resolve
// the rank's clock, world communicator and clMPI runtime through the
// binding (this stands in for the per-process globals of a real MPI+OpenCL
// stack).
#pragma once

#include <cstddef>
#include <cstdint>

#include "clmpi/runtime.hpp"
#include "ocl/context.hpp"
#include "ocl/queue.hpp"
#include "simmpi/cluster.hpp"

// --- scalar types and constants (OpenCL naming) -----------------------------

using cl_int = std::int32_t;
using cl_uint = std::uint32_t;
using cl_bool = std::uint32_t;
using cl_ulong = std::uint64_t;

inline constexpr cl_bool CL_TRUE = 1;
inline constexpr cl_bool CL_FALSE = 0;
inline constexpr cl_int CL_SUCCESS = 0;
inline constexpr cl_int CL_INVALID_VALUE = -30;
inline constexpr cl_int CL_INVALID_EVENT_WAIT_LIST = -57;
inline constexpr cl_int CL_INVALID_EVENT = -58;
inline constexpr cl_int CL_INVALID_COMMAND_QUEUE = -36;
inline constexpr cl_int CL_INVALID_CONTEXT = -34;
inline constexpr cl_int CL_INVALID_MEM_OBJECT = -38;
inline constexpr cl_int CL_INVALID_OPERATION = -59;
// clMPI extension error space (matches clmpi::Status; see support/error.hpp).
inline constexpr cl_int CLMPI_INVALID_RANK = -1001;
inline constexpr cl_int CLMPI_INVALID_TAG = -1002;
inline constexpr cl_int CLMPI_INVALID_COMMUNICATOR = -1003;
inline constexpr cl_int CLMPI_INVALID_REQUEST = -1004;
inline constexpr cl_int CLMPI_RUNTIME_SHUTDOWN = -1005;
/// The command's message was lost in transit (fault injection / NIC loss).
inline constexpr cl_int CLMPI_MESSAGE_DROPPED = -1006;
/// The operation exceeded its deadline (clmpiSetOperationTimeout) or
/// exhausted its retransmission budget; it failed at its virtual deadline.
inline constexpr cl_int CLMPI_TIMEOUT = -1007;
/// The output buffer was too small; it was filled as far as it fits and the
/// required size was reported (see clmpiListCounters).
inline constexpr cl_int CLMPI_TRUNCATED = -1008;
/// A null, released or otherwise unknown RMA window handle.
inline constexpr cl_int CLMPI_INVALID_WINDOW = -1009;
/// An RMA access violated the fence-epoch discipline (posted outside an
/// open epoch, or the window was freed with accesses still pending).
inline constexpr cl_int CLMPI_RMA_EPOCH = -1010;
/// A null, released or otherwise unknown halo-plan handle.
inline constexpr cl_int CLMPI_INVALID_HALO = -1011;
/// The wait could never complete: the deadlock verdict (docs/SCHEDULER.md).
inline constexpr cl_int CLMPI_DEADLOCK = -1016;
// Extension-namespaced aliases for stale/invalid handle lookups through the
// clmpiGet* escape hatches; same numeric values as the OpenCL codes.
inline constexpr cl_int CLMPI_INVALID_MEM_OBJECT = CL_INVALID_MEM_OBJECT;
inline constexpr cl_int CLMPI_INVALID_QUEUE = CL_INVALID_COMMAND_QUEUE;

// --- opaque handles ----------------------------------------------------------

struct _cl_context;
struct _cl_command_queue;
struct _cl_mem;
struct _cl_event;
struct _clmpi_window;
struct _clmpi_prequest;
struct _clmpi_halo;
using cl_context = _cl_context*;
using cl_command_queue = _cl_command_queue*;
using cl_mem = _cl_mem*;
using cl_event = _cl_event*;
using clmpi_window = _clmpi_window*;
using clmpi_prequest = _clmpi_prequest*;
using clmpi_halo = _clmpi_halo*;

// --- MPI surface --------------------------------------------------------------

using MPI_Comm = clmpi::mpi::Comm*;
using MPI_Request = clmpi::mpi::Request;

enum MPI_Datatype : int {
  MPI_BYTE = 0,
  MPI_INT,
  MPI_FLOAT,
  MPI_DOUBLE,
  /// clMPI extension (§IV-C): the peer endpoint is a communicator device.
  MPI_CL_MEM,
};

inline constexpr int MPI_SUCCESS = 0;
// MPI error classes (values follow the common MPICH numbering). The wrappers
// return these instead of letting C++ exceptions escape a C entry point.
inline constexpr int MPI_ERR_BUFFER = 1;
inline constexpr int MPI_ERR_COUNT = 2;
inline constexpr int MPI_ERR_TYPE = 3;
inline constexpr int MPI_ERR_TAG = 4;
inline constexpr int MPI_ERR_COMM = 5;
inline constexpr int MPI_ERR_RANK = 6;
inline constexpr int MPI_ERR_REQUEST = 7;
inline constexpr int MPI_ERR_ARG = 13;
inline constexpr int MPI_ERR_OTHER = 16;
/// clMPI extension: the operation exceeded its deadline or exhausted its
/// retransmission budget (see clmpiSetOperationTimeout).
inline constexpr int MPI_ERR_TIMEOUT = 17;

/// Resolves to the calling thread's world communicator (see ThreadBinding).
#define MPI_COMM_WORLD (::clmpi::capi::comm_world())

namespace clmpi::capi {

/// RAII thread binding: construct at the top of a rank's body, before any C
/// API call on that thread. It lives in the rank's execution context
/// (ctx::ExecContext::binding), so it follows the rank across workers.
class ThreadBinding {
 public:
  ThreadBinding(mpi::Rank& rank, rt::Runtime& runtime);
  ~ThreadBinding();

  ThreadBinding(const ThreadBinding&) = delete;
  ThreadBinding& operator=(const ThreadBinding&) = delete;

  [[nodiscard]] mpi::Rank& rank() const noexcept { return rank_; }
  [[nodiscard]] rt::Runtime& runtime() const noexcept { return runtime_; }

 private:
  mpi::Rank& rank_;
  rt::Runtime& runtime_;
};

/// The bound thread's MPI_COMM_WORLD.
MPI_Comm comm_world();

/// The bound thread's rank context (clock access for hand-written hosts).
mpi::Rank& bound_rank();

/// Element size of a datatype in bytes (MPI_CL_MEM counts raw bytes).
std::size_t datatype_size(MPI_Datatype dt);

}  // namespace clmpi::capi

// --- OpenCL core subset ---------------------------------------------------------

/// Create a context for the bound rank's communicator device.
cl_context clmpiCreateContext(clmpi::ocl::Context& cxx_context);
cl_int clReleaseContext(cl_context context);

/// Needs a running rank: the queue's worker is a fiber on the caller's
/// cluster strand. Called outside Cluster::run it returns nullptr with
/// CL_INVALID_OPERATION.
cl_command_queue clCreateCommandQueue(cl_context context, cl_int* errcode_ret);
cl_int clReleaseCommandQueue(cl_command_queue queue);

cl_mem clCreateBuffer(cl_context context, std::size_t size, cl_int* errcode_ret);
cl_int clReleaseMemObject(cl_mem mem);

/// Runtime-internal escape hatch: the C++ buffer behind a handle (examples
/// use it to initialize device data through kernels or typed views). A null,
/// released or otherwise unknown handle yields a null BufferPtr and
/// CLMPI_INVALID_MEM_OBJECT in `*errcode_ret` — it never throws.
clmpi::ocl::BufferPtr clmpiGetBuffer(cl_mem mem, cl_int* errcode_ret = nullptr);
/// The C++ queue behind a handle; nullptr + CLMPI_INVALID_QUEUE on a null or
/// released handle.
clmpi::ocl::CommandQueue* clmpiGetQueue(cl_command_queue queue,
                                        cl_int* errcode_ret = nullptr);

cl_int clEnqueueReadBuffer(cl_command_queue cmd, cl_mem buf, cl_bool blocking,
                           std::size_t offset, std::size_t size, void* hbuf,
                           cl_uint numevts, const cl_event* wlist, cl_event* evtret);
cl_int clEnqueueWriteBuffer(cl_command_queue cmd, cl_mem buf, cl_bool blocking,
                            std::size_t offset, std::size_t size, const void* hbuf,
                            cl_uint numevts, const cl_event* wlist, cl_event* evtret);
void* clEnqueueMapBuffer(cl_command_queue cmd, cl_mem buf, cl_bool blocking,
                         std::size_t offset, std::size_t size, cl_uint numevts,
                         const cl_event* wlist, cl_event* evtret, cl_int* errcode_ret);
cl_int clEnqueueUnmapMemObject(cl_command_queue cmd, cl_mem buf, void* mapped_ptr,
                               cl_uint numevts, const cl_event* wlist, cl_event* evtret);

/// Launch a kernel instance (argument bindings set through the C++ handle).
cl_int clEnqueueNDRangeKernel(cl_command_queue cmd, const clmpi::ocl::KernelPtr& kernel,
                              const clmpi::ocl::NDRange& range, cl_uint numevts,
                              const cl_event* wlist, cl_event* evtret);

cl_int clFinish(cl_command_queue cmd);
cl_int clWaitForEvents(cl_uint num_events, const cl_event* event_list);
cl_int clReleaseEvent(cl_event event);
cl_int clRetainEvent(cl_event event);

// --- the clMPI extension (§IV-A, §IV-C) -------------------------------------------

cl_int clEnqueueSendBuffer(cl_command_queue cmd, cl_mem buf, cl_bool blocking,
                           std::size_t offset, std::size_t size, int dst, int tag,
                           MPI_Comm comm, cl_uint numevts, const cl_event* wlist,
                           cl_event* evtret);
cl_int clEnqueueRecvBuffer(cl_command_queue cmd, cl_mem buf, cl_bool blocking,
                           std::size_t offset, std::size_t size, int src, int tag,
                           MPI_Comm comm, cl_uint numevts, const cl_event* wlist,
                           cl_event* evtret);
cl_event clCreateEventFromMPIRequest(cl_context context, MPI_Request* request,
                                     cl_int* errcode_ret);

/// Collective device-buffer broadcast (§IV-C/§VI extension): every rank of
/// `comm` must call it, in the same order.
cl_int clEnqueueBcastBuffer(cl_command_queue cmd, cl_mem buf, cl_bool blocking,
                            std::size_t offset, std::size_t size, int root, MPI_Comm comm,
                            cl_uint numevts, const cl_event* wlist, cl_event* evtret);

// --- one-sided RMA commands (clMPI extension) --------------------------------

/// Collective (every rank of `comm`, host thread): expose buf[offset,
/// offset+size) as an RMA window for remote Put/Get. The buffer must stay
/// alive (not released) until clmpiFreeWindow. Null handle +
/// CLMPI_INVALID_MEM_OBJECT / CLMPI_INVALID_COMMUNICATOR / CL_INVALID_VALUE
/// in `*errcode_ret` on bad arguments.
clmpi_window clmpiCreateWindow(cl_mem mem, std::size_t offset, std::size_t size,
                               MPI_Comm comm, cl_int* errcode_ret);

/// Collective teardown. Accesses still pending (posted but not fenced) fail
/// with CLMPI_RMA_EPOCH on the ranks that posted them. The handle is dead
/// afterwards; further use returns CLMPI_INVALID_WINDOW.
cl_int clmpiFreeWindow(clmpi_window win);

/// clEnqueuePutBuffer: enqueue a one-sided put of buf[offset, offset+size)
/// into `target`'s window region at `target_offset`. Legal only inside an
/// open fence epoch (see clEnqueueWindowFence); the access is applied at the
/// closing fence. The returned event completes at LOCAL completion — the
/// origin buffer is reusable, but the remote landing (and any transport
/// fault) is only guaranteed/surfaced at the next fence. Zero-size puts are
/// legal.
cl_int clEnqueuePutBuffer(cl_command_queue cmd, cl_mem buf, cl_bool blocking,
                          std::size_t offset, std::size_t size, int target,
                          std::size_t target_offset, clmpi_window win, cl_uint numevts,
                          const cl_event* wlist, cl_event* evtret);

/// clEnqueueGetBuffer: enqueue a one-sided get of `size` bytes from
/// `target`'s window region at `target_offset` into buf[offset, ...). The
/// event completes at the closing fence (a get's data only exists then), so
/// `blocking` is rejected with CL_INVALID_OPERATION — a blocking get would
/// deadlock against the fence that has not been enqueued yet.
cl_int clEnqueueGetBuffer(cl_command_queue cmd, cl_mem buf, cl_bool blocking,
                          std::size_t offset, std::size_t size, int target,
                          std::size_t target_offset, clmpi_window win, cl_uint numevts,
                          const cl_event* wlist, cl_event* evtret);

/// Collective epoch fence as an enqueued command: every rank of the window
/// must enqueue it. The first fence opens the first access epoch; each later
/// fence applies all accesses posted since the previous one and opens the
/// next epoch. The event fails with CLMPI_MESSAGE_DROPPED / CLMPI_TIMEOUT
/// when an access this rank originated or was targeted by was lost.
cl_int clEnqueueWindowFence(cl_command_queue cmd, clmpi_window win, cl_bool blocking,
                            cl_uint numevts, const cl_event* wlist, cl_event* evtret);

/// File-I/O commands (§VI extension): stage a device buffer to/from node
/// storage as ordinary enqueued commands.
cl_int clEnqueueWriteFile(cl_command_queue cmd, cl_mem buf, cl_bool blocking,
                          std::size_t offset, std::size_t size, const char* path,
                          cl_uint numevts, const cl_event* wlist, cl_event* evtret);
cl_int clEnqueueReadFile(cl_command_queue cmd, cl_mem buf, cl_bool blocking,
                         std::size_t offset, std::size_t size, const char* path,
                         cl_uint numevts, const cl_event* wlist, cl_event* evtret);

// --- observability introspection (clMPI extension) ---------------------------

/// Read one metric by name ("simmpi.mailbox.shard_hit", gauge high-waters as
/// "<name>.hwm", ...; see docs/OBSERVABILITY.md for the catalog). Returns
/// CL_INVALID_VALUE for an unknown name or null arguments. Counters exist
/// once their subsystem first records under CLMPI_METRICS=1 (or
/// clmpi::obs::set_metrics_enabled(true)).
cl_int clmpiGetCounter(const char* name, cl_ulong* value);

/// List registered metric names, newline-separated and NUL-terminated.
/// Two-call pattern: pass buf == nullptr to query the required size via
/// `*size_ret`, then call again with a buffer of at least that capacity.
/// `*size_ret` always receives the CURRENT required size — the registry may
/// have grown between the two calls, so the fill call re-reports it. When
/// `cap` is too small the buffer is filled with as many complete names as
/// fit (NUL-terminated, never a partial name) and CLMPI_TRUNCATED is
/// returned; retry with a buffer of the newly reported size.
cl_int clmpiListCounters(char* buf, std::size_t cap, std::size_t* size_ret);

/// Default deadline, in virtual seconds, applied to every communication
/// command the bound rank's runtime enqueues after this call (0 disables,
/// the initial state). A command that cannot resolve by its deadline —
/// e.g. its retransmission budget is exhausted, or its peer never posts the
/// matching operation — fails its event with CLMPI_TIMEOUT (MPI wrappers:
/// MPI_ERR_TIMEOUT) at exactly the deadline instant on the virtual
/// timeline. Negative or NaN seconds yield CL_INVALID_VALUE.
cl_int clmpiSetOperationTimeout(double seconds);
/// Read back the bound runtime's current default deadline.
cl_int clmpiGetOperationTimeout(double* seconds);

/// Export the bound rank's trace as Chrome/Perfetto trace_event JSON at
/// `path`. CL_INVALID_OPERATION when the run has no tracer attached (attach
/// one via mpi::Cluster::Options::tracer or CLMPI_TRACE=1), CL_INVALID_VALUE
/// when the file cannot be written.
cl_int clmpiDumpTrace(const char* path);

// --- MPI subset (wrappers honouring MPI_CL_MEM) --------------------------------------

int MPI_Comm_rank(MPI_Comm comm, int* rank);
int MPI_Comm_size(MPI_Comm comm, int* size);
int MPI_Isend(const void* buf, int count, MPI_Datatype dt, int dest, int tag, MPI_Comm comm,
              MPI_Request* request);
int MPI_Irecv(void* buf, int count, MPI_Datatype dt, int source, int tag, MPI_Comm comm,
              MPI_Request* request);
int MPI_Send(const void* buf, int count, MPI_Datatype dt, int dest, int tag, MPI_Comm comm);
int MPI_Recv(void* buf, int count, MPI_Datatype dt, int source, int tag, MPI_Comm comm);
int MPI_Sendrecv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, int dest,
                 int sendtag, void* recvbuf, int recvcount, MPI_Datatype recvtype,
                 int source, int recvtag, MPI_Comm comm);
int MPI_Wait(MPI_Request* request);
int MPI_Waitall(int count, MPI_Request* requests);
int MPI_Barrier(MPI_Comm comm);

// --- persistent requests (MPI_Send_init / MPI_Recv_init, clMPI extension) ----

/// clmpiSendInit: MPI_Send_init honouring the clMPI datatype rules — with
/// MPI_CL_MEM the transfer strategy, wire decomposition and per-block
/// envelope headers are resolved ONCE here, so clmpiStart only stamps fresh
/// completion state. Argument checks mirror MPI_Isend; failures yield a null
/// handle with the MPI error class in `*errcode_ret` (MPI_SUCCESS on
/// success). The buffer must stay valid until every started request
/// completed and the handle is freed.
clmpi_prequest clmpiSendInit(const void* buf, int count, MPI_Datatype dt, int dest, int tag,
                             MPI_Comm comm, int* errcode_ret);
/// clmpiRecvInit: the receiving counterpart. Wildcards are legal exactly as
/// for MPI_Irecv (the frozen header carries them into every replay).
clmpi_prequest clmpiRecvInit(void* buf, int count, MPI_Datatype dt, int source, int tag,
                             MPI_Comm comm, int* errcode_ret);

/// MPI_Start: replay the prepared operation at the bound rank's clock.
/// `*request` receives a fresh, independent MPI_Request to wait on; the
/// handle may be started again once that request completed. A null or freed
/// handle (or null `request`) returns MPI_ERR_REQUEST.
int clmpiStart(clmpi_prequest preq, MPI_Request* request);

/// Release a persistent request handle. Requests already started stay valid
/// and must still be waited on. MPI_ERR_REQUEST on a null or freed handle.
int clmpiRequestFree(clmpi_prequest preq);

// --- split-phase halo exchange (clmpi_halo, clMPI extension) -----------------
//
// C surface over halo::Plan (src/halo/halo.hpp, docs/HALO.md): a plan built
// once over a padded field buffer replays a whole pack -> wire -> unpack
// epoch per clmpiHaloStart/clmpiHaloComplete pair. Implemented in the
// clmpi_halo library — link it to use these entry points.

/// Mirrors halo::Spec. `dims` in [1,3]; the product of grid[0..dims) must
/// equal the communicator size; periodic[] entries are booleans.
struct clmpi_halo_spec {
  cl_int dims;
  std::size_t interior[3];
  cl_int grid[3];
  cl_int periodic[3];
  std::size_t elem_size;
  std::size_t width;
  cl_int tag_base;
};

/// Build a plan for `field` (a padded domain of `spec`, see
/// halo::field_bytes) on the calling rank's bound runtime. Collective over
/// `comm` when the plan resolves to the RMA tier. Null handle + error in
/// `*errcode_ret` on failure; the buffer is retained until clmpiHaloFree.
clmpi_halo clmpiHaloCreate(cl_context context, cl_mem field, const clmpi_halo_spec* spec,
                           MPI_Comm comm, cl_int* errcode_ret);

/// Begin an exchange epoch on `queue`, gated on the wait list. Strictly
/// alternates with clmpiHaloComplete.
cl_int clmpiHaloStart(clmpi_halo halo, cl_command_queue queue, cl_uint numevts,
                      const cl_event* wlist);

/// Finish the epoch; `*evtret` (optional) completes when every ghost is
/// valid and every outbound edge has left the staging buffers.
cl_int clmpiHaloComplete(clmpi_halo halo, cl_command_queue queue, cl_event* evtret);

/// Destroy a plan. Drain the queue first (clFinish semantics); collective
/// when the plan uses the RMA tier. CLMPI_INVALID_HALO on a dead handle.
cl_int clmpiHaloFree(clmpi_halo halo);

// --- multi-tenant service jobs (clmpi_svc extension) -------------------------
//
// C surface over svc::Service (src/svc/service.hpp, docs/SERVICE.md): a
// process-global service hosts many concurrent cluster simulations with
// per-job quotas, deadlines and cancellation. Implemented in the clmpi_svc
// library — link it to use these entry points.

/// The job was refused at admission (queue full or service shutting down).
inline constexpr cl_int CLMPI_REJECTED = -1012;
/// The job exceeded one of its resource quotas and failed itself.
inline constexpr cl_int CLMPI_QUOTA_EXCEEDED = -1013;
/// Unknown job id (never submitted, retired, or the service was restarted).
inline constexpr cl_int CLMPI_INVALID_JOB = -1014;
/// The job was cancelled (clmpiCancelJob or its deadline).
inline constexpr cl_int CLMPI_CANCELLED = -1015;

/// Job handle: the service-assigned id (monotone from 1). 0 is never a
/// valid job.
using clmpi_job = cl_ulong;

// Workload kinds (svc::JobKind).
inline constexpr cl_uint CLMPI_JOB_KIND_HIMENO = 0;
inline constexpr cl_uint CLMPI_JOB_KIND_HALO = 1;
inline constexpr cl_uint CLMPI_JOB_KIND_CHAOS = 2;

// Job states (svc::JobState).
inline constexpr cl_uint CLMPI_JOB_QUEUED = 0;
inline constexpr cl_uint CLMPI_JOB_RUNNING = 1;
inline constexpr cl_uint CLMPI_JOB_SUCCEEDED = 2;
inline constexpr cl_uint CLMPI_JOB_FAILED = 3;
inline constexpr cl_uint CLMPI_JOB_CANCELLED = 4;

/// Mirrors svc::JobSpec. Quota fields of 0 mean unlimited; deadline_s of 0
/// means no deadline; a null profile means the default ("ricc").
struct clmpi_job_desc {
  cl_uint kind;
  cl_int nranks;
  const char* profile;
  cl_int iterations;
  cl_ulong seed;
  cl_ulong quota_staging_bytes;
  cl_ulong quota_mailbox_depth;
  cl_int quota_max_ranks;
  double deadline_s;
};

/// Mirrors svc::JobResult (+ the usage counters flattened in).
struct clmpi_job_result {
  cl_uint state;           ///< CLMPI_JOB_*
  cl_int status;           ///< typed failure code; CL_SUCCESS otherwise
  double makespan_s;       ///< virtual makespan of the job's cluster run
  cl_ulong trace_hash;     ///< the job's own trace digest
  cl_ulong staging_hwm;    ///< peak staging bytes charged (exact bytes staged)
  cl_ulong mailbox_hwm;    ///< peak pending p2p operations
  cl_ulong quota_denials;  ///< allocations refused by quota
  cl_ulong messages;       ///< p2p operations posted
  double queue_delay_s;    ///< wall seconds from submit to run start
  double run_wall_s;       ///< wall seconds of the run itself
};

/// Start the process-global service: `max_active` jobs run at once (0 = 2;
/// not a thread count), admission queue bounded at `queue_limit` (0 = 64).
/// CL_INVALID_OPERATION when already started.
cl_int clmpiServiceStart(cl_uint max_active, cl_uint queue_limit);

/// Drain every admitted job to a terminal state, then shut the service
/// down. CL_INVALID_OPERATION when not started. Callers must collect their
/// outstanding clmpiWaitJob calls before stopping.
cl_int clmpiServiceStop(void);

/// Submit a job. Returns its handle, or 0 with the failure in
/// `*errcode_ret` (CLMPI_REJECTED when the queue is full,
/// CLMPI_QUOTA_EXCEEDED when nranks already exceeds quota_max_ranks).
clmpi_job clmpiSubmitJob(const clmpi_job_desc* desc, cl_int* errcode_ret);

/// Block until the job reaches a terminal state; fill `*result` (optional).
/// The service keeps the results of its last `max_active + queue_limit`
/// terminal jobs; an older job is retired and reads CLMPI_INVALID_JOB.
cl_int clmpiWaitJob(clmpi_job job, clmpi_job_result* result);

/// Request cancellation, honoured at the job's cancellation points.
/// CL_SUCCESS when delivered to a live job, CLMPI_CANCELLED when the job was
/// already terminal, CLMPI_INVALID_JOB when it is retired (see clmpiWaitJob).
cl_int clmpiCancelJob(clmpi_job job);

/// Non-blocking snapshot of the job's counters into `*result`;
/// CLMPI_INVALID_JOB once the job is retired (see clmpiWaitJob).
cl_int clmpiJobCounters(clmpi_job job, clmpi_job_result* result);
