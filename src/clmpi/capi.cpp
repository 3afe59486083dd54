#include "clmpi/capi.h"

#include <cstring>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "clmpi/capi_internal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "simmpi/datatype.hpp"
#include "support/context.hpp"
#include "support/error.hpp"

// Handle struct definitions live in capi_internal.hpp, shared with the
// extension surfaces layered on this registry (src/halo/halo_capi.cpp).

namespace clmpi::capi {
namespace {

// Rank-scoped, not thread_local: under the fiber scheduler a rank's body
// migrates across worker threads mid-call, and the binding must follow the
// RANK (its execution context), never leak to another rank sharing the
// worker.
const ThreadBinding& binding() {
  const ThreadBinding* b = ctx::current().binding;
  CLMPI_REQUIRE(b != nullptr, "no ThreadBinding active on this task; construct one first");
  return *b;
}

/// Registry of live handles of one kind. Released handles are erased, so a
/// use-after-release is detected (best effort: an address reused by a new
/// handle cannot be told apart) and reported as the matching CL_INVALID_*
/// status instead of dereferencing freed memory.
template <typename Handle>
class HandleRegistry {
 public:
  void add(Handle handle) {
    std::lock_guard lock(mutex_);
    live_.insert(handle);
  }
  void remove(Handle handle) {
    std::lock_guard lock(mutex_);
    live_.erase(handle);
  }
  [[nodiscard]] bool live(Handle handle) const {
    if (handle == nullptr) return false;
    std::lock_guard lock(mutex_);
    return live_.count(handle) != 0;
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_set<Handle> live_;
};

HandleRegistry<cl_event> g_events;
HandleRegistry<cl_mem> g_mems;
HandleRegistry<cl_command_queue> g_queues;
HandleRegistry<clmpi_window> g_windows;
HandleRegistry<clmpi_prequest> g_prequests;
HandleRegistry<clmpi_halo> g_halos;

}  // namespace

// External linkage (declared in capi_internal.hpp): the extension surfaces
// in other translation units validate against these same registries.
void register_event(cl_event handle) { g_events.add(handle); }
void unregister_event(cl_event handle) { g_events.remove(handle); }
bool event_live(cl_event handle) { return g_events.live(handle); }
void register_mem(cl_mem handle) { g_mems.add(handle); }
void unregister_mem(cl_mem handle) { g_mems.remove(handle); }
bool mem_live(cl_mem handle) { return g_mems.live(handle); }
void register_queue(cl_command_queue handle) { g_queues.add(handle); }
void unregister_queue(cl_command_queue handle) { g_queues.remove(handle); }
bool queue_live(cl_command_queue handle) { return g_queues.live(handle); }
void register_window(clmpi_window handle) { g_windows.add(handle); }
void unregister_window(clmpi_window handle) { g_windows.remove(handle); }
bool window_live(clmpi_window handle) { return g_windows.live(handle); }
void register_prequest(clmpi_prequest handle) { g_prequests.add(handle); }
void unregister_prequest(clmpi_prequest handle) { g_prequests.remove(handle); }
bool prequest_live(clmpi_prequest handle) { return g_prequests.live(handle); }
void register_halo(clmpi_halo handle) { g_halos.add(handle); }
void unregister_halo(clmpi_halo handle) { g_halos.remove(handle); }
bool halo_live(clmpi_halo handle) { return g_halos.live(handle); }

std::vector<ocl::EventPtr> to_waitlist(cl_uint numevts, const cl_event* wlist) {
  if ((numevts == 0) != (wlist == nullptr)) {
    throw Error("wait list pointer and count disagree", Status::invalid_event_wait_list);
  }
  std::vector<ocl::EventPtr> waits;
  waits.reserve(numevts);
  for (cl_uint i = 0; i < numevts; ++i) {
    if (!event_live(wlist[i])) {
      throw Error("null or released event in wait list", Status::invalid_event_wait_list);
    }
    waits.push_back(wlist[i]->ev);
  }
  return waits;
}

void return_event(cl_event* evtret, ocl::EventPtr ev) {
  if (evtret != nullptr) {
    *evtret = new _cl_event{std::move(ev), 1};
    register_event(*evtret);
  }
}

ThreadBinding::ThreadBinding(mpi::Rank& rank, rt::Runtime& runtime)
    : rank_(rank), runtime_(runtime) {
  const ThreadBinding*& b = ctx::current().binding;
  CLMPI_REQUIRE(b == nullptr, "task already has an active binding");
  b = this;
}

ThreadBinding::~ThreadBinding() { ctx::current().binding = nullptr; }

MPI_Comm comm_world() { return &binding().rank().world(); }

mpi::Rank& bound_rank() { return binding().rank(); }

rt::Runtime& bound_runtime() { return binding().runtime(); }

std::size_t datatype_size(MPI_Datatype dt) {
  switch (dt) {
    case MPI_BYTE: return 1;
    case MPI_INT: return sizeof(int);
    case MPI_FLOAT: return sizeof(float);
    case MPI_DOUBLE: return sizeof(double);
    case MPI_CL_MEM: return 1;
  }
  throw PreconditionError("unknown MPI datatype");
}

}  // namespace clmpi::capi

namespace {

clmpi::mpi::Rank& rank_ctx() { return clmpi::capi::bound_rank(); }

clmpi::rt::Runtime& runtime_ctx() { return clmpi::capi::bound_runtime(); }

}  // namespace

// OpenCL core subset ----------------------------------------------------------

cl_context clmpiCreateContext(clmpi::ocl::Context& cxx_context) {
  cl_context handle = nullptr;
  // guarded: allocation failure must surface as a null handle, not unwind
  // through what the paper presents as a C entry point.
  clmpi::capi::guarded([&] { handle = new _cl_context{&cxx_context}; });
  return handle;
}

cl_int clReleaseContext(cl_context context) {
  if (context == nullptr) return CL_INVALID_CONTEXT;
  delete context;
  return CL_SUCCESS;
}

cl_command_queue clCreateCommandQueue(cl_context context, cl_int* errcode_ret) {
  if (context == nullptr) {
    if (errcode_ret != nullptr) *errcode_ret = CL_INVALID_CONTEXT;
    return nullptr;
  }
  cl_command_queue handle = nullptr;
  const cl_int status = clmpi::capi::guarded([&] {
    handle = new _cl_command_queue{context->ctx->create_queue()};
    clmpi::capi::register_queue(handle);
  });
  if (errcode_ret != nullptr) *errcode_ret = status;
  return handle;
}

cl_int clReleaseCommandQueue(cl_command_queue queue) {
  if (!clmpi::capi::queue_live(queue)) return CL_INVALID_COMMAND_QUEUE;
  clmpi::capi::unregister_queue(queue);
  // The queue destructor drains pending commands and joins its worker
  // fiber; a failure there must not unwind through the C boundary.
  return clmpi::capi::guarded([&] { delete queue; });
}

cl_mem clCreateBuffer(cl_context context, std::size_t size, cl_int* errcode_ret) {
  if (context == nullptr) {
    if (errcode_ret != nullptr) *errcode_ret = CL_INVALID_CONTEXT;
    return nullptr;
  }
  cl_mem handle = nullptr;
  const cl_int status = clmpi::capi::guarded([&] {
    handle = new _cl_mem{context->ctx->create_buffer(size)};
    clmpi::capi::register_mem(handle);
  });
  if (errcode_ret != nullptr) *errcode_ret = status;
  return handle;
}

cl_int clReleaseMemObject(cl_mem mem) {
  if (!clmpi::capi::mem_live(mem)) return CL_INVALID_MEM_OBJECT;
  clmpi::capi::unregister_mem(mem);
  return clmpi::capi::guarded([&] { delete mem; });
}

clmpi::ocl::BufferPtr clmpiGetBuffer(cl_mem mem, cl_int* errcode_ret) {
  if (!clmpi::capi::mem_live(mem)) {
    if (errcode_ret != nullptr) *errcode_ret = CLMPI_INVALID_MEM_OBJECT;
    return nullptr;
  }
  if (errcode_ret != nullptr) *errcode_ret = CL_SUCCESS;
  return mem->buf;
}

clmpi::ocl::CommandQueue* clmpiGetQueue(cl_command_queue queue, cl_int* errcode_ret) {
  if (!clmpi::capi::queue_live(queue)) {
    if (errcode_ret != nullptr) *errcode_ret = CLMPI_INVALID_QUEUE;
    return nullptr;
  }
  if (errcode_ret != nullptr) *errcode_ret = CL_SUCCESS;
  return queue->queue.get();
}

cl_int clEnqueueReadBuffer(cl_command_queue cmd, cl_mem buf, cl_bool blocking,
                           std::size_t offset, std::size_t size, void* hbuf,
                           cl_uint numevts, const cl_event* wlist, cl_event* evtret) {
  if (!clmpi::capi::queue_live(cmd)) return CL_INVALID_COMMAND_QUEUE;
  if (!clmpi::capi::mem_live(buf)) return CL_INVALID_MEM_OBJECT;
  return clmpi::capi::guarded([&] {
    const auto waits = clmpi::capi::to_waitlist(numevts, wlist);
    auto ev = cmd->queue->enqueue_read_buffer(buf->buf, blocking == CL_TRUE, offset, size,
                                              hbuf, waits, rank_ctx().clock());
    clmpi::capi::return_event(evtret, std::move(ev));
  });
}

cl_int clEnqueueWriteBuffer(cl_command_queue cmd, cl_mem buf, cl_bool blocking,
                            std::size_t offset, std::size_t size, const void* hbuf,
                            cl_uint numevts, const cl_event* wlist, cl_event* evtret) {
  if (!clmpi::capi::queue_live(cmd)) return CL_INVALID_COMMAND_QUEUE;
  if (!clmpi::capi::mem_live(buf)) return CL_INVALID_MEM_OBJECT;
  return clmpi::capi::guarded([&] {
    const auto waits = clmpi::capi::to_waitlist(numevts, wlist);
    auto ev = cmd->queue->enqueue_write_buffer(buf->buf, blocking == CL_TRUE, offset, size,
                                               hbuf, waits, rank_ctx().clock());
    clmpi::capi::return_event(evtret, std::move(ev));
  });
}

void* clEnqueueMapBuffer(cl_command_queue cmd, cl_mem buf, cl_bool blocking,
                         std::size_t offset, std::size_t size, cl_uint numevts,
                         const cl_event* wlist, cl_event* evtret, cl_int* errcode_ret) {
  void* ptr = nullptr;
  if (!clmpi::capi::queue_live(cmd)) {
    if (errcode_ret != nullptr) *errcode_ret = CL_INVALID_COMMAND_QUEUE;
    return nullptr;
  }
  if (!clmpi::capi::mem_live(buf)) {
    if (errcode_ret != nullptr) *errcode_ret = CL_INVALID_MEM_OBJECT;
    return nullptr;
  }
  const cl_int status = clmpi::capi::guarded([&] {
    const auto waits = clmpi::capi::to_waitlist(numevts, wlist);
    auto mapping = cmd->queue->enqueue_map_buffer(buf->buf, blocking == CL_TRUE, offset,
                                                  size, waits, rank_ctx().clock());
    ptr = mapping.ptr;
    clmpi::capi::return_event(evtret, std::move(mapping.event));
  });
  if (errcode_ret != nullptr) *errcode_ret = status;
  return ptr;
}

cl_int clEnqueueUnmapMemObject(cl_command_queue cmd, cl_mem buf, void* mapped_ptr,
                               cl_uint numevts, const cl_event* wlist, cl_event* evtret) {
  if (!clmpi::capi::queue_live(cmd)) return CL_INVALID_COMMAND_QUEUE;
  if (!clmpi::capi::mem_live(buf)) return CL_INVALID_MEM_OBJECT;
  return clmpi::capi::guarded([&] {
    const auto waits = clmpi::capi::to_waitlist(numevts, wlist);
    auto ev = cmd->queue->enqueue_unmap(buf->buf, static_cast<std::byte*>(mapped_ptr),
                                        waits, rank_ctx().clock());
    clmpi::capi::return_event(evtret, std::move(ev));
  });
}

cl_int clEnqueueNDRangeKernel(cl_command_queue cmd, const clmpi::ocl::KernelPtr& kernel,
                              const clmpi::ocl::NDRange& range, cl_uint numevts,
                              const cl_event* wlist, cl_event* evtret) {
  if (!clmpi::capi::queue_live(cmd)) return CL_INVALID_COMMAND_QUEUE;
  return clmpi::capi::guarded([&] {
    const auto waits = clmpi::capi::to_waitlist(numevts, wlist);
    auto ev = cmd->queue->enqueue_ndrange(kernel, range, waits, rank_ctx().clock());
    clmpi::capi::return_event(evtret, std::move(ev));
  });
}

cl_int clFinish(cl_command_queue cmd) {
  if (!clmpi::capi::queue_live(cmd)) return CL_INVALID_COMMAND_QUEUE;
  return clmpi::capi::guarded([&] { cmd->queue->finish(rank_ctx().clock()); });
}

cl_int clWaitForEvents(cl_uint num_events, const cl_event* event_list) {
  if (num_events == 0 || event_list == nullptr) return CL_INVALID_VALUE;
  for (cl_uint i = 0; i < num_events; ++i) {
    if (!clmpi::capi::event_live(event_list[i])) return CL_INVALID_EVENT;
  }
  return clmpi::capi::guarded([&] {
    for (cl_uint i = 0; i < num_events; ++i) event_list[i]->ev->wait(rank_ctx().clock());
  });
}

cl_int clRetainEvent(cl_event event) {
  if (!clmpi::capi::event_live(event)) return CL_INVALID_EVENT;
  ++event->refs;
  return CL_SUCCESS;
}

cl_int clReleaseEvent(cl_event event) {
  if (!clmpi::capi::event_live(event)) return CL_INVALID_EVENT;
  if (--event->refs == 0) {
    clmpi::capi::unregister_event(event);
    delete event;
  }
  return CL_SUCCESS;
}

// The clMPI extension ---------------------------------------------------------

cl_int clEnqueueSendBuffer(cl_command_queue cmd, cl_mem buf, cl_bool blocking,
                           std::size_t offset, std::size_t size, int dst, int tag,
                           MPI_Comm comm, cl_uint numevts, const cl_event* wlist,
                           cl_event* evtret) {
  if (!clmpi::capi::queue_live(cmd)) return CL_INVALID_COMMAND_QUEUE;
  if (!clmpi::capi::mem_live(buf)) return CL_INVALID_MEM_OBJECT;
  if (comm == nullptr) return CLMPI_INVALID_COMMUNICATOR;
  return clmpi::capi::guarded([&] {
    const auto waits = clmpi::capi::to_waitlist(numevts, wlist);
    auto ev = runtime_ctx().enqueue_send_buffer(*cmd->queue, buf->buf, blocking == CL_TRUE,
                                                offset, size, dst, tag, *comm, waits);
    clmpi::capi::return_event(evtret, std::move(ev));
  });
}

cl_int clEnqueueRecvBuffer(cl_command_queue cmd, cl_mem buf, cl_bool blocking,
                           std::size_t offset, std::size_t size, int src, int tag,
                           MPI_Comm comm, cl_uint numevts, const cl_event* wlist,
                           cl_event* evtret) {
  if (!clmpi::capi::queue_live(cmd)) return CL_INVALID_COMMAND_QUEUE;
  if (!clmpi::capi::mem_live(buf)) return CL_INVALID_MEM_OBJECT;
  if (comm == nullptr) return CLMPI_INVALID_COMMUNICATOR;
  return clmpi::capi::guarded([&] {
    const auto waits = clmpi::capi::to_waitlist(numevts, wlist);
    auto ev = runtime_ctx().enqueue_recv_buffer(*cmd->queue, buf->buf, blocking == CL_TRUE,
                                                offset, size, src, tag, *comm, waits);
    clmpi::capi::return_event(evtret, std::move(ev));
  });
}

cl_event clCreateEventFromMPIRequest(cl_context /*context*/, MPI_Request* request,
                                     cl_int* errcode_ret) {
  cl_event handle = nullptr;
  const cl_int status = clmpi::capi::guarded([&] {
    if (request == nullptr || !request->valid()) {
      throw clmpi::Error("invalid MPI request", clmpi::Status::invalid_request);
    }
    handle = new _cl_event{runtime_ctx().event_from_request(*request), 1};
    clmpi::capi::register_event(handle);
  });
  if (errcode_ret != nullptr) *errcode_ret = status;
  return handle;
}

cl_int clEnqueueBcastBuffer(cl_command_queue cmd, cl_mem buf, cl_bool blocking,
                            std::size_t offset, std::size_t size, int root, MPI_Comm comm,
                            cl_uint numevts, const cl_event* wlist, cl_event* evtret) {
  if (!clmpi::capi::queue_live(cmd)) return CL_INVALID_COMMAND_QUEUE;
  if (!clmpi::capi::mem_live(buf)) return CL_INVALID_MEM_OBJECT;
  if (comm == nullptr) return CLMPI_INVALID_COMMUNICATOR;
  return clmpi::capi::guarded([&] {
    const auto waits = clmpi::capi::to_waitlist(numevts, wlist);
    auto ev = runtime_ctx().enqueue_bcast_buffer(*cmd->queue, buf->buf, blocking == CL_TRUE,
                                                 offset, size, root, *comm, waits);
    clmpi::capi::return_event(evtret, std::move(ev));
  });
}

// One-sided RMA -----------------------------------------------------------------

clmpi_window clmpiCreateWindow(cl_mem mem, std::size_t offset, std::size_t size,
                               MPI_Comm comm, cl_int* errcode_ret) {
  if (!clmpi::capi::mem_live(mem)) {
    if (errcode_ret != nullptr) *errcode_ret = CLMPI_INVALID_MEM_OBJECT;
    return nullptr;
  }
  if (comm == nullptr) {
    if (errcode_ret != nullptr) *errcode_ret = CLMPI_INVALID_COMMUNICATOR;
    return nullptr;
  }
  clmpi_window handle = nullptr;
  const cl_int status = clmpi::capi::guarded([&] {
    auto win = runtime_ctx().create_window(mem->buf, offset, size, *comm);
    handle = new _clmpi_window{std::move(win), mem->buf};
    clmpi::capi::register_window(handle);
  });
  if (errcode_ret != nullptr) *errcode_ret = status;
  return handle;
}

cl_int clmpiFreeWindow(clmpi_window win) {
  if (!clmpi::capi::window_live(win)) return CLMPI_INVALID_WINDOW;
  clmpi::capi::unregister_window(win);
  // The collective free may surface Status::rma_epoch (accesses pending);
  // the handle dies either way — free already ran on the shared state.
  const cl_int status = clmpi::capi::guarded([&] { win->win.free(rank_ctx().clock()); });
  delete win;
  return status;
}

cl_int clEnqueuePutBuffer(cl_command_queue cmd, cl_mem buf, cl_bool blocking,
                          std::size_t offset, std::size_t size, int target,
                          std::size_t target_offset, clmpi_window win, cl_uint numevts,
                          const cl_event* wlist, cl_event* evtret) {
  if (!clmpi::capi::queue_live(cmd)) return CL_INVALID_COMMAND_QUEUE;
  if (!clmpi::capi::mem_live(buf)) return CL_INVALID_MEM_OBJECT;
  if (!clmpi::capi::window_live(win)) return CLMPI_INVALID_WINDOW;
  return clmpi::capi::guarded([&] {
    const auto waits = clmpi::capi::to_waitlist(numevts, wlist);
    auto ev = runtime_ctx().enqueue_put_buffer(*cmd->queue, buf->buf, blocking == CL_TRUE,
                                               offset, size, target, target_offset,
                                               win->win, waits);
    clmpi::capi::return_event(evtret, std::move(ev));
  });
}

cl_int clEnqueueGetBuffer(cl_command_queue cmd, cl_mem buf, cl_bool blocking,
                          std::size_t offset, std::size_t size, int target,
                          std::size_t target_offset, clmpi_window win, cl_uint numevts,
                          const cl_event* wlist, cl_event* evtret) {
  if (!clmpi::capi::queue_live(cmd)) return CL_INVALID_COMMAND_QUEUE;
  if (!clmpi::capi::mem_live(buf)) return CL_INVALID_MEM_OBJECT;
  if (!clmpi::capi::window_live(win)) return CLMPI_INVALID_WINDOW;
  return clmpi::capi::guarded([&] {
    const auto waits = clmpi::capi::to_waitlist(numevts, wlist);
    auto ev = runtime_ctx().enqueue_get_buffer(*cmd->queue, buf->buf, blocking == CL_TRUE,
                                               offset, size, target, target_offset,
                                               win->win, waits);
    clmpi::capi::return_event(evtret, std::move(ev));
  });
}

cl_int clEnqueueWindowFence(cl_command_queue cmd, clmpi_window win, cl_bool blocking,
                            cl_uint numevts, const cl_event* wlist, cl_event* evtret) {
  if (!clmpi::capi::queue_live(cmd)) return CL_INVALID_COMMAND_QUEUE;
  if (!clmpi::capi::window_live(win)) return CLMPI_INVALID_WINDOW;
  return clmpi::capi::guarded([&] {
    const auto waits = clmpi::capi::to_waitlist(numevts, wlist);
    auto ev = runtime_ctx().enqueue_window_fence(*cmd->queue, win->win,
                                                 blocking == CL_TRUE, waits);
    clmpi::capi::return_event(evtret, std::move(ev));
  });
}

cl_int clEnqueueWriteFile(cl_command_queue cmd, cl_mem buf, cl_bool blocking,
                          std::size_t offset, std::size_t size, const char* path,
                          cl_uint numevts, const cl_event* wlist, cl_event* evtret) {
  if (!clmpi::capi::queue_live(cmd)) return CL_INVALID_COMMAND_QUEUE;
  if (!clmpi::capi::mem_live(buf)) return CL_INVALID_MEM_OBJECT;
  if (path == nullptr) return CL_INVALID_VALUE;
  return clmpi::capi::guarded([&] {
    const auto waits = clmpi::capi::to_waitlist(numevts, wlist);
    auto ev = runtime_ctx().enqueue_write_file(*cmd->queue, buf->buf, blocking == CL_TRUE,
                                               offset, size, path, waits);
    clmpi::capi::return_event(evtret, std::move(ev));
  });
}

cl_int clEnqueueReadFile(cl_command_queue cmd, cl_mem buf, cl_bool blocking,
                         std::size_t offset, std::size_t size, const char* path,
                         cl_uint numevts, const cl_event* wlist, cl_event* evtret) {
  if (!clmpi::capi::queue_live(cmd)) return CL_INVALID_COMMAND_QUEUE;
  if (!clmpi::capi::mem_live(buf)) return CL_INVALID_MEM_OBJECT;
  if (path == nullptr) return CL_INVALID_VALUE;
  return clmpi::capi::guarded([&] {
    const auto waits = clmpi::capi::to_waitlist(numevts, wlist);
    auto ev = runtime_ctx().enqueue_read_file(*cmd->queue, buf->buf, blocking == CL_TRUE,
                                              offset, size, path, waits);
    clmpi::capi::return_event(evtret, std::move(ev));
  });
}

// Observability introspection -------------------------------------------------

cl_int clmpiGetCounter(const char* name, cl_ulong* value) {
  if (name == nullptr || value == nullptr) return CL_INVALID_VALUE;
  std::uint64_t v = 0;
  if (!clmpi::obs::Registry::instance().value(name, v)) return CL_INVALID_VALUE;
  *value = v;
  return CL_SUCCESS;
}

cl_int clmpiListCounters(char* buf, std::size_t cap, std::size_t* size_ret) {
  std::string names;
  for (const auto& sample : clmpi::obs::Registry::instance().snapshot()) {
    names += sample.name;
    names += '\n';
  }
  const std::size_t needed = names.size() + 1;  // includes the terminating NUL
  // Always report the CURRENT required size: counters register lazily, so
  // the registry may have grown between the size query and this fill call,
  // and the stale size the caller allocated for is not evidence that `cap`
  // suffices now. The caller retries with the fresh value on truncation.
  if (size_ret != nullptr) *size_ret = needed;
  if (buf == nullptr) return CL_SUCCESS;  // size query
  if (cap < needed) {
    if (cap == 0) return CLMPI_TRUNCATED;  // no room for even the NUL
    // Fill bounded by `cap`, cut at the last complete name: a partial name
    // would be indistinguishable from a real (shorter) metric name.
    std::size_t len = 0;
    if (cap > 1) {
      const std::size_t pos = names.rfind('\n', cap - 2);
      if (pos != std::string::npos) len = pos + 1;
    }
    std::memcpy(buf, names.data(), len);
    buf[len] = '\0';
    return CLMPI_TRUNCATED;
  }
  std::memcpy(buf, names.c_str(), needed);
  return CL_SUCCESS;
}

cl_int clmpiSetOperationTimeout(double seconds) {
  if (!(seconds >= 0.0)) return CL_INVALID_VALUE;  // rejects negatives and NaN
  return clmpi::capi::guarded(
      [&] { runtime_ctx().set_default_deadline(clmpi::vt::Duration{seconds}); });
}

cl_int clmpiGetOperationTimeout(double* seconds) {
  if (seconds == nullptr) return CL_INVALID_VALUE;
  return clmpi::capi::guarded(
      [&] { *seconds = runtime_ctx().default_deadline().s; });
}

cl_int clmpiDumpTrace(const char* path) {
  if (path == nullptr) return CL_INVALID_VALUE;
  return clmpi::capi::guarded([&] {
    const clmpi::vt::Tracer* tracer = clmpi::capi::bound_rank().tracer();
    if (tracer == nullptr) {
      throw clmpi::Error("clmpiDumpTrace: run has no tracer attached (set CLMPI_TRACE=1)",
                         clmpi::Status::invalid_operation);
    }
    if (!clmpi::obs::write_trace_file(*tracer, path)) {
      throw clmpi::Error(std::string("clmpiDumpTrace: cannot write ") + path,
                         clmpi::Status::invalid_value);
    }
  });
}

// MPI subset --------------------------------------------------------------------

namespace {

/// Run `body`, translating exceptions into MPI error classes. The MPI entry
/// points are C functions: no exception may escape, and every failure —
/// including injected message drops surfacing from MPI_Wait — maps to a
/// defined error code.
template <typename Fn>
int mpi_guarded(Fn&& body) {
  try {
    body();
    return MPI_SUCCESS;
  } catch (const clmpi::Error& e) {
    switch (e.status()) {
      case clmpi::Status::invalid_rank: return MPI_ERR_RANK;
      case clmpi::Status::invalid_tag: return MPI_ERR_TAG;
      case clmpi::Status::invalid_communicator: return MPI_ERR_COMM;
      case clmpi::Status::invalid_request: return MPI_ERR_REQUEST;
      case clmpi::Status::invalid_value: return MPI_ERR_ARG;
      case clmpi::Status::timeout: return MPI_ERR_TIMEOUT;
      default: return MPI_ERR_OTHER;
    }
  } catch (...) {
    return MPI_ERR_OTHER;
  }
}

/// Point-to-point argument validation shared by the send/recv wrappers.
/// `allow_any_src_tag` is set on the receive side, where wildcards are legal.
int check_p2p_args(const void* buf, int count, MPI_Comm comm, int tag,
                   bool allow_any_src_tag) {
  if (comm == nullptr) return MPI_ERR_COMM;
  if (count < 0) return MPI_ERR_COUNT;
  if (buf == nullptr && count > 0) return MPI_ERR_BUFFER;
  const bool wildcard_tag = allow_any_src_tag && tag == clmpi::mpi::any_tag;
  if (!wildcard_tag && (tag < 0 || tag > clmpi::mpi::max_user_tag)) return MPI_ERR_TAG;
  return MPI_SUCCESS;
}

std::span<const std::byte> send_span(const void* buf, int count, MPI_Datatype dt) {
  const std::size_t bytes = static_cast<std::size_t>(count) * clmpi::capi::datatype_size(dt);
  return {static_cast<const std::byte*>(buf), bytes};
}

std::span<std::byte> recv_span(void* buf, int count, MPI_Datatype dt) {
  const std::size_t bytes = static_cast<std::size_t>(count) * clmpi::capi::datatype_size(dt);
  return {static_cast<std::byte*>(buf), bytes};
}

}  // namespace

int MPI_Comm_rank(MPI_Comm comm, int* rank) {
  if (comm == nullptr) return MPI_ERR_COMM;
  if (rank == nullptr) return MPI_ERR_ARG;
  *rank = comm->rank();
  return MPI_SUCCESS;
}

int MPI_Comm_size(MPI_Comm comm, int* size) {
  if (comm == nullptr) return MPI_ERR_COMM;
  if (size == nullptr) return MPI_ERR_ARG;
  *size = comm->size();
  return MPI_SUCCESS;
}

int MPI_Isend(const void* buf, int count, MPI_Datatype dt, int dest, int tag, MPI_Comm comm,
              MPI_Request* request) {
  if (request == nullptr) return MPI_ERR_REQUEST;
  if (const int rc = check_p2p_args(buf, count, comm, tag, /*allow_any_src_tag=*/false);
      rc != MPI_SUCCESS) {
    return rc;
  }
  return mpi_guarded([&] {
    if (dt == MPI_CL_MEM) {
      *request = runtime_ctx().isend_cl_mem(send_span(buf, count, dt), dest, tag, *comm);
    } else {
      *request = comm->isend(send_span(buf, count, dt), dest, tag, rank_ctx().clock());
    }
  });
}

int MPI_Irecv(void* buf, int count, MPI_Datatype dt, int source, int tag, MPI_Comm comm,
              MPI_Request* request) {
  if (request == nullptr) return MPI_ERR_REQUEST;
  if (const int rc = check_p2p_args(buf, count, comm, tag, /*allow_any_src_tag=*/true);
      rc != MPI_SUCCESS) {
    return rc;
  }
  return mpi_guarded([&] {
    if (dt == MPI_CL_MEM) {
      *request = runtime_ctx().irecv_cl_mem(recv_span(buf, count, dt), source, tag, *comm);
    } else {
      *request = comm->irecv(recv_span(buf, count, dt), source, tag, rank_ctx().clock());
    }
  });
}

int MPI_Send(const void* buf, int count, MPI_Datatype dt, int dest, int tag, MPI_Comm comm) {
  MPI_Request req;
  if (const int rc = MPI_Isend(buf, count, dt, dest, tag, comm, &req); rc != MPI_SUCCESS) {
    return rc;
  }
  return MPI_Wait(&req);
}

int MPI_Recv(void* buf, int count, MPI_Datatype dt, int source, int tag, MPI_Comm comm) {
  MPI_Request req;
  if (const int rc = MPI_Irecv(buf, count, dt, source, tag, comm, &req); rc != MPI_SUCCESS) {
    return rc;
  }
  return MPI_Wait(&req);
}

int MPI_Sendrecv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, int dest,
                 int sendtag, void* recvbuf, int recvcount, MPI_Datatype recvtype,
                 int source, int recvtag, MPI_Comm comm) {
  MPI_Request rreq;
  if (const int rc = MPI_Irecv(recvbuf, recvcount, recvtype, source, recvtag, comm, &rreq);
      rc != MPI_SUCCESS) {
    return rc;
  }
  MPI_Request sreq;
  if (const int rc = MPI_Isend(sendbuf, sendcount, sendtype, dest, sendtag, comm, &sreq);
      rc != MPI_SUCCESS) {
    // Drain the receive before reporting: its envelope references recvbuf.
    MPI_Wait(&rreq);
    return rc;
  }
  const int src = MPI_Wait(&sreq);
  const int rrc = MPI_Wait(&rreq);
  return src != MPI_SUCCESS ? src : rrc;
}

int MPI_Wait(MPI_Request* request) {
  if (request == nullptr) return MPI_ERR_REQUEST;
  return mpi_guarded([&] { request->wait(rank_ctx().clock()); });
}

int MPI_Waitall(int count, MPI_Request* requests) {
  if (count < 0) return MPI_ERR_COUNT;
  if (requests == nullptr && count > 0) return MPI_ERR_REQUEST;
  // Wait on EVERY request even after a failure (buffer-lifetime contract),
  // reporting the first error.
  int first = MPI_SUCCESS;
  for (int i = 0; i < count; ++i) {
    const int rc = MPI_Wait(&requests[i]);
    if (first == MPI_SUCCESS) first = rc;
  }
  return first;
}

int MPI_Barrier(MPI_Comm comm) {
  if (comm == nullptr) return MPI_ERR_COMM;
  return mpi_guarded([&] { comm->barrier(rank_ctx().clock()); });
}

// Persistent requests ---------------------------------------------------------

clmpi_prequest clmpiSendInit(const void* buf, int count, MPI_Datatype dt, int dest, int tag,
                             MPI_Comm comm, int* errcode_ret) {
  clmpi_prequest handle = nullptr;
  int rc = check_p2p_args(buf, count, comm, tag, /*allow_any_src_tag=*/false);
  if (rc == MPI_SUCCESS) {
    rc = mpi_guarded([&] {
      auto owned = std::make_unique<_clmpi_prequest>();
      if (dt == MPI_CL_MEM) {
        owned->dev =
            runtime_ctx().send_init_cl_mem(send_span(buf, count, dt), dest, tag, *comm);
      } else {
        owned->host = comm->send_init(send_span(buf, count, dt), dest, tag);
      }
      handle = owned.release();
      clmpi::capi::register_prequest(handle);
    });
  }
  if (errcode_ret != nullptr) *errcode_ret = rc;
  return handle;
}

clmpi_prequest clmpiRecvInit(void* buf, int count, MPI_Datatype dt, int source, int tag,
                             MPI_Comm comm, int* errcode_ret) {
  clmpi_prequest handle = nullptr;
  int rc = check_p2p_args(buf, count, comm, tag, /*allow_any_src_tag=*/true);
  if (rc == MPI_SUCCESS) {
    rc = mpi_guarded([&] {
      auto owned = std::make_unique<_clmpi_prequest>();
      if (dt == MPI_CL_MEM) {
        owned->dev =
            runtime_ctx().recv_init_cl_mem(recv_span(buf, count, dt), source, tag, *comm);
      } else {
        owned->host = comm->recv_init(recv_span(buf, count, dt), source, tag);
      }
      handle = owned.release();
      clmpi::capi::register_prequest(handle);
    });
  }
  if (errcode_ret != nullptr) *errcode_ret = rc;
  return handle;
}

int clmpiStart(clmpi_prequest preq, MPI_Request* request) {
  if (request == nullptr) return MPI_ERR_REQUEST;
  if (!clmpi::capi::prequest_live(preq)) return MPI_ERR_REQUEST;
  return mpi_guarded([&] {
    if (preq->host.valid()) {
      *request = preq->host.start(rank_ctx().clock());
    } else {
      *request = runtime_ctx().start(preq->dev);
    }
  });
}

int clmpiRequestFree(clmpi_prequest preq) {
  if (!clmpi::capi::prequest_live(preq)) return MPI_ERR_REQUEST;
  clmpi::capi::unregister_prequest(preq);
  delete preq;
  return MPI_SUCCESS;
}
