// The transfer engine: the post-and-callback form of every strategy.
//
// Each strategy's stages — copy-engine setup, D2H staging into a bounce
// buffer, the wire post, H2D on arrival, map/unmap latency, RDMA
// registration — are written once, here. The clMPI runtime's communication
// thread must never block: it *posts* the transfer the moment a command's
// wait list fires, and the completion side (PCIe up-staging, unmap
// accounting, event completion) runs from the MPI completion callbacks. This
// is what lets independent clMPI commands' transfers overlap each other and
// device compute — the Figure 4(c) behaviour — instead of serializing per
// queue.
//
// The blocking strategy.hpp entry points are this engine plus a wait that
// parks the calling fiber; host-driven baselines use them (the paper's
// hand-optimized code blocks its host thread; that is the point).
#pragma once

#include "transfer/strategy.hpp"
#include "vt/completion.hpp"

namespace clmpi::xfer {

/// Called exactly once with the transfer's virtual completion time. On
/// success `error` is nullptr; when an underlying MPI operation failed (e.g.
/// an injected fault dropped a message) `error` carries the first failure and
/// the completion time is the virtual time the failure was detected. Multi-
/// request transfers still fire `done` only after ALL sub-requests settle, so
/// bounce buffers never outlive in-flight envelopes.
using DoneFn = vt::Completion::Callback;

/// Post the send/receive of a device buffer region; returns immediately.
/// `done` fires, on the fiber that settles the last wire block, when the
/// last stage of the transfer completes.
void send_device_async(const DeviceEndpoint& ep, const Strategy& strategy,
                       vt::TimePoint ready, DoneFn done);
void recv_device_async(const DeviceEndpoint& ep, const Strategy& strategy,
                       vt::TimePoint ready, DoneFn done);

}  // namespace clmpi::xfer
