#include "ocl/device.hpp"

#include "support/units.hpp"

namespace clmpi::ocl {

Device::Device(const sys::SystemProfile& profile, int node, vt::Tracer* tracer, int index)
    : profile_(&profile),
      node_(node),
      tracer_(tracer),
      name_(profile.gpu.name),
      lane_("dev" + std::to_string(node) + "." + std::to_string(index)),
      compute_(lane_ + ".compute"),
      copy_(lane_ + ".copy") {}

vt::Resource::Span Device::charge_dma(vt::TimePoint ready, std::size_t bytes, bool to_device,
                                      bool pinned_host) {
  const vt::LinearCost& cost =
      pinned_host ? profile_->pcie.pinned : profile_->pcie.pageable;
  const auto span = copy_.acquire(ready, cost.of(bytes));
  if (tracer_ != nullptr) {
    tracer_->record(lane_ + ".dma", format_bytes(bytes),
                    to_device ? vt::SpanKind::host_to_device : vt::SpanKind::device_to_host,
                    span.start, span.end);
  }
  return span;
}

vt::Resource::Span Device::charge_pinned_dma(vt::TimePoint ready, std::size_t bytes,
                                             bool to_device) {
  const auto setup = copy_.acquire(ready, profile_->pcie.pin_setup);
  return charge_dma(setup.end, bytes, to_device, /*pinned_host=*/true);
}

vt::Resource::Span Device::charge_kernel(vt::TimePoint ready, vt::Duration cost,
                                         const std::string& label) {
  const auto span = compute_.acquire(ready, cost);
  if (tracer_ != nullptr) {
    tracer_->record(lane_, label, vt::SpanKind::compute, span.start, span.end);
  }
  return span;
}

}  // namespace clmpi::ocl
