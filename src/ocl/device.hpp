// Compute devices.
//
// A Device owns the two virtual resources a discrete GPU exposes to the
// runtime: the compute engine (kernels serialize on it, even across command
// queues — one GPU) and the copy engine (PCIe DMA; overlaps with compute,
// which is what makes pipelined transfers and kernel/transfer overlap
// possible on real hardware and in this model).
#pragma once

#include <string>

#include "systems/profile.hpp"
#include "vt/resource.hpp"
#include "vt/tracer.hpp"

namespace clmpi::ocl {

class Device {
 public:
  Device(const sys::SystemProfile& profile, int node, vt::Tracer* tracer, int index = 0);

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const sys::SystemProfile& profile() const noexcept { return *profile_; }
  [[nodiscard]] int node() const noexcept { return node_; }
  [[nodiscard]] vt::Tracer* tracer() const noexcept { return tracer_; }

  [[nodiscard]] vt::Resource& compute_engine() noexcept { return compute_; }
  [[nodiscard]] vt::Resource& copy_engine() noexcept { return copy_; }

  /// Charge a host<->device DMA of `bytes` on the copy engine, starting no
  /// earlier than `ready`. `pinned_host` selects the pinned vs pageable
  /// cost; `to_device` only affects the trace direction.
  vt::Resource::Span charge_dma(vt::TimePoint ready, std::size_t bytes, bool to_device,
                                bool pinned_host);

  /// Charge a DMA staged through a freshly pinned host buffer: the pin
  /// setup on the copy engine, then a pinned charge_dma after it. Returns the
  /// DMA's span.
  vt::Resource::Span charge_pinned_dma(vt::TimePoint ready, std::size_t bytes, bool to_device);

  /// Charge a kernel launch of duration `cost` on the compute engine.
  vt::Resource::Span charge_kernel(vt::TimePoint ready, vt::Duration cost,
                                   const std::string& label);

 private:
  const sys::SystemProfile* profile_;
  int node_;
  vt::Tracer* tracer_;
  std::string name_;
  std::string lane_;
  vt::Resource compute_;
  vt::Resource copy_;
};

}  // namespace clmpi::ocl
