#include "ocl/kernel.hpp"

#include "support/error.hpp"

namespace clmpi::ocl {

BufferPtr KernelArgs::buffer(std::size_t index) const {
  CLMPI_REQUIRE(index < args_->size(), "kernel argument index out of range");
  const auto* p = std::get_if<BufferPtr>(&(*args_)[index]);
  CLMPI_REQUIRE(p != nullptr && *p != nullptr, "kernel argument is not a buffer");
  return *p;
}

double KernelArgs::scalar(std::size_t index) const {
  CLMPI_REQUIRE(index < args_->size(), "kernel argument index out of range");
  const auto& arg = (*args_)[index];
  if (const auto* d = std::get_if<double>(&arg)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&arg)) return static_cast<double>(*i);
  throw PreconditionError("kernel argument is not a scalar");
}

std::int64_t KernelArgs::integer(std::size_t index) const {
  CLMPI_REQUIRE(index < args_->size(), "kernel argument index out of range");
  const auto* i = std::get_if<std::int64_t>(&(*args_)[index]);
  CLMPI_REQUIRE(i != nullptr, "kernel argument is not an integer");
  return *i;
}

Kernel::Kernel(std::string name, KernelBody body, KernelCost cost)
    : name_(std::move(name)), body_(std::move(body)), cost_(std::move(cost)) {
  CLMPI_REQUIRE(body_ != nullptr, "kernel needs a body");
  CLMPI_REQUIRE(cost_ != nullptr, "kernel needs a cost model");
}

void Kernel::grow_to(std::size_t index) {
  // Unset arguments read as int64 0 (a variant fill value for resize() trips
  // GCC's -Wmaybe-uninitialized).
  while (args_.size() <= index) args_.emplace_back(std::int64_t{0});
}

void Kernel::set_arg(std::size_t index, BufferPtr buf) {
  CLMPI_REQUIRE(buf != nullptr, "null buffer argument");
  grow_to(index);
  args_[index] = std::move(buf);
}

void Kernel::set_arg(std::size_t index, double scalar) {
  grow_to(index);
  args_[index] = scalar;
}

void Kernel::set_arg(std::size_t index, std::int64_t scalar) {
  grow_to(index);
  args_[index] = scalar;
}

void Program::define(const std::string& name, KernelBody body, KernelCost cost) {
  CLMPI_REQUIRE(definitions_.find(name) == definitions_.end(),
                "kernel already defined: " + name);
  definitions_.emplace(name, Definition{std::move(body), std::move(cost)});
}

KernelPtr Program::create_kernel(const std::string& name) const {
  auto it = definitions_.find(name);
  CLMPI_REQUIRE(it != definitions_.end(), "unknown kernel: " + name);
  return std::make_shared<Kernel>(name, it->second.body, it->second.cost);
}

bool Program::has_kernel(const std::string& name) const {
  return definitions_.find(name) != definitions_.end();
}

KernelCost flops_per_item(double flops) {
  return [flops](const NDRange& range, const sys::SystemProfile& prof) {
    return vt::seconds(static_cast<double>(range.total()) * flops / prof.gpu.stencil_flops);
  };
}

KernelCost fixed_cost(vt::Duration d) {
  return [d](const NDRange&, const sys::SystemProfile&) { return d; };
}

}  // namespace clmpi::ocl
