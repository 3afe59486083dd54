#include "support/context.hpp"

#include <atomic>

namespace clmpi::ctx {

namespace detail {

std::size_t next_slot_id() noexcept {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

namespace {
thread_local ExecContext* t_override = nullptr;
thread_local ExecContext t_fallback;
}  // namespace

ExecContext& current() noexcept {
  return t_override != nullptr ? *t_override : t_fallback;
}

void set_current(ExecContext* c) noexcept { t_override = c; }

}  // namespace clmpi::ctx
