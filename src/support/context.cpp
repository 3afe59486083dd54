#include "support/context.hpp"

namespace clmpi::ctx {

namespace {
thread_local ExecContext* t_override = nullptr;
thread_local ExecContext t_fallback;
}  // namespace

ExecContext& current() noexcept {
  return t_override != nullptr ? *t_override : t_fallback;
}

void set_current(ExecContext* c) noexcept { t_override = c; }

}  // namespace clmpi::ctx
