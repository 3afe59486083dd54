#include "ocl/event.hpp"

#include "vt/tracer.hpp"

namespace clmpi::ocl {

Event::Event(std::string label) : label_(std::move(label)) {}

Event::Profiling Event::profiling() const noexcept {
  Profiling p = stamps_;
  if (done()) p.ended = when();
  return p;
}

void traced_wait(const EventPtr& ev, vt::Clock& clock, vt::Tracer* tracer, int node,
                 std::string what) {
  const vt::TimePoint t0 = clock.now();
  ev->wait(clock);
  const vt::TimePoint t1 = clock.now();
  if (tracer != nullptr && t1.s > t0.s) {
    tracer->record("host" + std::to_string(node), std::move(what), vt::SpanKind::wait, t0,
                   t1);
  }
}

}  // namespace clmpi::ocl
