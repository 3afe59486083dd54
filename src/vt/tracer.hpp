// Span tracing on the virtual timeline, with an ASCII Gantt renderer.
//
// Reproduces the paper's Figure 4 execution-timeline diagrams: each lane is
// an entity (host thread, device queue, network), each span an operation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "vt/time.hpp"

namespace clmpi::vt {

/// Categories map to single glyphs in the Gantt rendering.
enum class SpanKind { compute, host_to_device, device_to_host, wire, wait, other };

char glyph_for(SpanKind kind) noexcept;

struct TraceSpan {
  std::string lane;
  std::string label;
  SpanKind kind{SpanKind::other};
  TimePoint start;
  TimePoint end;
};

/// Where two traces part: the first position at which their content-sorted
/// span lists differ, with the span each side holds there (empty when that
/// side ran out of spans).
struct Divergence {
  std::optional<TraceSpan> a;
  std::optional<TraceSpan> b;
};

/// One line per side: "a: lane host1 wire [start, end] s 'label'".
std::string to_string(const Divergence& d);

/// Thread-safe trace sink. Pass a Tracer* to runtime components that should
/// record their activity; nullptr disables tracing at near-zero cost.
class Tracer {
 public:
  void record(std::string lane, std::string label, SpanKind kind, TimePoint start,
              TimePoint end);

  [[nodiscard]] std::vector<TraceSpan> spans() const;

  /// End of the latest span (the traced makespan).
  [[nodiscard]] TimePoint horizon() const;

  /// ASCII Gantt chart: one row per lane, `width` characters of timeline.
  /// A function of span content only: lanes are sorted by name, and spans
  /// paint in (start, end, lane, kind, label) order, so the later-starting
  /// of two overlapping spans shows, whichever was recorded first.
  [[nodiscard]] std::string gantt(std::size_t width = 96) const;

  /// Comma-separated values (lane,label,kind,start,end) for offline plotting.
  [[nodiscard]] std::string csv() const;

  /// Chrome trace-event JSON (load in chrome://tracing or Perfetto): one
  /// complete event per span, one track per lane, timestamps in virtual
  /// microseconds.
  [[nodiscard]] std::string chrome_json() const;

  /// Order-independent digest of the trace: the wrapping sum of one FNV-1a
  /// hash per span (lane, label, kind, start, end bits). Two runs of the
  /// same deterministic workload produce the same value regardless of the
  /// real-time interleaving in which threads called record() — the chaos
  /// suite's reproducibility invariant.
  [[nodiscard]] std::uint64_t hash() const;

  /// The first differing span of two traces, comparing their spans sorted by
  /// (lane, start, end, kind, label) — so, like hash(), independent of
  /// record() order. Empty when both hold the same spans.
  [[nodiscard]] static std::optional<Divergence> first_divergence(const Tracer& a,
                                                                  const Tracer& b);

  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<TraceSpan> spans_;
};

}  // namespace clmpi::vt
