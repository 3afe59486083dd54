#include "vt/tracer.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iomanip>
#include <map>
#include <sstream>
#include <tuple>

namespace clmpi::vt {

char glyph_for(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::compute: return '#';
    case SpanKind::host_to_device: return '>';
    case SpanKind::device_to_host: return '<';
    case SpanKind::wire: return '=';
    case SpanKind::wait: return '.';
    case SpanKind::other: return '+';
  }
  return '?';
}

void Tracer::record(std::string lane, std::string label, SpanKind kind, TimePoint start,
                    TimePoint end) {
  std::lock_guard lock(mutex_);
  spans_.push_back({std::move(lane), std::move(label), kind, start, end});
}

std::vector<TraceSpan> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

TimePoint Tracer::horizon() const {
  std::lock_guard lock(mutex_);
  TimePoint h{};
  for (const auto& s : spans_) h = max(h, s.end);
  return h;
}

std::string Tracer::gantt(std::size_t width) const {
  auto all = spans();
  if (all.empty()) return "(empty trace)\n";
  if (width == 0) width = 1;  // width-1 below must not wrap

  TimePoint t0 = all.front().start, t1 = all.front().end;
  for (const auto& s : all) {
    t0 = min(t0, s.start);
    t1 = max(t1, s.end);
  }
  const double range = std::max(1e-12, (t1 - t0).s);

  // Column of a [0,1] timeline fraction, clamped into the row buffer: a span
  // ending exactly at the horizon maps to width, one past the last cell.
  auto col = [width](double f) {
    const auto c = static_cast<std::size_t>(std::max(0.0, f) * static_cast<double>(width));
    return std::min(c, width - 1);
  };

  // Paint in content order, so where spans overlap the later-starting one
  // wins regardless of which fiber recorded first; lanes print sorted by name.
  std::sort(all.begin(), all.end(), [](const TraceSpan& x, const TraceSpan& y) {
    return std::tie(x.start.s, x.end.s, x.lane, x.kind, x.label) <
           std::tie(y.start.s, y.end.s, y.lane, y.kind, y.label);
  });
  std::map<std::string, std::string> rows;
  std::size_t lane_width = 0;
  for (const auto& s : all) {
    auto [it, fresh] = rows.try_emplace(s.lane, width, ' ');
    if (fresh) lane_width = std::max(lane_width, s.lane.size());
    const std::size_t c0 = col((s.start - t0).s / range);
    // Zero-duration spans (and single-instant traces) still paint one cell.
    const std::size_t c1 = std::max(col((s.end - t0).s / range), c0);
    for (std::size_t c = c0; c <= c1; ++c) it->second[c] = glyph_for(s.kind);
  }

  std::ostringstream os;
  os << std::fixed << std::setprecision(3);
  os << "timeline " << t0.s * 1e3 << " ms .. " << t1.s * 1e3 << " ms"
     << "   (# compute, > H2D, < D2H, = wire, . wait)\n";
  for (const auto& [lane, row] : rows)
    os << std::left << std::setw(static_cast<int>(lane_width)) << lane << " |" << row << "|\n";
  return os.str();
}

std::string Tracer::csv() const {
  std::ostringstream os;
  os << "lane,label,kind,start_s,end_s\n" << std::setprecision(9);
  for (const auto& s : spans()) {
    os << s.lane << ',' << s.label << ',' << static_cast<int>(s.kind) << ',' << s.start.s << ','
       << s.end.s << '\n';
  }
  return os.str();
}

std::string Tracer::chrome_json() const {
  const auto all = spans();
  // Stable lane -> tid mapping in discovery order, emitted as thread-name
  // metadata so the viewer shows lane labels.
  std::map<std::string, int> tids;
  std::vector<std::string> lanes;
  for (const auto& s : all) {
    if (tids.emplace(s.lane, static_cast<int>(lanes.size())).second) lanes.push_back(s.lane);
  }

  std::ostringstream os;
  os << "[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
  };
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    sep();
    os << R"({"name":"thread_name","ph":"M","pid":0,"tid":)" << i
       << R"(,"args":{"name":")" << lanes[i] << R"("}})";
  }
  os << std::fixed << std::setprecision(3);
  for (const auto& s : all) {
    sep();
    os << R"({"name":")" << s.label << R"(","cat":")" << glyph_for(s.kind)
       << R"(","ph":"X","pid":0,"tid":)" << tids[s.lane] << R"(,"ts":)" << s.start.s * 1e6
       << R"(,"dur":)" << (s.end - s.start).s * 1e6 << "}";
  }
  os << "]";
  return os.str();
}

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

std::uint64_t span_hash(const TraceSpan& s) {
  std::uint64_t h = kFnvOffset;
  fnv_bytes(h, s.lane.data(), s.lane.size());
  fnv_bytes(h, "\x1f", 1);  // separator so ("ab","c") != ("a","bc")
  fnv_bytes(h, s.label.data(), s.label.size());
  const auto kind = static_cast<std::uint32_t>(s.kind);
  fnv_bytes(h, &kind, sizeof(kind));
  const std::uint64_t start_bits = std::bit_cast<std::uint64_t>(s.start.s);
  const std::uint64_t end_bits = std::bit_cast<std::uint64_t>(s.end.s);
  fnv_bytes(h, &start_bits, sizeof(start_bits));
  fnv_bytes(h, &end_bits, sizeof(end_bits));
  return h;
}

}  // namespace

std::uint64_t Tracer::hash() const {
  std::lock_guard lock(mutex_);
  // A commutative combine (wrapping sum) makes the digest independent of
  // record() ordering across threads; each span is hashed on its own.
  std::uint64_t acc = 0;
  for (const auto& s : spans_) acc += span_hash(s);
  return acc;
}

namespace {

bool span_less(const TraceSpan& x, const TraceSpan& y) {
  return std::tie(x.lane, x.start.s, x.end.s, x.kind, x.label) <
         std::tie(y.lane, y.start.s, y.end.s, y.kind, y.label);
}

bool span_equal(const TraceSpan& x, const TraceSpan& y) {
  return x.lane == y.lane && x.label == y.label && x.kind == y.kind &&
         std::bit_cast<std::uint64_t>(x.start.s) == std::bit_cast<std::uint64_t>(y.start.s) &&
         std::bit_cast<std::uint64_t>(x.end.s) == std::bit_cast<std::uint64_t>(y.end.s);
}

const char* kind_name(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::compute: return "compute";
    case SpanKind::host_to_device: return "h2d";
    case SpanKind::device_to_host: return "d2h";
    case SpanKind::wire: return "wire";
    case SpanKind::wait: return "wait";
    case SpanKind::other: return "other";
  }
  return "?";
}

std::string describe_span(const std::optional<TraceSpan>& s) {
  if (!s) return "<no more spans>";
  std::ostringstream out;
  out.precision(17);
  out << "lane " << s->lane << " " << kind_name(s->kind) << " [" << s->start.s << ", "
      << s->end.s << "] s '" << s->label << "'";
  return out.str();
}

}  // namespace

std::optional<Divergence> Tracer::first_divergence(const Tracer& a, const Tracer& b) {
  std::vector<TraceSpan> x = a.spans();
  std::vector<TraceSpan> y = b.spans();
  std::sort(x.begin(), x.end(), span_less);
  std::sort(y.begin(), y.end(), span_less);
  const auto [ix, iy] = std::mismatch(x.begin(), x.end(), y.begin(), y.end(), span_equal);
  if (ix == x.end() && iy == y.end()) return std::nullopt;
  Divergence d;
  if (ix != x.end()) d.a = *ix;
  if (iy != y.end()) d.b = *iy;
  return d;
}

std::string to_string(const Divergence& d) {
  return "a: " + describe_span(d.a) + "\nb: " + describe_span(d.b);
}

void Tracer::clear() {
  std::lock_guard lock(mutex_);
  spans_.clear();
}

}  // namespace clmpi::vt
