// Process-wide observability metrics: named monotonic counters and gauges.
//
// The runtime's subsystems (mailbox, strategy selection, fault engine,
// dispatcher) already make interesting decisions on their hot paths;
// this registry lets them publish those decisions without perturbing either
// wall-clock performance or the virtual timeline. Design constraints:
//
//   * Near-zero overhead when off: producers gate every increment on
//     metrics_enabled(), a single relaxed atomic load. The default is off
//     unless the CLMPI_METRICS environment variable enables it.
//   * Relaxed-atomic hot path when on: Counter::add / Gauge::record are a
//     relaxed fetch_add / store; no lock is ever taken while counting.
//   * Stable addresses: metric objects live in deques and are never removed,
//     so producers can look a metric up once (under the registry mutex) and
//     keep the reference for the process lifetime.
//   * Snapshot-consistent reads: snapshot() double-reads the counter array
//     until two consecutive passes agree (bounded retries), so a snapshot
//     taken while producers are quiescent is an exact cut, and one taken
//     mid-flight is still a value each counter actually held.
//   * Virtual-time neutrality: nothing in this file touches vt::Clock or
//     vt::Tracer; counting can never change a trace hash or a makespan.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace clmpi::obs {

/// Monotonically increasing event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value plus a monotone high-water mark. record() publishes a
/// level (queue depth, bytes in use, batch size); the registry reports it
/// under its name and the high-water mark under "<name>.hwm".
class Gauge {
 public:
  void record(std::uint64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
    std::uint64_t seen = hwm_.load(std::memory_order_relaxed);
    while (seen < v && !hwm_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t high_water() const noexcept {
    return hwm_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  std::atomic<std::uint64_t> value_{0};
  std::atomic<std::uint64_t> hwm_{0};
};

struct Sample {
  std::string name;
  std::uint64_t value{0};
};

/// Process-wide metric registry. Lookups (counter()/gauge()) take a mutex and
/// are meant to happen once per producer site; the returned references stay
/// valid forever.
class Registry {
 public:
  static Registry& instance();

  /// Find-or-create. Stable reference for the process lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);

  /// Every metric as (name, value) pairs, sorted by name. Gauges contribute
  /// two samples: "<name>" (current) and "<name>.hwm" (high-water mark).
  [[nodiscard]] std::vector<Sample> snapshot() const;

  /// Value of one metric by snapshot name (gauge high-water marks resolve
  /// via the ".hwm" suffix). Returns false if no such metric exists.
  [[nodiscard]] bool value(std::string_view name, std::uint64_t& out) const;

  /// Zero every counter and gauge (including high-water marks). Benches and
  /// tests call this between phases to attribute traffic; concurrent adds
  /// land after the reset.
  void reset();

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

/// Master switches. Initialized once from the CLMPI_METRICS / CLMPI_TRACE
/// environment variables ("" or "0" = off, anything else = on); tests and
/// benches may override programmatically.
[[nodiscard]] bool metrics_enabled() noexcept;
void set_metrics_enabled(bool on) noexcept;

[[nodiscard]] bool trace_enabled() noexcept;
void set_trace_enabled(bool on) noexcept;

/// When CLMPI_TRACE is a path rather than a boolean ("1"/"0"), the cluster
/// auto-exports a Perfetto JSON dump there at the end of each run. Empty
/// string when no path was configured.
[[nodiscard]] const std::string& trace_export_path();

}  // namespace clmpi::obs
