// Byte-size and rate literal helpers used across cost models and benches,
// and the bounds check for byte regions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace clmpi {

inline namespace units {

constexpr std::size_t operator""_KiB(unsigned long long v) { return static_cast<std::size_t>(v) * 1024u; }
constexpr std::size_t operator""_MiB(unsigned long long v) { return static_cast<std::size_t>(v) * 1024u * 1024u; }
constexpr std::size_t operator""_GiB(unsigned long long v) {
  return static_cast<std::size_t>(v) * 1024u * 1024u * 1024u;
}

/// Bandwidths are expressed in bytes per (virtual) second.
constexpr double operator""_MBps(unsigned long long v) { return static_cast<double>(v) * 1.0e6; }
constexpr double operator""_GBps(unsigned long long v) { return static_cast<double>(v) * 1.0e9; }
constexpr double operator""_GBps(long double v) { return static_cast<double>(v) * 1.0e9; }

/// Latencies in virtual seconds.
constexpr double operator""_us(unsigned long long v) { return static_cast<double>(v) * 1.0e-6; }
constexpr double operator""_us(long double v) { return static_cast<double>(v) * 1.0e-6; }
constexpr double operator""_ms(unsigned long long v) { return static_cast<double>(v) * 1.0e-3; }
constexpr double operator""_ms(long double v) { return static_cast<double>(v) * 1.0e-3; }

}  // namespace units

/// True when the region [offset, offset + size) lies inside [0, total).
/// Never forms the sum, which wraps for offsets near SIZE_MAX and would let
/// a region far outside the buffer pass.
constexpr bool region_fits(std::size_t offset, std::size_t size, std::size_t total) noexcept {
  return offset <= total && size <= total - offset;
}

/// "64 KiB", "1.5 MiB", "2 GiB" — human-readable byte counts for reports.
std::string format_bytes(std::size_t bytes);

}  // namespace clmpi
