#include "transfer/pool.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <utility>

#include "obs/metrics.hpp"
#include "support/context.hpp"
#include "support/tenant.hpp"

namespace clmpi::xfer {

namespace {

void raise_high_water(std::atomic<std::size_t>& mark, std::size_t value) noexcept {
  std::size_t seen = mark.load(std::memory_order_relaxed);
  while (seen < value &&
         !mark.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

void StagingPool::Buffer::release() noexcept {
  // Credit the tenant for the full reserved capacity (the amount charged at
  // acquire). Releases may run on any thread — completion callbacks, the
  // idle backstop — so the credit is just a relaxed atomic sub.
  if (job_ != nullptr && !storage_.empty()) {
    job_->credit_staging(storage_.size());
  }
  if (pool_ != nullptr && !storage_.empty()) {
    pool_->give_back(std::move(storage_));
  }
  pool_ = nullptr;
  job_ = nullptr;
  storage_.clear();
  size_ = 0;
}

std::size_t StagingPool::class_of(std::size_t bytes) noexcept {
  const auto width = static_cast<std::size_t>(std::bit_width(bytes - 1));
  return width < kMinClassLog2 ? 0 : width - kMinClassLog2;
}

StagingPool::Buffer StagingPool::acquire(std::size_t bytes) {
  if (bytes == 0) return {};
  // Tenancy: charge the acquiring task's job for the reserved capacity,
  // BEFORE touching the free lists — a QuotaError then leaves the pool
  // untouched. Standalone runs (no job) skip the whole hook.
  tenant::JobControl* job = ctx::current().job;
  acquires_.fetch_add(1, std::memory_order_relaxed);

  if (bytes > (std::size_t{1} << kMaxClassLog2)) {
    if (job != nullptr) job->charge_staging(bytes);
    if (obs::metrics_enabled()) {
      static auto& acquires = obs::Registry::instance().counter("xfer.pool.acquires");
      acquires.add();
    }
    // Oversized: plain allocation, never retained.
    return Buffer(nullptr, job, std::vector<std::byte>(bytes), bytes);
  }

  const std::size_t cls = class_of(bytes);
  const std::size_t class_bytes = std::size_t{1} << (cls + kMinClassLog2);
  if (job != nullptr) job->charge_staging(class_bytes);
  std::vector<std::byte> storage;
  {
    SizeClass& sc = classes_[cls];
    std::lock_guard lock(sc.mutex);
    if (!sc.free.empty()) {
      storage = std::move(sc.free.back());
      sc.free.pop_back();
    }
  }
  const bool hit = !storage.empty();
  if (hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    bytes_retained_.fetch_sub(class_bytes, std::memory_order_relaxed);
  } else {
    storage.resize(class_bytes);
  }
  const std::size_t in_use =
      bytes_in_use_.fetch_add(class_bytes, std::memory_order_relaxed) + class_bytes;
  raise_high_water(high_water_in_use_, in_use);
  if (obs::metrics_enabled()) {
    static auto& acquires = obs::Registry::instance().counter("xfer.pool.acquires");
    static auto& hits = obs::Registry::instance().counter("xfer.pool.hits");
    static auto& in_use_gauge = obs::Registry::instance().gauge("xfer.pool.in_use_bytes");
    acquires.add();
    if (hit) hits.add();
    // Per-pool level: the gauge's high-water mark tracks the largest in-use
    // footprint any single rank's pool reached.
    in_use_gauge.record(in_use);
  }
  return Buffer(this, job, std::move(storage), bytes);
}

void StagingPool::give_back(std::vector<std::byte> storage) noexcept {
  const std::size_t class_bytes = storage.size();
  bytes_in_use_.fetch_sub(class_bytes, std::memory_order_relaxed);
  const std::size_t retained =
      bytes_retained_.fetch_add(class_bytes, std::memory_order_relaxed) + class_bytes;
  raise_high_water(high_water_retained_, retained);
  const std::size_t cls = class_of(class_bytes);
  SizeClass& sc = classes_[cls];
  std::lock_guard lock(sc.mutex);
  sc.free.push_back(std::move(storage));
}

StagingPool::Stats StagingPool::stats() const {
  // The six atomics are written independently on the allocation fast path,
  // so naive single reads can produce an impossible snapshot (hits above
  // acquires mid-acquire, or counters torn against reset_all_stats). Read
  // the whole set twice until a pass repeats — a stable pair means no writer
  // interleaved and the cut is consistent. The loop is bounded: under
  // sustained concurrent traffic it settles for the last pass and clamps the
  // cross-field invariants instead, keeping the fast path lock-free.
  auto read_all = [this] {
    Stats s;
    s.acquires = acquires_.load(std::memory_order_relaxed);
    s.hits = hits_.load(std::memory_order_relaxed);
    s.bytes_in_use = bytes_in_use_.load(std::memory_order_relaxed);
    s.high_water_in_use = high_water_in_use_.load(std::memory_order_relaxed);
    s.bytes_retained = bytes_retained_.load(std::memory_order_relaxed);
    s.high_water_retained = high_water_retained_.load(std::memory_order_relaxed);
    return s;
  };
  auto same = [](const Stats& a, const Stats& b) {
    return a.acquires == b.acquires && a.hits == b.hits &&
           a.bytes_in_use == b.bytes_in_use && a.high_water_in_use == b.high_water_in_use &&
           a.bytes_retained == b.bytes_retained &&
           a.high_water_retained == b.high_water_retained;
  };
  Stats s = read_all();
  for (int attempt = 0; attempt < 8; ++attempt) {
    const Stats check = read_all();
    if (same(s, check)) break;
    s = check;
  }
  s.hits = std::min(s.hits, s.acquires);
  s.high_water_in_use = std::max(s.high_water_in_use, s.bytes_in_use);
  s.high_water_retained = std::max(s.high_water_retained, s.bytes_retained);
  return s;
}

void StagingPool::trim() {
  for (std::size_t cls = 0; cls < kClasses; ++cls) {
    std::vector<std::vector<std::byte>> victims;
    {
      SizeClass& sc = classes_[cls];
      std::lock_guard lock(sc.mutex);
      victims.swap(sc.free);
    }
    std::size_t freed = 0;
    for (const auto& v : victims) freed += v.size();
    if (freed > 0) bytes_retained_.fetch_sub(freed, std::memory_order_relaxed);
  }
}

namespace {

struct PoolRegistry {
  std::mutex mutex;
  // deque: stable addresses across growth.
  std::deque<StagingPool> pools;
  std::deque<int> nodes;

  StagingPool& lookup(int node) {
    std::lock_guard lock(mutex);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i] == node) return pools[i];
    }
    nodes.push_back(node);
    return pools.emplace_back();
  }
};

PoolRegistry& registry() {
  static PoolRegistry r;
  return r;
}

}  // namespace

StagingPool& StagingPool::for_node(int node) {
  // Each rank keeps asking for the same node; a rank-scoped memo
  // (execution-context slot — a fiber's cache must follow it across worker
  // threads) keeps the registry mutex off the per-message path.
  struct NodeCache {
    int node{-2};
    StagingPool* pool{nullptr};
  };
  NodeCache& cached = ctx::current().slot<NodeCache>();
  if (cached.node != node) {
    cached.pool = &registry().lookup(node);
    cached.node = node;
  }
  return *cached.pool;
}

StagingPool::Stats StagingPool::aggregate_stats() {
  PoolRegistry& r = registry();
  std::lock_guard lock(r.mutex);
  Stats total;
  for (const StagingPool& p : r.pools) {
    const Stats s = p.stats();
    total.acquires += s.acquires;
    total.hits += s.hits;
    total.bytes_in_use += s.bytes_in_use;
    total.high_water_in_use += s.high_water_in_use;
    total.bytes_retained += s.bytes_retained;
    total.high_water_retained += s.high_water_retained;
  }
  return total;
}

void StagingPool::reset_all_stats() {
  PoolRegistry& r = registry();
  std::lock_guard lock(r.mutex);
  for (StagingPool& p : r.pools) {
    p.acquires_.store(0, std::memory_order_relaxed);
    p.hits_.store(0, std::memory_order_relaxed);
    const std::size_t in_use = p.bytes_in_use_.load(std::memory_order_relaxed);
    const std::size_t retained = p.bytes_retained_.load(std::memory_order_relaxed);
    p.high_water_in_use_.store(in_use, std::memory_order_relaxed);
    p.high_water_retained_.store(retained, std::memory_order_relaxed);
  }
}

}  // namespace clmpi::xfer
