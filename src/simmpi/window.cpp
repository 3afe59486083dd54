#include "simmpi/window.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <limits>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "simmpi/cluster_core.hpp"
#include "simmpi/comm.hpp"
#include "support/error.hpp"
#include "support/sched.hpp"

namespace clmpi::mpi {

namespace detail {

namespace {

/// RMA accesses consult the fault engine on a reserved negative tag space so
/// their per-channel verdict sequences can never interleave with (and thus
/// never perturb) two-sided send/recv traffic, whose tags are >= 0 (user
/// tags) or in the positive pipeline_subtag space.
constexpr int kRmaTagBase = -1000;

struct PendingOp {
  enum class Kind { put, get };
  Kind kind{Kind::put};
  int origin{-1};
  int target{-1};
  std::size_t target_offset{0};
  std::size_t size{0};
  vt::TimePoint ready{};
  RmaOptions opts{};
  std::uint64_t index{0};  ///< per-origin program order
  std::vector<std::byte> payload;  ///< put only
  RmaSink sink;                    ///< get only
  RmaCompletion on_complete;       ///< optional
};

}  // namespace

struct WindowShared {
  struct Region {
    std::span<std::byte> span;
    StageHook ingress;
    StageHook egress;
  };

  ClusterCore* core{nullptr};
  int context{0};
  int nranks{0};
  std::vector<int> nodes;  ///< comm rank -> global node id

  // Creation rendezvous.
  std::vector<Region> regions;
  int registered{0};
  vt::TimePoint create_end{};

  // Epoch state.
  std::vector<PendingOp> pending;
  std::vector<std::uint64_t> next_index;  ///< per-origin posting counter
  bool any_epoch_open{false};             ///< first fence opens it
  bool freed{false};
  int epochs{0};
  int fault_seq{0};  ///< per-window RMA fault-tag sequence

  // Fence rendezvous.
  std::vector<char> in_rendezvous;
  std::vector<int> rank_fault;  ///< per round: 0 none, 1 dropped, 2 timeout
  int arrived{0};
  std::uint64_t generation{0};
  vt::TimePoint enter_max{};
  vt::TimePoint round_end{};

  void apply_epoch();
  vt::TimePoint apply_one(const PendingOp& op);

  /// One fence or free round: `rank` arrives at `ready`. The last rank to
  /// arrive runs `close` (enter_max then holds the latest arrival) and
  /// releases the others, which wait at `site`.
  template <typename Close>
  void round(int rank, vt::TimePoint ready, const char* site, Close&& close) {
    in_rendezvous[static_cast<std::size_t>(rank)] = 1;
    enter_max = vt::max(enter_max, ready);
    const std::uint64_t my_gen = generation;
    if (++arrived == nranks) {
      close();
      arrived = 0;
      enter_max = {};
      std::fill(in_rendezvous.begin(), in_rendezvous.end(), 0);
      ++generation;
    } else {
      sched::wait([&] { return generation != my_gen; }, site);
    }
  }
};

/// Apply every access of the closing epoch. Called by the last rank to
/// arrive; the schedule it produces depends only on virtual ready times and
/// the deterministic (origin, index) order, so WHICH rank applies is
/// immaterial.
void WindowShared::apply_epoch() {
  std::fill(rank_fault.begin(), rank_fault.end(), 0);
  round_end = enter_max;

  std::stable_sort(pending.begin(), pending.end(),
                   [](const PendingOp& a, const PendingOp& b) {
                     if (a.origin != b.origin) return a.origin < b.origin;
                     return a.index < b.index;
                   });
  // Gets first: every Get of an epoch reads the window as it stood when the
  // epoch closed, before any Put of the same epoch lands. Then Puts, in
  // (origin, index) order, so overlapping Puts resolve deterministically.
  for (const PendingOp& op : pending) {
    if (op.kind == PendingOp::Kind::get) round_end = vt::max(round_end, apply_one(op));
  }
  for (const PendingOp& op : pending) {
    if (op.kind == PendingOp::Kind::put) round_end = vt::max(round_end, apply_one(op));
  }
  pending.clear();
  any_epoch_open = true;
  ++epochs;
}

vt::TimePoint WindowShared::apply_one(const PendingOp& op) {
  Network& net = *core->network;
  FaultEngine* fe = core->faults.get();
  const bool is_put = op.kind == PendingOp::Kind::put;
  // Wire direction: a Put moves origin -> target, a Get target -> origin.
  const int src = nodes[static_cast<std::size_t>(is_put ? op.origin : op.target)];
  const int dst = nodes[static_cast<std::size_t>(is_put ? op.target : op.origin)];

  FaultDecision d{};
  const int tag = kRmaTagBase - fault_seq++;
  if (fe != nullptr) d = fe->decide(src, dst, context, tag, op.size);

  vt::TimePoint start = vt::max(op.ready, enter_max) + d.delay;
  Region& tregion = regions[static_cast<std::size_t>(op.target)];

  // A Get stages the target's bytes out (e.g. D2H when the window lives in
  // device memory) before they reach the wire.
  if (!is_put && tregion.egress) start = tregion.egress(start, op.size).end;

  const bool use_shmem = op.opts.path == RmaPath::shmem ||
                         (op.opts.path == RmaPath::automatic && net.has_shmem());
  const char* lbl = is_put ? "rma.put" : "rma.get";
  auto wire = [&](vt::TimePoint ready, const char* label) {
    return use_shmem ? net.shmem_transfer(src, dst, ready, op.size, label)
                     : net.transfer(src, dst, ready, op.size,
                                    std::numeric_limits<double>::infinity(), label);
  };
  auto span = wire(start, lbl);
  if (fe != nullptr) {
    const RetryPolicy& retry = fe->plan().retry;
    for (int k = 1; k < d.wire_attempts; ++k) span = wire(span.end + retry.backoff(k), "retry");
  }
  if (d.duplicate) span = wire(span.end, lbl);

  vt::TimePoint end = span.end;
  int fault = 0;  // 0 none, 1 dropped, 2 timeout
  if (!d.delivered) fault = d.retries_exhausted ? 2 : 1;
  if (op.opts.deadline > vt::Duration{} && end > op.ready + op.opts.deadline) {
    end = op.ready + op.opts.deadline;
    fault = 2;
  }

  std::exception_ptr err;
  if (fault == 0) {
    if (is_put) {
      if (tregion.ingress) end = tregion.ingress(end, op.size).end;
      if (op.size > 0) {
        std::memcpy(tregion.span.data() + op.target_offset, op.payload.data(), op.size);
      }
    } else if (op.sink) {
      end = op.sink(end, tregion.span.subspan(op.target_offset, op.size));
    }
  } else {
    const std::string what = std::string(is_put ? "Put" : "Get") + " of " +
                             std::to_string(op.size) + " B, rank " +
                             std::to_string(op.origin) + " -> " + std::to_string(op.target);
    if (fault == 1) {
      err = std::make_exception_ptr(MessageDroppedError("RMA access lost: " + what));
    } else {
      err = std::make_exception_ptr(TimeoutError("RMA access timed out: " + what));
    }
    rank_fault[static_cast<std::size_t>(op.origin)] =
        std::max(rank_fault[static_cast<std::size_t>(op.origin)], fault);
    rank_fault[static_cast<std::size_t>(op.target)] =
        std::max(rank_fault[static_cast<std::size_t>(op.target)], fault);
    if (obs::metrics_enabled()) {
      static auto& faults = obs::Registry::instance().counter("rma.faults");
      faults.add();
    }
  }
  if (op.on_complete) op.on_complete(end, err);
  return end;
}

namespace {

void post_op(const std::shared_ptr<WindowShared>& sh, int rank, PendingOp op) {
  if (sh == nullptr) {
    // An empty handle and a freed window are the same user-visible state
    // (free() drops the handle's shared state): the documented typed status.
    throw Error("RMA access on an empty or freed window handle", Status::invalid_window);
  }
  if (op.opts.path == RmaPath::shmem && !sh->core->network->has_shmem()) {
    throw Error("RmaPath::shmem requested but the system profile has no shared-memory tier",
                Status::invalid_operation);
  }
  if (op.target < 0 || op.target >= sh->nranks) {
    throw Error("RMA target rank " + std::to_string(op.target) +
                    " outside the window group of size " + std::to_string(sh->nranks),
                Status::invalid_rank);
  }
  if (sh->freed) {
    throw Error("RMA access on a freed window", Status::invalid_window);
  }
  if (!sh->any_epoch_open || sh->in_rendezvous[static_cast<std::size_t>(rank)] != 0) {
    throw Error("RMA access posted outside an open fence epoch", Status::rma_epoch);
  }
  const auto& tspan = sh->regions[static_cast<std::size_t>(op.target)].span;
  if (op.target_offset > tspan.size() || op.size > tspan.size() - op.target_offset) {
    throw Error("RMA access [" + std::to_string(op.target_offset) + ", " +
                    std::to_string(op.target_offset + op.size) +
                    ") outside the target region of " + std::to_string(tspan.size()) + " B",
                Status::invalid_value);
  }
  op.origin = rank;
  op.index = sh->next_index[static_cast<std::size_t>(rank)]++;
  if (obs::metrics_enabled()) {
    static auto& puts = obs::Registry::instance().counter("rma.puts");
    static auto& gets = obs::Registry::instance().counter("rma.gets");
    (op.kind == PendingOp::Kind::put ? puts : gets).add();
  }
  sh->pending.push_back(std::move(op));
}

}  // namespace
}  // namespace detail

int Win::size() const {
  CLMPI_REQUIRE(shared_ != nullptr, "size() on an empty window handle");
  return shared_->nranks;
}

int Win::epochs() const {
  CLMPI_REQUIRE(shared_ != nullptr, "epochs() on an empty window handle");
  return shared_->epochs;
}

std::size_t Win::region_size(int target) const {
  if (shared_ == nullptr) {
    throw Error("region_size() on an empty or freed window handle", Status::invalid_window);
  }
  if (target < 0 || target >= shared_->nranks) {
    throw Error("RMA target rank " + std::to_string(target) +
                    " outside the window group of size " + std::to_string(shared_->nranks),
                Status::invalid_rank);
  }
  if (shared_->freed) throw Error("region_size() on a freed window", Status::invalid_window);
  return shared_->regions[static_cast<std::size_t>(target)].span.size();
}

bool Win::epoch_open() const {
  CLMPI_REQUIRE(shared_ != nullptr, "epoch_open() on an empty window handle");
  return shared_->any_epoch_open && !shared_->freed;
}

void Win::put(std::vector<std::byte> payload, int target, std::size_t target_offset,
              vt::TimePoint ready, RmaOptions opts, RmaCompletion on_complete) {
  detail::PendingOp op;
  op.kind = detail::PendingOp::Kind::put;
  op.target = target;
  op.target_offset = target_offset;
  op.size = payload.size();
  op.ready = ready;
  op.opts = opts;
  op.payload = std::move(payload);
  op.on_complete = std::move(on_complete);
  detail::post_op(shared_, rank_, std::move(op));
}

void Win::get(RmaSink sink, std::size_t size, int target, std::size_t target_offset,
              vt::TimePoint ready, RmaOptions opts, RmaCompletion on_complete) {
  detail::PendingOp op;
  op.kind = detail::PendingOp::Kind::get;
  op.target = target;
  op.target_offset = target_offset;
  op.size = size;
  op.ready = ready;
  op.opts = opts;
  op.sink = std::move(sink);
  op.on_complete = std::move(on_complete);
  detail::post_op(shared_, rank_, std::move(op));
}

void Win::put(std::span<const std::byte> data, int target, std::size_t target_offset,
              vt::Clock& clock, RmaOptions opts) {
  put(std::vector<std::byte>(data.begin(), data.end()), target, target_offset, clock.now(),
      opts);
}

void Win::get(std::span<std::byte> dest, int target, std::size_t target_offset,
              vt::Clock& clock, RmaOptions opts) {
  get(
      [dest](vt::TimePoint wire_end, std::span<const std::byte> data) {
        if (!data.empty()) std::memcpy(dest.data(), data.data(), data.size());
        return wire_end;
      },
      dest.size(), target, target_offset, clock.now(), opts);
}

vt::TimePoint Win::fence(vt::TimePoint ready) {
  CLMPI_REQUIRE(shared_ != nullptr, "fence on an empty window handle");
  auto sh = shared_;
  if (sh->freed) throw Error("fence on a freed window", Status::invalid_window);
  sh->round(rank_, ready, "mpi.win.fence", [&] { sh->apply_epoch(); });
  // Read before this fiber yields again: the next round's apply cannot run
  // until this rank re-arrives, so round_end / rank_fault are this round's.
  const vt::TimePoint end = sh->round_end;
  const int fault = sh->rank_fault[static_cast<std::size_t>(rank_)];
  if (obs::metrics_enabled()) {
    static auto& fences = obs::Registry::instance().counter("rma.fences");
    fences.add();
  }
  if (fault == 1) {
    throw MessageDroppedError("RMA epoch closed with a lost access involving rank " +
                              std::to_string(rank_));
  }
  if (fault == 2) {
    throw TimeoutError("RMA epoch closed with a timed-out access involving rank " +
                       std::to_string(rank_));
  }
  return end;
}

void Win::fence(vt::Clock& clock) { clock.sync_to(fence(clock.now())); }

void Win::free(vt::Clock& clock) {
  CLMPI_REQUIRE(shared_ != nullptr, "free on an empty window handle");
  auto sh = shared_;
  shared_.reset();
  if (sh->freed) throw Error("double free of a window", Status::invalid_window);
  sh->round(rank_, clock.now(), "mpi.win.free", [&] {
    // Freeing with accesses still pending is an epoch-protocol violation:
    // fail them (typed, never silently dropped) instead of applying.
    std::fill(sh->rank_fault.begin(), sh->rank_fault.end(), 0);
    for (const auto& op : sh->pending) {
      sh->rank_fault[static_cast<std::size_t>(op.origin)] = 3;
      if (op.on_complete) {
        op.on_complete(sh->enter_max,
                       std::make_exception_ptr(
                           Error("window freed with accesses pending", Status::rma_epoch)));
      }
    }
    sh->pending.clear();
    sh->round_end = sh->enter_max;
    sh->freed = true;
  });
  const vt::TimePoint end = sh->round_end;
  const bool had_pending = sh->rank_fault[static_cast<std::size_t>(rank_)] == 3;
  clock.sync_to(end);
  if (had_pending) {
    throw Error("window freed with accesses this rank posted still pending",
                Status::rma_epoch);
  }
}

Win create_window(Comm& comm, std::span<std::byte> region, vt::Clock& clock,
                  StageHook ingress, StageHook egress) {
  auto* core = comm.core();
  const std::uint64_t key = (static_cast<std::uint64_t>(comm.context()) << 32U) |
                            static_cast<std::uint64_t>(comm.take_win_seq());
  auto& slot = core->windows[key];
  if (!slot) {
    slot = std::make_shared<detail::WindowShared>();
    slot->core = core;
    slot->context = comm.context();
    slot->nranks = comm.size();
    slot->nodes.resize(static_cast<std::size_t>(comm.size()));
    for (int r = 0; r < comm.size(); ++r) {
      slot->nodes[static_cast<std::size_t>(r)] = comm.node_of(r);
    }
    slot->regions.resize(static_cast<std::size_t>(comm.size()));
    slot->next_index.assign(static_cast<std::size_t>(comm.size()), 0);
    slot->in_rendezvous.assign(static_cast<std::size_t>(comm.size()), 0);
    slot->rank_fault.assign(static_cast<std::size_t>(comm.size()), 0);
  }
  const std::shared_ptr<detail::WindowShared> sh = slot;
  sh->regions[static_cast<std::size_t>(comm.rank())] = {region, std::move(ingress),
                                                        std::move(egress)};
  sh->create_end = vt::max(sh->create_end, clock.now());
  if (++sh->registered != sh->nranks) {
    sched::wait([&] { return sh->registered == sh->nranks; }, "mpi.win.create");
  }
  // Every rank holds its shared pointer by now; retire the rendezvous slot.
  core->windows.erase(key);
  clock.sync_to(sh->create_end);
  return Win{sh, comm.rank()};
}

}  // namespace clmpi::mpi
