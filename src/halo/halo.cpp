#include "halo/halo.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "simmpi/datatype.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace clmpi::halo {

namespace {

/// Shared geometry decode for the pack/unpack kernel bodies. Args:
///   0 field, 1 stage,
///   2..4 slab origin (padded coords), 5..7 slab extents (elements),
///   8..9 padded x/y extents, 10 element size, 11 stage segment offset (bytes).
struct SlabArgs {
  std::span<std::byte> field, stage;
  std::size_t o0, o1, o2, e0, e1, e2, p0, p1, elem, off;

  explicit SlabArgs(const ocl::KernelArgs& a)
      : field(a.buffer(0)->storage()),
        stage(a.buffer(1)->storage()),
        o0(static_cast<std::size_t>(a.integer(2))),
        o1(static_cast<std::size_t>(a.integer(3))),
        o2(static_cast<std::size_t>(a.integer(4))),
        e0(static_cast<std::size_t>(a.integer(5))),
        e1(static_cast<std::size_t>(a.integer(6))),
        e2(static_cast<std::size_t>(a.integer(7))),
        p0(static_cast<std::size_t>(a.integer(8))),
        p1(static_cast<std::size_t>(a.integer(9))),
        elem(static_cast<std::size_t>(a.integer(10))),
        off(static_cast<std::size_t>(a.integer(11))) {}

  [[nodiscard]] std::size_t field_byte(std::size_t y, std::size_t z) const {
    return (((o2 + z) * p1 + (o1 + y)) * p0 + o0) * elem;
  }
  [[nodiscard]] std::size_t stage_byte(std::size_t y, std::size_t z) const {
    return off + (z * e1 + y) * e0 * elem;
  }
  [[nodiscard]] std::size_t row_bytes() const { return e0 * elem; }
};

/// Gather the boundary slab into its contiguous staging segment (rows along
/// x are contiguous in both layouts, so the copy is one memcpy per row).
void pack_body(const ocl::NDRange&, const ocl::KernelArgs& a) {
  const SlabArgs s(a);
  for (std::size_t z = 0; z < s.e2; ++z) {
    for (std::size_t y = 0; y < s.e1; ++y) {
      std::memcpy(s.stage.data() + s.stage_byte(y, z), s.field.data() + s.field_byte(y, z),
                  s.row_bytes());
    }
  }
}

/// Scatter a staging segment into the ghost slab.
void unpack_body(const ocl::NDRange&, const ocl::KernelArgs& a) {
  const SlabArgs s(a);
  for (std::size_t z = 0; z < s.e2; ++z) {
    for (std::size_t y = 0; y < s.e1; ++y) {
      std::memcpy(s.field.data() + s.field_byte(y, z), s.stage.data() + s.stage_byte(y, z),
                  s.row_bytes());
    }
  }
}

[[nodiscard]] bool exchanged(const Plan&, const Edge& e) {
  return e.neighbor != -1 && e.bytes > 0;
}

}  // namespace

std::array<std::size_t, 3> padded_extents(const Spec& spec) {
  std::array<std::size_t, 3> p = spec.interior;
  for (int d = 0; d < spec.dims; ++d) p[static_cast<std::size_t>(d)] += 2 * spec.width;
  return p;
}

std::size_t field_bytes(const Spec& spec) {
  const auto p = padded_extents(spec);
  return p[0] * p[1] * p[2] * spec.elem_size;
}

std::array<int, 3> coords_of(int rank, const Spec& spec) {
  return {rank % spec.grid[0], (rank / spec.grid[0]) % spec.grid[1],
          rank / (spec.grid[0] * spec.grid[1])};
}

Plan::Plan(rt::Runtime& runtime, ocl::Context& ctx, mpi::Comm& comm, ocl::BufferPtr field,
           const Spec& spec)
    : runtime_(&runtime), comm_(&comm), field_(std::move(field)), spec_(spec) {
  CLMPI_REQUIRE(spec_.dims >= 1 && spec_.dims <= 3, "halo plan dims must be 1, 2 or 3");
  CLMPI_REQUIRE(spec_.elem_size >= 1, "halo plan element size must be positive");
  long expected = 1;
  for (int d = 0; d < 3; ++d) {
    const auto dd = static_cast<std::size_t>(d);
    CLMPI_REQUIRE(spec_.interior[dd] >= 1 && spec_.grid[dd] >= 1,
                  "halo plan extents and process grid must be positive");
    if (d < spec_.dims) {
      expected *= spec_.grid[dd];
    } else {
      CLMPI_REQUIRE(spec_.grid[dd] == 1 && !spec_.periodic[dd],
                    "halo plan dimensions beyond `dims` cannot be decomposed");
    }
  }
  CLMPI_REQUIRE(expected == comm.size(),
                "halo plan process grid does not cover the communicator");
  CLMPI_REQUIRE(spec_.tag_base >= 0 &&
                    spec_.tag_base + 2 * spec_.dims - 1 <= mpi::max_user_tag,
                "halo plan tag range outside the user tag space");
  padded_ = padded_extents(spec_);
  CLMPI_REQUIRE(field_ != nullptr && field_->size() >= field_bytes(spec_),
                "halo plan field buffer smaller than the padded domain");

  const auto coords = coords_of(comm.rank(), spec_);
  const sys::SystemProfile& profile = runtime.rank().profile();
  const auto rank_at = [&](std::array<int, 3> c) {
    return (c[2] * spec_.grid[1] + c[1]) * spec_.grid[0] + c[0];
  };

  // Resolve every face. Staging segment offsets are derived from the slab
  // geometry alone (NOT from neighbor presence): the layout must be
  // identical on every rank so a put can compute its peer-side landing
  // offset from the local plan.
  std::size_t total = 0;
  std::size_t max_bytes = 0;
  for (int d = 0; d < spec_.dims; ++d) {
    for (int s = 0; s < 2; ++s) {
      EdgeState es;
      es.info.dim = d;
      es.info.side = s;
      const auto dd = static_cast<std::size_t>(d);

      std::array<int, 3> nc = coords;
      nc[dd] += s != 0 ? 1 : -1;
      if (nc[dd] < 0 || nc[dd] >= spec_.grid[dd]) {
        if (spec_.periodic[dd]) {
          nc[dd] = (nc[dd] + spec_.grid[dd]) % spec_.grid[dd];
          es.info.neighbor = rank_at(nc);
        } else {
          es.info.neighbor = -1;  // open boundary: a zero-width edge
        }
      } else {
        es.info.neighbor = rank_at(nc);
      }
      es.info.self = es.info.neighbor == comm.rank();

      es.count = spec_.width;
      for (int o = 0; o < 3; ++o) {
        const auto oo = static_cast<std::size_t>(o);
        es.extent[oo] = o == d ? spec_.width : spec_.interior[oo];
        if (o != d) es.count *= spec_.interior[oo];
        const std::size_t lo = o < spec_.dims ? spec_.width : 0;
        es.send_origin[oo] = lo;
        es.recv_origin[oo] = lo;
      }
      es.send_origin[dd] = s == 0 ? spec_.width : spec_.interior[dd];
      es.recv_origin[dd] = s == 0 ? 0 : spec_.width + spec_.interior[dd];

      es.info.bytes = es.info.neighbor == -1 ? 0 : es.count * spec_.elem_size;
      if (es.info.bytes > 0) {
        CLMPI_REQUIRE(spec_.interior[dd] >= spec_.width,
                      "halo width exceeds the interior extent of a decomposed dimension");
      }
      es.stage_off = total;
      total += es.count * spec_.elem_size;
      max_bytes = std::max(max_bytes, es.info.bytes);
      states_.push_back(std::move(es));
    }
  }
  for (EdgeState& es : states_) es.mirror_off = opposite(es).stage_off;

  send_stage_ = ctx.create_buffer(std::max<std::size_t>(total, 1),
                                  ocl::MemFlags::read_write, "halo.send_stage");
  recv_stage_ = ctx.create_buffer(std::max<std::size_t>(total, 1),
                                  ocl::MemFlags::read_write, "halo.recv_stage");
  program_.define("halo.pack", pack_body, ocl::flops_per_item(2.0));
  program_.define("halo.unpack", unpack_body, ocl::flops_per_item(2.0));

  // Mode selection is a pure function of (profile, geometry): every rank of
  // the plan derives the same answer, which the collective RMA tier needs.
  rma_ = profile.shmem.available && max_bytes > 0 &&
         xfer::select_rma(profile, max_bytes).kind == xfer::StrategyKind::shmem;

  for (EdgeState& es : states_) {
    if (!exchanged(*this, es.info) || es.info.self) continue;
    if (rma_) {
      es.info.strategy =
          xfer::resolve_rma_strategy(profile, comm.faults(),
                                     xfer::select_rma(profile, es.info.bytes))
              .kind;
    } else {
      es.info.strategy =
          xfer::resolve_strategy(profile, comm, es.info.neighbor,
                                 runtime.policy(es.info.bytes))
              .kind;
      // Persistent wire legs (MPI_Send_init / MPI_Recv_init with MPI_CL_MEM):
      // strategy, wire decomposition and envelope headers frozen once, here.
      // A send on edge (d, s) lands in the peer's (d, 1-s) ghost, so the
      // receive tag is the peer's sending-edge tag.
      const int stag = spec_.tag_base + es.info.dim * 2 + es.info.side;
      const int rtag = spec_.tag_base + es.info.dim * 2 + (1 - es.info.side);
      auto sspan = std::span<const std::byte>(send_stage_->storage())
                       .subspan(es.stage_off, es.info.bytes);
      auto rspan = recv_stage_->storage().subspan(es.stage_off, es.info.bytes);
      es.send_preq = runtime.send_init_cl_mem(sspan, es.info.neighbor, stag, comm);
      es.recv_preq = runtime.recv_init_cl_mem(rspan, es.info.neighbor, rtag, comm);
    }
  }
  if (rma_) {
    win_ = runtime.create_window(recv_stage_, 0, std::max<std::size_t>(total, 1), comm);
  }

  edges_.reserve(states_.size());
  for (const EdgeState& es : states_) edges_.push_back(es.info);
}

Plan::~Plan() {
  if (!win_.valid()) return;
  // A destructor must not throw. A free the deadlock verdict fails (a peer
  // that never frees) leaves the window to the cluster teardown; any other
  // failure still ends the process.
  try {
    win_.free(runtime_->rank().clock());
  } catch (const DeadlockError& e) {
    CLMPI_WARN("halo plan: window left to teardown: " << e.what());
  }
}

Plan::EdgeState& Plan::opposite(const EdgeState& es) {
  return states_[static_cast<std::size_t>(es.info.dim * 2 + (1 - es.info.side))];
}

void Plan::enqueue_slab_kernel(ocl::CommandQueue& queue, const char* name, EdgeState& es,
                               const std::array<std::size_t, 3>& origin, bool pack,
                               ocl::WaitList waits, ocl::EventPtr& out) {
  ocl::KernelPtr k = program_.create_kernel(name);
  k->set_arg(0, field_);
  k->set_arg(1, pack ? send_stage_ : recv_stage_);
  k->set_arg(2, static_cast<std::int64_t>(origin[0]));
  k->set_arg(3, static_cast<std::int64_t>(origin[1]));
  k->set_arg(4, static_cast<std::int64_t>(origin[2]));
  k->set_arg(5, static_cast<std::int64_t>(es.extent[0]));
  k->set_arg(6, static_cast<std::int64_t>(es.extent[1]));
  k->set_arg(7, static_cast<std::int64_t>(es.extent[2]));
  k->set_arg(8, static_cast<std::int64_t>(padded_[0]));
  k->set_arg(9, static_cast<std::int64_t>(padded_[1]));
  k->set_arg(10, static_cast<std::int64_t>(spec_.elem_size));
  k->set_arg(11, static_cast<std::int64_t>(es.stage_off));
  out = queue.enqueue_ndrange(k, ocl::NDRange::linear(es.count), waits,
                              runtime_->rank().clock());
}

void Plan::start(ocl::CommandQueue& queue, ocl::WaitList waits) {
  CLMPI_REQUIRE(!started_, "halo plan start() while an epoch is still open");
  started_ = true;
  // The caller's waits also gate this epoch's unpack kernels (in
  // complete()): they declare every reader of the previous ghost values, and
  // the unpacks overwrite those ghosts.
  epoch_waits_.assign(waits.begin(), waits.end());
  vt::Clock& clock = runtime_->rank().clock();
  const auto wire = [&](const EdgeState& es) {
    return exchanged(*this, es.info) && !es.info.self;
  };

  // Anti-dependency: the inbound legs overwrite recv segments the previous
  // epoch's unpack kernels were reading; join them on the host lane first.
  for (EdgeState& es : states_) {
    if (es.prev_unpack) {
      es.prev_unpack->wait(clock);
      es.prev_unpack.reset();
    }
  }

  // Post every inbound wire leg up front (persistent replay), so no peer's
  // send ever stalls on a late receiver.
  if (!rma_) {
    for (EdgeState& es : states_) {
      if (wire(es)) {
        es.recv_ev = runtime_->event_from_request(runtime_->start(es.recv_preq));
      }
    }
  }

  // Pack kernels: gated on the caller's waits plus the last reader of each
  // edge's staging segment (the previous epoch's wire leg or self copy).
  std::vector<ocl::EventPtr> wl;
  for (EdgeState& es : states_) {
    if (!exchanged(*this, es.info)) continue;
    wl.assign(waits.begin(), waits.end());
    if (es.stage_reuse) wl.push_back(std::exchange(es.stage_reuse, nullptr));
    enqueue_slab_kernel(queue, "halo.pack", es, es.send_origin, /*pack=*/true, wl,
                        es.pack_ev);
  }

  // Self edges (periodic wrap with a 1-wide process grid): byte-exact
  // device-local staging copies — never a send-to-self through the mailbox,
  // so they cannot deadlock or double-deliver. The low ghost receives the
  // high face's slab and vice versa.
  for (EdgeState& es : states_) {
    if (!es.info.self || es.info.bytes == 0) continue;
    EdgeState& opp = opposite(es);
    wl.assign(1, opp.pack_ev);
    es.recv_ev = queue.enqueue_copy_buffer(send_stage_, recv_stage_, opp.stage_off,
                                           es.stage_off, es.info.bytes, wl, clock);
    opp.stage_reuse = es.recv_ev;
  }

  // Outbound wire legs, chained on the packs.
  if (rma_) {
    if (!last_fence_) {
      // First epoch: the collective fence opening the access period.
      last_fence_ = runtime_->enqueue_window_fence(queue, win_, /*blocking=*/false, waits);
    }
    for (EdgeState& es : states_) {
      if (!wire(es)) continue;
      wl.assign(1, es.pack_ev);
      wl.push_back(last_fence_);
      es.send_ev = runtime_->enqueue_put_buffer(queue, send_stage_, /*blocking=*/false,
                                                es.stage_off, es.info.bytes,
                                                es.info.neighbor, es.mirror_off, win_, wl);
    }
  } else {
    for (EdgeState& es : states_) {
      if (!wire(es)) continue;
      // The replay posts at the rank's clock and the envelope reads the
      // staging bytes as it goes on the wire, so the pack must have landed
      // (in virtual AND real time) before the start.
      es.pack_ev->wait(clock);
      es.send_ev = runtime_->event_from_request(runtime_->start(es.send_preq));
    }
  }

  // Zero-width edges (open boundaries, or a zero halo width) complete as
  // no-ops with a valid event.
  for (EdgeState& es : states_) {
    if (!exchanged(*this, es.info)) es.recv_ev = queue.enqueue_marker(waits, clock);
  }
}

ocl::EventPtr Plan::complete(ocl::CommandQueue& queue) {
  CLMPI_REQUIRE(started_, "halo plan complete() without a started epoch");
  started_ = false;
  ++epochs_;
  vt::Clock& clock = runtime_->rank().clock();
  const auto wire = [&](const EdgeState& es) {
    return exchanged(*this, es.info) && !es.info.self;
  };

  if (rma_) {
    // The collective fence closing the epoch: every put posted above lands
    // here, and transport faults surface on its event.
    std::vector<ocl::EventPtr> fence_waits;
    for (EdgeState& es : states_) {
      if (wire(es)) fence_waits.push_back(es.send_ev);
    }
    last_fence_ = runtime_->enqueue_window_fence(queue, win_, /*blocking=*/false,
                                                 fence_waits);
  }

  std::vector<ocl::EventPtr> all;
  std::vector<ocl::EventPtr> wl;
  for (EdgeState& es : states_) {
    if (exchanged(*this, es.info)) {
      wl.assign(1, rma_ && !es.info.self ? last_fence_ : es.recv_ev);
      // Write-after-read guard: the unpack overwrites ghost cells the
      // caller's previous-epoch kernels may still be reading; the start()
      // waits name those readers.
      wl.insert(wl.end(), epoch_waits_.begin(), epoch_waits_.end());
      enqueue_slab_kernel(queue, "halo.unpack", es, es.recv_origin, /*pack=*/false, wl,
                          es.prev_unpack);
      all.push_back(es.prev_unpack);
      if (wire(es)) {
        all.push_back(es.send_ev);
        es.stage_reuse = es.send_ev;
      }
    } else {
      all.push_back(es.recv_ev);  // the no-op edge's marker
    }
  }
  return queue.enqueue_marker(all, clock);
}

}  // namespace clmpi::halo
