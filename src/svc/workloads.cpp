#include "svc/workloads.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "apps/himeno/himeno.hpp"
#include "simmpi/datatype.hpp"
#include "support/rng.hpp"
#include "vt/time.hpp"

namespace clmpi::svc {

namespace {

/// Himeno (the paper's §V-C app): the full clMPI runtime path — kernels,
/// staged halo transfers (exercising the staging quota),
/// the dispatcher and queue-worker services. Grid sized down so a job is
/// milliseconds of wall time; `interior` scales with nranks to satisfy the
/// A/B-halving divisibility rule.
void himeno_body(mpi::Rank& rank, const JobSpec& spec) {
  apps::himeno::Config cfg;
  cfg.interior = static_cast<std::size_t>(4 * 2 * spec.nranks);
  cfg.jmax = 16;
  cfg.kmax = 32;
  cfg.iterations = std::max(1, spec.iterations);
  cfg.variant = apps::himeno::Variant::clmpi;
  apps::himeno::run_rank(rank, cfg);
}

/// Ring halo exchange on persistent requests: each rank trades a fixed-size
/// edge with both neighbours (periodic) every iteration, with a compute
/// phase in between — the stencil-app shape without the device layer.
void halo_body(mpi::Rank& rank, const JobSpec& spec) {
  mpi::Comm& comm = rank.world();
  const int n = comm.size();
  const int me = comm.rank();
  const int left = (me + n - 1) % n;
  const int right = (me + 1) % n;
  const std::size_t bytes = 4096;
  std::vector<std::byte> send_l(bytes), send_r(bytes), recv_l(bytes), recv_r(bytes);
  std::memset(send_l.data(), me & 0xff, bytes);
  std::memset(send_r.data(), (me + 1) & 0xff, bytes);

  auto sl = comm.send_init(send_l, left, /*tag=*/10, {});
  auto sr = comm.send_init(send_r, right, /*tag=*/11, {});
  auto rl = comm.recv_init(recv_l, left, /*tag=*/11, {});
  auto rr = comm.recv_init(recv_r, right, /*tag=*/10, {});

  for (int it = 0; it < std::max(1, spec.iterations); ++it) {
    mpi::Request reqs[4] = {rl.start(rank.clock()), rr.start(rank.clock()),
                            sl.start(rank.clock()), sr.start(rank.clock())};
    rank.compute(vt::microseconds(50), "stencil");
    mpi::wait_all({&reqs[0], &reqs[1], &reqs[2], &reqs[3]}, rank.clock());
  }
  comm.barrier(rank.clock());
}

/// Seeded p2p mix, the chaos suite's workload shape: lockstep randomized
/// exchanges between even/odd partner ranks, an allreduce every few rounds.
/// Streams derive from (seed, iteration) alone, so the mix is identical for
/// a fixed spec whatever the co-tenancy.
void chaos_body(mpi::Rank& rank, const JobSpec& spec) {
  mpi::Comm& comm = rank.world();
  const int n = comm.size();
  const int me = comm.rank();
  constexpr std::size_t kMaxMessage = 8192;
  std::vector<std::byte> buf(kMaxMessage);
  std::vector<std::byte> in(kMaxMessage);

  for (int it = 0; it < std::max(1, spec.iterations); ++it) {
    const int partner = (me % 2 == 0) ? me + 1 : me - 1;
    if (partner >= 0 && partner < n) {
      Rng rng(derive_seed(spec.seed, static_cast<std::uint64_t>(it) * 2654435761u));
      const std::size_t size = 1 + rng.below(kMaxMessage);
      const bool even_sends = (rng.next_u64() & 1u) != 0;
      const bool i_send = (me % 2 == 0) == even_sends;
      if (i_send) {
        mpi::Request s =
            comm.isend(std::span(buf).first(size), partner, /*tag=*/it, rank.clock());
        s.wait(rank.clock());
      } else {
        mpi::Request r =
            comm.irecv(std::span(in).first(size), partner, /*tag=*/it, rank.clock());
        r.wait(rank.clock());
      }
    }
    rank.compute(vt::microseconds(20), "chaos");
    if (it % 4 == 3) {
      std::uint64_t mine = static_cast<std::uint64_t>(me) + 1;
      std::uint64_t sum = 0;
      comm.allreduce(std::as_bytes(std::span(&mine, 1)),
                     std::as_writable_bytes(std::span(&sum, 1)), mpi::Datatype::uint64,
                     mpi::ReduceOp::sum, rank.clock());
    }
  }
}

}  // namespace

std::function<void(mpi::Rank&)> make_workload(const JobSpec& spec) {
  switch (spec.kind) {
    case JobKind::himeno:
      return [spec](mpi::Rank& rank) { himeno_body(rank, spec); };
    case JobKind::halo:
      return [spec](mpi::Rank& rank) { halo_body(rank, spec); };
    case JobKind::chaos:
      return [spec](mpi::Rank& rank) { chaos_body(rank, spec); };
  }
  throw Error("unknown job kind", Status::invalid_value);
}

}  // namespace clmpi::svc
