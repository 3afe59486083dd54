// Collective operations, built entirely on the point-to-point layer so their
// virtual-time behaviour (tree depth, NIC contention) emerges from the same
// model as user communication.
//
// Blocking collectives are what the paper's clMPI deliberately leaves to
// plain MPI (§IV-C). The non-blocking variants (MPI-3.0) are the future-work
// item of §VI: a progression thread runs the same algorithm off the host
// thread, and clCreateEventFromMPIRequest chains OpenCL commands on them.
//
// Every collective instance stamps a per-communicator sequence number into
// its internal tags, so outstanding non-blocking collectives — issued in the
// same order on every rank, as MPI requires — never cross-match.
#include <algorithm>
#include <cstring>
#include <vector>

#include "simmpi/cluster_core.hpp"
#include "simmpi/comm.hpp"
#include "support/error.hpp"
#include "support/sched.hpp"

namespace clmpi::mpi {

namespace {

// Operation ids keep collective traffic in its reserved tag space and
// disjoint between collective kinds.
enum OpId : int {
  kBarrier = 0,
  kBcast,
  kReduce,
  kGather,
  kScatter,
  kAlltoall,
};

int ctag(OpId op, int seq, int round = 0) { return detail::collective_tag(op, seq, round); }

template <typename T>
void combine_typed(std::span<std::byte> acc, std::span<const std::byte> in, ReduceOp op) {
  CLMPI_REQUIRE(acc.size() == in.size() && acc.size() % sizeof(T) == 0,
                "reduce buffers must be equal-sized multiples of the element size");
  auto* a = reinterpret_cast<T*>(acc.data());
  const auto* b = reinterpret_cast<const T*>(in.data());
  const std::size_t n = acc.size() / sizeof(T);
  for (std::size_t i = 0; i < n; ++i) {
    switch (op) {
      case ReduceOp::sum: a[i] = static_cast<T>(a[i] + b[i]); break;
      case ReduceOp::prod: a[i] = static_cast<T>(a[i] * b[i]); break;
      case ReduceOp::min: a[i] = std::min(a[i], b[i]); break;
      case ReduceOp::max: a[i] = std::max(a[i], b[i]); break;
    }
  }
}

}  // namespace

void combine(std::span<std::byte> acc, std::span<const std::byte> in, Datatype dt,
             ReduceOp op) {
  switch (dt) {
    case Datatype::byte:
    case Datatype::cl_mem: combine_typed<unsigned char>(acc, in, op); break;
    case Datatype::int32: combine_typed<std::int32_t>(acc, in, op); break;
    case Datatype::int64: combine_typed<std::int64_t>(acc, in, op); break;
    case Datatype::uint64: combine_typed<std::uint64_t>(acc, in, op); break;
    case Datatype::float32: combine_typed<float>(acc, in, op); break;
    case Datatype::float64: combine_typed<double>(acc, in, op); break;
  }
}

// --- sequence-stamped algorithm bodies ----------------------------------------

void Comm::barrier_seq(int seq, vt::Clock& clock) {
  // Dissemination barrier: ceil(log2(n)) rounds of 0-byte exchanges.
  const int n = size();
  std::byte token{};
  for (int mask = 1, round = 0; mask < n; mask <<= 1, ++round) {
    const int dst = (my_rank_ + mask) % n;
    const int src = (my_rank_ - mask + n) % n;
    sendrecv({}, dst, ctag(kBarrier, seq, round), std::span(&token, 0), src,
             ctag(kBarrier, seq, round), clock);
  }
}

void Comm::bcast_seq(std::span<std::byte> data, int root, int seq, vt::Clock& clock) {
  // Binomial tree (the MPICH classic).
  const int n = size();
  check_peer(root, /*allow_any=*/false);
  if (n == 1) return;
  const int relative = (my_rank_ - root + n) % n;

  int mask = 1;
  while (mask < n) {
    if ((relative & mask) != 0) {
      const int src = (relative - mask + root + n) % n;
      recv(data, src, ctag(kBcast, seq), clock);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  std::vector<Request> pending;
  while (mask > 0) {
    if (relative + mask < n) {
      const int dst = (relative + mask + root) % n;
      pending.push_back(isend(data, dst, ctag(kBcast, seq), clock));
    }
    mask >>= 1;
  }
  wait_all(std::span(pending), clock);
}

void Comm::reduce_seq(std::span<const std::byte> send_data, std::span<std::byte> recv_data,
                      Datatype dt, ReduceOp op, int root, int seq, vt::Clock& clock) {
  const int n = size();
  check_peer(root, /*allow_any=*/false);
  const int relative = (my_rank_ - root + n) % n;

  std::vector<std::byte> acc(send_data.begin(), send_data.end());
  std::vector<std::byte> incoming(send_data.size());

  for (int mask = 1; mask < n; mask <<= 1) {
    if ((relative & mask) == 0) {
      const int peer_rel = relative | mask;
      if (peer_rel < n) {
        const int peer = (peer_rel + root) % n;
        recv(incoming, peer, ctag(kReduce, seq), clock);
        combine(acc, incoming, dt, op);
      }
    } else {
      const int peer = ((relative & ~mask) + root) % n;
      send(acc, peer, ctag(kReduce, seq), clock);
      break;
    }
  }
  if (my_rank_ == root) {
    CLMPI_REQUIRE(recv_data.size() >= acc.size(), "reduce: result buffer too small");
    std::memcpy(recv_data.data(), acc.data(), acc.size());
  }
}

void Comm::gather_seq(std::span<const std::byte> send_data, std::span<std::byte> recv_data,
                      int root, int seq, vt::Clock& clock) {
  const int n = size();
  check_peer(root, /*allow_any=*/false);
  const std::size_t chunk = send_data.size();
  if (my_rank_ != root) {
    send(send_data, root, ctag(kGather, seq), clock);
    return;
  }
  CLMPI_REQUIRE(recv_data.size() >= chunk * static_cast<std::size_t>(n),
                "gather: result buffer too small");
  std::vector<Request> pending;
  for (int r = 0; r < n; ++r) {
    auto slot = recv_data.subspan(static_cast<std::size_t>(r) * chunk, chunk);
    if (r == my_rank_) {
      if (chunk > 0) std::memcpy(slot.data(), send_data.data(), chunk);
    } else {
      pending.push_back(irecv(slot, r, ctag(kGather, seq), clock));
    }
  }
  wait_all(std::span(pending), clock);
}

void Comm::scatter_seq(std::span<const std::byte> send_data, std::span<std::byte> recv_data,
                       int root, int seq, vt::Clock& clock) {
  const int n = size();
  check_peer(root, /*allow_any=*/false);
  const std::size_t chunk = recv_data.size();
  if (my_rank_ != root) {
    recv(recv_data, root, ctag(kScatter, seq), clock);
    return;
  }
  CLMPI_REQUIRE(send_data.size() >= chunk * static_cast<std::size_t>(n),
                "scatter: source buffer too small");
  std::vector<Request> pending;
  for (int r = 0; r < n; ++r) {
    auto slot = send_data.subspan(static_cast<std::size_t>(r) * chunk, chunk);
    if (r == my_rank_) {
      if (chunk > 0) std::memcpy(recv_data.data(), slot.data(), chunk);
    } else {
      pending.push_back(isend(slot, r, ctag(kScatter, seq), clock));
    }
  }
  wait_all(std::span(pending), clock);
}

void Comm::alltoall_seq(std::span<const std::byte> send_data,
                        std::span<std::byte> recv_data, int seq, vt::Clock& clock) {
  const int n = size();
  CLMPI_REQUIRE(send_data.size() % static_cast<std::size_t>(n) == 0 &&
                    recv_data.size() % static_cast<std::size_t>(n) == 0,
                "alltoall: buffers must be divisible by the comm size");
  const std::size_t chunk = send_data.size() / static_cast<std::size_t>(n);
  CLMPI_REQUIRE(recv_data.size() / static_cast<std::size_t>(n) == chunk,
                "alltoall: send/recv chunk mismatch");

  std::vector<Request> pending;
  for (int r = 0; r < n; ++r) {
    auto in = recv_data.subspan(static_cast<std::size_t>(r) * chunk, chunk);
    auto out = send_data.subspan(static_cast<std::size_t>(r) * chunk, chunk);
    if (r == my_rank_) {
      if (chunk > 0) std::memcpy(in.data(), out.data(), chunk);
    } else {
      pending.push_back(irecv(in, r, ctag(kAlltoall, seq), clock));
      pending.push_back(isend(out, r, ctag(kAlltoall, seq), clock));
    }
  }
  wait_all(std::span(pending), clock);
}

// --- blocking entry points ------------------------------------------------------

void Comm::barrier(vt::Clock& clock) { barrier_seq(take_coll_seq(), clock); }

void Comm::bcast(std::span<std::byte> data, int root, vt::Clock& clock) {
  bcast_seq(data, root, take_coll_seq(), clock);
}

void Comm::reduce(std::span<const std::byte> send_data, std::span<std::byte> recv_data,
                  Datatype dt, ReduceOp op, int root, vt::Clock& clock) {
  reduce_seq(send_data, recv_data, dt, op, root, take_coll_seq(), clock);
}

void Comm::allreduce(std::span<const std::byte> send_data, std::span<std::byte> recv_data,
                     Datatype dt, ReduceOp op, vt::Clock& clock) {
  const int seq_reduce = take_coll_seq();
  const int seq_bcast = take_coll_seq();
  reduce_seq(send_data, recv_data, dt, op, 0, seq_reduce, clock);
  bcast_seq(recv_data, 0, seq_bcast, clock);
}

void Comm::gather(std::span<const std::byte> send_data, std::span<std::byte> recv_data,
                  int root, vt::Clock& clock) {
  gather_seq(send_data, recv_data, root, take_coll_seq(), clock);
}

void Comm::allgather(std::span<const std::byte> send_data, std::span<std::byte> recv_data,
                     vt::Clock& clock) {
  const int seq_gather = take_coll_seq();
  const int seq_bcast = take_coll_seq();
  gather_seq(send_data, recv_data, 0, seq_gather, clock);
  bcast_seq(recv_data, 0, seq_bcast, clock);
}

void Comm::scatter(std::span<const std::byte> send_data, std::span<std::byte> recv_data,
                   int root, vt::Clock& clock) {
  scatter_seq(send_data, recv_data, root, take_coll_seq(), clock);
}

void Comm::alltoall(std::span<const std::byte> send_data, std::span<std::byte> recv_data,
                    vt::Clock& clock) {
  alltoall_seq(send_data, recv_data, take_coll_seq(), clock);
}

// --- non-blocking entry points -----------------------------------------------------

Request Comm::spawn_collective(vt::Clock& clock,
                               std::function<void(Comm&, vt::Clock&)> body) {
  auto state = detail::make_request_state();
  const vt::TimePoint start = clock.now();
  // The progression task (a fiber on the caller's strand) works on its own
  // Comm copy and private clock, starting at the issue time. Cluster::run
  // joins it before tear-down.
  core_->register_aux_service(sched::spawn_service(
      "coll-progress", [state, self = *this, start, body = std::move(body)]() mutable {
        vt::Clock private_clock(start);
        try {
          body(self, private_clock);
          state->complete(private_clock.now(), MsgStatus{});
        } catch (...) {
          state->fail(private_clock.now(), std::current_exception());
        }
      }));
  return Request(std::move(state));
}

Request Comm::ibarrier(vt::Clock& clock) {
  const int seq = take_coll_seq();
  return spawn_collective(
      clock, [seq](Comm& self, vt::Clock& c) { self.barrier_seq(seq, c); });
}

Request Comm::ibcast(std::span<std::byte> data, int root, vt::Clock& clock) {
  const int seq = take_coll_seq();
  return spawn_collective(clock, [data, root, seq](Comm& self, vt::Clock& c) {
    self.bcast_seq(data, root, seq, c);
  });
}

Request Comm::iallreduce(std::span<const std::byte> send_data,
                         std::span<std::byte> recv_data, Datatype dt, ReduceOp op,
                         vt::Clock& clock) {
  const int seq_reduce = take_coll_seq();
  const int seq_bcast = take_coll_seq();
  return spawn_collective(
      clock, [send_data, recv_data, dt, op, seq_reduce, seq_bcast](Comm& self,
                                                                   vt::Clock& c) {
        self.reduce_seq(send_data, recv_data, dt, op, 0, seq_reduce, c);
        self.bcast_seq(recv_data, 0, seq_bcast, c);
      });
}

Request Comm::igather(std::span<const std::byte> send_data, std::span<std::byte> recv_data,
                      int root, vt::Clock& clock) {
  const int seq = take_coll_seq();
  return spawn_collective(clock,
                          [send_data, recv_data, root, seq](Comm& self, vt::Clock& c) {
                            self.gather_seq(send_data, recv_data, root, seq, c);
                          });
}

}  // namespace clmpi::mpi
