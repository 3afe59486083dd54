// Wire decomposition of one logical message, shared by every endpoint kind:
// the device transfer engine, the host endpoints and the clMPI runtime's
// MPI_CL_MEM requests. Both ends of a message must cut it the same way, so
// the cut is written once, here.
#pragma once

#include <cstddef>
#include <vector>

#include "simmpi/comm.hpp"
#include "transfer/strategy.hpp"
#include "vt/time.hpp"

namespace clmpi::xfer::detail {

/// One wire message of a transfer: bytes [offset, offset + size) of the
/// message, carried under `tag` with `opts`.
struct WireBlock {
  std::size_t offset{0};
  std::size_t size{0};
  int tag{0};
  mpi::P2POptions opts;
};

/// The wire messages of a `size`-byte message sent under user tag `tag`. A
/// pipelined strategy cuts pipeline_block_count(size, block) blocks under
/// their pipeline sub-tags with wire_decomp = block; every other strategy
/// carries one full-size message under `tag` with wire_decomp 0. Each block
/// carries `deadline`.
std::vector<WireBlock> wire_blocks(std::size_t size, int tag, const Strategy& strategy,
                                   vt::Duration deadline = {});

}  // namespace clmpi::xfer::detail
