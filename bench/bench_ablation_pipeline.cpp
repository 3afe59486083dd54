// Ablation A — pipeline block size sweep.
//
// Quantifies the Figure 8(b) observation that the optimal pipeline block
// grows with the message size, and validates the runtime's block-size
// heuristic (xfer::default_pipeline_block) against an exhaustive sweep.
#include <iostream>
#include <vector>

#include "ocl/context.hpp"
#include "ocl/platform.hpp"
#include "simmpi/cluster.hpp"
#include "support/table.hpp"
#include "support/units.hpp"
#include "transfer/strategy.hpp"

namespace {

using namespace clmpi;

double measure(const sys::SystemProfile& prof, std::size_t size, std::size_t block) {
  double seconds = 0.0;
  mpi::Cluster::Options opt;
  opt.nranks = 2;
  opt.profile = &prof;
  mpi::Cluster::run(opt, [&](mpi::Rank& rank) {
    ocl::Platform platform(prof, rank.rank(), nullptr);
    ocl::Context ctx(platform.device());
    ocl::BufferPtr buf = ctx.create_buffer(size);
    xfer::DeviceEndpoint ep{&rank.world(), &platform.device(), buf.get(), 0, size,
                            1 - rank.rank(), 1};
    const auto strategy = xfer::Strategy::pipelined(std::min(block, size));
    if (rank.rank() == 0) {
      (void)xfer::send_device(ep, strategy, rank.clock().now());
    } else {
      seconds = xfer::recv_device(ep, strategy, rank.clock().now()).s;
    }
  });
  return static_cast<double>(size) / seconds / 1e6;
}

}  // namespace

int main() {
  using namespace clmpi;
  const auto& prof = sys::ricc();
  const std::vector<std::size_t> blocks{64_KiB, 256_KiB, 1_MiB, 4_MiB, 16_MiB};

  std::cout << "Ablation A: pipelined bandwidth [MB/s] vs block size on " << prof.name
            << "\n\n";
  std::vector<std::string> headers{"message"};
  for (std::size_t b : blocks) headers.push_back("blk " + format_bytes(b));
  headers.push_back("best block");
  headers.push_back("heuristic");
  Table t(std::move(headers));

  for (std::size_t size : {256_KiB, 1_MiB, 4_MiB, 16_MiB, 64_MiB, 256_MiB}) {
    std::vector<std::string> row{format_bytes(size)};
    double best = 0.0;
    std::size_t best_block = 0;
    for (std::size_t b : blocks) {
      const double bw = measure(prof, size, b);
      row.push_back(fmt(bw, 0));
      if (bw > best) {
        best = bw;
        best_block = std::min(b, size);
      }
    }
    row.push_back(format_bytes(best_block));
    row.push_back(format_bytes(xfer::default_pipeline_block(size)));
    t.add_row(std::move(row));
  }
  std::cout << t.str() << '\n';
  std::cout << "Expected shape: the best block (argmax across a row) grows with the\n"
               "message size; the heuristic column tracks it within one power of two.\n";
  return 0;
}
