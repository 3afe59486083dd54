// Ablation B — what the automatic strategy selection is worth.
//
// Runs the clMPI Himeno implementation with the strategy *forced* to each of
// the three fixed implementations and compares against the automatic
// per-system policy. This isolates the performance-portability claim: the
// same application binary, moved between systems, only keeps its performance
// because the runtime re-selects the transfer implementation (§V-B).
#include <iostream>
#include <optional>

#include "apps/himeno/himeno.hpp"
#include "ocl/context.hpp"
#include "ocl/platform.hpp"
#include "simmpi/cluster.hpp"
#include "support/table.hpp"
#include "support/units.hpp"
#include "transfer/strategy.hpp"

namespace {

using namespace clmpi;

/// Device-to-device p2p time with a forced strategy at the Himeno halo size.
double p2p_ms(const sys::SystemProfile& prof, std::size_t size,
              std::optional<xfer::Strategy> force) {
  const xfer::Strategy strategy = force.value_or(xfer::select(prof, size));
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
    if (rank.rank() == 0) {
      (void)xfer::send_device(ep, strategy, rank.clock().now());
    } else {
      seconds = xfer::recv_device(ep, strategy, rank.clock().now()).s;
    }
  });
  return seconds * 1e3;
}

}  // namespace

int main() {
  using namespace clmpi;
  constexpr std::size_t halo = 768_KiB;  // the M-class halo plane

  std::cout << "Ablation B: transfer time for the " << format_bytes(halo)
            << " Himeno halo [ms], fixed strategy vs automatic selection\n\n";
  Table t({"system", "pinned", "mapped", "pipelined(128K)", "pipelined(1M)", "auto",
           "auto picks"});
  for (const auto* prof : {&sys::cichlid(), &sys::ricc()}) {
    const auto choice = xfer::select(*prof, halo);
    std::string picked = xfer::to_string(choice.kind);
    if (choice.kind == xfer::StrategyKind::pipelined)
      picked += "(" + format_bytes(choice.block) + ")";
    t.add_row({prof->name, fmt(p2p_ms(*prof, halo, xfer::Strategy::pinned()), 2),
               fmt(p2p_ms(*prof, halo, xfer::Strategy::mapped()), 2),
               fmt(p2p_ms(*prof, halo, xfer::Strategy::pipelined(128_KiB)), 2),
               fmt(p2p_ms(*prof, halo, xfer::Strategy::pipelined(1_MiB)), 2),
               fmt(p2p_ms(*prof, halo, std::nullopt), 2), picked});
  }
  std::cout << t.str() << '\n';

  std::cout << "End-to-end effect (Himeno M, clMPI implementation, forced strategies)\n\n";
  Table h({"system", "nodes", "forced pinned", "forced mapped", "forced pipelined(128K)",
           "auto [GFLOPS]"});
  struct Case {
    const sys::SystemProfile* prof;
    int nodes;
  };
  for (const Case& c : {Case{&sys::cichlid(), 4}, Case{&sys::ricc(), 8}}) {
    apps::himeno::Config cfg = apps::himeno::Config::size_m();
    cfg.iterations = 4;
    cfg.variant = apps::himeno::Variant::clmpi;
    std::vector<std::string> row{c.prof->name, std::to_string(c.nodes)};
    for (auto force :
         {std::optional<xfer::Strategy>(xfer::Strategy::pinned()),
          std::optional<xfer::Strategy>(xfer::Strategy::mapped()),
          std::optional<xfer::Strategy>(xfer::Strategy::pipelined(128_KiB)),
          std::optional<xfer::Strategy>()}) {
      cfg.forced_strategy = force;
      const auto run = apps::himeno::run_cluster(*c.prof, c.nodes, cfg);
      row.push_back(fmt(run.gflops, 2));
    }
    h.add_row(std::move(row));
  }
  std::cout << h.str() << '\n';
  std::cout << "Expected shape: no single fixed strategy wins on both systems; the auto\n"
               "column matches the best fixed choice on each — that is the paper's\n"
               "performance-portability argument.\n";
  return 0;
}
