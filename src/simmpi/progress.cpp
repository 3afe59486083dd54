#include "simmpi/progress.hpp"

namespace clmpi::mpi::detail {

ProgressMetrics& progress_metrics() {
  static auto* m = new ProgressMetrics();
  return *m;
}

}  // namespace clmpi::mpi::detail
