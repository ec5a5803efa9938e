#include "sched/thread_layout.hpp"

#include <algorithm>
#include <string>

#include "core/run_metrics.hpp"
#include "util/error.hpp"

namespace fascia {

ThreadLayout resolve_layout(int outer_copies, int threads) {
  if (outer_copies < 0) {
    throw usage_error("outer_copies must be >= 0 (0 = one per thread), got " +
                      std::to_string(outer_copies));
  }
  const int pool = detail::resolve_threads(threads);
  ThreadLayout layout;
  layout.outer_copies = outer_copies == 0 ? pool : std::min(outer_copies, pool);
  layout.inner_threads = std::max(1, pool / layout.outer_copies);
  return layout;
}

}  // namespace fascia
