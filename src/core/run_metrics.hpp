#pragma once
// Run-level registry instruments (DESIGN.md §10) and the thread-count
// default shared by the iteration driver (sched/run_batch.cpp) and the
// engines outside it (incremental, mixed).  Header-only because sched
// sits below core in the link order.

#ifdef _OPENMP
#include <omp.h>
#endif

#include "obs/metrics.hpp"

namespace fascia::detail {

inline const obs::Metric& colorings_metric() {
  static const obs::Metric m("count.colorings",
                             obs::InstrumentKind::kCounter);
  return m;
}
inline const obs::Metric& iteration_seconds_metric() {
  static const obs::Metric m("run.iteration.seconds",
                             obs::InstrumentKind::kTimeHistogram);
  return m;
}
inline const obs::Metric& run_seconds_metric() {
  static const obs::Metric m("run.seconds",
                             obs::InstrumentKind::kTimeHistogram);
  return m;
}
inline const obs::Metric& peak_bytes_metric() {
  static const obs::Metric m("run.peak_table_bytes",
                             obs::InstrumentKind::kGauge);
  return m;
}

/// Thread pool size for a run: `requested`, or the OpenMP default
/// when it is 0; always 1 without OpenMP.
inline int resolve_threads(int requested) {
#ifdef _OPENMP
  return requested > 0 ? requested : omp_get_max_threads();
#else
  (void)requested;
  return 1;
#endif
}

}  // namespace fascia::detail
